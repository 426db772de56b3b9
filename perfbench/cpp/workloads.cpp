#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "analysis/engine.hpp"
#include "arch/serialize.hpp"
#include "arch/validate.hpp"
#include "minijson.hpp"
#include "model/paper_reference.hpp"
#include "model/signatures.hpp"
#include "model/sweep.hpp"

namespace perfbench {

using namespace rvhpc;
using model::Kernel;
using model::ProblemClass;

namespace {

constexpr Kernel kNpb[] = {Kernel::IS, Kernel::MG, Kernel::EP, Kernel::CG,
                           Kernel::FT, Kernel::BT, Kernel::LU, Kernel::SP};
constexpr ProblemClass kClasses[] = {ProblemClass::S, ProblemClass::W,
                                     ProblemClass::A, ProblemClass::B,
                                     ProblemClass::C};

/// Registry machines plus the topology machines (sg2042-dual,
/// sg2044-dual, montecimone-v3), which exercise topo::cross_traffic.
std::vector<arch::MachineId> served_machines() {
  std::vector<arch::MachineId> ids = arch::all_machines();
  for (arch::MachineId id : arch::topo_machines()) ids.push_back(id);
  return ids;
}

/// Rounds `v` to `decimals` places through its decimal text, so the value
/// is exactly what strtod makes of that text.
double round_text(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return std::strtod(buf, nullptr);
}

bool lint_clean(const arch::MachineModel& m) {
  return arch::validate(m).empty() && !analysis::lint_machine(m).has_errors();
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "hot-http") return Workload::HotHttp;
  if (name == "interval-miss-tcp") return Workload::IntervalMissTcp;
  if (name == "inline-stdio") return Workload::InlineStdio;
  return std::nullopt;
}

const char* name_of(Workload w) {
  switch (w) {
    case Workload::HotHttp: return "hot-http";
    case Workload::IntervalMissTcp: return "interval-miss-tcp";
    case Workload::InlineStdio: return "inline-stdio";
  }
  return "?";
}

arch::MachineModel perturbed_model(const InlineMachine& im) {
  arch::MachineModel m = arch::machine(im.base);
  m.name += "-p" + std::to_string(im.serial);
  m.core.clock_ghz = im.clock_ghz;
  m.memory.channel_bw_gbs = im.channel_bw_gbs;
  m.memory.idle_latency_ns = im.idle_latency_ns;
  return m;
}

std::string machine_text(const InlineMachine& im) {
  return arch::to_text(perturbed_model(im));
}

Resolved resolve(const Spec& s) {
  Resolved r;
  r.machine = s.inline_machine ? arch::from_text(machine_text(*s.inline_machine))
                               : arch::machine(s.machine);
  r.sig = model::signature(s.kernel, s.cls);
  r.cfg = model::paper_run_config(r.machine, s.kernel, s.cores);
  if (s.compiler) r.cfg.compiler.id = *s.compiler;
  if (s.vectorise) r.cfg.compiler.vectorise = *s.vectorise;
  if (s.placement) r.cfg.placement = *s.placement;
  r.backend = s.backend;
  return r;
}

std::uint64_t key_of(const Resolved& r) {
  return engine::PredictionRequest(r.machine, r.sig, r.cfg, "", r.backend).key();
}

std::string request_line(const Spec& s, std::string_view id) {
  std::string out = "{\"id\": " + minijson::quote(id);
  if (s.inline_machine) {
    out += ", \"machine_text\": " + minijson::quote(machine_text(*s.inline_machine));
  } else {
    out += ", \"machine\": " + minijson::quote(arch::name_of(s.machine));
  }
  out += ", \"kernel\": " + minijson::quote(model::to_string(s.kernel));
  out += ", \"class\": " + minijson::quote(model::to_string(s.cls));
  out += ", \"cores\": " + std::to_string(s.cores);
  if (s.compiler) out += ", \"compiler\": " + minijson::quote(model::to_string(*s.compiler));
  if (s.vectorise) out += std::string(", \"vectorise\": ") + (*s.vectorise ? "true" : "false");
  if (s.placement) out += ", \"placement\": " + minijson::quote(model::to_string(*s.placement));
  if (s.backend != engine::Backend::Analytic) {
    out += ", \"backend\": " + minijson::quote(engine::to_string(s.backend));
  }
  out += "}";
  return out;
}

std::string http_post(std::string_view line) {
  std::string out =
      "POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: ";
  out += std::to_string(line.size() + 1);
  out += "\r\n\r\n";
  out += line;
  out += '\n';
  return out;
}

std::vector<Spec> hot_set() {
  using arch::MachineId;
  std::vector<Spec> out;
  const auto cell = [&](MachineId m, Kernel k, ProblemClass c, int cores,
                        double paper, std::string label) {
    Spec s;
    s.machine = m;
    s.kernel = k;
    s.cls = c;
    s.cores = cores;
    s.paper_mops = paper;
    s.paper_cell = std::move(label);
    out.push_back(std::move(s));
    return &out.back();
  };
  for (const auto& row : model::paper::table2()) {
    if (!row.mops) continue;  // DNR: no published Mop/s
    cell(row.machine, row.kernel, ProblemClass::B, 1, *row.mops,
         "T2 " + model::to_string(row.kernel) + " " + arch::name_of(row.machine));
  }
  for (const auto* table : {&model::paper::table3_single_core(),
                            &model::paper::table4_64_cores()}) {
    const bool t3 = table == &model::paper::table3_single_core();
    const int cores = t3 ? 1 : 64;
    const std::string tag = t3 ? "T3 " : "T4 ";
    for (const auto& row : *table) {
      const std::string k = model::to_string(row.kernel);
      cell(MachineId::Sg2044, row.kernel, ProblemClass::C, cores, row.sg2044_mops,
           tag + k + " sg2044 " + std::to_string(cores) + "c");
      cell(MachineId::Sg2042, row.kernel, ProblemClass::C, cores, row.sg2042_mops,
           tag + k + " sg2042 " + std::to_string(cores) + "c");
    }
  }
  for (const auto* table : {&model::paper::table7_single_core(),
                            &model::paper::table8_64_cores()}) {
    const bool t7 = table == &model::paper::table7_single_core();
    const int cores = t7 ? 1 : 64;
    const std::string tag = t7 ? "T7 " : "T8 ";
    for (const auto& row : *table) {
      const std::string k = model::to_string(row.kernel);
      const struct {
        model::CompilerId id;
        bool vec;
        double paper;
        const char* label;
      } variants[] = {{model::CompilerId::Gcc12_3_1, true, row.gcc12, " gcc12"},
                      {model::CompilerId::Gcc15_2, true, row.gcc15_vector, " gcc15+vec"},
                      {model::CompilerId::Gcc15_2, false, row.gcc15_scalar, " gcc15-novec"}};
      for (const auto& v : variants) {
        Spec* s = cell(MachineId::Sg2044, row.kernel, ProblemClass::C, cores, v.paper,
                       tag + k + v.label);
        s->compiler = v.id;
        s->vectorise = v.vec;
      }
    }
  }
  // Figures 2-6: class C OpenMP scaling of IS, MG, EP, CG and FT across
  // the five section-5 machines, at every power-of-two core count.
  for (Kernel k : {Kernel::IS, Kernel::MG, Kernel::EP, Kernel::CG, Kernel::FT}) {
    for (MachineId id : arch::hpc_machines()) {
      for (int cores : model::power_of_two_cores(arch::machine(id).cores)) {
        cell(id, k, ProblemClass::C, cores, 0.0, "");
      }
    }
  }
  return out;
}

std::vector<Spec> prepared_cache_specs(std::size_t entries) {
  std::vector<Spec> out;
  std::set<std::uint64_t> keys;
  std::vector<Spec> hot;
  for (Spec& s : hot_set()) {
    if (keys.insert(key_of(resolve(s))).second) hot.push_back(std::move(s));
  }
  if (hot.size() > entries) throw std::invalid_argument("hot set exceeds the cache");
  // Seeded analytic filler: any core count, placement and vectorisation,
  // so the restored cache is full and inserts evict.  The seed is fixed:
  // the prepared file is one per build, not one per run.
  std::mt19937_64 rng(0x9e3779b97f4a7c15ULL);
  const std::vector<arch::MachineId> machines = served_machines();
  const model::ThreadPlacement placements[] = {model::ThreadPlacement::OsDefault,
                                               model::ThreadPlacement::Spread,
                                               model::ThreadPlacement::Close};
  while (out.size() + hot.size() < entries) {
    Spec s;
    s.machine = machines[rng() % machines.size()];
    s.kernel = kNpb[rng() % std::size(kNpb)];
    s.cls = kClasses[rng() % std::size(kClasses)];
    s.cores = 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                            arch::machine(s.machine).cores));
    s.placement = placements[rng() % 3];
    s.vectorise = (rng() & 1) != 0;
    if (keys.insert(key_of(resolve(s))).second) out.push_back(std::move(s));
  }
  // The hot set last: the most recently used entries of the snapshot.
  for (Spec& s : hot) out.push_back(std::move(s));
  return out;
}

// --- streams ---------------------------------------------------------------

namespace {

/// Interval-miss rounds: override r of the 42 (placement x vectorise x
/// paper or one of six other compilers) makes round r's keys distinct
/// from every other round's.
constexpr std::uint32_t kIntervalRounds = 42;

}  // namespace

Stream::Stream(Workload w, std::uint64_t seed)
    : workload_(w), rng_(seed * 0x2545F4914F6CDD1DULL + 17) {
  switch (w) {
    case Workload::HotHttp:
      specs_ = hot_set();
      hot_count_ = specs_.size();
      round_size_ = hot_count_;
      break;
    case Workload::IntervalMissTcp:
      for (arch::MachineId id : served_machines()) {
        const std::vector<int> pw = model::power_of_two_cores(arch::machine(id).cores);
        std::set<int> cores = {pw.front(), pw[pw.size() / 2], pw.back()};
        for (Kernel k : kNpb) {
          for (ProblemClass c : {ProblemClass::A, ProblemClass::B, ProblemClass::C}) {
            for (int n : cores) {
              Spec s;
              s.machine = id;
              s.kernel = k;
              s.cls = c;
              s.cores = n;
              s.backend = engine::Backend::Interval;
              grid_.push_back(s);
            }
          }
        }
      }
      round_size_ = grid_.size();
      break;
    case Workload::InlineStdio:
      round_size_ = served_machines().size() + kRepeatsPerRound;
      break;
  }
}

void Stream::add_round() {
  const std::uint32_t r = rounds_++;
  round_.clear();
  cursor_ = 0;
  switch (workload_) {
    case Workload::HotHttp:
      for (std::uint32_t i = 0; i < hot_count_; ++i) round_.emplace_back(i, true);
      std::shuffle(round_.begin(), round_.end(), rng_);
      break;
    case Workload::IntervalMissTcp: {
      std::vector<Spec> round = grid_;
      std::shuffle(round.begin(), round.end(), rng_);
      const model::ThreadPlacement placements[] = {model::ThreadPlacement::OsDefault,
                                                   model::ThreadPlacement::Spread,
                                                   model::ThreadPlacement::Close};
      const model::CompilerId compilers[] = {
          model::CompilerId::Gcc15_2,       model::CompilerId::Gcc12_3_1,
          model::CompilerId::Gcc11_2,       model::CompilerId::Gcc9_2,
          model::CompilerId::Gcc8_4,        model::CompilerId::XuanTieGcc8_4,
          model::CompilerId::Clang17};
      for (Spec& s : round) {
        const model::RunConfig paper =
            model::paper_run_config(arch::machine(s.machine), s.kernel, s.cores);
        if (r % 3 != 0) s.placement = placements[r % 3];
        if ((r / 3) % 2 == 1) s.vectorise = !paper.compiler.vectorise;
        if (r / 6 > 0) {
          // The (r/6)-th compiler other than the machine's paper default.
          std::size_t nth = r / 6;
          for (model::CompilerId c : compilers) {
            if (c != paper.compiler.id && --nth == 0) s.compiler = c;
          }
        }
        round_.emplace_back(static_cast<std::uint32_t>(specs_.size()), false);
        specs_.push_back(std::move(s));
      }
      break;
    }
    case Workload::InlineStdio: {
      std::vector<arch::MachineId> bases = served_machines();
      std::shuffle(bases.begin(), bases.end(), rng_);
      for (arch::MachineId base : bases) {
        const std::uint32_t spec = add_inline_machine(base);
        fresh_.push_back(spec);
        round_.emplace_back(spec, false);
      }
      // Repeats of recent new machines: resident in the LRU, so they hit.
      const std::size_t window = std::min<std::size_t>(fresh_.size(), 512);
      for (std::size_t i = 0; i < kRepeatsPerRound; ++i) {
        round_.emplace_back(fresh_[fresh_.size() - 1 - rng_() % window], true);
      }
      break;
    }
  }
}

std::uint32_t Stream::add_inline_machine(arch::MachineId base_id) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const arch::MachineModel& base = arch::machine(base_id);
  Spec s;
  s.machine = base_id;
  s.kernel = kNpb[rng_() % std::size(kNpb)];
  s.cls = kClasses[rng_() % std::size(kClasses)];
  const std::vector<int> cores = model::power_of_two_cores(base.cores);
  s.cores = cores[rng_() % cores.size()];
  InlineMachine im;
  im.base = base_id;
  im.serial = static_cast<std::uint32_t>(specs_.size());
  // Redraw until the perturbation is lint-clean: the program must admit
  // every line, so a rejection would be the program's fault alone.
  for (int attempt = 0;; ++attempt) {
    if (attempt == 100) throw std::runtime_error("no lint-clean perturbation");
    im.clock_ghz = round_text(base.core.clock_ghz * (0.9 + 0.2 * unit(rng_)), 4);
    im.channel_bw_gbs = round_text(base.memory.channel_bw_gbs * (0.85 + 0.15 * unit(rng_)), 4);
    im.idle_latency_ns = round_text(base.memory.idle_latency_ns * (0.9 + 0.2 * unit(rng_)), 2);
    if (lint_clean(perturbed_model(im))) break;
  }
  s.inline_machine = im;
  specs_.push_back(std::move(s));
  return static_cast<std::uint32_t>(specs_.size() - 1);
}

std::optional<Request> Stream::next() {
  if (cursor_ == round_.size()) {
    if (workload_ == Workload::IntervalMissTcp && rounds_ == kIntervalRounds) {
      return std::nullopt;
    }
    add_round();
  }
  Request r;
  r.seq = seq_++;
  r.round = rounds_ - 1;
  r.spec = round_[cursor_].first;
  r.expect_hit = round_[cursor_].second;
  r.last_in_round = ++cursor_ == round_.size();
  return r;
}

std::string Stream::id(const Request& r) const {
  std::string id(1, workload_ == Workload::HotHttp           ? 'h'
                    : workload_ == Workload::IntervalMissTcp ? 'i'
                                                             : 's');
  id += std::to_string(r.seq);
  return id;
}

std::string Stream::line(const Request& r) const {
  return request_line(specs_[r.spec], id(r));
}

std::string Stream::wire(const Request& r) const {
  std::string l = line(r);
  if (workload_ == Workload::HotHttp) return http_post(l);
  l += '\n';
  return l;
}

}  // namespace perfbench
