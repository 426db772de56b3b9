#include "check.hpp"

#include <atomic>
#include <cmath>
#include <thread>

#include "engine/backend.hpp"
#include "minijson.hpp"

namespace perfbench {

using namespace rvhpc;
using minijson::Value;

Checker::Expected Checker::evaluate(const Spec& s) {
  const Resolved r = resolve(s);
  const model::Prediction p =
      engine::backend_for(r.backend).predict(r.machine, r.sig, r.cfg);
  Expected e;
  e.ran = p.ran;
  e.dnr_reason = p.dnr_reason;
  e.seconds = p.seconds;
  e.mops = p.mops;
  e.bw_gbs = p.achieved_bw_gbs;
  e.bottleneck = model::to_string(p.breakdown.dominant);
  e.vectorised = p.vector.vectorised;
  e.machine = r.machine.name;
  e.total_mop = r.sig.total_mop;
  return e;
}

void Checker::prefetch(const std::vector<std::uint32_t>& specs, int threads) {
  std::vector<std::uint32_t> todo;
  for (std::uint32_t s : specs) {
    if (!memo_.count(s)) {
      memo_.emplace(s, Expected{});
      todo.push_back(s);
    }
  }
  std::vector<Expected> out(todo.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
        out[i] = evaluate(stream_.spec(todo[i]));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (std::size_t i = 0; i < todo.size(); ++i) memo_[todo[i]] = std::move(out[i]);
}

void Checker::keep(const Request& r, std::string&& response) {
  kept_.emplace_back(r, std::move(response));
}

void Checker::check_kept(int threads) {
  std::vector<std::uint32_t> specs;
  for (const auto& [r, response] : kept_) specs.push_back(r.spec);
  prefetch(specs, threads);
  for (const auto& [r, response] : kept_) (void)check(r, response);
  kept_.clear();
}

const Checker::Expected& Checker::expected(std::uint32_t spec) {
  auto it = memo_.find(spec);
  if (it == memo_.end()) it = memo_.emplace(spec, evaluate(stream_.spec(spec))).first;
  return it->second;
}

bool Checker::fail(const std::string& message) {
  ++failures_;
  if (messages_.size() < 12) messages_.push_back(message);
  return false;
}

namespace {

/// `response` with the values of "id" and "latency_us" blanked, or empty
/// when it has no such members.
std::string blank_live_values(std::string_view response) {
  std::string out(response);
  const std::size_t lat = out.find("\"latency_us\":");
  const std::size_t id = out.find("\"id\":");
  if (lat == std::string::npos || id == std::string::npos || id > lat) return "";
  const std::size_t lat_end = out.find_first_of(",}", lat);
  if (lat_end == std::string::npos) return "";
  out.erase(lat, lat_end - lat);
  const std::size_t open = out.find('"', id + 5);
  const std::size_t close = open == std::string::npos ? open : out.find('"', open + 1);
  if (close == std::string::npos) return "";
  out.erase(open + 1, close - open - 1);
  return out;
}

/// The "id" value of a response, or empty.
std::string_view id_value(std::string_view response) {
  const std::size_t id = response.find("\"id\":");
  if (id == std::string_view::npos) return {};
  const std::size_t open = response.find('"', id + 5);
  const std::size_t close =
      open == std::string_view::npos ? open : response.find('"', open + 1);
  if (close == std::string_view::npos) return {};
  return response.substr(open + 1, close - open - 1);
}

}  // namespace

bool Checker::check(const Request& r, std::string_view response) {
  const std::string blank = blank_live_values(response);
  const auto seen = passed_.find(r.spec);
  if (!blank.empty() && seen != passed_.end() && seen->second == blank &&
      id_value(response) == stream_.id(r)) {
    ++checked_;
    return true;
  }
  const bool ok = check_fully(r, response);
  if (ok && !blank.empty()) passed_[r.spec] = blank;
  return ok;
}

bool Checker::check_fully(const Request& r, std::string_view response) {
  ++checked_;
  const std::string id = stream_.id(r);
  const std::string where = id + ": ";
  const std::optional<Value> doc = minijson::parse(response);
  if (!doc || doc->kind != Value::Kind::Object) {
    return fail(where + "not a JSON object: " + std::string(response.substr(0, 200)));
  }
  const auto str = [&](const char* key) -> const std::string* {
    const Value* v = doc->get(key);
    return v && v->kind == Value::Kind::String ? &v->str : nullptr;
  };
  const auto num = [&](const char* key) -> const double* {
    const Value* v = doc->get(key);
    return v && v->kind == Value::Kind::Number ? &v->number : nullptr;
  };
  const auto flag = [&](const char* key) -> const bool* {
    const Value* v = doc->get(key);
    return v && v->kind == Value::Kind::Bool ? &v->boolean : nullptr;
  };

  if (const std::string* got = str("id"); !got || *got != id) {
    return fail(where + "response carries another id: " + std::string(response.substr(0, 200)));
  }
  if (const std::string* st = str("status"); !st || *st != "ok") {
    return fail(where + "status is not ok: " + std::string(response.substr(0, 300)));
  }

  const Spec& spec = stream_.spec(r.spec);
  const Expected& e = expected(r.spec);
  const bool* ran = flag("ran");
  const bool* vectorised = flag("vectorised");
  const double* cores = num("cores");
  const double* seconds = num("seconds");
  const double* mops = num("mops");
  const double* bw = num("bw_gbs");
  const std::string* backend = str("backend");
  const std::string* machine = str("machine");
  const std::string* kernel = str("kernel");
  const std::string* cls = str("class");
  const std::string* bottleneck = str("bottleneck");
  const std::string* cache = str("cache");
  if (!ran || !vectorised || !cores || !seconds || !mops || !bw || !backend || !machine ||
      !kernel || !cls || !bottleneck || !cache) {
    return fail(where + "response lacks a field: " + std::string(response.substr(0, 300)));
  }
  // Transparency: serving, caching and rendering leave the answer
  // bit-identical to the in-process evaluation.
  if (*ran != e.ran || *seconds != e.seconds || *mops != e.mops || *bw != e.bw_gbs ||
      *bottleneck != e.bottleneck || *vectorised != e.vectorised ||
      *backend != engine::to_string(spec.backend) || *machine != e.machine ||
      *kernel != model::to_string(spec.kernel) || *cls != model::to_string(spec.cls) ||
      *cores != spec.cores) {
    return fail(where + "answer differs from the in-process evaluation (mops " +
                std::to_string(e.mops) + " expected): " + std::string(response.substr(0, 300)));
  }
  if (!e.ran) {
    const std::string* why = str("dnr_reason");
    if (!why || *why != e.dnr_reason) return fail(where + "dnr_reason differs");
  }
  // Work identity: the answer's Mop/s and seconds account for the
  // signature's total work.
  if (e.ran && std::fabs(*mops * *seconds - e.total_mop) > 1e-9 * e.total_mop) {
    return fail(where + "mops x seconds != total_mop");
  }
  if (*cache != (r.expect_hit ? "hit" : "miss")) {
    return fail(where + "cache is \"" + *cache + "\" where the workload implies " +
                (r.expect_hit ? "a hit" : "a miss"));
  }
  if (spec.paper_mops > 0.0) {
    const double rel = std::fabs(*mops - spec.paper_mops) / spec.paper_mops;
    ++paper_cells_;
    if (rel > paper_worst_) paper_worst_ = rel;
    if (rel > kPaperTolerance) {
      return fail(where + spec.paper_cell + ": served " + std::to_string(*mops) +
                  " Mop/s against the paper's " + std::to_string(spec.paper_mops));
    }
  }
  return true;
}

}  // namespace perfbench
