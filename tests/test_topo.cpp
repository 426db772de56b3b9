// rvhpc::topo — NUMA/multi-socket topology modeling.
//
// The subsystem's contract (DESIGN.md §15) pivots on one guarantee: a
// flat machine (no topology section) predicts *bit-identically* to the
// pre-topology code on both backends, because cross_traffic() returns a
// zero remote fraction and neither charging branch is taken.  These
// tests pin that guarantee, the serializer's opt-in round-trip, the
// line-numbered structural rejects, the A3xx lint pack and the direction
// of the charge on the new registry machines.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/engine.hpp"
#include "arch/registry.hpp"
#include "arch/serialize.hpp"
#include "arch/validate.hpp"
#include "model/predictor.hpp"
#include "model/signatures.hpp"
#include "obs/trace.hpp"
#include "sim/interval.hpp"
#include "topo/topology.hpp"

using namespace rvhpc;
using arch::MachineId;
using model::Kernel;
using model::ProblemClass;

namespace {

topo::Topology dual(double link_bw = 16.0, double latency = 100.0,
                    double coherence = 50.0) {
  topo::Topology t;
  t.domains = {{"s0", 32, 64.0, 60.0, 32.0}, {"s1", 32, 64.0, 60.0, 32.0}};
  t.links = {{"s0", "s1", link_bw, latency, coherence}};
  return t;
}

}  // namespace

// --- value type + cross_traffic ---------------------------------------------

TEST(Topology, FlatByDefault) {
  topo::Topology t;
  EXPECT_TRUE(t.flat());
  EXPECT_EQ(t.total_cores(), 0);
  EXPECT_EQ(t.find("s0"), nullptr);
}

TEST(Topology, StructuralIssuesCatchEveryShape) {
  EXPECT_TRUE(topo::structural_issues(dual()).empty());

  topo::Topology dup = dual();
  dup.domains[1].id = "s0";
  EXPECT_FALSE(topo::structural_issues(dup).empty());

  topo::Topology dangling = dual();
  dangling.links[0].to = "s7";
  EXPECT_FALSE(topo::structural_issues(dangling).empty());

  topo::Topology self_link = dual();
  self_link.links[0].to = "s0";
  EXPECT_FALSE(topo::structural_issues(self_link).empty());

  topo::Topology island = dual();
  island.links.clear();  // two domains, no way between them
  EXPECT_FALSE(topo::structural_issues(island).empty());

  topo::Topology bad_res = dual();
  bad_res.domains[0].dram_bw_gbs = 0.0;
  EXPECT_FALSE(topo::structural_issues(bad_res).empty());
}

TEST(Topology, DomainsSpannedFillsInDeclarationOrder) {
  const topo::Topology t = dual();
  EXPECT_EQ(topo::domains_spanned(t, 1), 1);
  EXPECT_EQ(topo::domains_spanned(t, 32), 1);
  EXPECT_EQ(topo::domains_spanned(t, 33), 2);
  EXPECT_EQ(topo::domains_spanned(t, 64), 2);
  EXPECT_EQ(topo::domains_spanned(t, 9999), 2);  // clamped to all domains
}

TEST(CrossTraffic, FlatAndSingleDomainRunsAreFree) {
  const topo::Topology flat;
  EXPECT_EQ(topo::cross_traffic(flat, 64, 1024.0).remote_fraction, 0.0);

  // A run that fits in one socket never touches the link, whatever its
  // working set: this is the charging side of the bit-identity guarantee.
  const topo::Topology t = dual();
  const topo::CrossTraffic one = topo::cross_traffic(t, 32, 4096.0);
  EXPECT_EQ(one.domains_used, 1);
  EXPECT_EQ(one.remote_fraction, 0.0);
  EXPECT_EQ(one.extra_latency_ns, 0.0);
}

TEST(CrossTraffic, CacheResidentSpanIsFreeLargeSpanIsNot) {
  const topo::Topology t = dual();
  // Working set inside the local LLC slice: span factor 0, nothing remote.
  EXPECT_EQ(topo::cross_traffic(t, 64, 16.0).remote_fraction, 0.0);
  // Far beyond it: the uniform-share bound (0.35 * (1 - 1/2)).
  const topo::CrossTraffic big = topo::cross_traffic(t, 64, 4096.0);
  EXPECT_EQ(big.domains_used, 2);
  EXPECT_NEAR(big.remote_fraction, 0.35 * 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(big.link_bw_gbs, 16.0);
  EXPECT_DOUBLE_EQ(big.extra_latency_ns, 150.0);  // latency + coherence
  // Monotone in the working set between the two regimes.
  EXPECT_LT(topo::cross_traffic(t, 64, 48.0).remote_fraction,
            big.remote_fraction);
  EXPECT_GT(topo::cross_traffic(t, 64, 48.0).remote_fraction, 0.0);
}

TEST(CrossTraffic, UnusableLinksMeanNoCharge) {
  topo::Topology t = dual();
  t.links[0].bandwidth_gbs = 0.0;  // structurally invalid, but charging
  // must still degrade to "no link model" instead of dividing by zero.
  const topo::CrossTraffic xt = topo::cross_traffic(t, 64, 4096.0);
  EXPECT_EQ(xt.remote_fraction, 0.0);
}

// --- serialization ----------------------------------------------------------

TEST(TopoSerialize, FlatMachineEmitsNoTopologySection) {
  const std::string text = arch::to_text(arch::machine(MachineId::Sg2044));
  EXPECT_EQ(text.find("topology."), std::string::npos);
}

TEST(TopoSerialize, TopologyMachinesRoundTripByteIdentically) {
  for (MachineId id : arch::topo_machines()) {
    const std::string text = arch::to_text(arch::machine(id));
    EXPECT_NE(text.find("topology.domain = "), std::string::npos);
    EXPECT_NE(text.find("topology.link = "), std::string::npos);
    // to_text(from_text(text)) == text is the strongest round-trip the
    // serializer promises (field order is canonical on output).
    EXPECT_EQ(arch::to_text(arch::from_text(text)), text) << arch::name_of(id);
  }
}

TEST(TopoSerialize, RoundTripPreservesEveryTopologyField) {
  arch::MachineModel m = arch::machine(MachineId::Sg2042Dual);
  const arch::MachineModel back = arch::from_text(arch::to_text(m));
  ASSERT_EQ(back.topology.domains.size(), m.topology.domains.size());
  for (std::size_t i = 0; i < m.topology.domains.size(); ++i) {
    EXPECT_EQ(back.topology.domains[i].id, m.topology.domains[i].id);
    EXPECT_EQ(back.topology.domains[i].cores, m.topology.domains[i].cores);
    EXPECT_DOUBLE_EQ(back.topology.domains[i].dram_gib,
                     m.topology.domains[i].dram_gib);
    EXPECT_DOUBLE_EQ(back.topology.domains[i].dram_bw_gbs,
                     m.topology.domains[i].dram_bw_gbs);
    EXPECT_DOUBLE_EQ(back.topology.domains[i].llc_mib,
                     m.topology.domains[i].llc_mib);
  }
  ASSERT_EQ(back.topology.links.size(), m.topology.links.size());
  for (std::size_t i = 0; i < m.topology.links.size(); ++i) {
    EXPECT_EQ(back.topology.links[i].from, m.topology.links[i].from);
    EXPECT_EQ(back.topology.links[i].to, m.topology.links[i].to);
    EXPECT_DOUBLE_EQ(back.topology.links[i].bandwidth_gbs,
                     m.topology.links[i].bandwidth_gbs);
    EXPECT_DOUBLE_EQ(back.topology.links[i].latency_ns,
                     m.topology.links[i].latency_ns);
    EXPECT_DOUBLE_EQ(back.topology.links[i].coherence_ns,
                     m.topology.links[i].coherence_ns);
  }
}

TEST(TopoSerialize, DuplicateDomainIdRejectedWithBothLines) {
  const std::string text =
      "name = x\n"
      "cores = 4\n"
      "topology.domain = a 2 1 10 1\n"
      "topology.domain = a 2 1 10 1\n";
  try {
    (void)arch::from_text(text);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate topology domain id 'a'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;  // first decl
  }
}

TEST(TopoSerialize, DanglingLinkEndpointRejectedWithItsLine) {
  const std::string text =
      "name = x\n"
      "cores = 4\n"
      "topology.domain = a 2 1 10 1\n"
      "topology.domain = b 2 1 10 1\n"
      "topology.link = a ghost 5 100 0\n";
  try {
    (void)arch::from_text(text);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
    EXPECT_NE(what.find("'ghost'"), std::string::npos) << what;
  }
}

TEST(TopoSerialize, MalformedDomainAndLinkLinesRejected) {
  EXPECT_THROW((void)arch::from_text("topology.domain = a 2\n"),
               std::invalid_argument);
  EXPECT_THROW((void)arch::from_text("topology.link = a b 5\n"),
               std::invalid_argument);
}

// --- validation + lint ------------------------------------------------------

TEST(TopoValidate, StructuralIssuesSurfaceThroughArchValidate) {
  arch::MachineModel m = arch::machine(MachineId::Sg2044);
  m.topology = dual();
  m.topology.links[0].to = "nowhere";
  EXPECT_FALSE(arch::is_valid(m));
}

TEST(TopoValidate, RegistryTopologyMachinesAreValid) {
  for (MachineId id : arch::topo_machines()) {
    EXPECT_TRUE(arch::is_valid(arch::machine(id))) << arch::name_of(id);
  }
}

TEST(TopoLint, FlatMachinesRaiseNoA3xx) {
  for (MachineId id : arch::all_machines()) {
    const analysis::Report r = analysis::lint_machine(arch::machine(id));
    for (const char* rule : {"A301", "A302", "A303", "A304"}) {
      EXPECT_TRUE(r.by_rule(rule).empty()) << arch::name_of(id) << " " << rule;
    }
  }
}

TEST(TopoLint, RegistryTopologyMachinesAreCleanUnderWerror) {
  analysis::LintOptions werror;
  werror.werror = true;
  for (MachineId id : arch::topo_machines()) {
    const analysis::Report r = analysis::apply(
        analysis::lint_machine(arch::machine(id)), werror);
    EXPECT_FALSE(r.has_errors()) << arch::name_of(id) << "\n" << r.format();
  }
}

TEST(TopoLint, A301FiresOnCoreSumMismatch) {
  arch::MachineModel m = arch::machine(MachineId::Sg2044);
  m.topology = dual();  // 64 domain cores vs...
  m.cores = 96;         // ...96 machine cores
  m.memory.numa_regions = 2;
  const auto hits = analysis::lint_machine(m).by_rule("A301");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, analysis::Severity::Error);
}

TEST(TopoLint, A302FiresWhenALinkOutrunsLocalDram) {
  arch::MachineModel m = arch::machine(MachineId::Sg2044);
  m.cores = 64;
  m.memory.numa_regions = 2;
  m.memory.dram_gib = 128.0;
  m.topology = dual(/*link_bw=*/60.0);  // == the 60 GB/s domain DRAM
  EXPECT_EQ(analysis::lint_machine(m).by_rule("A302").size(), 1u);
  m.topology.links[0].bandwidth_gbs = 12.0;
  EXPECT_TRUE(analysis::lint_machine(m).by_rule("A302").empty());
}

TEST(TopoLint, A303NotesDramSliceMismatch) {
  arch::MachineModel m = arch::machine(MachineId::Sg2044);
  m.cores = 64;
  m.memory.numa_regions = 2;
  m.topology = dual();          // slices sum to 128 GiB
  m.memory.dram_gib = 100.0;    // machine says 100
  const auto hits = analysis::lint_machine(m).by_rule("A303");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, analysis::Severity::Note);
}

TEST(TopoLint, A304FiresWhenNumaRegionsDisagree) {
  arch::MachineModel m = arch::machine(MachineId::Sg2044);
  m.cores = 64;
  m.memory.dram_gib = 128.0;
  m.memory.numa_regions = 4;  // but the topology declares 2 domains
  m.topology = dual();
  EXPECT_EQ(analysis::lint_machine(m).by_rule("A304").size(), 1u);
}

// --- backend charging -------------------------------------------------------

namespace {

/// A topology overlay for the stock SG2044 that matches its flat fields,
/// so only the explicit link model separates the two predictions.
arch::MachineModel sg2044_with_topology() {
  arch::MachineModel m = arch::machine(MachineId::Sg2044);
  const double local_bw = m.memory.chip_stream_bw_gbs() / 2.0;
  const double llc_mib =
      static_cast<double>(m.llc_bytes()) / (2.0 * 1024.0 * 1024.0);
  topo::Topology t;
  t.domains = {{"s0", m.cores / 2, m.memory.dram_gib / 2, local_bw, llc_mib},
               {"s1", m.cores / 2, m.memory.dram_gib / 2, local_bw, llc_mib}};
  t.links = {{"s0", "s1", 24.0, 150.0, 40.0}};
  m.memory.numa_regions = 2;
  m.topology = t;
  return m;
}

}  // namespace

TEST(TopoCharging, AnalyticFlatMachineIsBitIdenticalWithEmptyTopology) {
  // The member default (empty Topology) IS the flat machine; this pins
  // that adding the member changed nothing for every existing machine.
  const arch::MachineModel& m = arch::machine(MachineId::Sg2044);
  ASSERT_TRUE(m.topology.flat());
  const auto sig = model::signature(Kernel::StreamTriad, ProblemClass::C);
  const auto cfg = model::paper_run_config(m, Kernel::StreamTriad, 64);
  arch::MachineModel copy = m;
  copy.topology = topo::Topology{};  // explicitly flat
  const auto a = model::predict(m, sig, cfg);
  const auto b = model::predict(copy, sig, cfg);
  EXPECT_EQ(a.seconds, b.seconds);  // bitwise, not NEAR
  EXPECT_EQ(a.mops, b.mops);
  const auto sa = sim::predict_interval(m, sig, cfg);
  const auto sb = sim::predict_interval(copy, sig, cfg);
  EXPECT_EQ(sa.seconds, sb.seconds);
}

TEST(TopoCharging, CrossSocketSpanSlowsBothBackends) {
  const arch::MachineModel flat = arch::machine(MachineId::Sg2044);
  const arch::MachineModel numa = sg2044_with_topology();
  const auto sig = model::signature(Kernel::StreamTriad, ProblemClass::C);
  const auto cfg = model::paper_run_config(flat, Kernel::StreamTriad, 64);

  // Spanning both sockets with a DRAM-sized working set must cost time
  // on both backends...
  EXPECT_GT(model::predict(numa, sig, cfg).seconds,
            model::predict(flat, sig, cfg).seconds);
  EXPECT_GT(sim::predict_interval(numa, sig, cfg).seconds,
            sim::predict_interval(flat, sig, cfg).seconds);

  // ...while a single-socket run on the same machine charges nothing
  // beyond the flat NUMA blend both machines share.
  const auto one = model::paper_run_config(flat, Kernel::StreamTriad, 32);
  EXPECT_EQ(model::predict(numa, sig, one).seconds,
            model::predict(flat, sig, one).seconds);
  EXPECT_EQ(sim::predict_interval(numa, sig, one).seconds,
            sim::predict_interval(flat, sig, one).seconds);
}

TEST(TopoCharging, PhasesStillSumToTotalOnTopologyMachines) {
  const auto sig = model::signature(Kernel::CG, ProblemClass::C);
  for (MachineId id : arch::topo_machines()) {
    const arch::MachineModel& m = arch::machine(id);
    const auto cfg = model::paper_run_config(m, Kernel::CG, m.cores);
    obs::SessionScope scope;
    (void)model::predict(m, sig, cfg);
    (void)sim::predict_interval(m, sig, cfg);
    for (const auto& p : scope.session().predictions()) {
      double sum = 0.0;
      for (const auto& ph : p.phases) sum += ph.seconds;
      EXPECT_NEAR(sum, p.seconds, 1e-9)
          << arch::name_of(id) << " " << p.backend;
    }
  }
}

TEST(TopoCharging, DnrRulesUnchangedByTopology) {
  // FT class C exceeds usable DRAM on a 4 GiB machine with or without an
  // overlay: feasibility is a property of totals, not of placement.
  arch::MachineModel tiny = arch::machine(MachineId::Sg2044);
  tiny.memory.dram_gib = 4.0;
  const auto sig = model::signature(Kernel::FT, ProblemClass::C);
  const auto cfg = model::paper_run_config(tiny, Kernel::FT, 8);
  const auto flat = model::predict(tiny, sig, cfg);
  ASSERT_FALSE(flat.ran);

  arch::MachineModel overlay = tiny;
  overlay.memory.numa_regions = 2;
  overlay.topology = dual();
  overlay.topology.domains[0].cores = overlay.cores / 2;
  overlay.topology.domains[1].cores = overlay.cores - overlay.cores / 2;
  const auto numa = model::predict(overlay, sig, cfg);
  EXPECT_FALSE(numa.ran);
  EXPECT_EQ(numa.dnr_reason, flat.dnr_reason);
  EXPECT_FALSE(sim::predict_interval(overlay, sig, cfg).ran);
}

TEST(TopoCharging, DualSocketShapeSplitsByBottleneck) {
  // The shape the dual-socket paper reports: bandwidth-bound STREAM
  // *degrades* once the uniform working set spans the slow inter-socket
  // link, while compute-bound EP (cache-resident working set — the span
  // factor never engages) keeps scaling across the second socket.
  const arch::MachineModel& m = arch::machine(MachineId::Sg2044Dual);
  const auto at = [&](Kernel k, int cores) {
    return model::predict(m, model::signature(k, ProblemClass::C),
                          model::paper_run_config(m, k, cores));
  };
  const double t64 = at(Kernel::StreamTriad, 64).mops;
  const double t128 = at(Kernel::StreamTriad, 128).mops;
  EXPECT_LT(t128, t64);        // the link charge bites...
  EXPECT_GT(t128, 0.2 * t64);  // ...but does not collapse the machine
  const double e64 = at(Kernel::EP, 64).mops;
  const double e128 = at(Kernel::EP, 128).mops;
  EXPECT_GT(e128, 1.5 * e64);  // compute never crosses the link
}
