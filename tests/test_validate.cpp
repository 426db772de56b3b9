// Tests for rvhpc::arch::validate — every invariant must be enforced.

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "arch/registry.hpp"
#include "arch/serialize.hpp"
#include "arch/validate.hpp"

namespace rvhpc::arch {
namespace {

MachineModel good() { return machine(MachineId::Sg2044); }

bool flags(const MachineModel& m, const std::string& field) {
  for (const auto& issue : validate(m)) {
    if (issue.field.find(field) != std::string::npos) return true;
  }
  return false;
}

TEST(Validate, GoodMachinePasses) { EXPECT_TRUE(is_valid(good())); }

TEST(Validate, EmptyName) {
  MachineModel m = good();
  m.name.clear();
  EXPECT_TRUE(flags(m, "name"));
}

TEST(Validate, ZeroCores) {
  MachineModel m = good();
  m.cores = 0;
  EXPECT_TRUE(flags(m, "cores"));
}

TEST(Validate, ClusterLargerThanChip) {
  MachineModel m = good();
  m.cluster_size = m.cores + 1;
  EXPECT_TRUE(flags(m, "cluster_size"));
}

TEST(Validate, NegativeClock) {
  MachineModel m = good();
  m.core.clock_ghz = -1.0;
  EXPECT_TRUE(flags(m, "clock"));
}

TEST(Validate, IssueNarrowerThanDecode) {
  MachineModel m = good();
  m.core.issue_width = m.core.decode_width - 1;
  EXPECT_TRUE(flags(m, "issue_width"));
}

TEST(Validate, SustainedOpcBeyondIssueWidth) {
  MachineModel m = good();
  m.core.sustained_scalar_opc = m.core.issue_width + 1.0;
  EXPECT_TRUE(flags(m, "sustained_scalar_opc"));
}

TEST(Validate, VectorWidthNotMultipleOf64) {
  MachineModel m = good();
  m.core.vector.width_bits = 100;
  EXPECT_TRUE(flags(m, "width_bits"));
}

TEST(Validate, GatherEfficiencyOutOfRange) {
  MachineModel m = good();
  m.core.vector.gather_efficiency = 1.5;
  EXPECT_TRUE(flags(m, "gather_efficiency"));
}

TEST(Validate, MissingCaches) {
  MachineModel m = good();
  m.caches.clear();
  EXPECT_TRUE(flags(m, "caches"));
}

TEST(Validate, NonPowerOfTwoLine) {
  MachineModel m = good();
  m.caches[0].line_bytes = 48;
  EXPECT_TRUE(flags(m, "caches[0]"));
}

TEST(Validate, ShrinkingLevels) {
  MachineModel m = good();
  m.caches[1].size_bytes = m.caches[0].size_bytes / 2;
  EXPECT_TRUE(flags(m, "caches[1]"));
}

TEST(Validate, SharingMustNotDecrease) {
  MachineModel m = good();
  m.caches[2].shared_by_cores = 1;  // L3 less shared than L2
  EXPECT_TRUE(flags(m, "caches[2]"));
}

TEST(Validate, LatencyMustNotDecrease) {
  MachineModel m = good();
  m.caches[2].latency_cycles = 1;
  EXPECT_TRUE(flags(m, "caches[2]"));
}

TEST(Validate, CacheSetsAreBounded) {
  // At a 4-byte slot per simulated set, the interval backend would need
  // 2 GiB and 256 MiB of slots to simulate these two levels whole; the
  // third sits exactly at the bound.
  MachineModel tiny_lines = good();
  tiny_lines.caches.back() = {"L3", std::size_t{1} << 32, 1, 8, 64, 40};
  EXPECT_TRUE(flags(tiny_lines, "caches[2]"));
  MachineModel huge = good();
  huge.caches.back() = {"L3", std::size_t{64} << 30, 16, 64, 64, 40};
  EXPECT_TRUE(flags(huge, "caches[2]"));
  MachineModel at_bound = good();
  at_bound.caches.back().size_bytes = kMaxCacheSets * 16 * 64;
  EXPECT_TRUE(is_valid(at_bound));
  // Ways are bounded too: a one-set level past kMaxAssociativity is
  // rejected, and one at the bound still validates.
  MachineModel wide = good();
  wide.caches.back() = {"L3", std::size_t{4} << 20, 65536, 64, 64, 40};
  EXPECT_TRUE(flags(wide, "caches[2]"));
  MachineModel ways_at_bound = good();
  ways_at_bound.caches.back().associativity = kMaxAssociativity;
  EXPECT_TRUE(is_valid(ways_at_bound))
      << format_issues(validate(ways_at_bound));
}

TEST(Validate, EveryShippedMachineIsWithinTheSetBound) {
  std::vector<MachineModel> shipped;
  for (MachineId id : all_machines()) shipped.push_back(machine(id));
  for (MachineId id : topo_machines()) shipped.push_back(machine(id));
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(RVHPC_SOURCE_DIR) + "/examples/machines")) {
    std::ifstream in(entry.path());
    shipped.push_back(parse_machine(in).model);
  }
  ASSERT_GT(shipped.size(), all_machines().size() + topo_machines().size())
      << "no example machine files found";
  for (const MachineModel& m : shipped) {
    EXPECT_TRUE(is_valid(m)) << m.name << ":\n" << format_issues(validate(m));
  }
}

TEST(Validate, ChannelsFewerThanControllers) {
  MachineModel m = good();
  m.memory.channels = m.memory.controllers - 1;
  EXPECT_TRUE(flags(m, "channels"));
}

TEST(Validate, StreamEfficiencyAboveOne) {
  MachineModel m = good();
  m.memory.stream_efficiency = 1.2;
  EXPECT_TRUE(flags(m, "stream_efficiency"));
}

TEST(Validate, CoreOutDrawsChip) {
  MachineModel m = good();
  m.memory.per_core_bw_gbs = m.memory.chip_stream_bw_gbs() * 2.0;
  EXPECT_TRUE(flags(m, "per_core_bw_gbs"));
}

TEST(Validate, NumaRegionsBeyondCores) {
  MachineModel m = good();
  m.memory.numa_regions = m.cores + 1;
  EXPECT_TRUE(flags(m, "numa_regions"));
}

TEST(Validate, NonPositiveDram) {
  MachineModel m = good();
  m.memory.dram_gib = 0.0;
  EXPECT_TRUE(flags(m, "dram_gib"));
}

TEST(Validate, FormatListsEveryIssue) {
  MachineModel m = good();
  m.cores = 0;
  m.core.clock_ghz = 0.0;
  const auto issues = validate(m);
  ASSERT_GE(issues.size(), 2u);
  const std::string text = format_issues(issues);
  for (const auto& i : issues) {
    EXPECT_NE(text.find(i.field), std::string::npos);
  }
}

}  // namespace
}  // namespace rvhpc::arch
