#include "arch/validate.hpp"

#include <sstream>

namespace rvhpc::arch {
namespace {

void require(std::vector<ValidationIssue>& out, bool ok, std::string field,
             std::string message) {
  if (!ok) out.push_back({std::move(field), std::move(message)});
}

}  // namespace

std::vector<ValidationIssue> validate(const MachineModel& m) {
  std::vector<ValidationIssue> issues;

  require(issues, !m.name.empty(), "name", "machine name must be non-empty");
  require(issues, m.cores >= 1, "cores", "must have at least one core");
  require(issues, m.cluster_size >= 1 && m.cluster_size <= m.cores,
          "cluster_size", "cluster size must be in [1, cores]");

  const CoreModel& c = m.core;
  require(issues, c.clock_ghz > 0.0, "core.clock_ghz", "clock must be positive");
  require(issues, c.decode_width >= 1, "core.decode_width", "must be >= 1");
  require(issues, c.issue_width >= c.decode_width, "core.issue_width",
          "issue width must be >= decode width");
  require(issues, c.fp_units >= 1, "core.fp_units", "must be >= 1");
  require(issues, c.load_store_units >= 1, "core.load_store_units", "must be >= 1");
  require(issues, c.sustained_scalar_opc > 0.0 &&
                      c.sustained_scalar_opc <= static_cast<double>(c.issue_width),
          "core.sustained_scalar_opc",
          "sustained scalar op/cycle must be in (0, issue_width]");
  require(issues, c.miss_level_parallelism >= 1, "core.miss_level_parallelism",
          "must be >= 1");

  const VectorUnit& v = c.vector;
  if (v.isa != VectorIsa::None) {
    require(issues, v.width_bits >= 64 && v.width_bits % 64 == 0,
            "core.vector.width_bits", "vector width must be a positive multiple of 64");
    require(issues, v.pipes >= 1, "core.vector.pipes", "must be >= 1");
    require(issues, v.gather_efficiency > 0.0 && v.gather_efficiency <= 1.0,
            "core.vector.gather_efficiency", "must be in (0, 1]");
  }

  require(issues, !m.caches.empty(), "caches", "at least an L1 level is required");
  for (std::size_t i = 0; i < m.caches.size(); ++i) {
    const CacheLevel& lvl = m.caches[i];
    const std::string where = "caches[" + std::to_string(i) + "]";
    require(issues, lvl.size_bytes > 0, where, "cache size must be positive");
    require(issues,
            lvl.associativity >= 1 && lvl.associativity <= kMaxAssociativity,
            where,
            "associativity must be in [1, " +
                std::to_string(kMaxAssociativity) + "]");
    require(issues, lvl.line_bytes > 0 && (lvl.line_bytes & (lvl.line_bytes - 1)) == 0,
            where, "line size must be a positive power of two");
    require(issues, lvl.shared_by_cores >= 1 && lvl.shared_by_cores <= m.cores,
            where, "shared_by_cores must be in [1, cores]");
    require(issues, lvl.latency_cycles > 0, where, "latency must be positive");
    if (lvl.associativity >= 1 && lvl.line_bytes > 0) {
      const std::size_t set_bytes = static_cast<std::size_t>(lvl.line_bytes) *
                                    static_cast<std::size_t>(lvl.associativity);
      require(issues, lvl.size_bytes / set_bytes <= kMaxCacheSets, where,
              "more than " + std::to_string(kMaxCacheSets) +
                  " sets (size / (line x associativity))");
    }
    if (i > 0) {
      require(issues, lvl.size_bytes >= m.caches[i - 1].size_bytes, where,
              "levels must be ordered smallest to largest");
      require(issues, lvl.shared_by_cores >= m.caches[i - 1].shared_by_cores, where,
              "sharing must not decrease with level");
      require(issues, lvl.latency_cycles >= m.caches[i - 1].latency_cycles, where,
              "latency must not decrease with level");
    }
  }

  const MemorySubsystem& mem = m.memory;
  require(issues, mem.controllers >= 1, "memory.controllers", "must be >= 1");
  require(issues, mem.channels >= mem.controllers, "memory.channels",
          "channels must be >= controllers");
  require(issues, mem.channel_bw_gbs > 0.0, "memory.channel_bw_gbs", "must be positive");
  require(issues, mem.stream_efficiency > 0.0 && mem.stream_efficiency <= 1.0,
          "memory.stream_efficiency", "must be in (0, 1]");
  require(issues, mem.per_core_bw_gbs > 0.0, "memory.per_core_bw_gbs", "must be positive");
  require(issues, mem.per_core_bw_gbs <= mem.chip_stream_bw_gbs() + 1e-9,
          "memory.per_core_bw_gbs", "one core cannot out-draw the whole chip");
  require(issues, mem.idle_latency_ns > 0.0, "memory.idle_latency_ns", "must be positive");
  require(issues, mem.controller_queue_depth >= 1, "memory.controller_queue_depth",
          "must be >= 1");
  require(issues, mem.numa_regions >= 1 && mem.numa_regions <= m.cores,
          "memory.numa_regions", "must be in [1, cores]");
  require(issues, mem.dram_gib > 0.0, "memory.dram_gib", "must be positive");

  // Structural soundness of the optional topology overlay (unique ids,
  // positive resources, links joining declared distinct domains).  The
  // cross-machine plausibility questions — core sums, link-vs-DRAM
  // bandwidth — are the A3xx lint rules, mirroring how numa_regions
  // arithmetic lives in A009 rather than here.
  for (const std::string& issue : topo::structural_issues(m.topology)) {
    const auto colon = issue.find(": ");
    if (colon == std::string::npos) {
      require(issues, false, "topology", issue);
    } else {
      require(issues, false, issue.substr(0, colon), issue.substr(colon + 2));
    }
  }

  return issues;
}

bool is_valid(const MachineModel& m) { return validate(m).empty(); }

std::string format_issues(const std::vector<ValidationIssue>& issues) {
  std::ostringstream os;
  for (const auto& i : issues) os << i.field << ": " << i.message << "\n";
  return os.str();
}

}  // namespace rvhpc::arch
