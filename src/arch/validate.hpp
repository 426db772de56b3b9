#pragma once
// rvhpc::arch — structural validation of machine descriptions.
//
// Machine models are plain aggregates so they can be brace-initialised in
// tests and examples; validate() is the single place the invariants are
// enforced.  Every registry machine must validate cleanly (tested), and
// user-supplied custom machines can be checked before being handed to the
// performance model.

#include <cstddef>
#include <string>
#include <vector>

#include "arch/machine.hpp"

namespace rvhpc::arch {

/// Most sets, size_bytes / (line_bytes * associativity), that one cache
/// level may have.  The interval backend simulates each level with a
/// 4-byte slot per set (memsim::Cache), so this bounds what an untrusted
/// machine can make one request allocate: 16 MiB of slots per level.  The
/// largest shipped level, montecimone-v3's 256 MiB 16-way L3, has 2^18.
inline constexpr std::size_t kMaxCacheSets = std::size_t{1} << 22;

/// Most ways one cache level may have.  The interval backend scans every
/// way of a set on each access and allocates a set's ways on first touch,
/// so this bounds the per-access work the set bound does not: a one-set
/// L3 of 2^16 ways made one interval request take 0.8 s of CPU, against
/// about 0.4 ms for a stock machine (Release, x86-64).  Every shipped
/// machine uses at most 16 ways (registry, topology and example machines;
/// the robustness fuzzer draws 8 or 16).
inline constexpr int kMaxAssociativity = 64;

/// One violated invariant, human-readable.
struct ValidationIssue {
  std::string field;
  std::string message;
};

/// Checks structural invariants of `m` (positive clock/core counts, cache
/// levels ordered smallest-to-largest with non-decreasing sharing, at most
/// kMaxCacheSets sets and kMaxAssociativity ways each, memory parameters
/// physically sensible, ...).  Returns all violations; an empty vector
/// means the model is usable.
[[nodiscard]] std::vector<ValidationIssue> validate(const MachineModel& m);

/// Convenience: true when validate(m) is empty.
[[nodiscard]] bool is_valid(const MachineModel& m);

/// Formats issues one-per-line for error messages.
[[nodiscard]] std::string format_issues(const std::vector<ValidationIssue>& issues);

}  // namespace rvhpc::arch
