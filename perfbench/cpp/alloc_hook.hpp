#pragma once
// Heap allocation totals of the traced binary (alloc_hook.cpp replaces the
// global operator new there; the timed binary has no such hook).

#include <cstdint>

namespace perfbench {

struct AllocTotals {
  std::uint64_t count = 0;  ///< operator new calls so far
  std::uint64_t bytes = 0;  ///< bytes requested by them
};

[[nodiscard]] AllocTotals alloc_totals();

}  // namespace perfbench
