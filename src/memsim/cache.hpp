#pragma once
// rvhpc::memsim — set-associative cache with LRU replacement.
//
// The trace-driven simulator that reproduces the paper's Table 1 stall
// profile (and cross-checks the analytic model's cache assumptions).
// Caches are write-back / write-allocate, which matches the machines in
// the study.
//
// Storage grows with the sets a run touches: a set's ways are allocated
// on its first access, so an interval-backend call that makes a few
// thousand accesses against a many-MiB slice never zero-fills the whole
// capacity.  Once 1/8 of the sets are touched the cache moves to a dense
// set-ordered array, which long traces (the Table 1 stall profiler's
// millions of accesses) address directly.

#include <cstdint>
#include <vector>

namespace rvhpc::memsim {

/// Aggregate counters for one cache instance.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  [[nodiscard]] double hit_rate() const {
    return accesses ? static_cast<double>(hits) / accesses : 0.0;
  }
  [[nodiscard]] double miss_rate() const {
    return accesses ? static_cast<double>(misses) / accesses : 0.0;
  }
};

/// Outcome of a single access.
struct AccessResult {
  bool hit = false;
  bool writeback = false;        ///< a dirty line was evicted
  std::uint64_t victim_line = 0; ///< line address of the eviction (if any)
  bool evicted = false;
};

/// A single set-associative, write-back, write-allocate cache level.
class Cache {
 public:
  /// size/line in bytes; associativity >= 1.  size must be divisible by
  /// line*associativity.  Throws std::invalid_argument otherwise.
  Cache(std::size_t size_bytes, int associativity, int line_bytes);

  /// Performs one access; installs the line on miss (evicting LRU).
  AccessResult access(std::uint64_t addr, bool is_write);

  /// True if the line containing addr is currently resident (no LRU
  /// update; for tests).
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  /// Drops all lines (counts dirty ones as writebacks).
  void flush();

  /// Invalidates the line containing addr if resident (coherence action);
  /// a dirty victim is counted as a writeback.  Returns true if a line was
  /// dropped.
  bool invalidate(std::uint64_t addr);

  /// Coherence invalidations received from other cores' writes.
  [[nodiscard]] std::uint64_t coherence_invalidations() const {
    return coherence_invalidations_;
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size_bytes() const { return size_; }
  [[nodiscard]] int associativity() const { return assoc_; }
  [[nodiscard]] int line_bytes() const { return line_; }
  [[nodiscard]] std::size_t sets() const { return sets_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;   ///< last-touch stamp: unique and >= 1 while
                             ///< valid, 0 while invalid
    bool valid = false;
    bool dirty = false;
  };

  /// The dense switch: a cache whose touched sets reach sets_ /
  /// kDenseDivisor copies its blocks into the dense array.  At 1/8 the
  /// mean interval call (about 2,500 accesses) stays sparse on every level
  /// of more than about 20,000 sets, while a stall profile (millions of
  /// accesses) crosses it during its warmup; until then the pool holds at
  /// most 1/8 of the dense array.
  static constexpr std::size_t kDenseDivisor = 8;
  static constexpr std::size_t kUntouched = static_cast<std::size_t>(-1);

  std::size_t size_;
  int assoc_;
  int line_;
  std::size_t sets_;
  int line_shift_;
  std::uint64_t stamp_ = 0;
  std::uint64_t coherence_invalidations_ = 0;
  /// Blocks of assoc_ ways.  Before the dense switch: one per touched set
  /// in first-touch order, found through slot_ (block + 1; 0 = never
  /// touched).  After it: sets_ blocks in set order, and slot_ is empty.
  std::vector<Line> lines_;
  std::vector<std::uint32_t> slot_;
  CacheStats stats_;

  [[nodiscard]] std::size_t set_index(std::uint64_t line_addr) const {
    return static_cast<std::size_t>(line_addr % sets_);
  }
  /// Index in lines_ of set `set`'s first way, or kUntouched.
  [[nodiscard]] std::size_t block(std::size_t set) const;
  /// block(set) before the dense switch, allocating the block on the
  /// set's first touch (which may make the switch).
  std::size_t touch(std::size_t set);
};

}  // namespace rvhpc::memsim
