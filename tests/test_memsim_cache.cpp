// Tests for rvhpc::memsim::Cache — set-associative LRU behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <vector>

#include "memsim/cache.hpp"

namespace rvhpc::memsim {
namespace {

TEST(Cache, GeometryDerivation) {
  Cache c(32 * 1024, 8, 64);
  EXPECT_EQ(c.sets(), 64u);
  EXPECT_EQ(c.size_bytes(), 32u * 1024u);
  EXPECT_EQ(c.associativity(), 8);
  EXPECT_EQ(c.line_bytes(), 64);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(0, 8, 64), std::invalid_argument);
  EXPECT_THROW(Cache(1024, 0, 64), std::invalid_argument);
  EXPECT_THROW(Cache(1024, 8, 48), std::invalid_argument);   // not pow2 line
  EXPECT_THROW(Cache(1000, 8, 64), std::invalid_argument);   // not divisible
  // 2^56 sets: block numbers would overflow their 32-bit slots.
  EXPECT_THROW(Cache(std::size_t{1} << 62, 1, 64), std::invalid_argument);
}

TEST(Cache, ColdMissThenHit) {
  Cache c(4096, 4, 64);
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1030, false).hit);  // same 64B line
  EXPECT_FALSE(c.access(0x1040, false).hit); // next line
  EXPECT_EQ(c.stats().accesses, 4u);
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictsOldest) {
  // Direct observation of LRU in one set: 2-way, line 64, 2 sets.
  Cache c(256, 2, 64);
  // Set 0 gets lines 0, 2, 4 (even line indices).
  c.access(0 * 64, false);
  c.access(2 * 64, false);
  c.access(0 * 64, false);          // touch line 0: line 2 is now LRU
  const auto r = c.access(4 * 64, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 2u * 64u);
  EXPECT_TRUE(c.contains(0 * 64));
  EXPECT_FALSE(c.contains(2 * 64));
  EXPECT_TRUE(c.contains(4 * 64));
}

TEST(Cache, DirtyEvictionWritesBack) {
  Cache c(128, 1, 64);  // direct-mapped, 2 sets
  c.access(0, true);                       // dirty line 0 in set 0
  const auto r = c.access(2 * 64, false);  // maps to set 0, evicts
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(c.stats().writebacks, 1u);
  const auto r2 = c.access(4 * 64, false); // clean eviction
  EXPECT_TRUE(r2.evicted);
  EXPECT_FALSE(r2.writeback);
}

TEST(Cache, WriteHitMarksLineDirty) {
  Cache c(128, 1, 64);
  c.access(0, false);
  c.access(0, true);                       // hit-for-write dirties the line
  const auto r = c.access(2 * 64, false);
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, FlushDropsEverythingAndCountsDirty) {
  Cache c(4096, 4, 64);
  c.access(0, true);
  c.access(64, false);
  c.flush();
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.contains(64));
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup) {
  Cache c(64 * 1024, 8, 64);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t a = 0; a < 32 * 1024; a += 64) c.access(a, false);
  }
  // Second and third passes must be pure hits: 512 misses total.
  EXPECT_EQ(c.stats().misses, 512u);
  EXPECT_EQ(c.stats().hits, 1024u);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  Cache c(4 * 1024, 4, 64);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t a = 0; a < 64 * 1024; a += 64) c.access(a, false);
  }
  // Cyclic sweep over 16x the capacity with LRU: every access misses.
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(Cache, ContainsDoesNotPerturbLru) {
  Cache c(128, 2, 64);
  c.access(0, false);
  c.access(2 * 64, false);
  ASSERT_TRUE(c.contains(0));              // query must not refresh line 0
  const auto r = c.access(4 * 64, false);  // evicts true LRU = line 0
  EXPECT_EQ(r.victim_line, 0u);
}

// Every access of a seeded read/write/invalidate trace against a
// reference LRU that keeps each set as a recency list.  The cache has 512
// sets: the first phase touches 16 of them (under the 1/8 that makes the
// cache switch to its dense layout) with enough lines to evict, and the
// second spreads over 4x the capacity, so the trace runs on both layouts
// and across the switch.  A set no access has touched is empty to every
// query, and a final flush counts exactly the dirty lines.
TEST(Cache, MatchesReferenceLruAcrossTheDenseSwitch) {
  constexpr int kAssoc = 8;
  constexpr int kLine = 64;
  constexpr std::size_t kSets = 512;
  Cache c(kSets * kAssoc * kLine, kAssoc, kLine);
  ASSERT_EQ(c.sets(), kSets);

  struct Entry {
    std::uint64_t line;
    bool dirty;
  };
  std::vector<std::deque<Entry>> ref(kSets);  // front = most recent
  CacheStats want;
  std::uint64_t want_invalidations = 0;
  const auto find = [&](std::uint64_t line) {
    auto& set = ref[line % kSets];
    return std::find_if(set.begin(), set.end(),
                        [&](const Entry& e) { return e.line == line; });
  };

  const auto untouched_set_is_empty = [&c] {
    const CacheStats before = c.stats();
    const std::uint64_t invalidations = c.coherence_invalidations();
    const std::uint64_t addr = 100 * kLine;  // set 100: untouched in phase 1
    EXPECT_FALSE(c.contains(addr));
    EXPECT_FALSE(c.invalidate(addr));
    EXPECT_EQ(c.coherence_invalidations(), invalidations);
    EXPECT_EQ(c.stats().accesses, before.accesses);
    EXPECT_EQ(c.stats().writebacks, before.writebacks);
  };
  untouched_set_is_empty();

  std::mt19937_64 rng(2044);
  const std::uint64_t capacity_lines = kSets * kAssoc;
  for (int i = 0; i < 60000; ++i) {
    if (i == 2000) untouched_set_is_empty();
    std::uint64_t line = 0;
    if (i < 4000) {
      // Sets 0..15, 4 x assoc distinct lines each.
      line = (rng() % 16) + kSets * (rng() % (4 * kAssoc));
    } else {
      line = rng() % (4 * capacity_lines);
    }
    const std::uint64_t addr = line * kLine + rng() % kLine;
    const unsigned op = static_cast<unsigned>(rng() % 100);
    auto& set = ref[line % kSets];
    const auto it = find(line);

    if (op < 3) {  // a coherence invalidation
      const bool resident = it != set.end();
      ASSERT_EQ(c.invalidate(addr), resident) << "op " << i;
      if (resident) {
        if (it->dirty) ++want.writebacks;
        ++want_invalidations;
        set.erase(it);
      }
      continue;
    }
    const bool is_write = op < 33;
    const AccessResult got = c.access(addr, is_write);
    ++want.accesses;
    if (it != set.end()) {
      Entry e = *it;
      e.dirty = e.dirty || is_write;
      set.erase(it);
      set.push_front(e);
      ++want.hits;
      ASSERT_TRUE(got.hit) << "op " << i;
      ASSERT_FALSE(got.evicted) << "op " << i;
      ASSERT_FALSE(got.writeback) << "op " << i;
      continue;
    }
    ++want.misses;
    ASSERT_FALSE(got.hit) << "op " << i;
    const bool full = set.size() == static_cast<std::size_t>(kAssoc);
    ASSERT_EQ(got.evicted, full) << "op " << i;
    if (full) {
      const Entry lru = set.back();
      set.pop_back();
      ++want.evictions;
      if (lru.dirty) ++want.writebacks;
      ASSERT_EQ(got.victim_line, lru.line * kLine) << "op " << i;
      ASSERT_EQ(got.writeback, lru.dirty) << "op " << i;
    } else {
      ASSERT_FALSE(got.writeback) << "op " << i;
    }
    set.push_front(Entry{line, is_write});
  }

  EXPECT_EQ(c.stats().accesses, want.accesses);
  EXPECT_EQ(c.stats().hits, want.hits);
  EXPECT_EQ(c.stats().misses, want.misses);
  EXPECT_EQ(c.stats().evictions, want.evictions);
  EXPECT_EQ(c.stats().writebacks, want.writebacks);
  EXPECT_EQ(c.coherence_invalidations(), want_invalidations);

  std::uint64_t dirty = 0;
  for (const auto& set : ref) {
    for (const Entry& e : set) {
      EXPECT_TRUE(c.contains(e.line * kLine));
      if (e.dirty) ++dirty;
    }
  }
  c.flush();
  EXPECT_EQ(c.stats().writebacks, want.writebacks + dirty);
  for (const auto& set : ref) {
    for (const Entry& e : set) EXPECT_FALSE(c.contains(e.line * kLine));
  }
}

TEST(CacheStats, Rates) {
  CacheStats s;
  EXPECT_EQ(s.hit_rate(), 0.0);
  s.accesses = 10;
  s.hits = 7;
  s.misses = 3;
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.7);
  EXPECT_DOUBLE_EQ(s.miss_rate(), 0.3);
}

}  // namespace
}  // namespace rvhpc::memsim
