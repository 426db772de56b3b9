#include "memsim/cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace rvhpc::memsim {

Cache::Cache(std::size_t size_bytes, int associativity, int line_bytes)
    : size_(size_bytes), assoc_(associativity), line_(line_bytes) {
  if (size_bytes == 0 || associativity < 1 || line_bytes < 1 ||
      !std::has_single_bit(static_cast<unsigned>(line_bytes))) {
    throw std::invalid_argument("Cache: invalid geometry");
  }
  const std::size_t way_bytes =
      static_cast<std::size_t>(line_bytes) * static_cast<std::size_t>(associativity);
  if (size_bytes % way_bytes != 0) {
    throw std::invalid_argument("Cache: size not divisible by line*assoc");
  }
  sets_ = size_bytes / way_bytes;
  // Before the dense switch at most sets_ / kDenseDivisor + 1 blocks
  // exist, and a block's number must fit its 32-bit slot.
  if (sets_ / kDenseDivisor >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("Cache: too many sets");
  }
  line_shift_ = std::countr_zero(static_cast<unsigned>(line_bytes));
  slot_.resize(sets_);
}

std::size_t Cache::block(std::size_t set) const {
  const auto ways = static_cast<std::size_t>(assoc_);
  if (slot_.empty()) return set * ways;
  return slot_[set] == 0 ? kUntouched : (slot_[set] - 1) * ways;
}

std::size_t Cache::touch(std::size_t set) {
  const auto ways = static_cast<std::size_t>(assoc_);
  if (slot_[set] != 0) return (slot_[set] - 1) * ways;
  lines_.resize(lines_.size() + ways);
  const std::size_t blocks = lines_.size() / ways;
  slot_[set] = static_cast<std::uint32_t>(blocks);
  if (blocks * kDenseDivisor < sets_) return (blocks - 1) * ways;
  std::vector<Line> dense(sets_ * ways);
  for (std::size_t s = 0; s < sets_; ++s) {
    if (slot_[s] != 0) {
      std::copy_n(&lines_[(slot_[s] - 1) * ways], ways, &dense[s * ways]);
    }
  }
  lines_ = std::move(dense);
  slot_ = std::vector<std::uint32_t>();
  return set * ways;
}

AccessResult Cache::access(std::uint64_t addr, bool is_write) {
  AccessResult result;
  ++stats_.accesses;
  const std::uint64_t line_addr = addr >> line_shift_;
  const std::size_t set_no = set_index(line_addr);
  Line* set = &lines_[slot_.empty() ? set_no * static_cast<std::size_t>(assoc_)
                                    : touch(set_no)];

  // The victim is the last invalid way, else the least recently used one.
  // An invalid way's stamp is 0 and a valid way's is unique and >= 1, so
  // that is the last way with the smallest stamp: one comparison per way,
  // which compiles without a data-dependent branch.
  Line* victim = &set[0];
  for (int w = 0; w < assoc_; ++w) {
    Line& l = set[w];
    if (l.valid && l.tag == line_addr) {
      l.lru = ++stamp_;
      l.dirty = l.dirty || is_write;
      ++stats_.hits;
      result.hit = true;
      return result;
    }
    if (l.lru <= victim->lru) victim = &l;
  }

  ++stats_.misses;
  if (victim->valid) {
    ++stats_.evictions;
    result.evicted = true;
    result.victim_line = victim->tag << line_shift_;
    if (victim->dirty) {
      ++stats_.writebacks;
      result.writeback = true;
    }
  }
  victim->tag = line_addr;
  victim->valid = true;
  victim->dirty = is_write;
  victim->lru = ++stamp_;
  return result;
}

bool Cache::contains(std::uint64_t addr) const {
  const std::uint64_t line_addr = addr >> line_shift_;
  const std::size_t first = block(set_index(line_addr));
  if (first == kUntouched) return false;
  const Line* set = &lines_[first];
  for (int w = 0; w < assoc_; ++w) {
    if (set[w].valid && set[w].tag == line_addr) return true;
  }
  return false;
}

bool Cache::invalidate(std::uint64_t addr) {
  const std::uint64_t line_addr = addr >> line_shift_;
  const std::size_t first = block(set_index(line_addr));
  if (first == kUntouched) return false;
  Line* set = &lines_[first];
  for (int w = 0; w < assoc_; ++w) {
    Line& l = set[w];
    if (l.valid && l.tag == line_addr) {
      if (l.dirty) ++stats_.writebacks;
      l = Line{};
      ++coherence_invalidations_;
      return true;
    }
  }
  return false;
}

void Cache::flush() {
  for (Line& l : lines_) {
    if (l.valid && l.dirty) ++stats_.writebacks;
    l = Line{};
  }
}

}  // namespace rvhpc::memsim
