#include "analysis/transposition_table.h"

#include <algorithm>

#include "util/contracts.h"

namespace procon::analysis {

namespace {

// Two independent 64-bit mixers (splitmix64 and a murmur3-style finaliser
// with different multipliers) drive the primary-hash and verify-tag
// chains, so a collision in one half says nothing about the other.
constexpr std::uint64_t mix_a(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t mix_b(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  return x ^ (x >> 33);
}

constexpr std::size_t floor_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

constexpr std::size_t ceil_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p *= 2;
  return p;
}

}  // namespace

TTKeyBuilder::TTKeyBuilder(std::uint64_t fingerprint, TTQuery kind) noexcept
    : h_(mix_a(fingerprint ^ (static_cast<std::uint64_t>(kind) << 56))),
      v_(mix_b(fingerprint + static_cast<std::uint64_t>(kind))) {}

void TTKeyBuilder::absorb(std::uint64_t x) noexcept {
  h_ = mix_a(h_ ^ x);
  v_ = mix_b(v_ + x);
}

TranspositionTable::TranspositionTable(std::size_t capacity, std::size_t shards) {
  const std::size_t shard_count =
      std::max<std::size_t>(1, floor_pow2(std::max<std::size_t>(1, shards)));
  // Every shard gets the same power-of-two bucket count covering at least
  // the requested capacity in total.
  const std::size_t want_buckets = std::max<std::size_t>(
      1, (std::max<std::size_t>(capacity, 1) + shard_count * kWays - 1) /
             (shard_count * kWays));
  const std::size_t buckets = ceil_pow2(want_buckets);

  entries_.resize(shard_count * buckets * kWays);
  shards_ = std::vector<Shard>(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_[i].entries = entries_.data() + i * buckets * kWays;
  }
  shard_mask_ = shard_count - 1;
  shard_bits_ = 0;
  for (std::size_t c = shard_count; c > 1; c /= 2) ++shard_bits_;
  bucket_mask_ = buckets - 1;
}

std::size_t TranspositionTable::capacity() const noexcept {
  return entries_.size();
}

PROCON_WARM_PATH bool TranspositionTable::lookup(const TTKey& key,
                                                 TTValue& out) noexcept {
  PROCON_ASSERT_NO_ALLOC("TranspositionTable::lookup");
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  Entry* bucket = s.entries + bucket_of(key);
  for (std::size_t w = 0; w < kWays; ++w) {
    Entry& e = bucket[w];
    if (e.stamp == 0) continue;
    if (e.hash == key.hash) {
      if (e.verify == key.verify) {
        e.stamp = ++s.clock;
        ++s.stats.hits;
        out = e.value;
        return true;
      }
      ++s.stats.verify_failures;
    }
  }
  ++s.stats.misses;
  return false;
}

PROCON_WARM_PATH void TranspositionTable::store(const TTKey& key,
                                                const TTValue& value) noexcept {
  PROCON_ASSERT_NO_ALLOC("TranspositionTable::store");
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  Entry* bucket = s.entries + bucket_of(key);
  Entry* victim = nullptr;
  bool victim_live = true;
  for (std::size_t w = 0; w < kWays; ++w) {
    Entry& e = bucket[w];
    if (e.stamp == 0) {
      if (victim_live) {
        victim = &e;
        victim_live = false;
      }
      continue;
    }
    if (e.hash == key.hash && e.verify == key.verify) {
      // Same 128-bit key: refresh in place. The bitwise-identity contract
      // makes the new value equal to the old one, so this is a stamp bump.
      e.value = value;
      e.stamp = ++s.clock;
      ++s.stats.stores;
      return;
    }
    if (victim_live && (victim == nullptr || e.stamp < victim->stamp)) {
      victim = &e;  // replace-oldest: stalest live entry so far
    }
  }
  if (victim_live) ++s.stats.evictions;
  victim->hash = key.hash;
  victim->verify = key.verify;
  victim->value = value;
  victim->stamp = ++s.clock;
  ++s.stats.stores;
}

TranspositionTable::Stats TranspositionTable::stats() const {
  Stats out;
  out.shards.reserve(shards_.size());
  for (const Shard& s : shards_) {
    ShardStats snap;
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      snap = s.stats;
    }
    out.hits += snap.hits;
    out.misses += snap.misses;
    out.stores += snap.stores;
    out.evictions += snap.evictions;
    out.verify_failures += snap.verify_failures;
    out.shards.push_back(snap);
  }
  return out;
}

}  // namespace procon::analysis
