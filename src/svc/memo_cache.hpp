#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <variant>

#include "common/annotations.hpp"
#include "rt/canonical.hpp"
#include "svc/analysis_service.hpp"

namespace flexrt::svc {

/// The answer payload of one memo entry: any typed result, stored with
/// its identity fields cleared (system/name/trial belong to the fleet
/// entry that asks, not the one that computed) and wall-free provenance.
using MemoPayload =
    std::variant<SolveResult, MinQuantumResult, RegionSweepResult,
                 SensitivityResult, VerifyResult, FaultSweepResult>;

struct MemoValue {
  MemoPayload payload;
  /// Producer's canonical time scale (rt::CanonicalSystem::scale): a hit
  /// from a system with a different scale multiplies the payload's
  /// time-dimensioned fields by the scale ratio before returning it.
  double scale = 1.0;
  /// Producer's system and request hashed bit for bit: the system's
  /// rt::CanonicalSystem::exact digest, then hash_request against a default
  /// rt::CanonicalSystem (which hashes every time raw). The key snaps times
  /// to grid rationals, so P = 0.8 and P = 0.8000000000000002 share a key,
  /// as do systems whose WCETs differ by 1e-12; a same-scale hit replays
  /// only when the asker's raw digest matches.
  rt::Hash128 raw{};
};

/// Aggregated cache counters -- what the daemon `status` command renders
/// as memo_hits/memo_misses/memo_evictions/memo_bytes/memo_entries.
struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t capacity_bytes = 0;
  bool enabled = true;
};

/// Process-wide content-addressed answer cache: canonical (system,
/// request) hash -> (answer, provenance, budget). Lock-striped into
/// kShards independent shards, each a mutex-guarded LRU map with its own
/// slice of the byte budget, so concurrent fleet workers contend only
/// 1/kShards of the time and a long-lived daemon's memory stays bounded
/// (satellite: unbounded caches grow flexrtd's RSS forever).
///
/// One instance serves the whole process (global_memo()): flexrtd
/// sessions each own a private fleet, but any system ever solved in any
/// session is a lookup for all of them.
class MemoCache {
 public:
  static constexpr std::size_t kShards = 64;
  static constexpr std::size_t kDefaultCapacityBytes = std::size_t{256}
                                                       << 20;  // 256 MiB

  MemoCache() = default;
  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  /// Process-wide kill switch (--no-memo). Reads are lock-free.
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Total byte budget (--memo-bytes), split evenly across the shards.
  /// Shards over their slice evict LRU-first on the next insert.
  void set_capacity_bytes(std::size_t bytes) noexcept {
    capacity_.store(bytes, std::memory_order_relaxed);
  }

  /// Copies the cached value out (the caller owns a private copy: the
  /// cache can evict concurrently) and refreshes its LRU position.
  std::optional<MemoValue> lookup(const rt::Hash128& key);

  /// As lookup(key), for an asker at canonical `scale` whose request has
  /// raw digest `raw`: a value stored at the same scale under a different
  /// raw digest is not the asker's answer and counts as a miss.
  std::optional<MemoValue> lookup(const rt::Hash128& key, double scale,
                                  const rt::Hash128& raw);

  /// First writer wins: a key already present keeps its stored value, so
  /// concurrent producers of the same canonical answer cannot make a
  /// later reader observe a different (if bit-identical in theory)
  /// payload object. Entries larger than a whole shard's budget are not
  /// cached at all -- churning every resident entry out for one oversized
  /// answer would be a net loss.
  void insert(const rt::Hash128& key, MemoValue value);

  MemoStats stats() const;

  /// Drops every entry and zeroes the counters (tests and the bench's
  /// cold/warm split; never called on live traffic).
  void clear();

 private:
  struct Node {
    rt::Hash128 key;
    MemoValue value;
    std::size_t bytes = 0;
  };
  struct KeyHash {
    std::size_t operator()(const rt::Hash128& k) const noexcept {
      return static_cast<std::size_t>(k.lo);  // already avalanche-mixed
    }
  };
  /// One lock stripe. Every member is guarded by the shard mutex -- the
  /// compile-time contract behind "concurrent fleet workers contend only
  /// 1/kShards of the time": no path can touch a shard's LRU state without
  /// holding exactly that shard's lock.
  struct Shard {
    sys::Mutex mu;
    /// front = most recently used
    std::list<Node> lru GUARDED_BY(mu);
    std::unordered_map<rt::Hash128, std::list<Node>::iterator, KeyHash> map
        GUARDED_BY(mu);
    std::size_t bytes GUARDED_BY(mu) = 0;
    std::uint64_t hits GUARDED_BY(mu) = 0;
    std::uint64_t misses GUARDED_BY(mu) = 0;
    std::uint64_t insertions GUARDED_BY(mu) = 0;
    std::uint64_t evictions GUARDED_BY(mu) = 0;
  };

  std::optional<MemoValue> lookup_impl(const rt::Hash128& key, double scale,
                                       const rt::Hash128* raw);

  Shard& shard_for(const rt::Hash128& key) noexcept {
    return shards_[key.hi % kShards];
  }
  std::size_t shard_capacity() const noexcept {
    return capacity_.load(std::memory_order_relaxed) / kShards;
  }

  std::atomic<bool> enabled_{true};
  std::atomic<std::size_t> capacity_{kDefaultCapacityBytes};
  mutable std::array<Shard, kShards> shards_;
};

/// The process-wide instance every AnalysisService consults.
MemoCache& global_memo();

/// Approximate resident size of a payload (struct + heap blocks), the
/// unit of the cache's byte accounting.
std::size_t memo_payload_bytes(const MemoPayload& payload);

}  // namespace flexrt::svc
