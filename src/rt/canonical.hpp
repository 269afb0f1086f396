#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "rt/task_set.hpp"

namespace flexrt::rt {

/// 128-bit content hash: the key space of the process-wide answer memo
/// (svc::MemoCache). Two lanes of splitmix-style mixing -- collisions are
/// a correctness hazard (a colliding system would receive another
/// system's cached answer), so the canonicalizer test bank checks a
/// 10^4-system corpus stays collision-free.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;

  /// True for a default-constructed (never assigned) hash; canonical
  /// digests are salted so a real digest is never {0, 0}.
  bool empty() const noexcept { return hi == 0 && lo == 0; }
};

/// Incremental 128-bit hasher. Order-sensitive: callers feed the
/// *canonical* serialization (sorted tasks, sorted channels), never raw
/// iteration order.
class HashStream {
 public:
  HashStream& u64(std::uint64_t v) noexcept;
  HashStream& i64(std::int64_t v) noexcept {
    return u64(static_cast<std::uint64_t>(v));
  }
  /// Bit pattern of `v` with -0.0 normalized to +0.0 (the two compare
  /// equal everywhere in the library, so they must hash equal).
  HashStream& f64(double v) noexcept;
  HashStream& boolean(bool v) noexcept { return u64(v ? 1 : 0); }
  /// Length-prefixed, so ("ab","c") and ("a","bc") cannot collide.
  HashStream& str(std::string_view s) noexcept;

  Hash128 digest() const noexcept;

 private:
  std::uint64_t a_ = 0x243f6a8885a308d3ull;  // pi
  std::uint64_t b_ = 0x13198a2e03707344ull;
};

/// Time values are canonicalized on a fixed decimal grid: t maps to the
/// integer llround(t / kCanonicalResolution) when that round-trip is
/// within kCanonicalSnapTol (relative). The tolerance matches the
/// library-wide ratio snapping (math_util::kRatioSnapTol): times closer
/// than one part in 10^9 are already identified by the analyses, so the
/// memo may identify them too.
inline constexpr double kCanonicalResolution = 1e-9;
inline constexpr double kCanonicalSnapTol = 1e-9;

/// The canonical form of one mode-task system, reduced to what the memo
/// key needs: the content hash, and the time scale that maps canonical
/// time units back to native ones (answers are stored in native units
/// together with the producer's scale; a cross-scale hit multiplies the
/// stored answer's time-dimensioned fields by the scale ratio).
///
/// Normalization: every task time (wcet, period, deadline) is snapped to
/// the decimal grid and the whole system is divided by the GCD of the
/// grid integers, so two systems that differ only by a common time scale
/// share a hash ("10ms-world" == "10s-world"). Systems with off-grid
/// times skip the GCD step (normalized == false) and hash their raw
/// bits: still deterministic and collision-safe, just not
/// scale-invariant.
///
/// Task order: tasks hash in deadline-monotonic *stable* order -- the
/// exact priority order the FP analysis imposes (rt::priority.hpp), which
/// EDF is indifferent to. Shuffling tasks with distinct deadlines does
/// not change the hash; reordering equal-deadline tasks does, because it
/// changes their FP tie priority and may change the answer. Channels
/// within a mode hash in sorted-serialization order (channel identity is
/// immaterial to every analysis: verify checks all, minQ takes the max).
struct CanonicalSystem {
  Hash128 hash{};
  /// Native time units per canonical unit (grid_gcd * resolution);
  /// 1.0 when not normalized.
  double scale = 1.0;
  /// GCD of the grid integers; 0 when not normalized.
  std::int64_t grid_gcd = 0;
  /// The same canonical task/channel order hashed with every time's exact
  /// bits: equal only for bit-equal systems (up to the permutations the
  /// canonical order absorbs), where `hash` also identifies systems whose
  /// times differ below the grid.
  Hash128 exact{};

  bool normalized() const noexcept { return grid_gcd > 0; }

  /// Hashes a time-dimensioned request parameter scale-invariantly: on
  /// the grid it contributes the reduced rational n/grid_gcd, so the
  /// same request against a rescaled twin system produces the same
  /// memo key. Off-grid (or unnormalized) times hash their raw bits
  /// together with the scale: same-system repeats still hit, cross-scale
  /// twins safely miss.
  void time(HashStream& h, double t) const noexcept;
  /// A rate (1/time): hashed as time(1/r), with 0 and negatives hashed
  /// raw. Scale-invariant for positive on-grid reciprocals.
  void inverse_time(HashStream& h, double r) const noexcept;
};

/// Two-phase canonicalizer: feed every partition group (one per mode,
/// tagged), then finish(). The groups' channel storage must outlive
/// finish() -- the builder stores views, not copies.
class CanonicalBuilder {
 public:
  void add_group(std::uint64_t tag, std::span<const TaskSet> channels) {
    groups_.push_back({tag, channels});
  }

  CanonicalSystem finish() const;

 private:
  struct Group {
    std::uint64_t tag;
    std::span<const TaskSet> channels;
  };
  std::vector<Group> groups_;
};

}  // namespace flexrt::rt
