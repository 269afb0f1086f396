#include "rt/canonical.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

namespace flexrt::rt {
namespace {

/// splitmix64 finalizer: the mixing primitive of both hash lanes.
constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr double kInvResolution = 1.0 / kCanonicalResolution;

/// Grid snap of one time value: the canonical integer, or -1 when the
/// value is off-grid (negative, too large for the integer range, or
/// farther than the snap tolerance from the nearest grid point).
std::int64_t snap(double t) noexcept {
  const double f = t * kInvResolution;
  if (!(f >= 0.0) || f > 0x1p62) return -1;
  const double n = std::nearbyint(f);
  if (std::abs(f - n) > kCanonicalSnapTol * std::max(1.0, f)) return -1;
  return static_cast<std::int64_t>(n);
}

// Token stream markers: every value class gets its own tag so streams of
// different shapes cannot alias (e.g. a rational vs. a raw double).
enum : std::uint64_t {
  kTagRational = 0x52,  // reduced n/q grid rational
  kTagRawTime = 0x54,   // off-grid time: raw bits + scale bits
  kTagRawRate = 0x55,   // non-positive rate: raw bits
};

void append_string(std::vector<std::uint64_t>& out, std::string_view s) {
  out.push_back(s.size());
  for (std::size_t i = 0; i < s.size(); i += 8) {
    std::uint64_t word = 0;
    const std::size_t n = std::min<std::size_t>(8, s.size() - i);
    std::memcpy(&word, s.data() + i, n);
    out.push_back(word);
  }
}

std::uint64_t f64_bits(double v) noexcept {
  if (v == 0.0) v = 0.0;  // -0.0 -> +0.0
  return std::bit_cast<std::uint64_t>(v);
}

/// One task's canonical tokens. `g` > 0 selects grid form (integer times
/// divided by the system GCD), 0 selects raw-bits form.
void append_task(std::vector<std::uint64_t>& out, const Task& t,
                 std::int64_t g) {
  append_string(out, t.name);
  out.push_back(static_cast<std::uint64_t>(t.mode));
  for (const double v : {t.wcet, t.period, t.deadline}) {
    if (g > 0) {
      out.push_back(static_cast<std::uint64_t>(snap(v) / g));
    } else {
      out.push_back(f64_bits(v));
    }
  }
}

}  // namespace

HashStream& HashStream::u64(std::uint64_t v) noexcept {
  a_ = mix(a_ ^ mix(v));
  b_ = mix(b_ + mix(v ^ 0x6a09e667f3bcc909ull));
  return *this;
}

HashStream& HashStream::f64(double v) noexcept { return u64(f64_bits(v)); }

HashStream& HashStream::str(std::string_view s) noexcept {
  u64(s.size());
  for (std::size_t i = 0; i < s.size(); i += 8) {
    std::uint64_t word = 0;
    const std::size_t n = std::min<std::size_t>(8, s.size() - i);
    std::memcpy(&word, s.data() + i, n);
    u64(word);
  }
  return *this;
}

Hash128 HashStream::digest() const noexcept {
  Hash128 h;
  h.hi = mix(a_ + 0x510e527fade682d1ull);
  h.lo = mix(b_ ^ a_);
  if (h.empty()) h.lo = 1;  // keep {0,0} as the "never assigned" sentinel
  return h;
}

void CanonicalSystem::time(HashStream& h, double t) const noexcept {
  if (normalized()) {
    const std::int64_t n = snap(t);
    if (n >= 0) {
      const std::int64_t d = std::gcd(n, grid_gcd);
      h.u64(kTagRational).i64(n / d).i64(grid_gcd / d);
      return;
    }
  }
  h.u64(kTagRawTime).f64(t).f64(scale);
}

void CanonicalSystem::inverse_time(HashStream& h, double r) const noexcept {
  if (r > 0.0) {
    time(h, 1.0 / r);
  } else {
    h.u64(kTagRawRate).f64(r);
  }
}

CanonicalSystem CanonicalBuilder::finish() const {
  CanonicalSystem out;

  // Pass 1: grid-snap every task time; the system normalizes only when
  // all of them land on the grid (GCD of off-grid values is undefined).
  std::int64_t g = 0;
  bool grid_ok = true;
  for (const Group& grp : groups_) {
    for (const TaskSet& channel : grp.channels) {
      for (const Task& t : channel) {
        for (const double v : {t.wcet, t.period, t.deadline}) {
          const std::int64_t n = snap(v);
          if (n < 0) {
            grid_ok = false;
          } else if (n > 0) {
            g = std::gcd(g, n);
          }
        }
        if (!grid_ok) break;
      }
    }
  }
  if (grid_ok && g > 0) {
    out.grid_gcd = g;
    out.scale = static_cast<double>(g) * kCanonicalResolution;
  }

  // Pass 2: serialize each channel in deadline-monotonic stable order
  // (the FP priority order; EDF is order-indifferent), then feed groups
  // with their channels in sorted-serialization order.
  // Each channel serializes twice, in grid form for `hash` and raw-bits
  // form for `exact`; sorting the pairs orders channels by grid form first,
  // so `hash` sees the order it always did.
  HashStream h, exact;
  h.u64(out.grid_gcd > 0 ? 1 : 0);
  using Tokens = std::vector<std::uint64_t>;
  for (const Group& grp : groups_) {
    std::vector<std::pair<Tokens, Tokens>> channels;
    channels.reserve(grp.channels.size());
    for (const TaskSet& channel : grp.channels) {
      std::vector<const Task*> order;
      order.reserve(channel.size());
      for (const Task& t : channel) order.push_back(&t);
      std::stable_sort(order.begin(), order.end(),
                       [](const Task* a, const Task* b) {
                         return a->deadline < b->deadline;
                       });
      Tokens grid = {order.size()};
      Tokens raw = grid;
      for (const Task* t : order) {
        append_task(grid, *t, out.grid_gcd);
        append_task(raw, *t, 0);
      }
      channels.emplace_back(std::move(grid), std::move(raw));
    }
    std::sort(channels.begin(), channels.end());
    h.u64(grp.tag).u64(channels.size());
    exact.u64(grp.tag).u64(channels.size());
    for (const auto& [grid, raw] : channels) {
      for (const std::uint64_t w : grid) h.u64(w);
      for (const std::uint64_t w : raw) exact.u64(w);
    }
  }
  out.hash = h.digest();
  out.exact = exact.digest();
  return out;
}

}  // namespace flexrt::rt
