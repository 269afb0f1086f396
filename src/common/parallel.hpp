#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/annotations.hpp"

namespace flexrt::par {

/// Monotonic wall-clock stopwatch, started at construction. The one timing
/// primitive shared by the executor's per-entry wall_ms provenance and the
/// svc::Deadline checks between accuracy-ladder rungs, so "elapsed" means
/// the same clock everywhere a deadline is compared against a measurement.
class StopWatch {
 public:
  StopWatch() noexcept : t0_(std::chrono::steady_clock::now()) {}

  double elapsed_ms() const noexcept {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Number of worker threads backing parallel_for (>= 1). Resolved once per
/// process: the FLEXRT_THREADS environment variable when set to a positive
/// integer, otherwise std::thread::hardware_concurrency().
std::size_t thread_count() noexcept;

/// Runs fn(i) for every i in [0, n) across a process-wide persistent thread
/// pool and blocks until all iterations finished. Iterations are handed out
/// in index-chunks via an atomic cursor, so the load balances even when
/// iteration costs are skewed (e.g. period probes near the feasibility
/// boundary converge slower).
///
/// Semantics:
///  - fn must be safe to call concurrently from different threads; writes
///    should go to disjoint slots (the canonical pattern is a preallocated
///    results vector indexed by i, which keeps output order deterministic).
///  - The first exception thrown by any iteration is rethrown to the caller
///    after the loop drains; remaining iterations may or may not run.
///  - Calls from inside a pool worker (nested parallelism) and loops too
///    small to amortize the handoff run serially inline -- callers never
///    need to special-case either.
///
/// This is the fleet runner: one iteration per fleet entry, through
/// ordered_stream, for svc::AnalysisService::run (generated study trials
/// are fleet entries too) and svc::run_journaled. The analysis of one
/// system (analysis::BatchEngine) runs serially inside an iteration, so
/// parallelism has exactly one level.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Reorder window for ordered_stream when the caller passes 0: wide enough
/// to keep every worker busy, small enough that peak buffering stays a
/// constant multiple of the thread count rather than the loop size.
std::size_t default_stream_window() noexcept;

/// Ordered streaming loop: computes make(i) for every i in [0, n) across
/// the parallel_for pool and delivers each result to emit(i, value) in
/// strict index order, buffering at most `window` out-of-order results
/// (window 0 = default_stream_window()). This is the bounded-memory
/// counterpart of the preallocated-results-vector pattern: peak buffering
/// is O(window), not O(n).
///
/// How the bound is enforced without deadlock: indices are handed out one
/// at a time through an atomic ticket (so issue order == index order), and
/// a worker blocks before computing index i until i < next_emit + window.
/// The head index (next_emit) is always held by a worker that is past the
/// gate, so the stream always progresses for any window >= 1.
///
/// Emission is serialized: a finished index lands in its slot of a
/// `window`-slot ring, and whichever worker then wins the emitter flag
/// emits every finished index at the head, in order -- exactly one
/// emission at a time, safe to write an ostream from. No lock is taken on
/// that path; only a worker held at the gate sleeps on a condition
/// variable. An exception thrown by make(i) drops that index from the
/// stream and is rethrown (first one wins) after the loop drains;
/// exceptions from emit propagate the same way. A make(i) that merely
/// *stalls* (finite delay) never wedges the gate: entries past i + window
/// wait, buffering stays <= window, and the stream resumes the moment the
/// stalled entry completes -- the fault-injection executor tests pin this
/// down. (Callers that must never lose an entry to an exception --
/// svc::AnalysisService -- catch inside make and return an error-valued
/// result instead.)
///
/// Returns the reorder buffer's high-water mark (<= window), the number
/// the stream_fleet bench row reports against the fleet size.
template <typename Make, typename Emit>
std::size_t ordered_stream(std::size_t n, std::size_t window, Make&& make,
                           Emit&& emit) {
  using Value = std::invoke_result_t<Make&, std::size_t>;
  if (n == 0) return 0;
  if (window == 0) window = default_stream_window();
  window = std::min(window, n);
  // Index k sits in slot k % window from its completion to its emission;
  // the gate keeps every index in flight inside [next_emit, next_emit +
  // window), so no two of them share a slot.
  struct Slot {
    std::optional<Value> value;
    std::exception_ptr error;
    std::atomic<bool> ready{false};
  };
  const std::unique_ptr<Slot[]> ring(new Slot[window]);
  std::atomic<std::size_t> ticket{0};
  std::atomic<std::size_t> next_emit{0};  ///< advanced only by the emitter
  std::atomic<bool> emitting{false};      ///< held by the one emitter
  std::atomic<std::size_t> buffered{0};   ///< finished, not yet emitted
  std::atomic<std::size_t> high_water{0};
  std::atomic<std::size_t> waiting{0};    ///< workers asleep at the gate
  std::exception_ptr first_error;  ///< touched only by the flag holder
  sys::Mutex gate_mu;
  sys::CondVar gate;

  // Emits every finished index at the head, in order, while holding the
  // emitter flag. A head slot that turns ready while another worker holds
  // the flag is picked up by that worker's re-check after it lets go.
  const auto drain = [&] {
    while (!emitting.exchange(true)) {
      const std::size_t first = next_emit.load(std::memory_order_relaxed);
      std::size_t k = first;
      for (; k < n && ring[k % window].ready.load(); ++k) {
        Slot& slot = ring[k % window];
        if (slot.error) {
          if (!first_error) first_error = slot.error;
        } else if (!first_error) {
          try {
            emit(k, std::move(*slot.value));
          } catch (...) {
            first_error = std::current_exception();
          }
        }
        slot.value.reset();
        slot.error = nullptr;
        slot.ready.store(false, std::memory_order_relaxed);
        buffered.fetch_sub(1, std::memory_order_relaxed);
        next_emit.store(k + 1);  // frees the slot for index k + window
      }
      emitting.store(false);
      if (k != first && waiting.load() > 0) {
        sys::MutexLock lock(gate_mu);
        gate.notify_all();
      }
      if (k >= n || !ring[k % window].ready.load()) return;
    }
  };

  parallel_for(n, [&](std::size_t) {
    const std::size_t i = ticket.fetch_add(1, std::memory_order_relaxed);
    const auto gated = [&] { return i >= next_emit.load() + window; };
    // A gated worker first yields for a while: the emitter is usually
    // draining, and a sleep/wake round trip costs more than a short entry.
    for (int spin = 0; spin < 64 && gated(); ++spin) std::this_thread::yield();
    if (gated()) {
      sys::MutexLock lock(gate_mu);
      waiting.fetch_add(1);
      while (gated()) gate.wait(gate_mu);
      waiting.fetch_sub(1);
    }
    Slot& slot = ring[i % window];
    try {
      slot.value.emplace(make(i));
    } catch (...) {
      // The slot must still complete -- a lost index would stall the
      // stream head and deadlock the gated workers behind it.
      slot.error = std::current_exception();
    }
    const std::size_t now = buffered.fetch_add(1, std::memory_order_relaxed) + 1;
    std::size_t peak = high_water.load(std::memory_order_relaxed);
    while (now > peak && !high_water.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
    slot.ready.store(true);
    // Only the head needs to start an emitter: the emitter that later
    // advances next_emit to i finds this slot ready (both sides are
    // seq_cst, so at least one of them sees the other's store).
    if (next_emit.load() == i) drain();
  });
  // parallel_for has joined every worker, so the emitters' writes are
  // visible here.
  if (first_error) std::rethrow_exception(first_error);
  return high_water.load(std::memory_order_relaxed);
}

}  // namespace flexrt::par
