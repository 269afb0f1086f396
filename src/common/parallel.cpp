#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/annotations.hpp"

namespace flexrt::par {
namespace {

// Workers run serially when a loop is too small for the handoff to pay off.
constexpr std::size_t kSerialCutoff = 2;

thread_local bool t_inside_pool = false;

std::size_t resolve_thread_count() noexcept {
  if (const char* env = std::getenv("FLEXRT_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// Persistent pool: workers sleep on a condition variable and wake for each
/// submitted loop. One loop runs at a time (submissions serialize on
/// submit_mutex_); the caller thread participates in the loop, so the pool
/// only needs thread_count() - 1 workers.
///
/// Lock contract: submit_mutex_ is the loop-at-a-time capability -- held by
/// the submitting thread for the whole run(), it guards nothing finer than
/// the right to stage a new loop. All per-loop state that workers read
/// (generation_, n_, chunk_, fn_, error_) is GUARDED_BY(wake_mutex_):
/// run() stages it in the same critical section that bumps generation_,
/// and each worker snapshots it once under wake_mutex_ on wake-up, so the
/// hot chunk loop touches only the atomic cursor.
class Pool {
 public:
  static Pool& instance() {
    // Intentionally leaked: workers are detached and may still be parked on
    // the condition variables during static destruction.
    static Pool* pool = new Pool(thread_count());
    return *pool;
  }

  void run(std::size_t n,
           const std::function<void(std::size_t, std::size_t)>& fn) {
    sys::MutexLock submit_lock(submit_mutex_);
    {
      sys::MutexLock lock(wake_mutex_);
      cursor_.store(0, std::memory_order_relaxed);
      n_ = n;
      chunk_ = std::max<std::size_t>(1, n / (8 * (workers_.size() + 1)));
      fn_ = &fn;
      error_ = nullptr;
      pending_.store(workers_.size(), std::memory_order_release);
      ++generation_;
    }
    wake_cv_.notify_all();

    // The caller is one of the loop's threads. Mark it pool-internal for
    // the duration so nested parallel_for calls from the loop body run
    // serially inline instead of deadlocking on submit_mutex_.
    const bool was_inside = t_inside_pool;
    t_inside_pool = true;
    work();
    t_inside_pool = was_inside;

    std::exception_ptr error;
    {
      sys::MutexLock lock(wake_mutex_);
      while (pending_.load(std::memory_order_acquire) != 0) {
        done_cv_.wait(wake_mutex_);
      }
      fn_ = nullptr;
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  explicit Pool(std::size_t threads) {
    for (std::size_t i = 0; i + 1 < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    for (std::thread& t : workers_) t.detach();
  }

  void worker_loop() {
    t_inside_pool = true;
    std::uint64_t seen = 0;
    for (;;) {
      {
        sys::MutexLock lock(wake_mutex_);
        while (generation_ == seen) wake_cv_.wait(wake_mutex_);
        seen = generation_;
      }
      work();
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        sys::MutexLock lock(wake_mutex_);
        done_cv_.notify_all();
      }
    }
  }

  void work() {
    // Snapshot the staged loop once; the chunk loop itself runs lock-free
    // on the atomic cursor.
    std::size_t n, chunk;
    const std::function<void(std::size_t, std::size_t)>* fn;
    {
      sys::MutexLock lock(wake_mutex_);
      n = n_;
      chunk = chunk_;
      fn = fn_;
    }
    if (fn == nullptr) return;
    for (;;) {
      const std::size_t begin =
          cursor_.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + chunk);
      try {
        (*fn)(begin, end);
      } catch (...) {
        sys::MutexLock lock(wake_mutex_);
        if (!error_) error_ = std::current_exception();
      }
    }
  }

  /// Serializes loop submissions; held across the whole of run().
  sys::Mutex submit_mutex_ ACQUIRED_BEFORE(wake_mutex_);
  /// Guards the staged-loop state below and the wake/done handshakes.
  sys::Mutex wake_mutex_;
  sys::CondVar wake_cv_;
  sys::CondVar done_cv_;
  std::uint64_t generation_ GUARDED_BY(wake_mutex_) = 0;
  std::atomic<std::size_t> cursor_{0};
  std::atomic<std::size_t> pending_{0};
  std::size_t n_ GUARDED_BY(wake_mutex_) = 0;
  std::size_t chunk_ GUARDED_BY(wake_mutex_) = 1;
  const std::function<void(std::size_t, std::size_t)>* fn_
      GUARDED_BY(wake_mutex_) = nullptr;
  std::exception_ptr error_ GUARDED_BY(wake_mutex_);
  std::vector<std::thread> workers_;
};

}  // namespace

std::size_t thread_count() noexcept {
  static const std::size_t count = resolve_thread_count();
  return count;
}

std::size_t default_stream_window() noexcept {
  // 4 slots per worker: enough slack that a worker finishing early is not
  // gated on the stream head, while keeping peak buffering a small constant
  // multiple of the thread count.
  return std::max<std::size_t>(8, 4 * thread_count());
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (thread_count() == 1 || n < kSerialCutoff || t_inside_pool) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Pool::instance().run(n, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace flexrt::par
