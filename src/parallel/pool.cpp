#include "parallel/pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace litmus::par {
namespace {

thread_local int t_region_depth = 0;

struct RegionGuard {
  RegionGuard() noexcept { ++t_region_depth; }
  ~RegionGuard() noexcept { --t_region_depth; }
};

/// Fixed-size worker pool draining a shared FIFO queue. Tasks are plain
/// closures that never block on other tasks (see pool.h), so shutdown only
/// has to drain the queue and join.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      threads_.emplace_back([this, i] { worker_loop(i); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  std::size_t workers() const noexcept { return threads_.size(); }

  void submit(std::function<void()> task) {
    Task t;
    t.fn = std::move(task);
    t.submit_ns = obs::now_ns();
    // Carry the submitter's span across the queue so spans opened by the
    // task nest under the span that fanned the work out, not under a
    // disconnected per-worker root.
    t.parent_span = obs::current_span_id();
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(t));
      depth = queue_.size();
    }
    tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      auto& reg = obs::Registry::global();
      reg.counter("parallel.pool.tasks", obs::MetricClass::kMeasured).add();
      reg.gauge("parallel.pool.queue_depth", obs::MetricClass::kMeasured)
          .set(static_cast<double>(depth));
    }
    cv_.notify_one();
  }

  std::size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }
  std::uint64_t tasks_submitted() const noexcept {
    return tasks_submitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t tasks_completed() const noexcept {
    return tasks_completed_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::function<void()> fn;
    std::uint64_t submit_ns = 0;
    std::uint64_t parent_span = 0;
  };

  void worker_loop(std::size_t index) {
    obs::set_thread_name("pool-worker-" + std::to_string(index));
    RegionGuard region;  // everything a worker runs is a parallel region
    const std::uint64_t born_ns = obs::now_ns();
    std::uint64_t busy_ns = 0;
    obs::Gauge* utilization = nullptr;  // lazily resolved, then cached
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
        if (obs::enabled())
          obs::Registry::global()
              .gauge("parallel.pool.queue_depth", obs::MetricClass::kMeasured)
              .set(static_cast<double>(queue_.size()));
      }
      const std::uint64_t run_start = obs::now_ns();
      {
        obs::SpanParentGuard parent(task.parent_span);
        task.fn();
      }
      const std::uint64_t run_end = obs::now_ns();
      busy_ns += run_end - run_start;
      tasks_completed_.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) {
        auto& reg = obs::Registry::global();
        reg.histogram("pool.task_wait_us", obs::MetricClass::kMeasured)
            .record(static_cast<double>(run_start - task.submit_ns) / 1000.0);
        reg.histogram("pool.task_run_us", obs::MetricClass::kMeasured)
            .record(static_cast<double>(run_end - run_start) / 1000.0);
        if (utilization == nullptr)
          utilization = &reg.gauge(
              "pool.worker." + std::to_string(index) + ".utilization",
              obs::MetricClass::kMeasured);
        const std::uint64_t alive_ns = run_end - born_ns;
        if (alive_ns > 0)
          utilization->set(static_cast<double>(busy_ns) /
                           static_cast<double>(alive_ns));
      }
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> tasks_submitted_{0};
  std::atomic<std::uint64_t> tasks_completed_{0};
};

std::atomic<std::size_t> g_configured{0};

std::size_t env_threads() {
  const char* env = std::getenv("LITMUS_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) return 0;
  return static_cast<std::size_t>(v);
}

struct PoolHolder {
  std::mutex mu;
  std::unique_ptr<ThreadPool> pool;
};

PoolHolder& holder() {
  static PoolHolder h;
  return h;
}

/// The pool resized to the currently resolved thread count. Callers hold no
/// reference across set_threads (documented in pool.h).
ThreadPool& pool_for(std::size_t workers) {
  PoolHolder& h = holder();
  std::lock_guard<std::mutex> lock(h.mu);
  if (!h.pool || h.pool->workers() != workers)
    h.pool = std::make_unique<ThreadPool>(workers);
  return *h.pool;
}

struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

ChunkRange chunk_range(std::size_t n_items, std::size_t n_chunks,
                       std::size_t chunk) noexcept {
  return {chunk * n_items / n_chunks, (chunk + 1) * n_items / n_chunks};
}

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void set_threads(std::size_t n) noexcept {
  g_configured.store(n, std::memory_order_relaxed);
}

std::size_t threads() {
  const std::size_t configured = g_configured.load(std::memory_order_relaxed);
  if (configured > 0) return configured;
  const std::size_t env = env_threads();
  return env > 0 ? env : hardware_threads();
}

bool in_parallel_region() noexcept { return t_region_depth > 0; }

std::size_t plan_chunks(std::size_t n_items) {
  if (n_items <= 1 || in_parallel_region()) return n_items == 0 ? 0 : 1;
  return std::min(threads(), n_items);
}

void parallel_chunks(
    std::size_t n_items, std::size_t n_chunks,
    const std::function<void(std::size_t chunk, std::size_t begin,
                             std::size_t end)>& fn) {
  if (n_items == 0 || n_chunks == 0) return;
  n_chunks = std::min(n_chunks, n_items);

  // Inline execution claims no region of its own: pool workers hold a
  // guard for their whole lifetime, so nesting stays inline there, while a
  // degenerate single-chunk call on an ordinary thread (e.g. a loop over
  // one study element) leaves nested loops free to be the real fan-out.
  if (n_chunks == 1 || in_parallel_region()) {
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const ChunkRange r = chunk_range(n_items, n_chunks, c);
      fn(c, r.begin, r.end);
    }
    return;
  }

  // Shared completion state for this call; tasks only signal, never wait.
  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining;
    std::exception_ptr error;
  };
  auto join = std::make_shared<Join>();
  join->remaining = n_chunks - 1;

  ThreadPool& pool = pool_for(threads());
  for (std::size_t c = 1; c < n_chunks; ++c) {
    const ChunkRange r = chunk_range(n_items, n_chunks, c);
    pool.submit([join, &fn, c, r] {
      try {
        fn(c, r.begin, r.end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(join->mu);
        if (!join->error) join->error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(join->mu);
        --join->remaining;
      }
      join->cv.notify_one();
    });
  }

  {
    RegionGuard region;
    const ChunkRange r = chunk_range(n_items, n_chunks, 0);
    try {
      fn(0, r.begin, r.end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(join->mu);
      if (!join->error) join->error = std::current_exception();
    }
  }

  std::unique_lock<std::mutex> lock(join->mu);
  join->cv.wait(lock, [&] { return join->remaining == 0; });
  if (join->error) std::rethrow_exception(join->error);
}

void parallel_for(std::size_t n_items,
                  const std::function<void(std::size_t i)>& fn) {
  parallel_chunks(n_items, plan_chunks(n_items),
                  [&fn](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) fn(i);
                  });
}

PoolStats pool_stats() {
  PoolStats stats;
  PoolHolder& h = holder();
  std::lock_guard<std::mutex> lock(h.mu);
  if (h.pool) {
    stats.workers = h.pool->workers();
    stats.queue_depth = h.pool->queue_depth();
    stats.tasks_submitted = h.pool->tasks_submitted();
    stats.tasks_completed = h.pool->tasks_completed();
  }
  return stats;
}

}  // namespace litmus::par
