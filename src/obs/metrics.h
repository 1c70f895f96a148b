// Thread-safe metrics for the Litmus pipeline: atomic counters, gauges and
// lock-striped latency/value histograms with quantile snapshots, collected
// in a named Registry and exported through the sinks in obs/sink.h.
//
// Overhead policy (two gates, both default to "pay nothing"):
//   * Compile time: building with -DLITMUS_OBS_ENABLED=0 turns enabled()
//     into `constexpr false`, so every `if (obs::enabled()) {...}`
//     instrumentation block is dead code the optimizer removes.
//   * Run time: even when compiled in, collection is off until
//     set_enabled(true); a disabled check is one relaxed atomic load.
// Instrumented code must therefore guard recording with obs::enabled()
// (ScopedSpan in obs/trace.h performs that check itself).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef LITMUS_OBS_ENABLED
#define LITMUS_OBS_ENABLED 1
#endif

namespace litmus::obs {

#if LITMUS_OBS_ENABLED
/// Runtime master switch; off by default so an uninstrumented run pays one
/// relaxed load per call site and nothing else.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;
#else
constexpr bool enabled() noexcept { return false; }
inline void set_enabled(bool) noexcept {}
#endif

/// Steady-clock nanoseconds (monotonic; only differences are meaningful).
std::uint64_t now_ns() noexcept;

/// Small sequential id for the calling thread (0 for the first thread that
/// asks, 1 for the next, ...). Stable for the thread's lifetime.
std::uint32_t thread_index() noexcept;

/// What a metric's value is a function of, declared when it is registered.
/// Drift audits (obs/rundiff.h) gate only on deterministic metrics, so the
/// default fails closed: a metric nobody classified still gates.
enum class MetricClass : std::uint8_t {
  /// A pure function of (seed, inputs, config): iteration counts, verdict
  /// tallies, fit diagnostics. Identical across same-seed runs.
  kDeterministic,
  /// Timing, scheduling, cache or I/O: latencies, per-worker shares, cache
  /// hits, bytes mapped. Differs between same-seed runs by nature.
  kMeasured,
};

/// "deterministic" / "measured", as metrics.json records the class.
const char* metric_class_name(MetricClass cls) noexcept;

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (fit diagnostics, throughput readings).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Cumulative distribution point: `cumulative` observations fell at or
/// below `upper_bound` (Prometheus `le` semantics; the underlying raw
/// buckets are half-open, so a value exactly on an edge counts under the
/// next point's bound — cumulative counts stay monotone either way).
struct HistogramBucket {
  double upper_bound = 0.0;
  std::uint64_t cumulative = 0;
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< exact; 0 when empty
  double max = 0.0;  ///< exact; 0 when empty
  /// Quantiles estimated from log-linear buckets (<~7% relative error).
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Cumulative counts at the non-empty raw buckets' upper bounds,
  /// ascending and monotone, coalesced to at most kMaxExportBuckets
  /// points. The implicit final point is (+Inf, count); it is not stored.
  std::vector<HistogramBucket> buckets;

  double mean() const noexcept {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Signed log-linear histogram: per power-of-two magnitude decade, 8 linear
/// sub-buckets, mirrored for negative values, one center bucket for zero.
/// Updates are lock-striped by thread index so concurrent workers rarely
/// contend; snapshot() merges the stripes.
class Histogram {
 public:
  static constexpr std::size_t kStripes = 4;
  static constexpr int kSubBuckets = 8;
  static constexpr int kExpMin = -64;
  static constexpr int kExpMax = 63;
  static constexpr std::size_t kMagBuckets =
      static_cast<std::size_t>(kExpMax - kExpMin + 1) * kSubBuckets;
  static constexpr std::size_t kBuckets = 2 * kMagBuckets + 1;
  /// Cap on the cumulative-distribution points a snapshot exports; more
  /// non-empty raw buckets than this coalesce into their neighbors
  /// (dropping an intermediate cumulative point loses resolution, never
  /// correctness).
  static constexpr std::size_t kMaxExportBuckets = 64;

  Histogram();

  void record(double v) noexcept;
  HistogramSnapshot snapshot() const;
  void reset();

  /// Bucket index for a value and the representative (geometric-midpoint)
  /// value of a bucket; exposed for tests.
  static std::size_t bucket_of(double v) noexcept;
  static double bucket_value(std::size_t bucket) noexcept;
  /// Upper edge of a bucket's value range (the `le` bound its
  /// observations fall under); exposed for tests.
  static double bucket_upper(std::size_t bucket) noexcept;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::array<Stripe, kStripes> stripes_;
};

/// One consistent read of every registered metric, name-sorted.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  /// Declared class of every metric above, by name. A name registered as
  /// more than one kind with different classes reads as measured.
  std::map<std::string, MetricClass> classes;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Named metric registry. Lookup registers on first use; returned
/// references stay valid for the registry's lifetime (reset() zeroes
/// values but never removes metrics, so call sites may cache them).
/// The class is fixed by the first registration of a name; later lookups
/// return the same metric whatever class they pass.
class Registry {
 public:
  Counter& counter(std::string_view name,
                   MetricClass cls = MetricClass::kDeterministic);
  Gauge& gauge(std::string_view name,
               MetricClass cls = MetricClass::kDeterministic);
  Histogram& histogram(std::string_view name,
                       MetricClass cls = MetricClass::kDeterministic);

  MetricsSnapshot snapshot() const;
  void reset();

  /// The process-wide registry the pipeline instrumentation records into.
  static Registry& global();

 private:
  template <typename Metric>
  struct Entry {
    std::unique_ptr<Metric> metric;
    MetricClass cls;
  };
  template <typename Metric>
  using Map = std::map<std::string, Entry<Metric>, std::less<>>;

  mutable std::mutex mu_;
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<Histogram> histograms_;
};

}  // namespace litmus::obs
