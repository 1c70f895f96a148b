#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace litmus::obs {
namespace {

#if LITMUS_OBS_ENABLED
std::atomic<bool> g_enabled{false};
#endif

std::atomic<std::uint32_t> g_next_thread{0};

}  // namespace

const char* metric_class_name(MetricClass cls) noexcept {
  return cls == MetricClass::kMeasured ? "measured" : "deterministic";
}

#if LITMUS_OBS_ENABLED
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}
#endif

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t thread_index() noexcept {
  thread_local const std::uint32_t idx =
      g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

Histogram::Histogram() {
  for (auto& s : stripes_) s.buckets.assign(kBuckets, 0);
}

std::size_t Histogram::bucket_of(double v) noexcept {
  if (v == 0.0 || std::isnan(v)) return kMagBuckets;  // center bucket
  const double a = std::fabs(v);
  int e = 0;
  const double m = std::frexp(a, &e);  // a = m * 2^e, m in [0.5, 1)
  // Rebase to mantissa in [1, 2) with exponent e-1.
  int exp = std::clamp(e - 1, kExpMin, kExpMax);
  int sub = static_cast<int>((2.0 * m - 1.0) * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  if (e - 1 < kExpMin) sub = 0;                  // underflow: smallest bucket
  if (e - 1 > kExpMax) sub = kSubBuckets - 1;    // overflow: largest bucket
  const std::size_t mag =
      static_cast<std::size_t>(exp - kExpMin) * kSubBuckets +
      static_cast<std::size_t>(sub);
  return v > 0 ? kMagBuckets + 1 + mag : kMagBuckets - 1 - mag;
}

double Histogram::bucket_value(std::size_t bucket) noexcept {
  if (bucket == kMagBuckets) return 0.0;
  const bool positive = bucket > kMagBuckets;
  const std::size_t mag =
      positive ? bucket - kMagBuckets - 1 : kMagBuckets - 1 - bucket;
  const int exp = kExpMin + static_cast<int>(mag / kSubBuckets);
  const int sub = static_cast<int>(mag % kSubBuckets);
  const double lo =
      std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, exp);
  const double hi =
      std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, exp);
  const double mid = 0.5 * (lo + hi);
  return positive ? mid : -mid;
}

double Histogram::bucket_upper(std::size_t bucket) noexcept {
  if (bucket == kMagBuckets) return 0.0;
  const bool positive = bucket > kMagBuckets;
  const std::size_t mag =
      positive ? bucket - kMagBuckets - 1 : kMagBuckets - 1 - bucket;
  const int exp = kExpMin + static_cast<int>(mag / kSubBuckets);
  const int sub = static_cast<int>(mag % kSubBuckets);
  const double lo =
      std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, exp);
  const double hi =
      std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, exp);
  // A positive bucket covers [lo, hi); its mirrored negative twin covers
  // (-hi, -lo], whose upper edge is -lo.
  return positive ? hi : -lo;
}

void Histogram::record(double v) noexcept {
  if (std::isnan(v)) return;
  Stripe& s = stripes_[thread_index() % kStripes];
  const std::size_t b = bucket_of(v);
  std::lock_guard<std::mutex> lock(s.mu);
  ++s.buckets[b];
  if (s.count == 0) {
    s.min = s.max = v;
  } else {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  ++s.count;
  s.sum += v;
}

HistogramSnapshot Histogram::snapshot() const {
  std::vector<std::uint64_t> merged(kBuckets, 0);
  HistogramSnapshot out;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.count == 0) continue;
    if (out.count == 0) {
      out.min = s.min;
      out.max = s.max;
    } else {
      out.min = std::min(out.min, s.min);
      out.max = std::max(out.max, s.max);
    }
    out.count += s.count;
    out.sum += s.sum;
    for (std::size_t b = 0; b < kBuckets; ++b) merged[b] += s.buckets[b];
  }
  if (out.count == 0) return out;

  const auto quantile = [&](double q) {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(out.count)));
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      cum += merged[b];
      if (cum >= std::max<std::uint64_t>(rank, 1))
        return std::clamp(bucket_value(b), out.min, out.max);
    }
    return out.max;
  };
  out.p50 = quantile(0.50);
  out.p90 = quantile(0.90);
  out.p95 = quantile(0.95);
  out.p99 = quantile(0.99);

  // Cumulative distribution at the non-empty buckets' upper edges, for
  // the Prometheus exporter. Dropping a point from a cumulative series
  // is lossless for monotonicity, so over-full histograms coalesce by
  // keeping every stride-th point (and always the last).
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (merged[b] == 0) continue;
    cum += merged[b];
    out.buckets.push_back({bucket_upper(b), cum});
  }
  if (out.buckets.size() > kMaxExportBuckets) {
    std::vector<HistogramBucket> kept;
    const std::size_t n = out.buckets.size();
    const std::size_t stride = (n + kMaxExportBuckets - 1) / kMaxExportBuckets;
    for (std::size_t i = stride - 1; i < n; i += stride)
      kept.push_back(out.buckets[i]);
    if (kept.empty() || kept.back().cumulative != out.count)
      kept.push_back(out.buckets.back());
    out.buckets = std::move(kept);
  }
  return out;
}

void Histogram::reset() {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    std::fill(s.buckets.begin(), s.buckets.end(), 0);
    s.count = 0;
    s.sum = s.min = s.max = 0.0;
  }
}

template <typename Map>
static auto& lookup(std::mutex& mu, Map& map, std::string_view name,
                    MetricClass cls) {
  std::lock_guard<std::mutex> lock(mu);
  const auto it = map.find(name);
  if (it != map.end()) return *it->second.metric;
  using Entry = typename Map::mapped_type;
  using Metric = typename decltype(Entry::metric)::element_type;
  return *map.emplace(std::string(name),
                      Entry{std::make_unique<Metric>(), cls})
              .first->second.metric;
}

Counter& Registry::counter(std::string_view name, MetricClass cls) {
  return lookup(mu_, counters_, name, cls);
}

Gauge& Registry::gauge(std::string_view name, MetricClass cls) {
  return lookup(mu_, gauges_, name, cls);
}

Histogram& Registry::histogram(std::string_view name, MetricClass cls) {
  return lookup(mu_, histograms_, name, cls);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  const auto classify = [&](const std::string& name, MetricClass cls) {
    MetricClass& slot = out.classes.try_emplace(name, cls).first->second;
    if (cls == MetricClass::kMeasured) slot = cls;
  };
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    out.counters.emplace_back(name, c.metric->value());
    classify(name, c.cls);
  }
  for (const auto& [name, g] : gauges_) {
    out.gauges.emplace_back(name, g.metric->value());
    classify(name, g.cls);
  }
  for (const auto& [name, h] : histograms_) {
    out.histograms.emplace_back(name, h.metric->snapshot());
    classify(name, h.cls);
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c.metric->reset();
  for (auto& [name, g] : gauges_) g.metric->reset();
  for (auto& [name, h] : histograms_) h.metric->reset();
}

Registry& Registry::global() {
  // Intentionally immortal: pool workers record into the registry and can
  // outlive the start of static destruction on the main thread. See
  // thread_name_registry() in profile.cpp.
  static Registry* registry = new Registry;
  return *registry;
}

}  // namespace litmus::obs
