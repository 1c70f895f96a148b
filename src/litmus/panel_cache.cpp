#include "litmus/panel_cache.h"

#include <bit>
#include <cstdlib>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace litmus::core {
namespace {

/// Two independent multiply-xorshift streams; 128 bits of fingerprint so a
/// colliding pair of distinct panels is out of reach (see header).
struct Fingerprinter {
  std::uint64_t a = 0x9ae16a3b2f90404full;
  std::uint64_t b = 0xc3a5c85c97cb3127ull;

  void add(std::uint64_t v) noexcept {
    a = (a ^ v) * 0x00000100000001b3ull;
    a ^= a >> 33;
    b = (b + v) * 0xff51afd7ed558ccdull;
    b ^= b >> 29;
  }
};

std::size_t capacity_from_env() noexcept {
  constexpr std::size_t kDefaultMb = 64;
  const char* env = std::getenv("LITMUS_PANEL_CACHE_MB");
  std::size_t mb = kDefaultMb;
  if (env != nullptr) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') mb = static_cast<std::size_t>(v);
  }
  return mb * std::size_t{1024} * std::size_t{1024};
}

}  // namespace

PanelKey fingerprint_design(const ts::Matrix& design) noexcept {
  Fingerprinter fp;
  fp.add(design.rows());
  fp.add(design.cols());
  for (std::size_t c = 0; c < design.cols(); ++c)
    for (const double v : design.column(c))
      fp.add(std::bit_cast<std::uint64_t>(v));
  return PanelKey{fp.a, fp.b};
}

PanelCache::PanelCache(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

PanelCache& PanelCache::global() {
  // Intentionally immortal: pool workers hit the cache and can outlive the
  // start of static destruction on the main thread. See
  // thread_name_registry() in profile.cpp.
  static PanelCache* cache = new PanelCache(capacity_from_env());
  return *cache;
}

namespace {
/// nullptr = no override (use global()). Relaxed is enough: the override
/// is installed while analyzer threads are quiescent, and any ordering a
/// reader needs comes from the synchronization that started its work.
std::atomic<PanelCache*> g_cache_override{nullptr};
}  // namespace

PanelCache& PanelCache::current() noexcept {
  PanelCache* o = g_cache_override.load(std::memory_order_acquire);
  return o ? *o : global();
}

ScopedPanelCacheOverride::ScopedPanelCacheOverride(
    PanelCache& cache) noexcept
    : previous_(g_cache_override.exchange(&cache,
                                          std::memory_order_acq_rel)) {}

ScopedPanelCacheOverride::~ScopedPanelCacheOverride() {
  g_cache_override.store(previous_, std::memory_order_release);
}

std::size_t PanelCache::capacity_bytes() const noexcept {
  return capacity_bytes_.load(std::memory_order_relaxed);
}

std::list<PanelCache::Entry> PanelCache::evict_over_budget(Shard& s,
                                                           bool keep_front) {
  const std::size_t budget =
      capacity_bytes_.load(std::memory_order_relaxed) / kShards;
  const std::size_t min_size = keep_front ? 1 : 0;
  std::list<Entry> evicted;
  while (s.bytes > budget && s.lru.size() > min_size) {
    auto last = std::prev(s.lru.end());
    s.bytes -= last->bytes;
    total_bytes_.fetch_sub(last->bytes, std::memory_order_relaxed);
    total_entries_.fetch_sub(1, std::memory_order_relaxed);
    s.map.erase(last->key);
    ++s.evictions;
    evicted.splice(evicted.end(), s.lru, last);
  }
  return evicted;
}

void PanelCache::observe(std::uint64_t hit_delta, std::uint64_t miss_delta,
                         std::uint64_t evict_delta) const {
  if (!obs::enabled()) return;
  // The registry hands out stable references; resolve the names once so
  // the per-assessment path never rebuilds metric-name strings.
  struct Handles {
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& evictions;
    obs::Gauge& bytes;
    obs::Gauge& entries;
    obs::Gauge& pressure;
  };
  // Hit/miss counts depend on the budget and on which worker reached a
  // panel first; the assessed results do not (DESIGN.md §10).
  constexpr auto kMeasured = obs::MetricClass::kMeasured;
  auto& reg = obs::Registry::global();
  static Handles h{reg.counter("panel_cache.hits", kMeasured),
                   reg.counter("panel_cache.misses", kMeasured),
                   reg.counter("panel_cache.evictions", kMeasured),
                   reg.gauge("panel_cache.bytes", kMeasured),
                   reg.gauge("panel_cache.entries", kMeasured),
                   reg.gauge("panel_cache.pressure", kMeasured)};
  if (hit_delta > 0) h.hits.add(hit_delta);
  if (miss_delta > 0) h.misses.add(miss_delta);
  if (evict_delta > 0) h.evictions.add(evict_delta);
  const auto bytes = total_bytes_.load(std::memory_order_relaxed);
  h.bytes.set(static_cast<double>(bytes));
  h.entries.set(
      static_cast<double>(total_entries_.load(std::memory_order_relaxed)));
  // Byte-budget pressure: occupancy as a fraction of capacity. Sitting at
  // 1.0 means the LRU is churning and eviction latency is in play.
  const std::size_t cap = capacity_bytes_.load(std::memory_order_relaxed);
  h.pressure.set(cap > 0 ? static_cast<double>(bytes) /
                               static_cast<double>(cap)
                         : 0.0);
}

namespace {

/// Hit-vs-build latency split (microseconds): a healthy cache shows two
/// well-separated modes; hit latency creeping toward build latency means
/// shard-lock contention.
obs::Histogram& hit_latency_histogram() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("panel_cache.hit_us",
                                        obs::MetricClass::kMeasured);
  return h;
}

obs::Histogram& build_latency_histogram() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("panel_cache.build_us",
                                        obs::MetricClass::kMeasured);
  return h;
}

}  // namespace

PanelCache::PanelPtr PanelCache::get_or_build(const PanelKey& key,
                                              const Builder& build) {
  const bool obs_on = obs::enabled();
  const std::uint64_t lookup_start = obs_on ? obs::now_ns() : 0;
  const bool store = capacity_bytes_.load(std::memory_order_relaxed) > 0;
  if (store) {
    Shard& s = shard_of(key);
    std::unique_lock lock(s.mu);
    const auto it = s.map.find(key);
    if (it != s.map.end()) {
      ++s.hits;
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      PanelPtr panel = it->second->panel;
      lock.unlock();
      if (obs_on)
        hit_latency_histogram().record(
            static_cast<double>(obs::now_ns() - lookup_start) / 1000.0);
      observe(1, 0, 0);
      return panel;
    }
  }

  PanelPtr panel;
  {
    obs::ScopedSpan span("panel-cache.build");
    const std::uint64_t build_start = obs_on ? obs::now_ns() : 0;
    panel = std::make_shared<const ts::GramPanel>(build());
    if (obs_on)
      build_latency_histogram().record(
          static_cast<double>(obs::now_ns() - build_start) / 1000.0);
  }
  if (!store) {
    Shard& s = shard_of(key);
    {
      std::unique_lock lock(s.mu);
      ++s.misses;
    }
    observe(0, 1, 0);
    return panel;
  }

  Shard& s = shard_of(key);
  std::list<Entry> evicted;
  std::uint64_t evict_delta = 0;
  {
    std::unique_lock lock(s.mu);
    ++s.misses;
    const auto it = s.map.find(key);
    if (it != s.map.end()) {
      // Another thread built the same content while we did; its panel is
      // bit-identical, so adopt it and drop ours.
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      panel = it->second->panel;
    } else {
      const std::size_t bytes = panel->bytes();
      s.lru.push_front(Entry{key, panel, bytes});
      s.map.emplace(key, s.lru.begin());
      s.bytes += bytes;
      total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      total_entries_.fetch_add(1, std::memory_order_relaxed);
      evicted = evict_over_budget(s, /*keep_front=*/true);
      evict_delta = evicted.size();
    }
  }
  evicted.clear();  // release evicted panels outside the shard lock
  observe(0, 1, evict_delta);
  return panel;
}

void PanelCache::set_capacity_bytes(std::size_t capacity_bytes) {
  capacity_bytes_.store(capacity_bytes, std::memory_order_relaxed);
  std::uint64_t evict_delta = 0;
  for (Shard& s : shards_) {
    std::list<Entry> evicted;
    {
      std::unique_lock lock(s.mu);
      evicted = evict_over_budget(s, /*keep_front=*/false);
      evict_delta += evicted.size();
    }
  }
  observe(0, 0, evict_delta);
}

void PanelCache::clear() {
  for (Shard& s : shards_) {
    std::list<Entry> dropped;
    {
      std::unique_lock lock(s.mu);
      total_bytes_.fetch_sub(s.bytes, std::memory_order_relaxed);
      total_entries_.fetch_sub(s.lru.size(), std::memory_order_relaxed);
      s.bytes = 0;
      s.map.clear();
      dropped.swap(s.lru);
    }
  }
  observe(0, 0, 0);
}

PanelCache::Stats PanelCache::stats() const {
  Stats out;
  for (const Shard& s : shards_) {
    std::unique_lock lock(s.mu);
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.bytes += s.bytes;
    out.entries += s.lru.size();
  }
  return out;
}

}  // namespace litmus::core
