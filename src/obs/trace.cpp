#include "obs/trace.h"

#include <string>
#include <utility>
#include <vector>

namespace litmus::obs {
namespace {

thread_local std::uint64_t tls_current_span = 0;

// Span names are static string literals, so the `stage.<name>` histogram
// lookup can be memoized by pointer identity: a handful of hot spans
// ("sampling", "fit", "forecast") close millions of times per sweep, and
// building the prefixed name each close put a heap allocation plus a
// registry map walk on the hot path. Registry references stay valid for
// its lifetime, so caching them is safe; duplicate literals in different
// translation units just yield two entries for the same histogram.
Histogram& stage_histogram(const char* name) {
  thread_local std::vector<std::pair<const char*, Histogram*>> cache;
  for (const auto& [key, hist] : cache)
    if (key == name) return *hist;
  Histogram& h = Registry::global().histogram(std::string("stage.") + name,
                                              MetricClass::kMeasured);
  cache.emplace_back(name, &h);
  return h;
}

}  // namespace

std::uint64_t current_span_id() noexcept { return tls_current_span; }

SpanParentGuard::SpanParentGuard(std::uint64_t span_id) noexcept
    : saved_(tls_current_span) {
  tls_current_span = span_id;
}

SpanParentGuard::~SpanParentGuard() { tls_current_span = saved_; }

Tracer::Tracer(std::size_t ring_capacity) : rings_(ring_capacity) {}

void Tracer::start(const TraceConfig& config) {
  rings_.clear();
  config_ = config;
  next_id_.store(1, std::memory_order_relaxed);
  epoch_ns_ = now_ns();
  collecting_.store(true, std::memory_order_relaxed);
}

void Tracer::stop() { collecting_.store(false, std::memory_order_relaxed); }

bool Tracer::sample() noexcept {
  if (config_.mode == TraceMode::kFull) return true;
  const std::uint32_t every = config_.sample_every == 0
                                  ? 1
                                  : config_.sample_every;
  // Per-thread counter (shared across Tracer instances; sessions do not
  // overlap in practice, and a shared phase only shifts which spans the
  // sampler keeps).
  thread_local std::uint32_t tick = 0;
  return tick++ % every == 0;
}

std::vector<SpanRecord> Tracer::spans() const {
  return rings_.collect().spans;
}

std::uint64_t Tracer::dropped() const { return rings_.collect().dropped; }

Tracer& Tracer::global() {
  // Intentionally immortal: reached from pool workers (ScopedSpan's default
  // argument), which can outlive the start of static destruction on the
  // main thread. See thread_name_registry() in profile.cpp.
  static Tracer* tracer = new Tracer;
  return *tracer;
}

#if LITMUS_OBS_ENABLED

ScopedSpan::ScopedSpan(const char* name, Tracer& tracer) {
  metrics_ = enabled();
  tracing_ = tracer.collecting() && tracer.sample();
  if (!metrics_ && !tracing_) return;
  name_ = name;
  tracer_ = &tracer;
  start_ns_ = now_ns();
  if (tracing_) {
    id_ = tracer.next_id();
    parent_ = tls_current_span;
    tls_current_span = id_;
  }
}

ScopedSpan::~ScopedSpan() {
  if (!metrics_ && !tracing_) return;
  const std::uint64_t end = now_ns();
  const std::uint64_t duration = end > start_ns_ ? end - start_ns_ : 0;
  if (tracing_) {
    tls_current_span = parent_;
    SpanRecord rec;
    rec.id = id_;
    rec.parent = parent_;
    rec.name = name_;
    const std::uint64_t epoch = tracer_->epoch_ns();
    rec.start_ns = start_ns_ > epoch ? start_ns_ - epoch : 0;
    rec.duration_ns = duration;
    rec.thread = thread_index();
    tracer_->add(rec);
  }
  if (metrics_) {
    stage_histogram(name_).record(static_cast<double>(duration) /
                                  1000.0);  // microseconds
  }
}

#endif  // LITMUS_OBS_ENABLED

}  // namespace litmus::obs
