#include "litmus/panel_cache.h"

#include <atomic>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace litmus::core {
namespace {

std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};

/// Hit/miss counts depend on which element reached the slot first; the
/// assessed results do not (DESIGN.md §10).
void count(std::atomic<std::uint64_t>& counter, const char* metric) {
  counter.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled())
    obs::Registry::global()
        .counter(metric, obs::MetricClass::kMeasured)
        .add();
}

bool same_bits(const ts::Matrix& a, const ts::Matrix& b) noexcept {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t c = 0; c < a.cols(); ++c)
    if (std::memcmp(a.column(c).data(), b.column(c).data(),
                    a.rows() * sizeof(double)) != 0)
      return false;
  return true;
}

}  // namespace

PanelCache& PanelCache::global() {
  static PanelCache counters;
  return counters;
}

PanelCache::Stats PanelCache::stats() const noexcept {
  return {g_hits.load(std::memory_order_relaxed),
          g_misses.load(std::memory_order_relaxed)};
}

ts::GramPanel build_panel(const ts::Matrix& design) {
  count(g_misses, "panel_cache.misses");
  obs::ScopedSpan span("panel.build");
  return ts::GramPanel::build(design);
}

const ts::GramPanel& PanelSlot::get(const ts::Matrix& design,
                                    ts::GramPanel& own) {
  bool built = false;
  std::call_once(built_, [&] {
    design_ = design;
    panel_ = build_panel(design);
    built = true;
  });
  if (built) return panel_;
  if (same_bits(design_, design)) {
    count(g_hits, "panel_cache.hits");
    return panel_;
  }
  own = build_panel(design);
  return own;
}

}  // namespace litmus::core
