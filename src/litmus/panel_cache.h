// One Gram panel (tsmath/gram.h) per assessment call, and the
// process-wide counters of its reuse.
//
// The expensive half of the spatial-regression fast path is the design-only
// GramPanel: O(m·N²) over the before-window control panel. Every study
// element of one change regresses onto the same control group over the
// same bins, so inside one Assessor::assess_windows call the elements'
// before-window designs are usually identical. The call owns one
// PanelSlot; the first element whose fit takes the Gram path builds the
// panel into it, and every later element whose design is bit-equal reuses
// it. An element whose design differs (a control missing a bin the others
// have, a shifted window) builds a private panel instead.
//
// Equality is a byte comparison of the design matrices, not a hash, so
// there is no collision budget: a reused panel was built from exactly the
// same bits. GramPanel::build is deterministic, so a reused panel is
// bit-identical to the one the element would have built itself and
// results do not depend on which element built it or on thread timing.
#pragma once

#include <cstdint>
#include <mutex>

#include "tsmath/gram.h"
#include "tsmath/matrix.h"

namespace litmus::core {

/// Process-wide reuse counters of the per-call panel (also published as
/// the `panel_cache.hits` / `panel_cache.misses` metrics). The type name,
/// global(), clear() and stats() remain only because litbench/main.cpp
/// calls them; a later change to the benchmark can drop them.
class PanelCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;    ///< elements that reused their call's panel
    std::uint64_t misses = 0;  ///< panel builds
  };

  static PanelCache& global();

  /// No-op: there is no process-wide state left to drop. The counters
  /// keep running; read them as deltas of stats().
  void clear() noexcept {}

  Stats stats() const noexcept;
};

/// The panel one assessment call shares across its study elements.
/// Thread-safe: elements may call get() concurrently.
class PanelSlot {
 public:
  /// The panel for `design`. The first caller builds the slot's panel
  /// (concurrent first callers wait for that one build); a caller whose
  /// design is bit-equal to the first caller's reuses it. Any other
  /// design is built into `own`, which is returned.
  const ts::GramPanel& get(const ts::Matrix& design, ts::GramPanel& own);

 private:
  std::once_flag built_;
  ts::Matrix design_;
  ts::GramPanel panel_;
};

/// Builds a panel with no slot to share, counted as a miss.
ts::GramPanel build_panel(const ts::Matrix& design);

}  // namespace litmus::core
