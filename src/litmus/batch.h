// Batch assessment of an entire change log (the Mercury-style network-wide
// sweep the paper cites as related work, here with Litmus's study/control
// machinery): for every change record, check the window for conflicting
// changes, select a control group, run the robust spatial regression on the
// change's target KPI, and collect everything into one report the
// operations review can walk.
//
// Scale machinery (DESIGN.md §15). Three properties keep a million-record
// sweep tractable without changing a single verdict:
//
//   * Indexed candidates — BatchConfig::group_key lets the driver enumerate
//     control candidates from a precomputed equivalence group instead of
//     scanning the whole topology per record. The full per-candidate rule
//     set still runs (select_control_group_among), so results are exact.
//   * Indexed conflicts — a chg::ChangeIndex answers the contamination
//     query per record in O(|scope| + hits) instead of a full-log scan.
//   * Blocked pipeline — records are prepared (windows fetched) and
//     assessed in fixed-size blocks, so peak memory holds one block of
//     windows, not the whole log's.
//
// Sharding. assess_change_log_sharded partitions records by
// shard_of(element) — a pure function of the element id — and runs the
// shards one after another, each in a per-shard trace span. Per-record
// assessment depends only on (record, topo, provider, config): the
// sampling RNG is a counter-forked pure function of (seed, iteration),
// and tallies are recomputed in record order at the end — so the merged
// report is bit-identical to the unsharded assess_change_log, which
// tests/litmus/shard_test.cpp pins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "changelog/changelog.h"
#include "litmus/assessor.h"

namespace litmus::core {

struct BatchConfig {
  AssessmentConfig assessment;
  SelectionPolicy selection;
  /// Default predicate: same region + same technology (overridable).
  ControlPredicate predicate;
  /// Optional equivalence-group key for indexed control selection. When
  /// set, candidates for a study element are enumerated from the group of
  /// elements sharing its key instead of the whole topology. The key must
  /// be conservative: every element the predicate could accept for a study
  /// element must share that element's key (equivalence predicates — same
  /// zip + same technology, same upstream MSC — qualify; the predicate is
  /// still evaluated per candidate, so an over-wide group costs time, never
  /// correctness). Unset keeps the full scan.
  std::function<std::uint64_t(const net::Topology&, net::ElementId)>
      group_key;
};

struct BatchItem {
  chg::ChangeRecord record;
  bool window_clean = false;  ///< no conflicting changes in scope
  std::vector<chg::ChangeRecord> conflicts;
  ChangeAssessment assessment;
  /// True when the change's outcome matched the recorded expectation.
  bool met_expectation = false;
};

struct BatchReport {
  std::vector<BatchItem> items;
  std::size_t improvements = 0;
  std::size_t degradations = 0;
  std::size_t no_impacts = 0;
  std::size_t dirty_windows = 0;
  std::size_t expectation_misses = 0;
  /// Adaptive-sampling tallies over every (element, KPI) outcome whose
  /// sampling loop actually ran, recomputed in record order like the
  /// verdict tallies (all zero when adaptive sampling is off).
  bool adaptive_sampling = false;
  std::size_t adaptive_stopped_early = 0;
  std::uint64_t adaptive_iterations_used = 0;
  std::uint64_t adaptive_iterations_budget = 0;
};

/// Assesses every record in `log` against `topo` and `provider`.
BatchReport assess_change_log(const chg::ChangeLog& log,
                              const net::Topology& topo,
                              const SeriesProvider& provider,
                              BatchConfig config = {});

// ---- Sharded driver --------------------------------------------------------

/// Deterministic shard of an element: element.value % n_shards (0 when
/// n_shards <= 1). A pure function of the id, so the same topology always
/// partitions the same way on any machine.
std::size_t shard_of(net::ElementId element, std::size_t n_shards) noexcept;

/// Record indices per shard, ascending within each shard (log order).
/// Every record lands in exactly one shard.
std::vector<std::vector<std::size_t>> plan_shards(const chg::ChangeLog& log,
                                                  std::size_t n_shards);

struct ShardSummary {
  std::size_t shard = 0;
  std::size_t records = 0;
  double seconds = 0.0;
  /// Adaptive-sampling stats for this shard's records (zero adaptive-off).
  /// Deterministic: re-running a shard reproduces the same iterations-used.
  std::size_t adaptive_stopped_early = 0;
  std::uint64_t adaptive_iterations_used = 0;
  std::uint64_t adaptive_iterations_budget = 0;
};

/// Driver-thread hooks around each shard, for per-shard run artifacts
/// (litmus_cli swaps in a shard event log in on_start and writes the
/// shard manifest in on_finish). Both run while no worker is in flight.
struct ShardCallbacks {
  std::function<void(std::size_t shard, std::size_t records)> on_start;
  std::function<void(const ShardSummary&)> on_finish;
};

struct ShardedBatchReport {
  /// Bit-identical to assess_change_log over the same inputs.
  BatchReport merged;
  std::vector<ShardSummary> shards;
};

/// Runs the batch shard by shard (deterministic element partition,
/// per-shard spans + shard.* metrics), merging
/// verdicts back into record order. n_shards is clamped to >= 1.
ShardedBatchReport assess_change_log_sharded(const chg::ChangeLog& log,
                                             const net::Topology& topo,
                                             const SeriesProvider& provider,
                                             std::size_t n_shards,
                                             BatchConfig config = {},
                                             const ShardCallbacks& cb = {});

/// Multi-line, one row per change.
std::string format_batch_report(const BatchReport& report,
                                const net::Topology& topo);

}  // namespace litmus::core
