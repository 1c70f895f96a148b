#include "litmus/batch.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/pool.h"

namespace litmus::core {
namespace {

Verdict expected_verdict(chg::Expectation e) {
  switch (e) {
    case chg::Expectation::kImprovement: return Verdict::kImprovement;
    case chg::Expectation::kDegradation: return Verdict::kDegradation;
    case chg::Expectation::kNoImpact: return Verdict::kNoImpact;
  }
  return Verdict::kNoImpact;
}

/// Records prepared and assessed per block: bounds peak memory to one
/// block of fetched windows (a million-record log would otherwise
/// materialize every window up front) while leaving the parallel phase
/// enough records to keep the pool busy.
constexpr std::size_t kBlockRecords = 1024;

/// Shared state for one batch run (unsharded, or all shards of one
/// sharded run — the progress counter spans the whole log either way).
struct BatchContext {
  const chg::ChangeLog* log = nullptr;
  const net::Topology* topo = nullptr;
  const BatchConfig* config = nullptr;
  Assessor* assessor = nullptr;
  chg::ChangeIndex conflict_index;
  /// Control-candidate groups by group_key value, each in topology
  /// (insertion) order; empty when config->group_key is unset.
  std::unordered_map<std::uint64_t, std::vector<net::ElementId>> groups;
  std::atomic<std::uint64_t> done{0};
  std::uint64_t total = 0;
  int shard = -1;  ///< current shard for heartbeat lines; -1 = unsharded
  /// Live adaptive-sampling counters for heartbeat lines (relaxed — the
  /// deterministic per-record numbers are recomputed in record order by
  /// the tallies, these only feed progress events).
  bool adaptive = false;
  std::atomic<std::uint64_t> adaptive_stopped{0};
  std::atomic<std::uint64_t> adaptive_saved{0};

  BatchContext(const chg::ChangeLog& l, const net::Topology& t,
               const BatchConfig& c, Assessor& a)
      : log(&l), topo(&t), config(&c), assessor(&a), conflict_index(l),
        adaptive(c.assessment.regression.adaptive_sampling) {
    if (c.group_key)
      for (const auto id : t.all())
        groups[c.group_key(t, id)].push_back(id);
  }

  std::span<const net::ElementId> candidates_for(net::ElementId study) const {
    if (!config->group_key) return topo->all();
    const auto it = groups.find(config->group_key(*topo, study));
    if (it == groups.end()) return {};
    return it->second;
  }
};

/// Prepares and assesses `indices` (ascending record indices) into their
/// slots of `report.items`, blocked to bound window memory. Tallies are
/// NOT updated here — callers recompute them in record order at the end.
void assess_indices_into(BatchContext& ctx,
                         std::span<const std::size_t> indices,
                         BatchReport& report) {
  const auto& records = ctx.log->all();
  const auto& config = *ctx.config;
  const auto lookback =
      static_cast<std::int64_t>(config.assessment.before_bins);
  const auto lookahead =
      static_cast<std::int64_t>(config.assessment.after_bins);

  struct PreparedRecord {
    std::vector<net::ElementId> study;
    std::vector<net::ElementId> controls;
    std::vector<ElementWindows> windows;
  };

  for (std::size_t base = 0; base < indices.size(); base += kBlockRecords) {
    const std::size_t n =
        std::min(kBlockRecords, indices.size() - base);

    // Phase 1 (sequential): conflict check, control selection, window
    // fetch — the SeriesProvider is only ever invoked from this thread.
    std::vector<PreparedRecord> prepared(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = indices[base + j];
      const auto& record = records[i];
      BatchItem& item = report.items[i];
      item.record = record;
      item.conflicts = ctx.conflict_index.conflicting_changes(
          *ctx.topo, record.element, record.bin - lookback,
          record.bin + lookahead, record.id);
      item.window_clean = item.conflicts.empty();

      PreparedRecord& prep = prepared[j];
      prep.study = {record.element};
      prep.controls =
          select_control_group_among(*ctx.topo,
                                     ctx.candidates_for(record.element),
                                     prep.study, config.predicate,
                                     config.selection)
              .controls;
      prep.windows.reserve(prep.study.size());
      for (const auto s : prep.study)
        prep.windows.push_back(ctx.assessor->windows_for(
            s, prep.controls, record.target_kpi, record.bin));
    }

    // Phase 2 (parallel): the regressions, one change record per task;
    // records are independent and results land in their record's slot.
    // Long batches stay watchable: a heartbeat event every few completed
    // records, plus one at the end of the log.
    par::parallel_for(n, [&](std::size_t j) {
      obs::ScopedSpan record_span("batch.record");
      if (obs::enabled())
        obs::Registry::global().counter("batch.records").add();
      const std::size_t i = indices[base + j];
      const auto& record = records[i];
      const PreparedRecord& prep = prepared[j];
      BatchItem& item = report.items[i];
      item.assessment = ctx.assessor->assess_windows(
          prep.study, prep.controls, prep.windows, record.target_kpi,
          record.bin);
      item.met_expectation = item.assessment.summary.verdict ==
                             expected_verdict(record.expectation);
      if (ctx.adaptive)
        for (const auto& e : item.assessment.per_element) {
          const VerdictExplanation& x = e.outcome.explanation;
          if (x.iterations_used > 0 &&
              x.iterations_used < x.iterations_requested) {
            ctx.adaptive_stopped.fetch_add(1, std::memory_order_relaxed);
            ctx.adaptive_saved.fetch_add(
                x.iterations_requested - x.iterations_used,
                std::memory_order_relaxed);
          }
        }
      if (auto* ev = obs::events())
        ev->progress("batch",
                     ctx.done.fetch_add(1, std::memory_order_relaxed) + 1,
                     ctx.total, /*every=*/16, [&](obs::JsonWriter& w) {
                       const par::PoolStats pool = par::pool_stats();
                       w.member("pool.queue_depth",
                                static_cast<std::uint64_t>(
                                    pool.queue_depth))
                           .member("pool.tasks_completed",
                                   pool.tasks_completed);
                       if (ctx.shard >= 0)
                         w.member("shard", static_cast<std::int64_t>(
                                               ctx.shard));
                       if (ctx.adaptive)
                         w.member("adaptive.stopped_early",
                                  ctx.adaptive_stopped.load(
                                      std::memory_order_relaxed))
                             .member("adaptive.iterations_saved",
                                     ctx.adaptive_saved.load(
                                         std::memory_order_relaxed));
                     });
    });
  }
}

/// Adaptive-sampling stats of one item's per-element outcomes, added onto
/// the caller's counters. Budget is only counted for outcomes whose
/// sampling loop ran, so used/budget compares like with like.
template <typename Counts>
void add_adaptive_stats(const BatchItem& item, Counts& out) {
  for (const auto& e : item.assessment.per_element) {
    const VerdictExplanation& x = e.outcome.explanation;
    if (x.iterations_used == 0) continue;
    out.adaptive_iterations_used += x.iterations_used;
    out.adaptive_iterations_budget += x.iterations_requested;
    if (x.iterations_used < x.iterations_requested)
      ++out.adaptive_stopped_early;
  }
}

/// Tallies, in record order (the same order whether the items were filled
/// by one pass or by shards).
void tally(BatchReport& report, bool adaptive) {
  report.adaptive_sampling = adaptive;
  for (const BatchItem& item : report.items) {
    switch (item.assessment.summary.verdict) {
      case Verdict::kImprovement: ++report.improvements; break;
      case Verdict::kDegradation: ++report.degradations; break;
      case Verdict::kNoImpact: ++report.no_impacts; break;
    }
    if (!item.window_clean) ++report.dirty_windows;
    if (!item.met_expectation) ++report.expectation_misses;
    if (adaptive) add_adaptive_stats(item, report);
  }
}

void apply_default_predicate(BatchConfig& config) {
  if (!config.predicate)
    config.predicate = all_of({same_region(), same_technology()});
}

/// Static span labels: ScopedSpan stores the pointer, not a copy.
const char* shard_span_name(std::size_t shard) noexcept {
  static constexpr const char* kNames[] = {
      "shard-0",  "shard-1",  "shard-2",  "shard-3",
      "shard-4",  "shard-5",  "shard-6",  "shard-7",
      "shard-8",  "shard-9",  "shard-10", "shard-11",
      "shard-12", "shard-13", "shard-14", "shard-15",
  };
  return shard < std::size(kNames) ? kNames[shard] : "shard";
}

}  // namespace

BatchReport assess_change_log(const chg::ChangeLog& log,
                              const net::Topology& topo,
                              const SeriesProvider& provider,
                              BatchConfig config) {
  apply_default_predicate(config);
  Assessor assessor(topo, provider, config.assessment);
  BatchContext ctx(log, topo, config, assessor);
  ctx.total = log.size();

  BatchReport report;
  report.items.resize(log.size());
  std::vector<std::size_t> indices(log.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  assess_indices_into(ctx, indices, report);
  tally(report, ctx.adaptive);
  return report;
}

std::size_t shard_of(net::ElementId element, std::size_t n_shards) noexcept {
  return n_shards <= 1 ? 0 : element.value % n_shards;
}

std::vector<std::vector<std::size_t>> plan_shards(const chg::ChangeLog& log,
                                                  std::size_t n_shards) {
  std::vector<std::vector<std::size_t>> plan(
      std::max<std::size_t>(1, n_shards));
  const auto records = log.all();
  for (std::size_t i = 0; i < records.size(); ++i)
    plan[shard_of(records[i].element, plan.size())].push_back(i);
  return plan;
}

ShardedBatchReport assess_change_log_sharded(const chg::ChangeLog& log,
                                             const net::Topology& topo,
                                             const SeriesProvider& provider,
                                             std::size_t n_shards,
                                             BatchConfig config,
                                             const ShardCallbacks& cb) {
  apply_default_predicate(config);
  Assessor assessor(topo, provider, config.assessment);
  BatchContext ctx(log, topo, config, assessor);
  ctx.total = log.size();

  const auto plan = plan_shards(log, n_shards);
  ShardedBatchReport out;
  out.merged.items.resize(log.size());
  out.shards.reserve(plan.size());

  for (std::size_t s = 0; s < plan.size(); ++s) {
    if (cb.on_start) cb.on_start(s, plan[s].size());
    const std::uint64_t t0 = obs::now_ns();
    ShardSummary sum;
    sum.shard = s;
    sum.records = plan[s].size();
    {
      obs::ScopedSpan shard_span(shard_span_name(s));
      ctx.shard = static_cast<int>(s);
      assess_indices_into(ctx, plan[s], out.merged);
    }
    ctx.shard = -1;
    if (ctx.adaptive)
      for (const std::size_t i : plan[s])
        add_adaptive_stats(out.merged.items[i], sum);
    sum.seconds = static_cast<double>(obs::now_ns() - t0) / 1e9;
    if (obs::enabled()) {
      // How the batch was partitioned; any shard count gives the same
      // verdicts.
      constexpr auto kMeasured = obs::MetricClass::kMeasured;
      auto& reg = obs::Registry::global();
      const std::string shard = "shard." + std::to_string(s);
      reg.gauge("shard.count", kMeasured)
          .set(static_cast<double>(plan.size()));
      reg.gauge(shard + ".records", kMeasured)
          .set(static_cast<double>(sum.records));
      reg.gauge(shard + ".seconds", kMeasured).set(sum.seconds);
      if (ctx.adaptive)
        reg.gauge(shard + ".adaptive_stopped_early", kMeasured)
            .set(static_cast<double>(sum.adaptive_stopped_early));
    }
    if (cb.on_finish) cb.on_finish(sum);
    out.shards.push_back(sum);
  }
  tally(out.merged, ctx.adaptive);
  return out;
}

std::string format_batch_report(const BatchReport& report,
                                const net::Topology& topo) {
  std::ostringstream os;
  os << "=== change-log assessment: " << report.items.size()
     << " change(s) ===\n";
  os << "id   element                 type                verdict       "
        "expectation-met  window\n";
  for (const auto& item : report.items) {
    std::string name = topo.get(item.record.element).name;
    name.resize(23, ' ');
    std::string type = chg::to_string(item.record.type);
    type.resize(19, ' ');
    std::string verdict = to_string(item.assessment.summary.verdict);
    verdict.resize(13, ' ');
    os << item.record.id << "    " << name << " " << type << " " << verdict
       << " " << (item.met_expectation ? "yes" : "NO ") << "              "
       << (item.window_clean
               ? "clean"
               : "dirty (" + std::to_string(item.conflicts.size()) +
                     " conflict(s))")
       << "\n";
  }
  os << "summary: " << report.improvements << " improvement(s), "
     << report.degradations << " degradation(s), " << report.no_impacts
     << " no-impact; " << report.expectation_misses
     << " expectation miss(es); " << report.dirty_windows
     << " dirty window(s)\n";
  if (report.adaptive_sampling)
    os << "adaptive sampling: " << report.adaptive_stopped_early
       << " early stop(s); " << report.adaptive_iterations_used << "/"
       << report.adaptive_iterations_budget << " iteration(s) of budget\n";
  return os.str();
}

}  // namespace litmus::core
