// Sharded batch driver tests: the deterministic element partition, and
// the DESIGN.md §15 headline guarantee — assess_change_log_sharded's
// merged report is bit-identical to the unsharded assess_change_log at
// any shard count, with the driver callbacks firing once per shard in
// order.
#include "litmus/batch.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "cellnet/builder.h"
#include "simkit/generator.h"
#include "simkit/network_events.h"

namespace litmus::core {
namespace {

struct Fixture {
  net::Topology topo;
  std::unique_ptr<sim::KpiGenerator> gen;
  std::vector<net::ElementId> rncs;
  chg::ChangeLog log;

  Fixture() {
    topo = net::build_small_region(net::Region::kWest, 909, 10, 5);
    rncs = topo.of_kind(net::ElementKind::kRnc);
    gen = std::make_unique<sim::KpiGenerator>(
        topo, sim::GeneratorConfig{.seed = 909});
    // A mix of real shifts and placebos spread over time so the merged
    // tallies exercise every counter.
    for (std::size_t i = 0; i < rncs.size(); ++i) {
      const std::int64_t bin = static_cast<std::int64_t>(i) * 2000;
      if (i % 3 == 0) {
        sim::UpstreamEvent ev;
        ev.source = rncs[i];
        ev.start_bin = bin;
        ev.sigma_shift = (i % 6 == 0) ? +1.6 : -1.6;
        gen->add_factor(std::make_shared<sim::NetworkEventFactor>(
            topo, std::vector<sim::UpstreamEvent>{ev}));
      }
      chg::ChangeRecord r;
      r.element = rncs[i];
      r.bin = bin;
      r.type = chg::ChangeType::kConfigChange;
      r.expectation = chg::Expectation::kNoImpact;
      r.target_kpi = kpi::KpiId::kVoiceRetainability;
      log.add(r);
    }
  }

  SeriesProvider provider() {
    return [g = gen.get()](net::ElementId e, kpi::KpiId k, std::int64_t s,
                           std::size_t n) { return g->kpi_series(e, k, s, n); };
  }
};

void expect_reports_bit_identical(const BatchReport& a,
                                  const BatchReport& b) {
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    const BatchItem& x = a.items[i];
    const BatchItem& y = b.items[i];
    EXPECT_EQ(x.record.element.value, y.record.element.value);
    EXPECT_EQ(x.window_clean, y.window_clean);
    EXPECT_EQ(x.conflicts.size(), y.conflicts.size());
    EXPECT_EQ(x.met_expectation, y.met_expectation);
    EXPECT_EQ(x.assessment.summary.verdict, y.assessment.summary.verdict);
    // Bit-level, not approximate: == on doubles is the guarantee.
    EXPECT_EQ(x.assessment.summary.confidence,
              y.assessment.summary.confidence);
    ASSERT_EQ(x.assessment.per_element.size(),
              y.assessment.per_element.size());
    for (std::size_t j = 0; j < x.assessment.per_element.size(); ++j) {
      const auto& p = x.assessment.per_element[j];
      const auto& q = y.assessment.per_element[j];
      EXPECT_EQ(p.element.value, q.element.value);
      EXPECT_EQ(p.outcome.verdict, q.outcome.verdict);
      EXPECT_EQ(p.outcome.degenerate, q.outcome.degenerate);
      EXPECT_EQ(std::memcmp(&p.outcome.p_value, &q.outcome.p_value,
                            sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&p.outcome.effect_kpi_units,
                            &q.outcome.effect_kpi_units, sizeof(double)),
                0);
    }
    ASSERT_EQ(x.assessment.control_group.size(),
              y.assessment.control_group.size());
    for (std::size_t j = 0; j < x.assessment.control_group.size(); ++j)
      EXPECT_EQ(x.assessment.control_group[j].value,
                y.assessment.control_group[j].value);
  }
  EXPECT_EQ(a.improvements, b.improvements);
  EXPECT_EQ(a.degradations, b.degradations);
  EXPECT_EQ(a.no_impacts, b.no_impacts);
  EXPECT_EQ(a.dirty_windows, b.dirty_windows);
  EXPECT_EQ(a.expectation_misses, b.expectation_misses);
}

TEST(Shard, ShardOfIsAPureFunctionOfTheId) {
  EXPECT_EQ(shard_of(net::ElementId{7}, 0), 0u);
  EXPECT_EQ(shard_of(net::ElementId{7}, 1), 0u);
  EXPECT_EQ(shard_of(net::ElementId{7}, 4), 3u);
  EXPECT_EQ(shard_of(net::ElementId{8}, 4), 0u);
  for (std::uint32_t id = 1; id < 100; ++id)
    for (std::size_t n = 1; n <= 8; ++n)
      EXPECT_LT(shard_of(net::ElementId{id}, n), n);
}

TEST(Shard, PlanShardsPartitionsEveryRecordExactlyOnce) {
  Fixture f;
  for (const std::size_t n : {1u, 2u, 3u, 5u, 16u}) {
    const auto plan = plan_shards(f.log, n);
    ASSERT_EQ(plan.size(), std::max<std::size_t>(n, 1));
    std::vector<bool> seen(f.log.size(), false);
    for (std::size_t s = 0; s < plan.size(); ++s) {
      std::size_t prev = 0;
      bool first = true;
      for (const std::size_t idx : plan[s]) {
        ASSERT_LT(idx, f.log.size());
        EXPECT_FALSE(seen[idx]) << "record " << idx << " in two shards";
        seen[idx] = true;
        if (!first) EXPECT_GT(idx, prev) << "shard order not ascending";
        prev = idx;
        first = false;
        EXPECT_EQ(shard_of(f.log.all()[idx].element, n), s);
      }
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
      EXPECT_TRUE(seen[i]) << "record " << i << " unassigned";
  }
}

TEST(Shard, ShardedMergedReportBitIdenticalToUnsharded) {
  Fixture f;
  const BatchReport reference =
      assess_change_log(f.log, f.topo, f.provider());
  for (const std::size_t n : {1u, 2u, 3u, 8u}) {
    const ShardedBatchReport sharded = assess_change_log_sharded(
        f.log, f.topo, f.provider(), n);
    SCOPED_TRACE("shards=" + std::to_string(n));
    expect_reports_bit_identical(sharded.merged, reference);
    ASSERT_EQ(sharded.shards.size(), std::max<std::size_t>(n, 1));
    std::size_t total = 0;
    for (const ShardSummary& s : sharded.shards) total += s.records;
    EXPECT_EQ(total, f.log.size());
  }
}

TEST(Shard, AdaptiveShardedBitIdenticalToUnsharded) {
  // Adaptive-on: early-stop decisions are a pure function of (seed,
  // completed rounds), so any shard count must reproduce the unsharded
  // verdicts AND the per-record iterations-used (surfaced through the
  // merged adaptive tallies and the per-outcome explanations).
  Fixture f;
  BatchConfig cfg;
  cfg.assessment.regression.adaptive_sampling = true;
  const BatchReport reference =
      assess_change_log(f.log, f.topo, f.provider(), cfg);
  EXPECT_TRUE(reference.adaptive_sampling);
  EXPECT_GT(reference.adaptive_iterations_budget, 0u);
  for (const std::size_t n : {1u, 4u}) {
    const ShardedBatchReport sharded =
        assess_change_log_sharded(f.log, f.topo, f.provider(), n, cfg);
    SCOPED_TRACE("shards=" + std::to_string(n));
    expect_reports_bit_identical(sharded.merged, reference);
    EXPECT_EQ(sharded.merged.adaptive_stopped_early,
              reference.adaptive_stopped_early);
    EXPECT_EQ(sharded.merged.adaptive_iterations_used,
              reference.adaptive_iterations_used);
    EXPECT_EQ(sharded.merged.adaptive_iterations_budget,
              reference.adaptive_iterations_budget);
    // Per-record iterations-used survives the shard round-trip.
    for (std::size_t i = 0; i < reference.items.size(); ++i) {
      const auto& p = reference.items[i].assessment.per_element;
      const auto& q = sharded.merged.items[i].assessment.per_element;
      ASSERT_EQ(p.size(), q.size());
      for (std::size_t j = 0; j < p.size(); ++j) {
        EXPECT_EQ(p[j].outcome.explanation.iterations_used,
                  q[j].outcome.explanation.iterations_used);
        EXPECT_STREQ(p[j].outcome.explanation.stop_reason,
                     q[j].outcome.explanation.stop_reason);
      }
    }
    // Shard tallies sum to the merged totals.
    std::size_t stops = 0;
    std::uint64_t used = 0, budget = 0;
    for (const ShardSummary& s : sharded.shards) {
      stops += s.adaptive_stopped_early;
      used += s.adaptive_iterations_used;
      budget += s.adaptive_iterations_budget;
    }
    EXPECT_EQ(stops, reference.adaptive_stopped_early);
    EXPECT_EQ(used, reference.adaptive_iterations_used);
    EXPECT_EQ(budget, reference.adaptive_iterations_budget);
  }
}

TEST(Shard, AdaptiveOffReportMatchesDefaultConfig) {
  // Adaptive-off must remain byte-for-byte the pre-adaptive behavior: a
  // default-config run and an explicit adaptive_sampling=false run are the
  // same code path, and the adaptive tallies stay zero.
  Fixture f;
  BatchConfig off;
  off.assessment.regression.adaptive_sampling = false;
  const BatchReport a = assess_change_log(f.log, f.topo, f.provider());
  const BatchReport b = assess_change_log(f.log, f.topo, f.provider(), off);
  expect_reports_bit_identical(a, b);
  EXPECT_FALSE(a.adaptive_sampling);
  EXPECT_EQ(a.adaptive_stopped_early, 0u);
  EXPECT_EQ(a.adaptive_iterations_used, b.adaptive_iterations_used);
}

TEST(Shard, CallbacksFireOncePerShardInOrder) {
  Fixture f;
  std::vector<std::size_t> started, finished;
  ShardCallbacks cb;
  cb.on_start = [&](std::size_t shard, std::size_t records) {
    started.push_back(shard);
    EXPECT_EQ(records, plan_shards(f.log, 3)[shard].size());
  };
  cb.on_finish = [&](const ShardSummary& s) { finished.push_back(s.shard); };
  (void)assess_change_log_sharded(f.log, f.topo, f.provider(), 3, {}, cb);
  const std::vector<std::size_t> want = {0, 1, 2};
  EXPECT_EQ(started, want);
  EXPECT_EQ(finished, want);
}

}  // namespace
}  // namespace litmus::core
