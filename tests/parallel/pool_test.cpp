#include "parallel/pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "parallel/workspace.h"

namespace litmus::par {
namespace {

TEST(Pool, ThreadsResolutionAndOverride) {
  set_threads(3);
  EXPECT_EQ(threads(), 3u);
  set_threads(0);
  EXPECT_GE(threads(), 1u);
  set_threads(1);
}

TEST(Pool, ParallelForVisitsEveryIndexOnce) {
  for (const std::size_t n_threads : {1u, 2u, 5u}) {
    set_threads(n_threads);
    std::vector<std::atomic<int>> hits(101);
    parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  set_threads(1);
}

TEST(Pool, ChunksAreContiguousAscendingAndCoverEverything) {
  set_threads(4);
  const std::size_t n = 103;
  const std::size_t chunks = plan_chunks(n);
  EXPECT_GE(chunks, 1u);
  EXPECT_LE(chunks, 4u);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks);
  parallel_chunks(n, chunks,
                  [&](std::size_t c, std::size_t begin, std::size_t end) {
                    ranges[c] = {begin, end};
                  });
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, n);
  for (std::size_t c = 1; c < chunks; ++c)
    EXPECT_EQ(ranges[c].first, ranges[c - 1].second);
  set_threads(1);
}

TEST(Pool, ChunkPartitionDependsOnlyOnInputs) {
  // The same (n_items, n_chunks) must give the same slices regardless of
  // the configured thread count — the determinism contract's foundation.
  const std::size_t n = 57, chunks = 3;
  std::vector<std::pair<std::size_t, std::size_t>> a(chunks), b(chunks);
  set_threads(8);
  parallel_chunks(n, chunks, [&](std::size_t c, std::size_t lo,
                                 std::size_t hi) { a[c] = {lo, hi}; });
  set_threads(1);
  parallel_chunks(n, chunks, [&](std::size_t c, std::size_t lo,
                                 std::size_t hi) { b[c] = {lo, hi}; });
  EXPECT_EQ(a, b);
}

TEST(Pool, NestedParallelismRunsInlineWithoutDeadlock) {
  set_threads(4);
  std::atomic<int> inner_total{0};
  std::atomic<bool> saw_inline{false};
  parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    if (plan_chunks(100) == 1) saw_inline.store(true);
    parallel_for(10, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 80);
  EXPECT_TRUE(saw_inline.load());
  EXPECT_FALSE(in_parallel_region());
  set_threads(1);
}

TEST(Pool, ExceptionsPropagateToCaller) {
  set_threads(4);
  EXPECT_THROW(parallel_for(64,
                            [](std::size_t i) {
                              if (i == 13)
                                throw std::runtime_error("chunk failed");
                            }),
               std::runtime_error);
  // The pool survives a failed run.
  std::atomic<int> ok{0};
  parallel_for(16, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 16);
  set_threads(1);
}

TEST(Pool, ZeroItemsIsANoOp) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(plan_chunks(0), 0u);
}

#if LITMUS_OBS_ENABLED
TEST(Pool, SchedulingMetricsRegisterAsMeasured) {
  // Queue depth, task counts and task latencies depend on scheduling, not
  // on (seed, inputs, config): diff-runs must never gate on them.
  obs::set_enabled(true);
  set_threads(2);
  parallel_for(8, [](std::size_t) {});
  // Workers record their task timings after the chunk has signalled the
  // caller, so give the last one a moment to land.
  obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  for (int i = 0; i < 200 && !snap.classes.contains("pool.task_run_us");
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    snap = obs::Registry::global().snapshot();
  }
  obs::set_enabled(false);
  set_threads(1);
  for (const char* name : {"parallel.pool.tasks", "parallel.pool.queue_depth",
                           "pool.task_wait_us", "pool.task_run_us"}) {
    ASSERT_TRUE(snap.classes.contains(name)) << name;
    EXPECT_EQ(snap.classes.at(name), obs::MetricClass::kMeasured) << name;
  }
}
#endif

TEST(Workspace, ReferencesSurviveSlotGrowth) {
  // Hot loops hold several slot references at once (e.g. pool + cols in
  // the sampling loop), so creating a later slot must not relocate an
  // earlier one.
  Workspace ws;
  std::vector<std::size_t>& first = ws.indices(0);
  std::vector<double>& d_first = ws.doubles(0);
  first.assign(3, 42);
  d_first.assign(2, 0.5);
  for (std::size_t slot = 1; slot < 64; ++slot) {
    ws.indices(slot);
    ws.doubles(slot);
  }
  EXPECT_EQ(&first, &ws.indices(0));
  EXPECT_EQ(&d_first, &ws.doubles(0));
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[2], 42u);
  first.push_back(7);  // writing through the old reference is still valid
  EXPECT_EQ(ws.indices(0).back(), 7u);
}

TEST(Workspace, SlotsPersistAndAreThreadLocal) {
  Workspace& ws = this_thread_workspace();
  ws.doubles(0).assign(4, 1.5);
  EXPECT_EQ(&ws, &this_thread_workspace());
  EXPECT_EQ(this_thread_workspace().doubles(0).size(), 4u);
  ws.indices(2).assign(3, 7);
  EXPECT_EQ(ws.indices(2).size(), 3u);

  set_threads(4);
  // Worker threads see their own workspaces, never the caller's buffers.
  std::atomic<int> distinct{0};
  parallel_chunks(4, 4, [&](std::size_t, std::size_t, std::size_t) {
    Workspace& local = this_thread_workspace();
    if (&local != &ws) distinct.fetch_add(1);
    local.doubles(0).push_back(1.0);
  });
  EXPECT_GE(distinct.load(), 1);
  EXPECT_EQ(ws.doubles(0).size(), 4u + 1u);  // chunk 0 ran on this thread
  ws.clear();
  EXPECT_TRUE(ws.doubles(0).empty());
  set_threads(1);
}

}  // namespace
}  // namespace litmus::par
