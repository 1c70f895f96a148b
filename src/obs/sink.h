// Export sinks for the obs metrics registry and trace tree.
//
//   * JSON: machine-readable; the shapes litmus_cli's --metrics-json and
//     --trace-json flags write and the CI perf artifact consumes.
//   * CSV: flat rows for spreadsheet/pandas ingestion.
//   * Summary: aligned human-readable text for terminal reports.
//
// Histogram quantiles are reported in the units they were recorded in
// (stage.* histograms from ScopedSpan are microseconds).
#pragma once

#include <ostream>
#include <span>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace litmus::obs {

struct RunManifest;

/// {"manifest":{...},"counters":{...},"gauges":{...},
///  "histograms":{name:{count,sum,min,max,mean,p50,p90,p95,p99}},
///  "classes":{name:"deterministic"|"measured"}}
/// The manifest member is present when `manifest` is non-null, so every
/// metrics artifact carries its own provenance (obs/manifest.h). The
/// classes member records each metric's declared MetricClass, which is
/// what `diff-runs` gates on.
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot,
                        const RunManifest* manifest = nullptr);

/// One row per metric:
///   counter,<name>,<value>
///   gauge,<name>,<value>
///   histogram,<name>,<count>,<sum>,<min>,<max>,<p50>,<p90>,<p95>,<p99>
void write_metrics_csv(std::ostream& out, const MetricsSnapshot& snapshot);

/// Aligned, name-sorted text block.
std::string format_metrics_summary(const MetricsSnapshot& snapshot);

/// {"manifest":{...}?,"epoch_ns":...,
///  "spans":[{id,parent,name,thread,start_us,duration_us}]}
void write_trace_json(std::ostream& out, std::span<const SpanRecord> spans,
                      std::uint64_t epoch_ns = 0,
                      const RunManifest* manifest = nullptr);

}  // namespace litmus::obs
