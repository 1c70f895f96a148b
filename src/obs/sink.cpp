#include "obs/sink.h"

#include <cstdio>
#include <sstream>

#include "obs/json.h"
#include "obs/manifest.h"

namespace litmus::obs {
namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void histogram_fields(JsonWriter& w, const HistogramSnapshot& h) {
  w.member("count", h.count)
      .member("sum", h.sum)
      .member("min", h.min)
      .member("max", h.max)
      .member("mean", h.mean())
      .member("p50", h.p50)
      .member("p90", h.p90)
      .member("p95", h.p95)
      .member("p99", h.p99);
}

}  // namespace

void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot,
                        const RunManifest* manifest) {
  JsonWriter w(out);
  w.begin_object();
  if (manifest) {
    w.key("manifest");
    manifest->write(w);
  }
  w.key("counters").begin_object();
  for (const auto& [name, value] : snapshot.counters) w.member(name, value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : snapshot.gauges) w.member(name, value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : snapshot.histograms) {
    w.key(name).begin_object();
    histogram_fields(w, h);
    w.end_object();
  }
  w.end_object();
  w.key("classes").begin_object();
  for (const auto& [name, cls] : snapshot.classes)
    w.member(name, metric_class_name(cls));
  w.end_object();
  w.end_object();
  out << '\n';
}

void write_metrics_csv(std::ostream& out, const MetricsSnapshot& snapshot) {
  out << "# kind, name, value... (histogram: count, sum, min, max, p50, "
         "p90, p95, p99)\n";
  for (const auto& [name, value] : snapshot.counters)
    out << "counter," << name << ',' << value << '\n';
  for (const auto& [name, value] : snapshot.gauges)
    out << "gauge," << name << ',' << fmt(value) << '\n';
  for (const auto& [name, h] : snapshot.histograms)
    out << "histogram," << name << ',' << h.count << ',' << fmt(h.sum) << ','
        << fmt(h.min) << ',' << fmt(h.max) << ',' << fmt(h.p50) << ','
        << fmt(h.p90) << ',' << fmt(h.p95) << ',' << fmt(h.p99) << '\n';
}

std::string format_metrics_summary(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  const auto pad = [](std::string s, std::size_t width) {
    if (s.size() < width) s.resize(width, ' ');
    return s;
  };
  if (!snapshot.counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, value] : snapshot.counters)
      os << "  " << pad(name, 36) << ' ' << value << '\n';
  }
  if (!snapshot.gauges.empty()) {
    os << "gauges:\n";
    for (const auto& [name, value] : snapshot.gauges)
      os << "  " << pad(name, 36) << ' ' << fmt(value) << '\n';
  }
  if (!snapshot.histograms.empty()) {
    os << "histograms:                            count     mean      p50  "
          "    p95      p99\n";
    for (const auto& [name, h] : snapshot.histograms)
      os << "  " << pad(name, 36) << ' ' << pad(std::to_string(h.count), 9)
         << pad(fmt(h.mean()), 9) << pad(fmt(h.p50), 9) << pad(fmt(h.p95), 9)
         << fmt(h.p99) << '\n';
  }
  return os.str();
}

void write_trace_json(std::ostream& out, std::span<const SpanRecord> spans,
                      std::uint64_t epoch_ns, const RunManifest* manifest) {
  JsonWriter w(out);
  w.begin_object();
  if (manifest) {
    w.key("manifest");
    manifest->write(w);
  }
  w.member("epoch_ns", epoch_ns);
  w.member("span_count", static_cast<std::uint64_t>(spans.size()));
  w.key("spans").begin_array();
  for (const SpanRecord& s : spans) {
    w.begin_object()
        .member("id", s.id)
        .member("parent", s.parent)
        .member("name", std::string_view(s.name))
        .member("thread", static_cast<std::uint64_t>(s.thread))
        .member("start_us", static_cast<double>(s.start_ns) / 1000.0)
        .member("duration_us", static_cast<double>(s.duration_ns) / 1000.0)
        .end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

}  // namespace litmus::obs
