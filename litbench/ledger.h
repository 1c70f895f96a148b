// Wall-time ledger of the benchmark's traced replay, computed from the
// spans an obs::Tracer recorded (obs::SpanRecord: id, parent, name, start
// relative to the tracer's epoch, duration, thread).
//
// The caller thread's timeline is the run's critical path. A span whose
// children all ran on its own thread is charged its self time: its
// duration minus the part its children cover. A fan-out span (children on
// other threads) covers an interval that k threads shared; each descendant
// is charged its self time divided by k, and the fan-out keeps the rest
// (threads idle or waiting inside the fan-out). Time on the caller thread
// outside every root span is unattributed. By construction the charges
// plus the unattributed time equal the traced wall time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/profile.h"

namespace litbench {

struct LedgerRow {
  double charged_s = 0.0;  ///< wall time charged to this span name
  double total_s = 0.0;    ///< summed duration over all threads
  std::uint64_t count = 0;
};

struct Ledger {
  double wall_s = 0.0;
  double unattributed_s = 0.0;
  std::map<std::string, LedgerRow> rows;  ///< by span name

  double charged_sum_s() const {
    double s = 0.0;
    for (const auto& [name, row] : rows) s += row.charged_s;
    return s;
  }
};

/// Ledger of `spans` over a traced wall time of `wall_ns`, every span
/// inside it.
inline Ledger build_ledger(const std::vector<litmus::obs::SpanRecord>& spans,
                           std::uint64_t wall_ns) {
  Ledger ledger;
  ledger.wall_s = static_cast<double>(wall_ns) / 1e9;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);

  const auto kids = [&](std::size_t i) -> const std::vector<std::size_t>& {
    static const std::vector<std::size_t> kNone;
    const auto it = children.find(spans[i].id);
    return it == children.end() ? kNone : it->second;
  };
  std::vector<double> self_s(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::uint64_t covered = 0;
    for (const std::size_t c : kids(i))
      if (spans[c].thread == spans[i].thread) covered += spans[c].duration_ns;
    self_s[i] = static_cast<double>(spans[i].duration_ns - covered) / 1e9;
    LedgerRow& row = ledger.rows[spans[i].name];
    row.total_s += static_cast<double>(spans[i].duration_ns) / 1e9;
    ++row.count;
  }

  // Walk the caller thread's trees; a fan-out span splits its interval
  // among the threads its descendants ran on.
  std::vector<std::size_t> stack;
  double roots_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent == 0) {
      stack.push_back(i);
      roots_s += static_cast<double>(spans[i].duration_ns) / 1e9;
    }
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    const auto& ch = kids(i);
    const bool fan_out = std::any_of(ch.begin(), ch.end(), [&](std::size_t c) {
      return spans[c].thread != spans[i].thread;
    });
    if (!fan_out) {
      ledger.rows[spans[i].name].charged_s += self_s[i];
      stack.insert(stack.end(), ch.begin(), ch.end());
      continue;
    }
    std::vector<std::size_t> desc(ch.begin(), ch.end());
    for (std::size_t d = 0; d < desc.size(); ++d) {
      const auto& more = kids(desc[d]);
      desc.insert(desc.end(), more.begin(), more.end());
    }
    std::set<std::uint32_t> threads;
    for (const std::size_t d : desc) threads.insert(spans[d].thread);
    const double k = static_cast<double>(threads.size());
    double shared = 0.0;
    for (const std::size_t d : desc) {
      ledger.rows[spans[d].name].charged_s += self_s[d] / k;
      shared += self_s[d] / k;
    }
    ledger.rows[spans[i].name].charged_s +=
        static_cast<double>(spans[i].duration_ns) / 1e9 - shared;
  }
  ledger.unattributed_s = ledger.wall_s - roots_s;
  return ledger;
}

}  // namespace litbench
