// Top-level Litmus façade: the API an operations workflow calls.
//
// Given a topology, a KPI data source, and a change (study elements +
// effect time), the Assessor selects/accepts a control group, runs the
// robust spatial regression per study element, votes across elements, and
// produces the go / no-go input the paper describes for First Field
// Application rollout decisions.
#pragma once

#include <functional>
#include <string>

#include "litmus/control_selection.h"
#include "litmus/spatial_regression.h"
#include "litmus/voting.h"

namespace litmus::core {

/// KPI series source: returns the series for (element, kpi) over
/// [start, start + n) hourly bins. Backed by the simulator in this
/// repository; by production feeds in deployment.
using SeriesProvider = std::function<ts::TimeSeries(
    net::ElementId element, kpi::KpiId kpi, std::int64_t start,
    std::size_t n)>;

struct AssessmentConfig {
  /// Comparison windows around the change ("a longer time-scale, e.g. 1-2
  /// weeks, is typically selected", Section 2.4).
  std::size_t before_bins = 14 * 24;
  std::size_t after_bins = 14 * 24;
  /// Guard bins skipped right after the change (change execution window).
  std::size_t guard_bins = 0;
  SpatialRegressionParams regression;
};

struct ElementAssessment {
  net::ElementId element;
  AnalysisOutcome outcome;
};

struct ChangeAssessment {
  kpi::KpiId kpi;
  std::int64_t change_bin = 0;
  std::vector<net::ElementId> study_group;
  std::vector<net::ElementId> control_group;
  std::vector<ElementAssessment> per_element;
  VoteSummary summary;
};

/// The FFA "go or no-go" input (paper Sections 1, 2.4): go when the change
/// shows the expected improvements — or at least no degradation — at every
/// study location.
struct FfaDecision {
  bool go = false;
  std::vector<ChangeAssessment> per_kpi;
  std::string rationale;
};

class Assessor {
 public:
  Assessor(const net::Topology& topo, SeriesProvider provider,
           AssessmentConfig config = {});

  /// Assesses one KPI with an explicit control group. Windows are fetched
  /// from the provider on the calling thread; the per-element regressions
  /// then fan out across the parallel pool (results are deterministic at
  /// any thread count).
  ChangeAssessment assess(std::span<const net::ElementId> study,
                          std::span<const net::ElementId> control,
                          kpi::KpiId kpi, std::int64_t change_bin) const;

  /// As assess(), over pre-fetched windows (windows[i] belongs to
  /// study[i]). Never touches the SeriesProvider, so callers that batch
  /// window fetching may invoke this concurrently from worker threads.
  /// Study elements whose before-window designs are bit-equal share one
  /// Gram panel, built once per call (litmus/panel_cache.h).
  ChangeAssessment assess_windows(std::span<const net::ElementId> study,
                                  std::span<const net::ElementId> control,
                                  std::span<const ElementWindows> windows,
                                  kpi::KpiId kpi,
                                  std::int64_t change_bin) const;

  /// Assesses one KPI, selecting the control group with `predicate`.
  ChangeAssessment assess_with_selection(
      std::span<const net::ElementId> study,
      const ControlPredicate& predicate, kpi::KpiId kpi,
      std::int64_t change_bin, const SelectionPolicy& policy = {}) const;

  /// Multi-KPI go / no-go: go iff no KPI's vote is a degradation and no
  /// study element shows a significant degradation on any KPI.
  FfaDecision ffa_decision(std::span<const net::ElementId> study,
                           std::span<const net::ElementId> control,
                           std::span<const kpi::KpiId> kpis,
                           std::int64_t change_bin) const;

  /// Builds the analyzer windows for one study element (exposed so benches
  /// and baseline analyzers can reuse exactly the same data path).
  ElementWindows windows_for(net::ElementId study,
                             std::span<const net::ElementId> control,
                             kpi::KpiId kpi, std::int64_t change_bin) const;

  const AssessmentConfig& config() const noexcept { return config_; }

 private:
  const net::Topology* topo_;
  SeriesProvider provider_;
  AssessmentConfig config_;
  RobustSpatialRegression algorithm_;
};

}  // namespace litmus::core
