// Gram-matrix fast path for the Litmus sampling loop.
//
// The robust spatial regression fits the *same* before-window panel
// hundreds of times, each time on a different k-column subset of the
// design. Re-running Householder QR per subset costs O(m·k²) per
// iteration. The fast path instead precomputes, once per design,
//
//   G = X̃ᵀX̃        with X̃ = [1 | X] over the *panel rows*
//
// (the rows where every control column is observed, tracked with
// per-column missing bitsets), then binds a response y to form X̃ᵀy and
// the y moments, and solves each iteration's k̃×k̃ normal-equation
// subsystem by Cholesky — O(k³) per iteration, independent of the window
// length m.
//
// The precompute is split in two so the expensive design-only half can be
// shared across the study elements of one assessment that regress onto
// the same control panel (litmus/panel_cache.h):
//
//   * GramPanel — design-only and immutable after build(): complete-case
//     row set, per-column validity bitsets, the packed (gathered,
//     contiguous) column data, and G accumulated over the panel rows with
//     a register-blocked columnar kernel. Safe to share across threads.
//   * GramSystem — one response bound to a panel: X̃ᵀy, Σy, Σy² and the
//     joint missing-row bitset. When y is missing on some panel rows the
//     bind re-accumulates a reduced G over the joint rows (same columnar
//     kernel, same row order — results do not depend on whether the panel
//     was shared).
//
// Exactness rule: ordinary fit_ols drops only the rows incomplete in the
// *selected* columns, while G is accumulated over rows complete in *all*
// columns (∩ y). The Gram solve therefore reproduces the QR fit (up to
// round-off) exactly when the subset's complete-case row set equals the
// panel row set — subset_matches_panel(), a cheap bitset comparison. When
// it differs, or the Cholesky pivot/condition check fails (the normal
// equations square the condition number, so near-collinear subsets are
// left to QR), the caller falls back to fit_ols.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tsmath/linreg.h"
#include "tsmath/matrix.h"

namespace litmus::ts {

/// Reusable scratch for GramSystem::solve_subset; keep one per thread and
/// the solve allocates nothing once capacities are warm.
struct GramScratch {
  std::vector<double> g;    ///< packed k̃×k̃ sub-Gram / Cholesky factor
  std::vector<double> rhs;  ///< sub X̃ᵀy
  std::vector<double> sol;  ///< solution vector
};

class GramPanel {
 public:
  GramPanel() = default;

  /// Accumulates the design-only Gram system over the complete-case rows
  /// of `design` (rows observed in every column). O(m·N²), once per
  /// design; the result is immutable and safe to share across threads.
  static GramPanel build(const Matrix& design);

  /// Whether precomputing the panel pays for itself. The build costs
  /// ~m·N²/2 multiply-adds over ALL N columns, while each iteration it
  /// replaces saves ~m·k² (the QR fit over only the k selected columns).
  /// Dividing out m, the crossover is n_iterations·k² vs N²/2; below it
  /// (large control group, few iterations, or k clamped far below N by a
  /// short window) the precompute costs more than the QR loop it removes,
  /// so callers should skip build() and fit with QR directly. (Reusing a
  /// shared panel makes the build free, but the decision must not depend
  /// on whether one exists or shared and private runs could diverge.)
  static bool worthwhile(std::size_t n_iterations, std::size_t k,
                         std::size_t n_cols) noexcept {
    return n_iterations * k * k >= n_cols * n_cols / 2;
  }

  /// False when too few complete rows exist for any subset fit; callers
  /// should then use fit_ols unconditionally.
  bool ok() const noexcept { return ok_; }

  /// Rows complete in every design column.
  std::size_t panel_rows() const noexcept { return n_rows_; }
  std::size_t cols() const noexcept { return n_cols_; }
  /// Rows of the design the panel was built from.
  std::size_t design_rows() const noexcept { return m_; }

 private:
  friend class GramSystem;

  std::size_t n_cols_ = 0;  ///< design columns (controls)
  std::size_t n_rows_ = 0;  ///< panel (complete-case) rows
  std::size_t m_ = 0;       ///< design rows
  std::size_t words_ = 0;   ///< bitset words per column (⌈m/64⌉)
  bool ok_ = false;
  /// Design-only augmented Gram, (N+1)×(N+1) row-major over the panel
  /// rows; index 0 is the intercept column, index j+1 is design column j.
  std::vector<double> g_;
  /// Panel rows gathered contiguous: column-major n_rows_×n_cols_, the
  /// complete-case rows of the design in ascending row order.
  std::vector<double> packed_;
  std::vector<std::uint32_t> rows_;  ///< panel row indices, ascending
  /// Missing-row bitsets: column c occupies words [c·words_, (c+1)·words_),
  /// plus the union over all columns (complement of the panel row set).
  std::vector<std::uint64_t> col_missing_;
  std::vector<std::uint64_t> x_missing_;
};

/// One response bound to a GramPanel: the per-study-element half of the
/// normal equations. Cheap to build — O(m·N) — against a shared panel;
/// falls back to an owned O(m·N²) re-accumulation only when y is missing
/// on some panel rows. Holds a pointer to the panel: the panel must
/// outlive the system.
class GramSystem {
 public:
  GramSystem() = default;

  /// Binds `y` (size == panel.design_rows()) to the panel. Returns false —
  /// leaving ok() false — when the panel is not ok, sizes mismatch, or
  /// fewer than 4 rows are complete in y and every column.
  bool bind(const GramPanel& panel, std::span<const double> y,
            bool with_intercept);

  bool ok() const noexcept { return ok_; }

  /// Rows complete in y and every design column.
  std::size_t rows() const noexcept { return n_rows_; }

  /// True when restricting the design to `cols` keeps the complete-case
  /// row set identical to this system's — the condition under which
  /// solve_subset is exact. O(k · m/64).
  bool subset_matches_panel(std::span<const std::size_t> cols) const noexcept;

  /// Cholesky-solves the normal equations for the given column subset and
  /// fills `out` (coefficients, intercept, R², residual stddev, condition,
  /// ok). Returns false — leaving `out` untouched except ok == false —
  /// when the submatrix is numerically non-positive-definite or too
  /// ill-conditioned for the normal equations; callers fall back to QR.
  bool solve_subset(std::span<const std::size_t> cols, GramScratch& scratch,
                    LinearModel& out) const;

 private:
  const GramPanel* panel_ = nullptr;
  bool ok_ = false;
  bool with_intercept_ = true;
  std::size_t n_rows_ = 0;   ///< joint complete-case rows
  std::vector<double> xty_;  ///< augmented X̃ᵀy, size N+1
  double yty_ = 0.0;         ///< Σ y² over joint rows
  double sum_y_ = 0.0;       ///< Σ y over joint rows
  /// Rows where y is missing, and x_missing ∪ y_missing — the complement
  /// of the joint row set. Both kept: subset_matches_panel needs y's own
  /// bits (a row missing in y *and* in an unselected column is dropped by
  /// the plain fit too, so such subsets still match).
  std::vector<std::uint64_t> y_missing_;
  std::vector<std::uint64_t> all_missing_;
  /// Reduced G when y is missing on panel rows; empty when the shared
  /// panel G applies verbatim.
  std::vector<double> g_reduced_;

  const double* gram() const noexcept {
    return g_reduced_.empty() ? panel_->g_.data() : g_reduced_.data();
  }
};

}  // namespace litmus::ts
