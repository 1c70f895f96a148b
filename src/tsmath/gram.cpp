#include "tsmath/gram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tsmath/simd/kernels.h"
#include "tsmath/timeseries.h"

namespace litmus::ts {
namespace {

constexpr std::size_t kWordBits = 64;

/// Normal equations square the condition number, so refuse subsets whose
/// Cholesky diagonal ratio (≈ cond₂ of the design) exceeds this and let
/// the QR fallback handle them.
constexpr double kMaxConditionRatio = 1e7;

inline bool test_bit(std::span<const std::uint64_t> bits,
                     std::size_t i) noexcept {
  return (bits[i / kWordBits] >> (i % kWordBits)) & 1u;
}

// Accumulates the augmented Gram matrix over `cols` packed (contiguous,
// complete-case) columns of `n` rows each into `g`, a (cols+1)² row-major
// buffer. Routed through the dispatched SIMD kernel: all tiers follow the
// same fixed 8-lane block accumulation order (simd/dispatch.h), so the
// result is identical whichever tier runs it.
void accumulate_gram(const double* packed, std::size_t n, std::size_t cols,
                     std::vector<double>& g) {
  const std::size_t aug = cols + 1;
  g.assign(aug * aug, 0.0);
  simd::accumulate_gram(packed, n, cols, g.data());
}

}  // namespace

GramPanel GramPanel::build(const Matrix& design) {
  GramPanel p;
  p.n_cols_ = design.cols();
  p.m_ = design.rows();
  if (p.m_ == 0 || p.n_cols_ == 0) return p;

  p.words_ = (p.m_ + kWordBits - 1) / kWordBits;
  p.col_missing_.assign(p.n_cols_ * p.words_, 0);
  p.x_missing_.assign(p.words_, 0);

  for (std::size_t c = 0; c < p.n_cols_; ++c) {
    const auto col = design.column(c);
    std::uint64_t* bits = p.col_missing_.data() + c * p.words_;
    simd::scan_missing_bits(col, bits);
    for (std::size_t w = 0; w < p.words_; ++w) p.x_missing_[w] |= bits[w];
  }

  p.rows_.reserve(p.m_);
  for (std::size_t r = 0; r < p.m_; ++r)
    if (!test_bit(p.x_missing_, r))
      p.rows_.push_back(static_cast<std::uint32_t>(r));
  p.n_rows_ = p.rows_.size();
  // The tightest subset fit needs aug+2 rows; require at least the
  // smallest useful panel so degenerate windows skip straight to QR.
  if (p.n_rows_ < 4) return p;

  // Gather the complete-case rows contiguous (column-major), then run the
  // blocked columnar accumulation on stride-1 memory.
  p.packed_.resize(p.n_rows_ * p.n_cols_);
  for (std::size_t c = 0; c < p.n_cols_; ++c) {
    const auto col = design.column(c);
    double* out = p.packed_.data() + c * p.n_rows_;
    for (std::size_t i = 0; i < p.n_rows_; ++i) out[i] = col[p.rows_[i]];
  }
  accumulate_gram(p.packed_.data(), p.n_rows_, p.n_cols_, p.g_);
  p.ok_ = true;
  return p;
}

bool GramSystem::bind(const GramPanel& panel, std::span<const double> y,
                      bool with_intercept) {
  panel_ = &panel;
  ok_ = false;
  g_reduced_.clear();
  with_intercept_ = with_intercept;
  if (!panel.ok_ || y.size() != panel.m_) return false;

  y_missing_.resize(panel.words_);
  simd::scan_missing_bits(y, y_missing_.data());

  all_missing_.resize(panel.words_);
  bool reduced = false;
  for (std::size_t w = 0; w < panel.words_; ++w) {
    all_missing_[w] = panel.x_missing_[w] | y_missing_[w];
    reduced |= all_missing_[w] != panel.x_missing_[w];
  }

  // Gather y over the usable panel rows; positions index into the panel's
  // packed row order so the reduced re-accumulation can gather from the
  // already-packed columns.
  std::vector<std::uint32_t> positions;
  std::vector<double> y_packed;
  y_packed.reserve(panel.n_rows_);
  if (reduced) {
    positions.reserve(panel.n_rows_);
    for (std::size_t i = 0; i < panel.n_rows_; ++i)
      if (!is_missing(y[panel.rows_[i]])) {
        positions.push_back(static_cast<std::uint32_t>(i));
        y_packed.push_back(y[panel.rows_[i]]);
      }
    n_rows_ = positions.size();
  } else {
    for (std::size_t i = 0; i < panel.n_rows_; ++i)
      y_packed.push_back(y[panel.rows_[i]]);
    n_rows_ = panel.n_rows_;
  }
  if (n_rows_ < 4) return false;

  const double* cols_data = panel.packed_.data();
  std::vector<double> reduced_packed;
  if (reduced) {
    // y knocks rows out of the panel: re-gather the surviving rows and
    // re-accumulate an owned G over them with the same kernel (and the
    // same ascending row order) a fresh build over the joint rows would
    // use, so a shared panel yields bit-identical results.
    reduced_packed.resize(n_rows_ * panel.n_cols_);
    for (std::size_t c = 0; c < panel.n_cols_; ++c) {
      const double* in = panel.packed_.data() + c * panel.n_rows_;
      double* out = reduced_packed.data() + c * n_rows_;
      for (std::size_t i = 0; i < n_rows_; ++i) out[i] = in[positions[i]];
    }
    cols_data = reduced_packed.data();
    accumulate_gram(cols_data, n_rows_, panel.n_cols_, g_reduced_);
  }

  // X̃ᵀy GEMV through the dispatched kernels: Σy, yᵀy, then one packed
  // column·y dot per predictor.
  const std::span<const double> yp{y_packed.data(), n_rows_};
  sum_y_ = simd::sum(yp);
  yty_ = simd::dot(yp, yp);
  xty_.assign(panel.n_cols_ + 1, 0.0);
  xty_[0] = sum_y_;
  for (std::size_t c = 0; c < panel.n_cols_; ++c) {
    const double* pc = cols_data + c * n_rows_;
    xty_[c + 1] = simd::dot({pc, n_rows_}, yp);
  }
  ok_ = true;
  return true;
}

bool GramSystem::subset_matches_panel(
    std::span<const std::size_t> cols) const noexcept {
  if (!ok_) return false;
  const std::size_t words = panel_->words_;
  for (std::size_t w = 0; w < words; ++w) {
    // The plain fit drops rows missing in y or in a *selected* column; the
    // solve is exact iff that union reproduces the joint complement the
    // Gram quantities were accumulated over.
    std::uint64_t u = y_missing_[w];
    for (const auto c : cols) u |= panel_->col_missing_[c * words + w];
    if (u != all_missing_[w]) return false;
  }
  return true;
}

bool GramSystem::solve_subset(std::span<const std::size_t> cols,
                              GramScratch& scratch, LinearModel& out) const {
  out = LinearModel{};
  out.with_intercept = with_intercept_;
  const std::size_t k = cols.size();
  const std::size_t ka = k + (with_intercept_ ? 1 : 0);
  if (!ok_ || k == 0 || n_rows_ < ka + 2) return false;

  // Extract the subset's normal system into the scratch arena. Augmented
  // index i maps to full-Gram index 0 (intercept) or cols[...]+1.
  const std::size_t aug = panel_->n_cols_ + 1;
  const double* g_full = gram();
  const auto full_index = [&](std::size_t i) -> std::size_t {
    if (with_intercept_) return i == 0 ? 0 : cols[i - 1] + 1;
    return cols[i] + 1;
  };
  scratch.g.resize(ka * ka);
  scratch.rhs.resize(ka);
  scratch.sol.resize(ka);
  for (std::size_t i = 0; i < ka; ++i) {
    const std::size_t fi = full_index(i);
    scratch.rhs[i] = xty_[fi];
    for (std::size_t j = 0; j <= i; ++j)
      scratch.g[i * ka + j] = g_full[fi * aug + full_index(j)];
  }

  // In-place lower Cholesky with a relative pivot guard (mirrors the
  // QR solver's near-singular diagonal check).
  double max_diag = 0.0;
  for (std::size_t i = 0; i < ka; ++i)
    max_diag = std::max(max_diag, scratch.g[i * ka + i]);
  if (!(max_diag > 0.0)) return false;
  const double pivot_floor = 1e-12 * max_diag;

  double min_l = std::numeric_limits<double>::infinity();
  double max_l = 0.0;
  for (std::size_t j = 0; j < ka; ++j) {
    double d = scratch.g[j * ka + j];
    for (std::size_t t = 0; t < j; ++t)
      d -= scratch.g[j * ka + t] * scratch.g[j * ka + t];
    if (!(d > pivot_floor)) return false;
    const double l = std::sqrt(d);
    scratch.g[j * ka + j] = l;
    min_l = std::min(min_l, l);
    max_l = std::max(max_l, l);
    for (std::size_t i = j + 1; i < ka; ++i) {
      double s = scratch.g[i * ka + j];
      for (std::size_t t = 0; t < j; ++t)
        s -= scratch.g[i * ka + t] * scratch.g[j * ka + t];
      scratch.g[i * ka + j] = s / l;
    }
  }
  const double condition = max_l / min_l;
  if (condition > kMaxConditionRatio) return false;

  // Forward then back substitution: L z = rhs, Lᵀ β = z.
  for (std::size_t i = 0; i < ka; ++i) {
    double s = scratch.rhs[i];
    for (std::size_t t = 0; t < i; ++t)
      s -= scratch.g[i * ka + t] * scratch.sol[t];
    scratch.sol[i] = s / scratch.g[i * ka + i];
  }
  for (std::size_t ii = ka; ii-- > 0;) {
    double s = scratch.sol[ii];
    for (std::size_t t = ii + 1; t < ka; ++t)
      s -= scratch.g[t * ka + ii] * scratch.sol[t];
    scratch.sol[ii] = s / scratch.g[ii * ka + ii];
  }

  std::size_t c_in = 0;
  if (with_intercept_) out.intercept = scratch.sol[c_in++];
  out.coefficients.assign(
      scratch.sol.begin() + static_cast<std::ptrdiff_t>(c_in),
      scratch.sol.end());

  // Fit quality from the Gram quantities: for the normal-equation solution
  // βᵀGβ = βᵀX̃ᵀy, so SS_res = yᵀy − βᵀX̃ᵀy (clamped against round-off).
  double fitted = 0.0;
  for (std::size_t i = 0; i < ka; ++i) fitted += scratch.sol[i] * scratch.rhs[i];
  const double ss_res = std::max(0.0, yty_ - fitted);
  const double n = static_cast<double>(n_rows_);
  const double y_bar = sum_y_ / n;
  const double ss_tot = std::max(0.0, yty_ - n * y_bar * y_bar);
  out.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 0.0;
  const std::size_t dof = n_rows_ - ka;
  out.residual_stddev =
      dof > 0 ? std::sqrt(ss_res / static_cast<double>(dof)) : 0.0;
  out.condition = condition;
  out.ok = true;
  return true;
}

}  // namespace litmus::ts
