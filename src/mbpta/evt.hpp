// Hand-rolled extreme-value statistics.
//
// The paper's method is *static* probabilistic timing analysis; the main
// measurement-based alternative in its related work (Slijepcevic et al.,
// DTM [7]) derives pWCET estimates by fitting extreme-value distributions
// to observed execution times. This module provides that comparator:
// block-maxima + Gumbel (MLE via Newton), which `run_mbpta` fits, plus the
// Kolmogorov-Smirnov distance the tests use to check the fit's quality.
// No external statistics package is used.
#pragma once

#include <functional>
#include <span>
#include <vector>

namespace pwcet {

/// Gumbel (EV type I) distribution: CDF F(x) = exp(-exp(-(x-mu)/beta)).
struct GumbelFit {
  double mu = 0.0;    ///< location
  double beta = 1.0;  ///< scale (> 0)
  bool converged = false;

  double cdf(double x) const;
  /// P[X > x], computed in a cancellation-free form (accurate even where
  /// 1 - cdf(x) would lose all significant digits, e.g. at 1e-15 tails).
  double exceedance(double x) const;
  /// Value exceeded with probability p: F^-1(1 - p).
  double quantile_exceedance(double p) const;
};

/// Maximum-likelihood Gumbel fit (Newton iteration on the scale profile
/// likelihood). Requires at least two distinct sample values.
GumbelFit fit_gumbel_mle(std::span<const double> sample);

/// Per-block maxima of consecutive windows (tail samples for Gumbel).
std::vector<double> block_maxima(std::span<const double> sample,
                                 std::size_t block_size);

/// Kolmogorov-Smirnov statistic of the sample against a model CDF.
double ks_statistic(std::span<const double> sample,
                    const std::function<double(double)>& cdf);

}  // namespace pwcet
