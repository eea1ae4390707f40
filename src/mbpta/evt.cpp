#include "mbpta/evt.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"
#include "support/stats.hpp"

namespace pwcet {

double GumbelFit::cdf(double x) const {
  return std::exp(-std::exp(-(x - mu) / beta));
}

double GumbelFit::exceedance(double x) const {
  // 1 - exp(-t) = -expm1(-t) with t = exp(-(x-mu)/beta).
  return -std::expm1(-std::exp(-(x - mu) / beta));
}

double GumbelFit::quantile_exceedance(double p) const {
  PWCET_EXPECTS(p > 0.0 && p < 1.0);
  // Solve exp(-exp(-(x-mu)/beta)) = 1 - p. For tiny p, -log1p(-p) ~ p keeps
  // full precision where naive log(1-p) underflows to 0.
  return mu - beta * std::log(-std::log1p(-p));
}

GumbelFit fit_gumbel_mle(std::span<const double> sample) {
  PWCET_EXPECTS(sample.size() >= 2);
  const SampleSummary s = summarize(sample);
  GumbelFit fit;
  if (s.max == s.min) {
    fit.mu = s.mean;
    fit.beta = 1e-12;
    fit.converged = false;
    return fit;
  }

  // Profile MLE: beta solves  g(beta) = mean - beta - S1(beta)/S0(beta) = 0
  // with S0 = sum exp(-x/beta), S1 = sum x exp(-x/beta). Newton with the
  // moment estimator beta0 = sqrt(6 Var)/pi as the start.
  const double n = static_cast<double>(sample.size());
  double beta = std::sqrt(6.0 * s.variance) / 3.14159265358979323846;
  if (beta <= 0.0) beta = 1e-9;
  bool converged = false;
  for (int iter = 0; iter < 100; ++iter) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0;
    for (double x : sample) {
      // Shift by the max for numerical stability of the exponentials.
      const double e = std::exp(-(x - s.max) / beta);
      s0 += e;
      s1 += x * e;
      s2 += x * x * e;
    }
    const double ratio = s1 / s0;
    const double g = s.mean - beta - ratio;
    // dg/dbeta = -1 - d(ratio)/dbeta;  d(ratio)/dbeta = (s2*s0 - s1^2) /
    // (s0^2 * beta^2)  (variance of x under the e^{-x/beta} weights).
    const double weighted_var = (s2 * s0 - s1 * s1) / (s0 * s0);
    const double dg = -1.0 - weighted_var / (beta * beta);
    const double step = g / dg;
    double next = beta - step;
    if (next <= 0.0) next = beta / 2.0;  // keep the scale positive
    if (std::abs(next - beta) < 1e-10 * std::max(1.0, beta)) {
      beta = next;
      converged = true;
      break;
    }
    beta = next;
  }
  double s0 = 0.0;
  for (double x : sample) s0 += std::exp(-(x - s.max) / beta);
  fit.beta = beta;
  fit.mu = s.max - beta * std::log(s0 / n);
  fit.converged = converged;
  return fit;
}

std::vector<double> block_maxima(std::span<const double> sample,
                                 std::size_t block_size) {
  PWCET_EXPECTS(block_size >= 1);
  std::vector<double> maxima;
  maxima.reserve(sample.size() / block_size);
  for (std::size_t start = 0; start + block_size <= sample.size();
       start += block_size) {
    double m = sample[start];
    for (std::size_t i = 1; i < block_size; ++i)
      m = std::max(m, sample[start + i]);
    maxima.push_back(m);
  }
  return maxima;
}

double ks_statistic(std::span<const double> sample,
                    const std::function<double(double)>& cdf) {
  PWCET_EXPECTS(!sample.empty());
  const std::vector<double> v = sorted(sample);
  const double n = static_cast<double>(v.size());
  double d = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double f = cdf(v[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, std::abs(f - lo), std::abs(f - hi)});
  }
  return d;
}

}  // namespace pwcet
