#include "analysis/powerlaw.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace dtr::analysis {

PowerLawFit fit_power_law(const CountHistogram& h, std::uint64_t xmin) {
  PowerLawFit fit;
  fit.xmin = std::max<std::uint64_t>(xmin, 1);

  // Continuous-approximation MLE (Clauset et al. eq. 3.7):
  //   alpha = 1 + n / sum_i ln(x_i / (xmin - 0.5))
  double log_sum = 0.0;
  std::uint64_t n = 0;
  const double shift = static_cast<double>(fit.xmin) - 0.5;
  // Both loops run over the tail only: the bins are sorted, so starting at
  // lower_bound(xmin) does the same operations in the same order as a full
  // scan that skips the values below xmin.
  const auto tail = h.bins().lower_bound(fit.xmin);
  for (auto it = tail; it != h.bins().end(); ++it) {
    const auto& [value, count] = *it;
    log_sum += static_cast<double>(count) *
               std::log(static_cast<double>(value) / shift);
    n += count;
  }
  fit.n_tail = n;
  if (n == 0 || log_sum <= 0.0) return fit;
  fit.alpha = 1.0 + static_cast<double>(n) / log_sum;

  // KS distance between the empirical tail CDF and the fitted CDF
  // (continuous approximation P(X >= x) = (x / xmin)^{1 - alpha}).
  double ks = 0.0;
  std::uint64_t cum = 0;
  for (auto it = tail; it != h.bins().end(); ++it) {
    const auto& [value, count] = *it;
    cum += count;
    double empirical = static_cast<double>(cum) / static_cast<double>(n);
    double model =
        1.0 - std::pow(static_cast<double>(value + 1) /
                           static_cast<double>(fit.xmin),
                       1.0 - fit.alpha);
    ks = std::max(ks, std::abs(empirical - model));
  }
  fit.ks_distance = ks;
  return fit;
}

PowerLawFit fit_power_law_auto(const CountHistogram& h,
                               std::size_t max_candidates) {
  // Candidate xmin values: the distinct observed values, subsampled evenly
  // if there are too many.  xmin candidates whose tail is tiny are skipped.
  std::vector<std::uint64_t> candidates;
  candidates.reserve(h.bins().size());
  for (const auto& [value, count] : h.bins()) {
    if (value >= 1) candidates.push_back(value);
  }
  if (candidates.empty()) return {};

  std::size_t stride =
      std::max<std::size_t>(1, candidates.size() / max_candidates);

  PowerLawFit best;
  bool have_best = false;
  for (std::size_t i = 0; i < candidates.size(); i += stride) {
    PowerLawFit fit = fit_power_law(h, candidates[i]);
    if (fit.n_tail < 25 || fit.alpha <= 1.0) continue;
    if (!have_best || fit.ks_distance < best.ks_distance) {
      best = fit;
      have_best = true;
    }
  }
  return have_best ? best : fit_power_law(h, 1);
}

}  // namespace dtr::analysis
