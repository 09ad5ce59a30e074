#include "arith.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "dcc/common/math_util.h"

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("Percentile: no samples");
  if (!(q >= 0.0 && q <= 100.0)) {
    throw std::invalid_argument("Percentile: q outside [0, 100]");
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("Mean: no samples");
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double ClusteringBound(double gamma, double id_space) {
  return gamma * std::log2(id_space) * dcc::LogStar(id_space);
}

double BroadcastBound(double diameter, double gamma, double id_space) {
  return diameter * (gamma + dcc::LogStar(id_space)) * std::log2(id_space);
}

SelfTimes DeriveSelfTimes(const LayerTimes& t) {
  return {t.algo_s - t.step_s, t.sweep_s - t.build_s - t.algo_s,
          t.engine_interval_s - t.step_s};
}

double Imbalance(const std::vector<std::int64_t>& shard_load) {
  if (shard_load.empty()) return 0.0;
  const auto total =
      std::accumulate(shard_load.begin(), shard_load.end(), std::int64_t{0});
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shard_load.size());
  return static_cast<double>(
             *std::max_element(shard_load.begin(), shard_load.end())) /
         mean;
}

}  // namespace perfbench
