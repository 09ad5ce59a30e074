// The benchmark's own arithmetic: order statistics, the paper's round
// bounds, and the self times derived from the traced run. Kept apart from
// the benchmark program so unit tests can pin every formula the report
// rests on.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

// Percentile q in [0, 100] of `samples`, interpolating linearly between
// closest ranks (numpy's default, and what Python's
// statistics.quantiles(method="inclusive") gives). Throws on an empty set.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// Theorem 1's clustering bound with its constant dropped:
// Γ · log₂N · log*N, where N is the id space.
double ClusteringBound(double gamma, double id_space);

// Theorem 3's global-broadcast bound with its constant dropped:
// D · (Γ + log*N) · log₂N.
double BroadcastBound(double diameter, double gamma, double id_space);

// Raw times of one traced instance, all in seconds.
struct LayerTimes {
  double sweep_s = 0.0;     // RunSweep on the one-seed spec, traced
  double build_s = 0.0;     // BuildScenarioNetwork for the same seed
  double algo_s = 0.0;      // the algorithm adapter's Run call
  double step_s = 0.0;      // replayed Engine::StepInto, the run's own mode
  double engine_interval_s = 0.0;  // observer intervals ending at engine rounds
};

// Self times: what a layer spends outside the layer below it.
struct SelfTimes {
  double exec_s = 0.0;       // algo_s - step_s: protocol and Exec together
  double scenario_s = 0.0;   // sweep_s - build_s - algo_s
  double engine_round_overhead_s = 0.0;  // engine_interval_s - step_s
};
SelfTimes DeriveSelfTimes(const LayerTimes& t);

// max / mean of per-shard loads; 0 when nothing was dispatched.
double Imbalance(const std::vector<std::int64_t>& shard_load);

}  // namespace perfbench
