// End-to-end and per-layer benchmark of the paper's pipeline.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each workload is a batch of one-seed ScenarioSpecs whose seeds derive
// from --seed; every spec runs through scenario::RunSweep, the call dcc_run
// makes. A run has three phases:
//
//  1. set-up: BuildScenarioNetwork for every instance, in batches spread
//     over the timed phase;
//  2. timed: untraced RunSweep calls, round-robin over the instances,
//     until --seconds have passed (every instance at least once);
//  3. traced: one more RunSweep per instance with the algorithm adapter
//     wrapped through AlgorithmRegistry::Register and an Exec observer
//     recording every round; the recorded transmitter sets are then
//     replayed through fresh engines, timed per step.
//
// Every run checks its outputs, with or without --trace: the report is ok;
// its bytes equal those of every other run of that seed, traced included;
// the replay in the run's own engine configuration reproduces each round's
// receptions bit for bit; the replay in the other engine mode (exact vs
// grid) gives the same reception set with SINR inside the engine's
// 9-significant-digit contract. The last stdout line is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "arith.h"
#include "dcc/parallel/worker_pool.h"
#include "dcc/scenario/scenario.h"

namespace {

using dcc::scenario::Algorithm;
using dcc::scenario::RunContext;
using dcc::scenario::RunReport;
using dcc::scenario::ScenarioSpec;
using dcc::sinr::Engine;
using dcc::sinr::Reception;
using Clock = std::chrono::steady_clock;

// Every workload keeps the registry default density, 5.12 nodes per unit²
// (n=128 on a side-5 square), so Γ stays near 25-30 whatever n is.
struct Workload {
  const char* name;
  std::vector<std::string> args;  // spec flags, --seeds appended per instance
  // Topologies per run, each timed once in a --seconds pass. Topologies
  // differ by up to ~30% in rounds and in time per round, so the run
  // averages as many as one pass fits.
  int instances;
  enum class Bound { kClustering, kBroadcast } bound;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      // Alg. 6 under the engine auto picks at this size (exact, serial):
      // the engine dominates.
      {"cluster",
       {"--topology=uniform:n=256,side=7.071", "--algo=clustering"},
       12,
       Workload::Bound::kClustering},
      // Alg. 8 on a topology connected for every seed (Theorem 3's
      // precondition): most rounds are empty and engine rounds carry ~2
      // transmitters, so Exec's per-round fixed costs dominate.
      {"bcast_global",
       {"--topology=connected_uniform:n=256,side=7.071",
        "--algo=global_broadcast"},
       24,
       Workload::Bound::kBroadcast},
      // Alg. 6 on the grid engine with two shards: the layers auto uses
      // above 2048 nodes (grid resolution, shard dispatch), at a size that
      // fits many runs. Runnable, but not in BENCHMARK.json: a run waits for
      // its slowest shard, so on a shared host its time swings up to 2.4x.
      {"cluster_grid",
       {"--topology=uniform:n=128,side=5", "--algo=clustering",
        "--engine=grid", "--threads=2"},
       7,
       Workload::Bound::kClustering},
  };
  return kWorkloads;
}

// Instance seeds are a pure function of the run's --seed.
std::uint64_t InstanceSeed(std::uint64_t seed, int i) {
  return seed * 64 + static_cast<std::uint64_t>(i);
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string ReportBytes(const RunReport& rep) {
  std::ostringstream os;
  rep.PrintJson(os);
  return os.str();
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

// Bit-exact digest of one round's receptions, in emission order.
std::uint64_t HashReceptions(const std::vector<Reception>& rx) {
  std::uint64_t h = rx.size();
  for (const Reception& r : rx) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r.sinr, sizeof bits);
    h = Mix(Mix(Mix(h, r.listener), r.sender), bits);
  }
  return h;
}

// --- Traced run: what the observer saw. -------------------------------------

struct Recording {
  std::int64_t observer_calls = 0;
  bool rounds_in_order = true;
  // Per round, the wall time since the previous observer call (the first
  // interval starts when the algorithm call starts).
  std::vector<double> empty_interval_ns;
  std::vector<double> engine_interval_ns;
  // Engine rounds only: transmitters (CSR) and the receptions' digest.
  std::vector<std::uint32_t> tx;
  std::vector<std::size_t> tx_end;
  std::vector<std::uint64_t> rx_hash;
  std::int64_t receptions = 0;
  // Read after the algorithm returns.
  std::int64_t algo_ns = 0;
  std::int64_t exec_rounds = 0;
  std::int64_t engine_rounds = 0;
};

// Wraps a registered adapter: installs the observer, times the call.
class TracedAlgorithm final : public Algorithm {
 public:
  TracedAlgorithm(std::unique_ptr<Algorithm> inner, Recording* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  RunReport Run(RunContext& ctx) override {
    Recording& r = *rec_;
    r = Recording{};
    std::int64_t last = 0;
    ctx.ex.SetObserver([&r, &last](dcc::Round round,
                                   const std::vector<std::size_t>& tx,
                                   const std::vector<Reception>& rx) {
      const std::int64_t now = NowNs();
      const auto dt = static_cast<double>(now - last);
      last = now;
      if (round != r.observer_calls) r.rounds_in_order = false;
      ++r.observer_calls;
      if (tx.empty()) {
        r.empty_interval_ns.push_back(dt);
        return;
      }
      r.engine_interval_ns.push_back(dt);
      r.tx.insert(r.tx.end(), tx.begin(), tx.end());
      r.tx_end.push_back(r.tx.size());
      r.rx_hash.push_back(HashReceptions(rx));
      r.receptions += static_cast<std::int64_t>(rx.size());
    });
    const std::int64_t start = NowNs();
    last = start;
    RunReport rep = inner_->Run(ctx);
    r.algo_ns = NowNs() - start;
    r.exec_rounds = ctx.ex.rounds();
    r.engine_rounds = ctx.ex.engine().stats().rounds;
    ctx.ex.SetObserver(nullptr);
    return rep;
  }

 private:
  std::unique_ptr<Algorithm> inner_;
  Recording* rec_;
};

// Swaps the traced wrapper in for `algo` for its lifetime. Register
// replaces an existing name, so the spec (and thus the report) is the
// one the timed phase ran.
class TracedRegistration {
 public:
  TracedRegistration(const std::string& algo, Recording* rec)
      : algo_(algo),
        inner_(dcc::scenario::Algorithms().Get(algo)),
        help_(HelpOf(algo)) {
    auto inner = inner_;
    dcc::scenario::Algorithms().Register(
        algo,
        [inner, rec] {
          return std::make_unique<TracedAlgorithm>(inner(), rec);
        },
        help_);
  }
  ~TracedRegistration() {
    dcc::scenario::Algorithms().Register(algo_, inner_, help_);
  }
  TracedRegistration(const TracedRegistration&) = delete;
  TracedRegistration& operator=(const TracedRegistration&) = delete;

 private:
  static std::string HelpOf(const std::string& algo) {
    for (const auto& [name, help] : dcc::scenario::Algorithms().List()) {
      if (name == algo) return help;
    }
    return {};
  }
  std::string algo_;
  dcc::scenario::AlgorithmFactory inner_;
  std::string help_;
};

// --- Replay: the recorded transmitter sets through fresh engines. -----------

struct ReplayEngine {
  std::unique_ptr<Engine> engine;
  std::vector<Reception> out;
  std::vector<double> step_ns;
  std::int64_t total_ns = 0;
  double step_s() const { return Seconds(total_ns); }
};

// The engine's SINR contract between modes: >= 9 significant digits, plus
// the cancellation term at extreme SINRs (see sinr/engine.h).
bool SinrAgrees(double a, double b, std::size_t n_tx) {
  const double tol =
      a * (1e-9 + std::numeric_limits<double>::epsilon() *
                      static_cast<double>(n_tx) * a);
  return std::fabs(a - b) <= tol;
}

bool SameReceptionSet(const std::vector<Reception>& a,
                      const std::vector<Reception>& b, std::size_t n_tx) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].listener != b[k].listener || a[k].sender != b[k].sender ||
        !SinrAgrees(a[k].sinr, b[k].sinr, n_tx)) {
      return false;
    }
  }
  return true;
}

struct ReplayResult {
  std::int64_t own_mismatches = 0;    // rounds whose digest differs
  std::int64_t cross_mismatches = 0;  // rounds whose set/SINR differ
  std::int64_t pairs = 0;             // sum of listeners x transmitters
};

// Steps the engines in lockstep over the recorded engine rounds: `serial`
// (the run's mode, one shard) and `threaded` (the run's mode, sharded;
// optional) every round, `cross` (the other mode, one shard) every
// `cross_stride`-th round. Each StepInto is timed on its own.
ReplayResult Replay(const dcc::sinr::Network& net, const Recording& rec,
                    ReplayEngine& serial, ReplayEngine& cross,
                    std::size_t cross_stride, ReplayEngine* threaded) {
  ReplayResult res;
  const std::size_t n = net.size();
  std::vector<char> is_tx(n, 0);
  std::vector<std::size_t> tx;
  std::vector<std::size_t> listeners;
  listeners.reserve(n);
  const auto step = [&](ReplayEngine& e) {
    const std::int64_t t0 = NowNs();
    e.engine->StepInto(tx, listeners, e.out);
    const std::int64_t dt = NowNs() - t0;
    e.total_ns += dt;
    e.step_ns.push_back(static_cast<double>(dt));
  };
  std::size_t begin = 0;
  for (std::size_t r = 0; r < rec.rx_hash.size(); ++r) {
    tx.assign(rec.tx.begin() + static_cast<std::ptrdiff_t>(begin),
              rec.tx.begin() + static_cast<std::ptrdiff_t>(rec.tx_end[r]));
    begin = rec.tx_end[r];
    for (const std::size_t i : tx) is_tx[i] = 1;
    listeners.clear();
    for (std::size_t u = 0; u < n; ++u) {
      if (!is_tx[u]) listeners.push_back(u);
    }
    for (const std::size_t i : tx) is_tx[i] = 0;
    res.pairs += static_cast<std::int64_t>(listeners.size() * tx.size());

    step(serial);
    if (HashReceptions(serial.out) != rec.rx_hash[r]) ++res.own_mismatches;
    if (r % cross_stride == 0) {
      step(cross);
      if (!SameReceptionSet(serial.out, cross.out, tx.size())) {
        ++res.cross_mismatches;
      }
    }
    if (threaded) {
      step(*threaded);
      if (HashReceptions(threaded->out) != rec.rx_hash[r]) {
        ++res.own_mismatches;
      }
    }
  }
  return res;
}

// --- Host fingerprint. ------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int k = 0; k < 3; ++k) {
      __get_cpuid(0x80000002u + k, &regs[4 * k], &regs[4 * k + 1],
                  &regs[4 * k + 2], &regs[4 * k + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

// A fixed floating-point kernel (~10 ms on a current core); its best-of-5
// time separates hosts whose CPU strings match but whose speed does not.
double CalibrationMs() {
  double best = std::numeric_limits<double>::infinity();
  volatile double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = NowNs();
    double acc = 0.0;
    for (int i = 1; i <= 4'000'000; ++i) {
      const double d = 1.0 + static_cast<double>(i & 1023) * 1e-3;
      acc += 1.0 / (d * d * d);
    }
    sink = acc;
    best = std::min(best, static_cast<double>(NowNs() - t0) * 1e-6);
  }
  (void)sink;
  return best;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Arguments. -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      a.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value, &used);
      have[1] = used == value.size() && value[0] != '-';
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value, &used);
      have[2] = used == value.size() && a.seconds > 0 && a.seconds <= 600;
    } else if (flag == "--trace") {
      a.trace = std::stoi(value, &used);
      have[3] = used == value.size() && (a.trace == 0 || a.trace == 1);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  for (const bool h : have) {
    if (!h) {
      throw std::invalid_argument(
          "usage: perfbench --workload <name> --seed <n> --seconds <s> "
          "--trace <0|1>");
    }
  }
  return a;
}

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- One instance of a workload. ---------------------------------------------

struct Instance {
  ScenarioSpec spec;
  std::uint64_t seed = 0;
  std::vector<double> build_s;  // set-up samples
  std::vector<double> wall_s;   // timed-phase samples, averaged: the host's
                                // noise comes in bursts, so a median would
                                // flip between its fast and slow modes
  std::string bytes;            // the first report's bytes
  double rounds = 0;
  double theorem_ratio = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << JsonString(metrics[i].name) << ": {\"value\": " << metrics[i].value
       << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = FindWorkload(args.workload);

  std::vector<Instance> inst(static_cast<std::size_t>(w.instances));
  for (int i = 0; i < w.instances; ++i) {
    Instance& in = inst[static_cast<std::size_t>(i)];
    in.seed = InstanceSeed(args.seed, i);
    std::vector<std::string> flags = w.args;
    flags.push_back("--seeds=" + std::to_string(in.seed));
    in.spec = ScenarioSpec::FromArgs(flags);
  }

  const double calib_ms = CalibrationMs();
  std::cout << "{\"host\": {\"cpu\": " << JsonString(CpuModel())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"calibration_ms\": " << calib_ms << "}}" << std::endl;

  // A scenario run counts once in `failed`, however many checks it fails.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool run_failed = false;
  const auto fail = [&](const Instance& in, const std::string& why) {
    run_failed = true;
    std::cerr << "perfbench: " << w.name << " seed " << in.seed << ": " << why
              << "\n";
  };
  const auto begin_run = [&] {
    ++attempted;
    run_failed = false;
  };
  const auto end_run = [&] { failed += run_failed ? 1 : 0; };

  // Every timed call below pins the calling thread to the next allowed CPU
  // in turn. On a shared VM the vCPUs differ in speed by up to ~30%
  // (measured), so a call left where the scheduler put it inherits that
  // placement; rotating gives every run the same mix of CPUs. The pool is
  // created first, unpinned, because its workers inherit their creator's
  // affinity.
  dcc::parallel::WorkerPool::Shared();
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  const auto pin = [](const cpu_set_t& set) {
    if (sched_setaffinity(0, sizeof set, &set) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
  };
  const auto pin_to = [&](std::size_t k) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[k % cpus.size()], &one);
    pin(one);
  };

  // 1. Set-up: building every instance's network. The host's speed drifts
  // by ~15% over seconds, so a few untimed batches come first and the timed
  // ones are spread over the whole timed phase (three before each run),
  // each on the next CPU, which also starts every batch from cold caches.
  constexpr int kSetupWarm = 3;
  constexpr int kSetupPerRun = 3;
  std::vector<double> setup_s;
  std::size_t setup_batches = 0;
  const auto setup_batch = [&](bool timed) {
    pin_to(setup_batches++);
    const std::int64_t batch_start = NowNs();
    for (Instance& in : inst) {
      const std::int64_t t0 = NowNs();
      const auto net = dcc::scenario::BuildScenarioNetwork(in.spec, in.seed);
      if (timed) in.build_s.push_back(Seconds(NowNs() - t0));
    }
    if (timed) setup_s.push_back(Seconds(NowNs() - batch_start));
  };
  for (int k = 0; k < kSetupWarm; ++k) setup_batch(false);

  const auto check_report = [&](Instance& in, const RunReport& rep,
                                const char* phase) {
    const std::string bytes = ReportBytes(rep);
    if (!rep.ok) fail(in, std::string(phase) + " report not ok: " + rep.error);
    if (in.bytes.empty()) {
      in.bytes = bytes;
    } else if (bytes != in.bytes) {
      fail(in, std::string(phase) + " report bytes differ between runs");
    }
  };

  // 2. Timed: untraced RunSweep, round-robin until the budget is spent.
  const std::int64_t budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  const std::int64_t timed_start = NowNs();
  for (std::size_t pass = 0;
       pass == 0 || NowNs() - timed_start < budget_ns; ++pass) {
    for (std::size_t i = 0; i < inst.size(); ++i) {
      if (pass > 0 && NowNs() - timed_start >= budget_ns) break;
      Instance& in = inst[i];
      for (int k = 0; k < kSetupPerRun; ++k) setup_batch(true);
      pin_to(i + pass);
      const std::int64_t t0 = NowNs();
      const auto reps = dcc::scenario::RunSweep(in.spec);
      in.wall_s.push_back(Seconds(NowNs() - t0));
      std::cerr << "perfbench: timed seed " << in.seed << " cpu "
                << cpus[(i + pass) % cpus.size()] << ": " << in.wall_s.back()
                << " s\n";
      begin_run();
      if (reps.size() != 1) {
        fail(in, "RunSweep returned " + std::to_string(reps.size()) + " runs");
        end_run();
        continue;
      }
      check_report(in, reps[0], "timed");
      end_run();
      const auto& m = reps[0].metrics;
      in.rounds = m.Get("rounds_total");
      const double id_space = static_cast<double>(in.spec.sinr.id_space);
      in.theorem_ratio =
          in.rounds /
          (w.bound == Workload::Bound::kClustering
               ? perfbench::ClusteringBound(m.Get("gamma"), id_space)
               : perfbench::BroadcastBound(m.Get("diameter"), m.Get("gamma"),
                                           id_space));
    }
  }
  pin(allowed);
  const double peak_rss_mb = PeakRssMiB();

  // 3. Traced: the observer run, its completeness checks, and the replays,
  // for the instances from the seed's position on (wrapping): one without
  // --trace, three with it. Without --trace the cross-mode replay takes
  // every 8th engine round, since a full grid replay of `cluster` costs
  // three times its run.
  const std::size_t n_traced = std::min<std::size_t>(args.trace ? 3 : 1,
                                                     inst.size());
  constexpr std::size_t kCrossStride = 8;
  Recording rec;
  std::vector<double> step_ns, empty_ns;
  double sum_step_s = 0, sum_serial_exact_s = 0, sum_serial_grid_s = 0,
         sum_threaded_s = 0, sum_serial_own_s = 0;
  double sum_empty_s = 0, sum_exec_self_s = 0, sum_scenario_self_s = 0,
         sum_overhead_s = 0, sum_traced_s = 0, sum_untraced_s = 0;
  std::int64_t pairs = 0, rounds_empty = 0, rounds_engine = 0, tx_total = 0,
               rx_total = 0, grid_pruned = 0, grid_fallbacks = 0,
               grid_receptions = 0, rounds_parallel = 0;
  std::vector<std::int64_t> shard_load;
  for (std::size_t t = 0; t < n_traced; ++t) {
    Instance& in = inst[(args.seed + t) % inst.size()];
    std::int64_t sweep_ns = 0;
    {
      TracedRegistration wrap(in.spec.algo, &rec);
      const std::int64_t t0 = NowNs();
      const auto reps = dcc::scenario::RunSweep(in.spec);
      sweep_ns = NowNs() - t0;
      begin_run();
      if (reps.size() != 1) {
        fail(in, "traced RunSweep returned " + std::to_string(reps.size()) +
                     " runs");
        end_run();
        continue;
      }
      check_report(in, reps[0], "traced");
      if (!reps[0].ok) {  // there is no split to replay
        end_run();
        continue;
      }
      // A traced run that missed rounds would report a partial split: stop.
      const auto rounds_total =
          static_cast<std::int64_t>(reps[0].metrics.Get("rounds_total"));
      if (rec.observer_calls != rounds_total || !rec.rounds_in_order ||
          rec.observer_calls != rec.exec_rounds ||
          static_cast<std::int64_t>(rec.rx_hash.size()) != rec.engine_rounds) {
        std::ostringstream os;
        os << "traced run incomplete: " << rec.observer_calls
           << " observer calls for " << rounds_total << " rounds, "
           << rec.rx_hash.size() << " engine rounds seen for "
           << rec.engine_rounds << " stepped (did the algorithm replace the "
           << "Exec observer?)";
        throw std::runtime_error(os.str());
      }
    }

    const auto net = dcc::scenario::BuildScenarioNetwork(in.spec, in.seed);
    const bool run_threaded = in.spec.engine.threads != 1;
    ReplayEngine serial, cross, threaded;
    Engine::Options opts = in.spec.engine;
    opts.threads = 1;
    serial.engine = std::make_unique<Engine>(net, opts);
    const bool grid = serial.engine->mode() == Engine::Mode::kGrid;
    opts.mode = serial.engine->mode();
    if (args.trace) {
      Engine::Options threaded_opts = opts;
      threaded_opts.threads = run_threaded ? in.spec.engine.threads : 2;
      threaded.engine = std::make_unique<Engine>(net, threaded_opts);
    }
    opts.mode = grid ? Engine::Mode::kExact : Engine::Mode::kGrid;
    cross.engine = std::make_unique<Engine>(net, opts);
    // The run's engine steps inside RunSweep's one-job pool call; so do the
    // replays, so sharded rounds see the same pool context.
    ReplayResult res;
    dcc::parallel::WorkerPool::Shared().Run(1, [&](std::size_t) {
      res = Replay(net, rec, serial, cross, args.trace ? 1 : kCrossStride,
                   args.trace ? &threaded : nullptr);
    });
    if (res.own_mismatches) {
      fail(in, std::to_string(res.own_mismatches) +
                   " rounds differ from the run in a same-mode replay");
    }
    if (res.cross_mismatches) {
      fail(in, std::to_string(res.cross_mismatches) +
                   " rounds differ between exact and grid replays");
    }
    end_run();
    std::cerr << "perfbench: " << w.name << " seed " << in.seed << ": rounds "
              << in.rounds << ", untraced";
    for (const double t : in.wall_s) std::cerr << " " << t;
    std::cerr << " s, traced " << Seconds(sweep_ns) << " s, replay "
              << serial.step_s() << " s, cross " << cross.step_s() << " s\n";
    if (!args.trace) continue;

    // The run's own engine configuration, and the serial replay per mode.
    const ReplayEngine& own = run_threaded ? threaded : serial;
    const ReplayEngine& serial_grid = grid ? serial : cross;
    const ReplayEngine& serial_exact = grid ? cross : serial;
    sum_untraced_s += perfbench::Mean(in.wall_s);
    sum_traced_s += Seconds(sweep_ns);
    perfbench::LayerTimes lt;
    lt.sweep_s = Seconds(sweep_ns);
    lt.build_s = perfbench::Median(in.build_s);
    lt.algo_s = Seconds(rec.algo_ns);
    lt.step_s = own.step_s();
    for (const double ns : rec.engine_interval_ns) lt.engine_interval_s += ns;
    lt.engine_interval_s *= 1e-9;
    const perfbench::SelfTimes self = perfbench::DeriveSelfTimes(lt);
    sum_exec_self_s += self.exec_s;
    sum_scenario_self_s += self.scenario_s;
    sum_overhead_s += self.engine_round_overhead_s;
    sum_step_s += lt.step_s;
    for (const double ns : rec.empty_interval_ns) sum_empty_s += ns * 1e-9;
    step_ns.insert(step_ns.end(), own.step_ns.begin(), own.step_ns.end());
    empty_ns.insert(empty_ns.end(), rec.empty_interval_ns.begin(),
                    rec.empty_interval_ns.end());
    pairs += res.pairs;
    rounds_empty += static_cast<std::int64_t>(rec.empty_interval_ns.size());
    rounds_engine += static_cast<std::int64_t>(rec.rx_hash.size());
    tx_total += static_cast<std::int64_t>(rec.tx.size());
    rx_total += rec.receptions;
    sum_serial_own_s += serial.step_s();
    sum_threaded_s += threaded.step_s();
    sum_serial_exact_s += serial_exact.step_s();
    sum_serial_grid_s += serial_grid.step_s();
    const auto& gs = serial_grid.engine->stats();
    grid_pruned += gs.grid_pruned;
    grid_fallbacks += gs.grid_exact_fallbacks;
    grid_receptions += gs.receptions;
    const auto& ps = threaded.engine->stats();
    rounds_parallel += ps.parallel_rounds;
    if (shard_load.size() < ps.shard_listeners.size()) {
      shard_load.resize(ps.shard_listeners.size(), 0);
    }
    for (std::size_t k = 0; k < ps.shard_listeners.size(); ++k) {
      shard_load[k] += ps.shard_listeners[k];
    }
  }

  std::vector<double> walls, rounds, ratios;
  double sum_rounds = 0, sum_wall = 0;
  for (const Instance& in : inst) {
    const double wall = perfbench::Mean(in.wall_s);
    walls.push_back(wall);
    rounds.push_back(in.rounds);
    ratios.push_back(in.theorem_ratio);
    sum_rounds += in.rounds;
    sum_wall += wall;
  }
  const double fail_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::cout << "{\"workload\": " << JsonString(w.name)
            << ", \"seed\": " << args.seed << ", \"instances\": "
            << inst.size() << ", \"fail_frac\": " << fail_frac << "}"
            << std::endl;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"wall_s", perfbench::Mean(walls), "s"},
        {"rounds_per_s", sum_rounds / sum_wall, "1/s"},
        {"setup_s", perfbench::Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"rounds", perfbench::Mean(rounds), "count"},
        {"theorem_ratio", perfbench::Mean(ratios), "ratio"},
    };
  } else {
    const auto d = [](std::int64_t v) { return static_cast<double>(v); };
    metrics = {
        {"sinr.step_s", sum_step_s, "s"},
        {"sinr.step_ns.p50", perfbench::Percentile(step_ns, 50), "ns"},
        {"sinr.step_ns.p99", perfbench::Percentile(step_ns, 99), "ns"},
        {"sinr.pairs", d(pairs), "count"},
        {"sinr.ns_per_pair", sum_step_s * 1e9 / d(pairs), "ns"},
        {"sinr.step_s.exact", sum_serial_exact_s, "s"},
        {"sinr.step_s.grid", sum_serial_grid_s, "s"},
        {"sinr.grid_pruned", d(grid_pruned), "count"},
        {"sinr.grid_fallbacks", d(grid_fallbacks), "count"},
        {"sinr.fallback_yield",
         grid_fallbacks ? d(grid_receptions) / d(grid_fallbacks) : 0.0,
         "rx/fallback"},
        {"parallel.speedup", sum_serial_own_s / sum_threaded_s, "ratio"},
        {"parallel.rounds_parallel", d(rounds_parallel), "count"},
        {"parallel.imbalance", perfbench::Imbalance(shard_load), "ratio"},
        {"sim.rounds_empty", d(rounds_empty), "count"},
        {"sim.rounds_engine", d(rounds_engine), "count"},
        {"sim.empty_s", sum_empty_s, "s"},
        {"sim.empty_round_ns.p50", perfbench::Percentile(empty_ns, 50), "ns"},
        {"sim.empty_round_ns.p99", perfbench::Percentile(empty_ns, 99), "ns"},
        {"sim.engine_round_overhead_s", sum_overhead_s, "s"},
        {"sim.tx_per_round.mean", d(tx_total) / d(rounds_engine), "count"},
        {"sim.rx_per_round.mean", d(rx_total) / d(rounds_engine), "count"},
        {"exec.self_s", sum_exec_self_s, "s"},
        {"scenario.self_s", sum_scenario_self_s, "s"},
        {"obs.trace_overhead", sum_traced_s / sum_untraced_s, "ratio"},
    };
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
