// Shared vocabulary of the benchmark program: run options, the metric report,
// the time budget that spreads --seconds over a workload's phases, small
// order statistics, and the sampled direct-sum correctness gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "util/timer.hpp"
#include "util/workloads.hpp"

namespace perfbench {

class Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and budgets: the self-test mode, not a measurement.
  bool smoke = false;
  /// Where the report and the Chrome trace are written.
  std::string out_dir = ".bench_build/out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: metrics in insertion order, free-form notes
/// (machine record, which percentile the tail is), and the gate's counts.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Traced run only: the traced result matched the untraced one.
  bool trace_consistent = true;

  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);
  /// Count one checked operation; `ok` false counts it as failed.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Splits a run's --seconds over its phases. A phase repeats its operation
/// at least `min_reps` times and then while the next repetition (estimated
/// by the last one) still fits in the phase's share of the budget.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds) {}
  /// Whether a phase that has spent `spent` seconds on `reps` repetitions,
  /// the last taking `last` seconds, should run another one.
  bool more(double share, std::size_t reps, std::size_t min_reps,
            double spent, double last) const {
    if (reps < min_reps) return true;
    return spent + last <= share * seconds_;
  }

 private:
  double seconds_;
};

double median(std::vector<double> values);
/// Nearest-rank percentile (p in [0, 100]) of unsorted values.
double percentile(std::vector<double> values, double p);

/// The highest percentile with at least ten samples beyond it. With fewer
/// than eleven samples no percentile qualifies and the maximum is used
/// (reported as percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};
Tail tail_latency(std::vector<double> values);

/// `count` distinct indices in [0, n), drawn from `seed` (sorted).
std::vector<std::size_t> seeded_sample(std::size_t n, std::size_t count,
                                       std::uint64_t seed);

/// Sampled correctness gate: relative 2-norm error (Eq. 16) of `approx`
/// against `reference` on matching entries; fails on any non-finite value
/// or an error above `tolerance`.
struct GateResult {
  double rel_err = 0.0;
  bool ok = false;
};
GateResult gate(std::span<const double> reference,
                std::span<const double> approx, double tolerance);

/// `v` with every entry's sign flipped (the charge-flip time step).
std::vector<double> negated(std::vector<double> v);

/// `values[i]` for each i in `sample`.
std::vector<double> gather(std::span<const double> values,
                           std::span<const std::size_t> sample);

/// Relative 2-norm difference between two full results (traced vs
/// untraced consistency).
double relative_difference(std::span<const double> a,
                           std::span<const double> b);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// The particles of `cloud` listed in `sample`.
bltc::Cloud subcloud(const bltc::Cloud& cloud,
                     std::span<const std::size_t> sample);

/// Wall seconds of one call of `fn`.
template <typename Fn>
double timed(Fn&& fn) {
  bltc::WallTimer timer;
  fn();
  return timer.seconds();
}

/// Repeat `op` (which returns the seconds it measured) under one share of
/// the budget; returns every measured sample.
template <typename Op>
std::vector<double> repeat(const Budget& budget, double share,
                           std::size_t min_reps, Op&& op) {
  std::vector<double> samples;
  double spent = 0.0;
  double last = 0.0;
  while (budget.more(share, samples.size(), min_reps, spent, last)) {
    last = op();
    spent += last;
    samples.push_back(last);
  }
  return samples;
}

/// Timing samples of the single-handle workloads (one Solver or
/// DistSolver): set-up calls, cold solves on a fresh handle, evaluations on
/// the cached plan, and time steps.
struct Samples {
  std::vector<double> setup, cold, warm, step;
};

/// The end-to-end metrics of a single-handle workload. A cached-plan
/// evaluation is its "hit" and a cold solve its "miss"; throughput and the
/// tail (a report note) are taken over its time steps.
void report_end_to_end(Report& report, const Samples& samples);

/// Structure and work counts of one evaluation (plan.*, moments.clusters,
/// engine.* counts).
void report_run_stats(Report& report, const bltc::RunStats& stats);

/// Median duration of the spans named `name` (0 when there are none).
double span_median(const Tracer& tracer, const std::string& name);

// ---- Workloads (workloads.cpp) -------------------------------------------
// Each runs the untraced measurement (end-to-end metrics) or, with a
// tracer, the traced run (per-layer metrics). Both paths run the
// correctness gate outside their timed regions.
void run_paper_uniform(const Options& opt, Report& report, Tracer* tracer);
void run_plummer_md(const Options& opt, Report& report, Tracer* tracer);
void run_serve_storm(const Options& opt, Report& report, Tracer* tracer);
void run_dist_gpusim(const Options& opt, Report& report, Tracer* tracer);

}  // namespace perfbench
