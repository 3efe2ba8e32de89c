// paper_uniform — the paper's §4 experiment: N = 200,000 particles uniform
// in [-1,1]^3, Coulomb kernel, theta = 0.8, n = 8, N_L = N_B = 2000,
// batched traversal, CPU engine, fp64, 4 OpenMP threads.
//
// Why this workload: the batched particle-cluster and direct tiles do
// almost all of the work, so it is where moment and compute-scaling work
// shows, and where a change aimed at another backend must show no change.
//
// Operations: set_sources on a fresh Solver (set-up), set_sources plus the
// first evaluate on a fresh Solver (cold solve, a plan "miss"), evaluate on
// the cached plan (a "hit"), and a time step that rewrites the charges
// (update_charges) and evaluates again. The step flips the sign of every
// charge, so one sampled direct sum is the oracle of every result.
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/direct_sum.hpp"
#include "layer_solver.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

/// The sampled error of this configuration measures about 5e-7; a result
/// twenty times worse fails the gate.
constexpr double kTolerance = 1e-5;

bltc::SolverConfig paper_config() {
  bltc::SolverConfig config;
  config.kernel = bltc::KernelSpec::coulomb();
  config.params.theta = 0.8;
  config.params.degree = 8;
  config.params.max_leaf = 2000;
  config.params.max_batch = 2000;
  config.params.traversal = bltc::TraversalMode::kBatched;
  config.backend = bltc::Backend::kCpu;
  return config;
}

}  // namespace

void run_paper_uniform(const Options& opt, Report& report, Tracer* tracer) {
  const std::size_t n = opt.smoke ? 4000 : 200000;
  const bltc::Cloud cloud = bltc::uniform_cube(n, opt.seed);
  const bltc::SolverConfig config = paper_config();

  // Oracle, computed before any timed region.
  const std::vector<std::size_t> sample =
      seeded_sample(n, opt.smoke ? 64 : 1000, opt.seed);
  const std::vector<double> ref =
      bltc::direct_sum_sampled(cloud, sample, cloud, config.kernel);
  const std::vector<double> ref_flipped = negated(ref);
  const std::vector<double> q_flipped = negated(cloud.q);
  double rel_err = 0.0;
  const auto check = [&](const std::vector<double>& phi, bool flipped) {
    const GateResult g =
        gate(flipped ? ref_flipped : ref, gather(phi, sample), kTolerance);
    report.check(g.ok);
    rel_err = g.rel_err;
  };

  if (tracer == nullptr) {
    const Budget budget(opt.seconds);
    Samples s;
    {
      bltc::Solver warmup(config);  // first touch, OpenMP pool start
      warmup.set_sources(cloud);
    }
    s.setup = repeat(budget, 0.1, 3, [&] {
      bltc::Solver solver(config);
      return timed([&] { solver.set_sources(cloud); });
    });
    std::unique_ptr<bltc::Solver> solver;
    std::vector<double> phi;
    s.cold = repeat(budget, 0.3, 3, [&] {
      solver = std::make_unique<bltc::Solver>(config);
      const double t = timed([&] {
        solver->set_sources(cloud);
        phi = solver->evaluate(cloud);
      });
      check(phi, false);
      return t;
    });
    s.warm = repeat(budget, 0.3, 3, [&] {
      const double t = timed([&] { phi = solver->evaluate(cloud); });
      check(phi, false);
      return t;
    });
    bool flipped = false;
    s.step = repeat(budget, 0.3, 3, [&] {
      flipped = !flipped;
      const double t = timed([&] {
        solver->update_charges(flipped ? q_flipped : cloud.q);
        phi = solver->evaluate(cloud);
      });
      check(phi, flipped);
      return t;
    });
    report.note("rel_err", rel_err);
    report_end_to_end(report, s);
    return;
  }

  // Traced run: the same cold solve, cached evaluation and step, first
  // through Solver untraced (the reference for overhead and consistency),
  // then through the layers' public calls with a span around each.
  double untraced = 0.0;
  std::vector<double> phi_untraced;
  {
    bltc::Solver solver(config);
    untraced += timed([&] {
      solver.set_sources(cloud);
      phi_untraced = solver.evaluate(cloud);
    });
    check(phi_untraced, false);
    untraced += timed([&] { phi_untraced = solver.evaluate(cloud); });
    check(phi_untraced, false);
    untraced += timed([&] {
      solver.update_charges(q_flipped);
      phi_untraced = solver.evaluate(cloud);
    });
    check(phi_untraced, true);
  }

  LayerSolver solver(config, tracer);
  bltc::RunStats stats;
  std::vector<double> phi;
  double traced = traced_op(*tracer, "op.cold", [&] {
    solver.set_sources(cloud);
    phi = solver.evaluate(cloud, stats);
  });
  check(phi, false);
  traced += traced_op(*tracer, "op.warm",
                      [&] { phi = solver.evaluate(cloud, stats); });
  check(phi, false);
  traced += traced_op(*tracer, "op.step", [&] {
    solver.update_charges(q_flipped);
    phi = solver.evaluate(cloud, stats);
  });
  check(phi, true);
  report.trace_consistent =
      relative_difference(phi, phi_untraced) <= rel_err;

  report.set("trace.overhead_share", traced / untraced - 1.0, "1");
  report.set("engine.rel_err", rel_err, "1");
  report_run_stats(report, stats);
  const double eval_s = span_median(*tracer, "engine.eval");
  report.set("engine.eval_s", eval_s, "s");
  report.set("engine.evals_per_s", stats.total_evals() / eval_s, "1/s");
}

}  // namespace perfbench
