// dist_gpusim — the paper's MPI + GPU configuration: 4 in-process ranks,
// each with a simulated-GPU engine and 1 OpenMP thread (ranks x threads =
// nproc), N = 48,000 uniform particles (the fig6 "large" size), Coulomb
// kernel, theta = 0.8, n = 8.
//
// Why this workload: it is the only one through src/partition, src/dist,
// src/simmpi and the GpuSim engine: RCB, local trees, the locally
// essential tree built over one-sided RMA, and per-rank device residency.
// GpuSim wall-time work should show here, and paper_uniform is where it
// should show no change.
//
// Operations mirror paper_uniform: set_sources on a fresh DistSolver, a
// cold solve, an evaluate on the cached plan, and a charge-flip time step
// (update_charges re-fetches only charge bytes of each rank's LET).
#include <algorithm>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/direct_sum.hpp"
#include "dist/dist_solver.hpp"
#include "partition/rcb.hpp"
#include "trace.hpp"
#include "util/box.hpp"

namespace perfbench {

namespace {

/// The sampled error of this configuration measures about 1e-7; a result
/// fifty times worse fails the gate.
constexpr double kTolerance = 5e-6;
constexpr int kRanks = 4;

bltc::dist::DistConfig dist_config() {
  bltc::dist::DistConfig config;
  config.kernel = bltc::KernelSpec::coulomb();
  config.params.treecode.theta = 0.8;
  config.params.treecode.degree = 8;
  config.params.backend = bltc::Backend::kGpuSim;
  config.nranks = kRanks;
  return config;
}

template <typename Field>
double sum_ranks(const bltc::dist::DistStats& stats, Field field) {
  double total = 0.0;
  for (const bltc::dist::RankStats& r : stats.per_rank) {
    total += static_cast<double>(r.*field);
  }
  return total;
}

}  // namespace

void run_dist_gpusim(const Options& opt, Report& report, Tracer* tracer) {
  const std::size_t n = opt.smoke ? 2000 : 48000;
  const bltc::Cloud cloud = bltc::uniform_cube(n, opt.seed);
  const bltc::dist::DistConfig config = dist_config();
  using bltc::dist::DistSolver;

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
      DistSolver warmup(config);
      warmup.set_sources(cloud);
    }
    s.setup = repeat(budget, 0.1, 3, [&] {
      DistSolver solver(config);
      return timed([&] { solver.set_sources(cloud); });
    });
    std::unique_ptr<DistSolver> solver;
    std::vector<double> phi;
    s.cold = repeat(budget, 0.3, 3, [&] {
      solver = std::make_unique<DistSolver>(config);
      const double t = timed([&] {
        solver->set_sources(cloud);
        phi = solver->evaluate();
      });
      check(phi, false);
      return t;
    });
    s.warm = repeat(budget, 0.3, 3, [&] {
      const double t = timed([&] { phi = solver->evaluate(); });
      check(phi, false);
      return t;
    });
    bool flipped = false;
    s.step = repeat(budget, 0.3, 3, [&] {
      flipped = !flipped;
      const double t = timed([&] {
        solver->update_charges(flipped ? q_flipped : cloud.q);
        phi = solver->evaluate();
      });
      check(phi, flipped);
      return t;
    });
    report.note("rel_err", rel_err);
    report_end_to_end(report, s);
    return;
  }

  // Traced run: DistSolver's public calls are the finest layer calls this
  // path offers from outside, plus the partition layer called directly on
  // the workload cloud.
  double untraced = 0.0;
  std::vector<double> phi_untraced;
  {
    DistSolver solver(config);
    untraced += timed([&] {
      solver.set_sources(cloud);
      phi_untraced = solver.evaluate();
    });
    untraced += timed([&] { phi_untraced = solver.evaluate(); });
    untraced += timed([&] {
      solver.update_charges(q_flipped);
      phi_untraced = solver.evaluate();
    });
    check(phi_untraced, true);
  }

  const auto span = [&](const char* name, auto&& fn) {
    Tracer::Scope s(tracer, name);
    fn();
  };
  traced_op(*tracer, "op.partition", [&] {
    span("partition.rcb", [&] {
      const bltc::Box3 domain =
          bltc::minimal_bounding_box_range(cloud.x, cloud.y, cloud.z, 0, n);
      bltc::rcb_partition(cloud.x, cloud.y, cloud.z, kRanks, domain);
    });
  });

  DistSolver solver(config);
  bltc::dist::DistStats cold, warm, step;
  std::vector<double> phi;
  double traced = traced_op(*tracer, "op.cold", [&] {
    span("dist.set_sources", [&] { solver.set_sources(cloud); });
    span("dist.evaluate", [&] { phi = solver.evaluate(&cold); });
  });
  check(phi, false);
  traced += traced_op(*tracer, "op.warm", [&] {
    span("dist.evaluate", [&] { phi = solver.evaluate(&warm); });
  });
  check(phi, false);
  traced += traced_op(*tracer, "op.step", [&] {
    span("dist.update_charges", [&] { solver.update_charges(q_flipped); });
    span("dist.evaluate", [&] { phi = solver.evaluate(&step); });
  });
  check(phi, true);
  report.trace_consistent =
      relative_difference(phi, phi_untraced) <= rel_err;
  report.set("trace.overhead_share", traced / untraced - 1.0, "1");
  report.set("engine.rel_err", rel_err, "1");

  using bltc::dist::RankStats;
  report.set("plan.clusters", sum_ranks(cold, &RankStats::local_clusters),
             "count");
  report.set("moments.clusters", sum_ranks(cold, &RankStats::local_clusters),
             "count");
  report.set("engine.eval_s", warm.compute_seconds, "s");
  report.set("dist.rma_gets", sum_ranks(cold, &RankStats::rma_gets), "count");
  report.set("dist.rma_bytes", sum_ranks(cold, &RankStats::rma_bytes),
             "bytes");
  report.set("dist.let_remote_clusters",
             sum_ranks(cold, &RankStats::let_remote_clusters), "count");
  report.set("dist.let_remote_particles",
             sum_ranks(cold, &RankStats::let_remote_particles), "count");
  double max_compute = 0.0;
  for (const RankStats& r : warm.per_rank) {
    max_compute = std::max(max_compute, r.compute_seconds);
  }
  const double mean_compute =
      sum_ranks(warm, &RankStats::compute_seconds) / kRanks;
  report.set("dist.rank_imbalance", max_compute / mean_compute, "1");
  report.set("gpusim.bytes_to_device",
             sum_ranks(cold, &RankStats::bytes_to_device), "bytes");
  report.set("gpusim.bytes_to_host",
             sum_ranks(cold, &RankStats::bytes_to_host), "bytes");
  report.set("gpusim.modeled_setup_s", cold.modeled.setup, "s");
  report.set("gpusim.modeled_compute_s", cold.modeled.compute, "s");
}

}  // namespace perfbench
