// plummer_md — gravitational N-body dynamics: a 100,000-particle Plummer
// sphere with masses 1/N, the Coulomb kernel as gravity (G = 1), theta =
// 0.7, n = 6, N_L = N_B = 500, dual traversal with max_leaf == max_batch
// (the symmetric self mode, kDual's default configuration) and
// position_slack = 0.1, integrated by kick-drift-kick leapfrog with
// dt = 0.01 from seeded isotropic velocities.
//
// Why this workload: it is the only one that runs the dual CC/CP/PC/direct
// interaction classes, the downward pass, the field tiles and the per-step
// re-plan. A step is update_positions plus evaluate_field; whether the
// update took the incremental path or fell back to a full re-plan is
// reported as solver.incremental_share, and the input is kept as it is so
// that a fallback stays visible.
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/direct_sum.hpp"
#include "core/fields.hpp"
#include "layer_solver.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// The sampled potential error of this configuration measures about 1e-7
/// and the field error about 7e-7; results fifty times worse fail the gate.
constexpr double kPotentialTolerance = 5e-6;
constexpr double kFieldTolerance = 4e-5;
constexpr double kDt = 0.01;
/// Steps of the traced run (and of its untraced reference).
constexpr int kTracedSteps = 2;

bltc::SolverConfig md_config() {
  bltc::SolverConfig config;
  config.kernel = bltc::KernelSpec::coulomb();
  config.params.theta = 0.7;
  config.params.degree = 6;
  config.params.max_leaf = 500;
  config.params.max_batch = 500;
  config.params.traversal = bltc::TraversalMode::kDual;
  config.params.position_slack = 0.1;
  config.backend = bltc::Backend::kCpu;
  return config;
}

struct Bodies {
  bltc::Cloud stars;
  std::vector<double> vx, vy, vz;
};

/// Plummer positions from util/workloads plus isotropic velocities of
/// dispersion ~0.35 (virial-equilibrium scale for G = M = a = 1).
Bodies make_bodies(std::size_t n, std::uint64_t seed) {
  Bodies b;
  b.stars = bltc::plummer_sphere(n, seed);
  b.vx.resize(n);
  b.vy.resize(n);
  b.vz.resize(n);
  bltc::SplitMix64 rng(seed ^ 0x5eedULL);
  const double sigma = 0.35;
  const auto draw = [&] {
    return sigma * (rng.next_double() + rng.next_double() +
                    rng.next_double() - 1.5);
  };
  for (std::size_t i = 0; i < n; ++i) {
    b.vx[i] = draw();
    b.vy[i] = draw();
    b.vz[i] = draw();
  }
  return b;
}

/// Half kick with the gravitational acceleration a = -E.
void kick(Bodies& b, const bltc::FieldResult& f) {
  for (std::size_t i = 0; i < b.stars.size(); ++i) {
    b.vx[i] -= 0.5 * kDt * f.ex[i];
    b.vy[i] -= 0.5 * kDt * f.ey[i];
    b.vz[i] -= 0.5 * kDt * f.ez[i];
  }
}

void drift(Bodies& b) {
  for (std::size_t i = 0; i < b.stars.size(); ++i) {
    b.stars.x[i] += kDt * b.vx[i];
    b.stars.y[i] += kDt * b.vy[i];
    b.stars.z[i] += kDt * b.vz[i];
  }
}

/// One leapfrog step around `step`, which moves the solver to the drifted
/// positions and returns the new field; returns the seconds `step` took.
template <typename Step>
double leapfrog(Bodies& b, bltc::FieldResult& f, Step&& step) {
  kick(b, f);
  drift(b);
  const double t = timed([&] { f = step(); });
  kick(b, f);
  return t;
}

}  // namespace

void run_plummer_md(const Options& opt, Report& report, Tracer* tracer) {
  const std::size_t n = opt.smoke ? 3000 : 100000;
  const bltc::SolverConfig config = md_config();
  const Bodies start = make_bodies(n, opt.seed);
  const std::vector<std::size_t> sample =
      seeded_sample(n, opt.smoke ? 64 : 1000, opt.seed);

  // Sampled direct-sum oracle at the current positions, outside every
  // timed region. The field is checked too when `with_field` is set.
  double rel_err = 0.0;
  const auto check = [&](const bltc::Cloud& stars,
                         const bltc::FieldResult& f, bool with_field) {
    const std::vector<double> ref =
        bltc::direct_sum_sampled(stars, sample, stars, config.kernel);
    const GateResult g =
        gate(ref, gather(f.phi, sample), kPotentialTolerance);
    rel_err = g.rel_err;
    bool ok = g.ok;
    if (with_field) {
      const bltc::FieldResult e =
          bltc::direct_field(subcloud(stars, sample), stars, config.kernel);
      std::vector<double> ref_e, got_e;
      for (std::size_t k = 0; k < sample.size(); ++k) {
        ref_e.insert(ref_e.end(), {e.ex[k], e.ey[k], e.ez[k]});
        got_e.insert(got_e.end(), {f.ex[sample[k]], f.ey[sample[k]],
                                   f.ez[sample[k]]});
      }
      const GateResult ge = gate(ref_e, got_e, kFieldTolerance);
      report.note("field_rel_err", ge.rel_err);
      ok = ok && ge.ok;
    }
    report.check(ok);
  };

  if (tracer == nullptr) {
    const Budget budget(opt.seconds);
    Samples s;
    {
      bltc::Solver warmup(config);
      warmup.set_sources(start.stars);
    }
    s.setup = repeat(budget, 0.1, 3, [&] {
      bltc::Solver solver(config);
      return timed([&] { solver.set_sources(start.stars); });
    });
    std::unique_ptr<bltc::Solver> solver;
    bltc::FieldResult f;
    s.cold = repeat(budget, 0.2, 3, [&] {
      solver = std::make_unique<bltc::Solver>(config);
      const double t = timed([&] {
        solver->set_sources(start.stars);
        f = solver->evaluate_field(start.stars);
      });
      check(start.stars, f, false);
      return t;
    });
    s.warm = repeat(budget, 0.2, 3, [&] {
      const double t = timed([&] { f = solver->evaluate_field(start.stars); });
      check(start.stars, f, false);
      return t;
    });
    Bodies b = start;
    std::size_t incremental = 0;
    s.step = repeat(budget, 0.5, 3, [&] {
      bltc::RunStats st;
      const double t = leapfrog(b, f, [&] {
        solver->update_positions(b.stars);
        return solver->evaluate_field(b.stars, &st);
      });
      if (st.incremental_update) ++incremental;
      check(b.stars, f, false);
      return t;
    });
    check(b.stars, f, true);  // the final step again, field included
    report.note("incremental_steps", static_cast<double>(incremental));
    report.note("rel_err", rel_err);
    report_end_to_end(report, s);
    return;
  }

  // Traced run: cold solve, cached evaluation and kTracedSteps leapfrog
  // steps, first through Solver untraced, then through the layers.
  double untraced = 0.0;
  bltc::FieldResult f_untraced;
  {
    bltc::Solver solver(config);
    untraced += timed([&] {
      solver.set_sources(start.stars);
      f_untraced = solver.evaluate_field(start.stars);
    });
    untraced +=
        timed([&] { f_untraced = solver.evaluate_field(start.stars); });
    Bodies b = start;
    for (int k = 0; k < kTracedSteps; ++k) {
      untraced += leapfrog(b, f_untraced, [&] {
        solver.update_positions(b.stars);
        return solver.evaluate_field(b.stars);
      });
    }
    check(b.stars, f_untraced, true);
  }

  LayerSolver solver(config, tracer);
  bltc::RunStats stats;
  bltc::FieldResult f;
  double traced = traced_op(*tracer, "op.cold", [&] {
    solver.set_sources(start.stars);
    f = solver.evaluate_field(start.stars, stats);
  });
  check(start.stars, f, false);
  traced += traced_op(*tracer, "op.warm", [&] {
    f = solver.evaluate_field(start.stars, stats);
  });
  Bodies b = start;
  double incremental = 0.0, moved = 0.0, dirty = 0.0, reused = 0.0;
  for (int k = 0; k < kTracedSteps; ++k) {
    traced += leapfrog(b, f, [&] {
      bltc::FieldResult out;
      traced_op(*tracer, "op.step", [&] {
        const UpdateOutcome u = solver.update_positions(b.stars);
        incremental += u.incremental ? 1.0 : 0.0;
        moved += static_cast<double>(u.moved);
        dirty += static_cast<double>(u.dirty_clusters);
        reused += static_cast<double>(u.lists_reused);
        out = solver.evaluate_field(b.stars, stats);
      });
      return out;
    });
  }
  check(b.stars, f, true);
  report.trace_consistent =
      relative_difference(f.phi, f_untraced.phi) <= rel_err;

  report.set("trace.overhead_share", traced / untraced - 1.0, "1");
  report.set("engine.rel_err", rel_err, "1");
  report_run_stats(report, stats);
  const double eval_s = span_median(*tracer, "engine.eval");
  report.set("engine.eval_s", eval_s, "s");
  report.set("engine.evals_per_s", stats.total_evals() / eval_s, "1/s");
  const double steps = kTracedSteps;
  report.set("solver.incremental_share", incremental / steps, "1");
  report.set("solver.moved", moved / steps, "count");
  report.set("solver.dirty_clusters", dirty / steps, "count");
  report.set("solver.lists_reused", reused / steps, "count");
}

}  // namespace perfbench
