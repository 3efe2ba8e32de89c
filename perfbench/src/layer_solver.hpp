// The traced run's stand-in for bltc::Solver: the same plan / moments /
// engine pipeline, driven through each layer's public calls in the order
// Solver makes them, with one span around every call. Nothing is
// instrumented inside the library; the spans sit around calls made from
// here, so their self times split a solve into its layers.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/plan.hpp"
#include "core/solver.hpp"
#include "serve/exec_context.hpp"
#include "trace.hpp"

namespace perfbench {

/// What one update_positions did (Solver reports the same through the
/// RunStats of the next evaluation).
struct UpdateOutcome {
  bool incremental = false;
  std::size_t moved = 0;
  std::size_t dirty_clusters = 0;
  std::size_t lists_reused = 0;
};

class LayerSolver {
 public:
  LayerSolver(const bltc::SolverConfig& config, Tracer* tracer);

  /// Solver::set_sources: source tree, then the engine's moments.
  void set_sources(const bltc::Cloud& sources);
  /// Solver::update_charges: charges rewritten in place, moments refreshed.
  void update_charges(std::span<const double> charges);
  /// Solver::update_positions: the incremental patch when it applies,
  /// otherwise the full re-plan.
  UpdateOutcome update_positions(const bltc::Cloud& sources);

  std::vector<double> evaluate(const bltc::Cloud& targets,
                               bltc::RunStats& stats);
  bltc::FieldResult evaluate_field(const bltc::Cloud& targets,
                                   bltc::RunStats& stats);

 private:
  /// Plan the targets when the cached plan does not match; returns whether
  /// the engine sees them fresh.
  bool prepare_targets(const bltc::Cloud& targets);
  /// Structure counts Solver adds after the engine call.
  void finish_stats(bltc::RunStats& stats) const;

  bltc::SolverConfig config_;
  Tracer* tracer_;
  std::unique_ptr<bltc::Engine> engine_;
  bltc::ExecContext context_;
  bltc::SourcePlanState source_;
  bltc::TargetPlanState targets_;
  bool targets_valid_ = false;
  bool targets_follow_sources_ = false;
};

}  // namespace perfbench
