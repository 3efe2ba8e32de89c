#include "layer_solver.hpp"

#include <utility>

namespace perfbench {

using bltc::Cloud;
using bltc::FieldResult;
using bltc::RunStats;

LayerSolver::LayerSolver(const bltc::SolverConfig& config, Tracer* tracer)
    : config_(config),
      tracer_(tracer),
      engine_(bltc::make_engine(config.backend, config.gpu)) {}

void LayerSolver::set_sources(const Cloud& sources) {
  {
    Tracer::Scope span(tracer_, "plan.source_build");
    source_ = bltc::SourcePlanState::build(sources, config_.params);
  }
  {
    Tracer::Scope span(tracer_, "moments.prepare");
    engine_->prepare_sources(source_.view(), config_.params,
                             /*charges_only=*/false);
  }
  targets_valid_ = false;
  targets_follow_sources_ = false;
}

void LayerSolver::update_charges(std::span<const double> charges) {
  Tracer::Scope span(tracer_, "moments.charges");
  source_.set_charges(charges);
  engine_->prepare_sources(source_.view(), config_.params,
                           /*charges_only=*/true);
}

UpdateOutcome LayerSolver::update_positions(const Cloud& sources) {
  Tracer::Scope span(tracer_, "solver.update");
  UpdateOutcome outcome;
  bltc::PositionUpdate update;
  bool patched = false;
  if (config_.params.position_slack > 0.0) {
    Tracer::Scope inner(tracer_, "plan.incremental");
    patched = source_.update_positions(sources, config_.params, update);
  }
  if (!patched) {
    set_sources(sources);
    return outcome;
  }
  outcome.incremental = true;
  outcome.moved = update.moved;
  outcome.dirty_clusters = update.dirty_clusters.size();
  {
    Tracer::Scope inner(tracer_, "moments.update");
    bltc::SourceUpdate delta;
    delta.dirty_clusters = update.dirty_clusters;
    delta.moved_ranges = update.moved_ranges;
    delta.before = update.before;
    engine_->update_sources(source_.view(), config_.params, delta);
  }
  outcome.lists_reused = 1;
  if (!targets_valid_) return outcome;
  if (!targets_follow_sources_) {
    ++outcome.lists_reused;
    return outcome;
  }
  Tracer::Scope inner(tracer_, "plan.target_update");
  std::vector<std::pair<std::size_t, std::size_t>> moved;
  if (targets_.update_positions_self(sources, config_.params,
                                     update.rebucketed > 0, moved)) {
    engine_->update_targets(targets_.view(), moved);
    ++outcome.lists_reused;
  } else {
    targets_valid_ = false;
  }
  return outcome;
}

bool LayerSolver::prepare_targets(const Cloud& targets) {
  {
    Tracer::Scope span(tracer_, "plan.match");
    if (targets_valid_ && targets_.matches(targets)) return false;
  }
  const bltc::TreecodeParams& p = config_.params;
  {
    Tracer::Scope span(tracer_, "plan.target_plan");
    targets_ = bltc::TargetPlanState::plan(targets, p);
    targets_follow_sources_ = source_.matches(targets);
  }
  {
    Tracer::Scope span(tracer_, "plan.lists");
    const bool self = p.traversal == bltc::TraversalMode::kDual &&
                      !p.periodic() && p.max_leaf == p.max_batch &&
                      targets_follow_sources_;
    targets_.append_lists(source_.tree, p, self);
  }
  targets_valid_ = true;
  return true;
}

void LayerSolver::finish_stats(RunStats& stats) const {
  stats.num_clusters = source_.tree.num_nodes();
  stats.num_leaves = source_.tree.num_leaves();
  if (config_.params.traversal == bltc::TraversalMode::kDual) {
    const bltc::DualInteractionLists& lists = targets_.dual_lists.front();
    stats.dual_traversal = true;
    stats.num_batches = targets_.tree.num_leaves();
    stats.approx_interactions = lists.total_pc;
    stats.direct_interactions = lists.total_direct;
    stats.cp_interactions = lists.total_cp;
    stats.cc_interactions = lists.total_cc;
    return;
  }
  const bltc::InteractionLists& lists = targets_.lists.front();
  stats.num_batches = lists.per_batch.size();
  stats.approx_interactions = lists.total_approx;
  stats.direct_interactions = lists.total_direct;
}

std::vector<double> LayerSolver::evaluate(const Cloud& targets,
                                          RunStats& stats) {
  const bool fresh = prepare_targets(targets);
  stats = RunStats{};
  std::vector<double> tree_order;
  {
    Tracer::Scope span(tracer_, "engine.eval");
    tree_order = engine_->evaluate_potential(source_.view(), targets_.view(),
                                             config_.kernel, fresh, stats,
                                             &context_);
  }
  finish_stats(stats);
  Tracer::Scope span(tracer_, "plan.scatter");
  return targets_.particles.scatter_to_original(tree_order);
}

FieldResult LayerSolver::evaluate_field(const Cloud& targets,
                                        RunStats& stats) {
  const bool fresh = prepare_targets(targets);
  stats = RunStats{};
  FieldResult tree_order;
  {
    Tracer::Scope span(tracer_, "engine.eval");
    tree_order = engine_->evaluate_field(source_.view(), targets_.view(),
                                         config_.kernel, fresh, stats,
                                         &context_);
  }
  finish_stats(stats);
  Tracer::Scope span(tracer_, "plan.scatter");
  FieldResult out;
  out.phi = targets_.particles.scatter_to_original(tree_order.phi);
  out.ex = targets_.particles.scatter_to_original(tree_order.ex);
  out.ey = targets_.particles.scatter_to_original(tree_order.ey);
  out.ez = targets_.particles.scatter_to_original(tree_order.ez);
  return out;
}

}  // namespace perfbench
