// The MobiRescue dispatcher (Section IV): SVM-predicted request
// distribution + DQN policy, re-planned every period with sub-second
// inference latency. Supports online training (the paper keeps training the
// RL model while it runs, Section IV-C4).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>

#include "dispatch/featurizer.hpp"
#include "obs/metrics.hpp"
#include "predict/svm_predictor.hpp"
#include "rl/dqn_agent.hpp"
#include "roadnet/spatial_index.hpp"
#include "sim/dispatcher.hpp"
#include "sim/population_tracker.hpp"

namespace mobirescue::dispatch {

/// The weights (alpha, beta, gamma) of the paper's reward Eq. (5):
/// r = alpha * N^q - beta * T^d - gamma * N^m, decomposed per team (the sum
/// over teams recovers the global reward).
/// The paper leaves (alpha, beta, gamma) to be "manually set"; these
/// defaults make serving dominant (alpha) with driving delay and fleet size
/// as soft tie-breakers, which reproduces the published behaviour. The
/// ablation bench sweeps them.
struct RewardWeights {
  double alpha = 2.0;         // per served request
  double beta = 1.0 / 7200.0; // per second of driving delay
  double gamma = 0.01;        // per serving team
};

/// One evaluation round's scored action space, captured verbatim from
/// DecideByAssignment for the learning subsystem (src/learn/): the feature
/// rows and Q-values the live policy computed anyway, plus the row/column
/// layout needed to re-score the same round under a different Q-network.
/// Capturing moves already-built vectors — it never changes what the live
/// policy decides.
struct RoundCapture {
  /// False when the round had no decidable teams or no candidates (nothing
  /// was scored), or when capturing is disabled.
  bool valid = false;
  /// All scored feature rows of the round: for each decidable team its
  /// depot row followed by one row per reachable candidate.
  std::vector<std::vector<double>> feature_rows;
  /// Indices (into the context's team array) of the decidable teams.
  std::vector<std::size_t> rows;
  /// Per decidable team: index of its depot row in `feature_rows`.
  std::vector<std::size_t> team_begin;
  /// cand_row[r][i] = feature row of (decidable team r, candidate i), or
  /// SIZE_MAX when candidate i was unreachable for that team.
  std::vector<std::vector<std::size_t>> cand_row;
  /// Assignment columns: candidate index per column (deep-demand
  /// candidates are replicated).
  std::vector<std::size_t> columns;
  std::vector<roadnet::SegmentId> candidates;
  /// The live policy's Q-values for `feature_rows` (same order).
  std::vector<double> live_q;
  /// The live policy's chosen action per decidable team (parallel to
  /// `rows`).
  std::vector<sim::TeamAction> live_actions;
  /// The residual-prior weight the live score used (score = prior_weight *
  /// HeuristicPrior + Q); shadows must use the same blend.
  double prior_weight = 0.0;
};

struct MobiRescueConfig {
  /// Inference latency charged per round; paper: < 0.5 s.
  double compute_latency_s = 0.4;
  /// The SVM prediction is refreshed at this cadence (factors drift slowly).
  double prediction_refresh_s = 1800.0;
  RewardWeights reward;
  FeaturizerConfig featurizer;
  bool training = false;
  /// Residual prior: actions are chosen by argmax of
  /// `prior_weight * heuristic_prior(features) + Q(features)`. The prior
  /// (demand-seeking, distance- and competition-averse) anchors the policy;
  /// the DQN learns corrections on top. The ablation bench sweeps it.
  double prior_weight = 0.5;
  /// A serving team is re-targeted to an appeared request only when doing
  /// so beats finishing its current leg by at least this margin (s).
  double retarget_margin_s = 120.0;
  int train_steps_per_round = 4;
  /// Fault-injection hook (DESIGN.md §13): called right before each SVM
  /// prediction refresh; a throw simulates a predictor failure. The
  /// dispatcher degrades to its last-known distribution and retries at the
  /// next refresh cadence.
  std::function<void(double now)> prediction_chaos;
};

class MobiRescueDispatcher : public sim::Dispatcher {
 public:
  /// `tracker` is any population snapshot source: the batch pipeline hands
  /// in a PopulationTracker replaying a recorded day; the online service
  /// hands in its streamed serve::StreamState. Decisions depend only on
  /// snapshot content, so equal-content sources give identical decisions.
  MobiRescueDispatcher(const roadnet::City& city,
                       const predict::SvmRequestPredictor& predictor,
                       sim::PopulationSource& tracker,
                       const roadnet::SpatialIndex& index,
                       std::shared_ptr<rl::DqnAgent> agent,
                       double day_offset_s, MobiRescueConfig config = {});

  std::string name() const override { return "MobiRescue"; }
  sim::DispatchDecision Decide(const sim::DispatchContext& context) override;

  const rl::DqnAgent& agent() const { return *agent_; }
  double last_train_loss() const { return last_loss_; }

  // Introspection for the serve layer's metrics.
  const DispatchFeaturizer& featurizer() const { return featurizer_; }
  /// The cached SVM prediction {ñ_e} and when it was last refreshed.
  const predict::Distribution& predicted_distribution() const {
    return cached_distribution_;
  }
  double prediction_refreshed_at() const { return cached_at_; }
  /// Prediction refreshes that failed (the dispatcher kept serving on the
  /// last-known distribution).
  std::uint64_t prediction_failures() const {
    return prediction_failures_total_.Value();
  }

  /// The heuristic prior over one action's features: demand-seeking,
  /// distance- and competition-averse, 0 for the depot action.
  static double HeuristicPrior(const std::vector<double>& features);

  /// The joint action of a scored round under Q-values `qs` (parallel to
  /// `layout.feature_rows`; only the layout fields are read): each
  /// decidable team's prior + Q margin over its depot row, one
  /// maximum-margin assignment of teams to `layout.columns`, and kGoto to
  /// the assigned candidate where the margin is positive, else kKeep. One
  /// action per `layout.rows` entry. The live decision and the learning
  /// subsystem's shadow policies both decide through it.
  static std::vector<sim::TeamAction> AssignByMargin(
      const RoundCapture& layout, const std::vector<double>& qs);

  /// Round capture for the learning subsystem: when enabled, every
  /// evaluation-mode Decide() stores the round's scored action space in
  /// last_capture(). Off by default — frozen-policy serving pays nothing.
  void EnableRoundCapture(bool enabled) { capture_enabled_ = enabled; }
  const RoundCapture& last_capture() const { return capture_; }

 private:
  /// Accrues the per-round reward ingredients onto each team's open
  /// macro-transition.
  void AccrueRewards(const sim::DispatchContext& context);

  /// Evaluation-time joint-action selection: maximum-score bipartite
  /// assignment of decidable teams to candidate instances, scored by
  /// prior + Q; plus the pending-swing re-target for serving teams.
  void DecideByAssignment(const sim::DispatchContext& context,
                          RoundData& round,
                          std::unordered_set<roadnet::SegmentId>& pending_now,
                          sim::DispatchDecision& decision);

  const roadnet::City& city_;
  const predict::SvmRequestPredictor& predictor_;
  sim::PopulationSource& tracker_;
  const roadnet::SpatialIndex& index_;
  std::shared_ptr<rl::DqnAgent> agent_;
  double day_offset_s_;
  MobiRescueConfig config_;
  DispatchFeaturizer featurizer_;

  predict::Distribution cached_distribution_;
  double cached_at_ = -1.0e18;
  obs::Counter prediction_failures_total_{
      "dispatch_prediction_failures_total",
      "SVM prediction refreshes that threw; the last-known distribution "
      "was kept."};

  /// Open macro-transition per team (semi-MDP style): a decision commits a
  /// team to a leg; the Eq. (5) reward accrues over the leg's rounds and the
  /// transition closes when the team is idle and decides again.
  struct PendingTransition {
    std::vector<double> features;
    double accumulated = 0.0;
    int rounds = 0;
    bool valid = false;
  };
  std::vector<PendingTransition> pending_;
  double last_loss_ = 0.0;

  bool capture_enabled_ = false;
  RoundCapture capture_;
};

}  // namespace mobirescue::dispatch
