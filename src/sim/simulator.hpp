// Rescue simulation engine — the SUMO substitute.
//
// Simulates the movement of the rescue-team fleet over the (flood-degraded)
// Charlotte road network for one evaluation day, the appearance of rescue
// requests from the ground-truth trace, pickups with capacity c, deliveries
// to the nearest hospital, and the periodic dispatcher-in-the-loop protocol,
// including the dispatcher's computation latency (the paper charges ~300 s
// to the integer-programming baselines and < 0.5 s to the RL model).
//
// Execution realism: a dispatcher may plan routes on a stale or
// disaster-unaware network view, but the *simulator* executes them on the
// true flooded network — a team reaching a closed segment is blocked for a
// discovery penalty and then reroutes, which is exactly why the paper's
// `Schedule` baseline wastes driving time.
//
// Two engine drivers share one set of mechanics (DESIGN.md §14):
//
//   kTimeStepped   the reference loop: every step boundary T = k*step_s is
//                  visited; each team's window (T, T+step] is processed.
//   kEventDriven   a priority queue of typed events (segment arrival,
//                  pickup-grace expiry, blockage expiry, hourly flood
//                  epoch, request appearance, dispatch round, decision
//                  effectiveness) wakes the engine only at boundaries where
//                  something can change. Idle fleet and long segments cost
//                  nothing per step.
//
// All control conditions are observed on the step grid in both drivers, and
// segment traversal uses the same absolute-time arithmetic (arrival =
// entry + travel, condition frozen at entry), so the two engines produce
// bit-identical MetricsCollector output (property-tested across seeds and
// dispatchers).
//
// Concurrency contract: one RescueSimulator instance belongs to one episode
// (one thread). Everything it takes by reference — City, FloodModel — is
// only ever read, so any number of episode simulators may share them
// (core::EpisodeRunner relies on this). All mutable state (teams, requests,
// condition cache, RNG, router tree cache, event queue) is per-instance.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "roadnet/city_builder.hpp"
#include "roadnet/router.hpp"
#include "sim/dispatcher.hpp"
#include "sim/metrics.hpp"
#include "sim/request.hpp"
#include "sim/sim_event.hpp"
#include "sim/team.hpp"
#include "util/rng.hpp"
#include "weather/flood_model.hpp"

namespace mobirescue::sim {

/// Which core drives the simulation. Both produce bit-identical metrics;
/// the event engine is the default because it skips quiet steps entirely
/// (ROADMAP item 2, gated by the simcore parity suite and bench_sim_core).
enum class SimEngine {
  kTimeStepped,
  kEventDriven,
};

struct SimConfig {
  int num_teams = 100;        // paper: 100 rescue teams for 24 hours
  int team_capacity = 5;      // paper: e.g. c = 5
  double step_s = 10.0;
  double dispatch_period_s = 300.0;  // paper: every 5 minutes
  double horizon_s = util::kSecondsPerDay;
  double timely_threshold_s = 1800.0;  // paper: served within 30 minutes
  /// Time lost when a team discovers a segment on its route is flooded:
  /// stopping, turning a rescue vehicle around and finding the detour.
  double blockage_penalty_s = 420.0;
  std::uint64_t seed = 5;
  SimEngine engine = SimEngine::kEventDriven;
};

class RescueSimulator {
 public:
  /// `requests` are re-timed to [0, horizon); `day_offset_s` anchors the
  /// simulated day inside the scenario window so flood conditions evolve
  /// correctly.
  RescueSimulator(const roadnet::City& city, const weather::FloodModel& flood,
                  std::vector<Request> requests, double day_offset_s,
                  SimConfig config = {});

  /// Runs the full day under the dispatcher and returns the metrics.
  MetricsCollector Run(Dispatcher& dispatcher);

  // --- Incremental serving API ---------------------------------------
  // The online DispatchService (src/serve) drives the simulator round by
  // round instead of through Run(): NextRound advances the clock —
  // surfacing newly appeared requests, applying decisions whose compute
  // latency has elapsed (notifying `dispatcher` via OnRoundComplete) and
  // moving the fleet — until the next dispatch round is due, filling `ctx`
  // with that round's context; the caller computes a decision and hands it
  // back through SubmitDecision. Run() is exactly this loop with
  // dispatcher.Decide inline, so incremental driving is bit-identical to
  // the batch replay. Calling NextRound again without SubmitDecision
  // re-surfaces the same due round. The facade is engine-agnostic:
  // DispatchService, EpisodeRunner episodes and every dispatcher work
  // unchanged on either core.

  /// Advances to the next due dispatch round. Returns false once the
  /// horizon is reached (no further rounds; `ctx` untouched).
  bool NextRound(Dispatcher& dispatcher, DispatchContext* ctx);

  /// Submits the due round's decision; it takes effect after its
  /// compute_latency_s, exactly as in Run().
  void SubmitDecision(DispatchDecision decision);

  /// Simulation clock (seconds since day start).
  util::SimTime now() const { return now_; }

  /// Metrics accumulated so far (complete once NextRound returns false).
  const MetricsCollector& metrics() const { return metrics_; }

  // Introspection (tests, examples).
  const std::vector<Team>& teams() const { return teams_; }
  const std::vector<Request>& requests() const { return requests_; }
  const roadnet::City& city() const { return city_; }
  const SimConfig& config() const { return config_; }

  /// True network condition at simulation time t (cached hourly).
  const roadnet::NetworkCondition& ConditionAt(util::SimTime t);
  /// Times teams hit a flooded segment mid-route and had to replan.
  int blockage_events() const {
    return static_cast<int>(blockage_counter_.Value());
  }
  /// Free-flow (no-disaster) condition.
  const roadnet::NetworkCondition& FreeCondition() const { return free_cond_; }

  /// Injects an exogenous blockage on a team: it cannot move or make
  /// zero-delay pickups until `until` (the later of `until` and any block
  /// already in force). A team frozen mid-segment serves the remaining
  /// traversal after the block. Blockage discovery uses this internally;
  /// scenario scripts and tests can impose incident reports from outside.
  void BlockTeam(int team_id, util::SimTime until);

  /// The simulator's router (exposes the shortest-path-tree cache stats).
  const roadnet::Router& router() const { return router_; }

  // Event-engine introspection (tests, bench_sim_core). Zero when the
  // time-stepped driver is selected.
  std::uint64_t events_scheduled(SimEventType type) const {
    return events_.pushed(type);
  }
  std::uint64_t events_scheduled_total() const {
    return events_.total_pushed();
  }
  /// Step boundaries actually visited (event driver) or stepped through
  /// (time-stepped driver) so far.
  std::uint64_t boundaries_visited() const { return boundaries_visited_; }

 private:
  struct PendingDecision {
    util::SimTime effective_time = 0.0;
    std::vector<TeamAction> actions;
  };

  void PlaceTeamsAtHospitals();
  DispatchContext BuildContext(util::SimTime now);
  void ApplyActions(const std::vector<TeamAction>& actions, util::SimTime now);
  void ArriveAtLandmark(Team& team, roadnet::LandmarkId lm, util::SimTime now);
  /// Picks up pending requests whose segment touches this landmark. A
  /// request on a flooded (closed) segment is reachable from either
  /// endpoint — teams drive to the water's edge.
  void TryPickupsAtLandmark(Team& team, roadnet::LandmarkId lm,
                            util::SimTime now);
  void StartRouteToSegment(Team& team, roadnet::SegmentId target,
                           util::SimTime now,
                           const roadnet::NetworkCondition& plan_cond);
  void StartRouteToLandmark(Team& team, roadnet::LandmarkId target,
                            util::SimTime now, TeamMode mode);
  void HeadToHospital(Team& team, util::SimTime now);
  /// Returns the id of the team that made a zero-delay pickup, or -1.
  int OnRequestAppear(Request& request, util::SimTime now);
  void Pickup(Team& team, Request& request, util::SimTime now);

  // --- Shared engine mechanics (DESIGN.md §14) -----------------------
  /// Surfaces every request with appear_time <= now_ (idempotent).
  void SurfaceAppearances();
  /// Applies queued decisions whose effective time has passed; returns the
  /// number applied.
  int ApplyDueDecisions(Dispatcher& dispatcher);
  /// Processes one team's window (T, T + step]: grace departure, blockage
  /// resume, then continuous traversal via AdvanceTeam.
  void ProcessTeamWindow(Team& team, util::SimTime T);
  /// Moves a driving team through as many segment arrivals as fall inside
  /// the window. Openness and travel time are evaluated at segment entry;
  /// arrival times are absolute (entry + travel).
  void AdvanceTeam(Team& team, util::SimTime T);

  // Drive-time accrual (Eq. (5)): lazy mark-based accounting.
  void ChargeDriveUpTo(Team& team, util::SimTime t);
  void StopDriveCharge(Team& team, util::SimTime t);
  double DriveTimeView(const Team& team, util::SimTime now) const;

  // --- Step grid helpers ---------------------------------------------
  /// Smallest grid point k*step_s >= t.
  util::SimTime GridCeil(util::SimTime t) const;
  /// Smallest grid point strictly greater than t.
  util::SimTime GridAbove(util::SimTime t) const;
  /// The window start T with t in (T, T + step].
  util::SimTime GridWindowStart(util::SimTime t) const;
  /// First grid point of the next hourly flood-condition epoch after t.
  util::SimTime NextEpochBoundary(util::SimTime t) const;

  // --- Engine drivers -------------------------------------------------
  bool NextRoundStepped(Dispatcher& dispatcher, DispatchContext* ctx);
  bool NextRoundEvent(Dispatcher& dispatcher, DispatchContext* ctx);

  // Event-driver bookkeeping.
  bool event_engine() const { return config_.engine == SimEngine::kEventDriven; }
  /// Recomputes when `team` next needs window processing and schedules the
  /// wake-up. `after_window` distinguishes a reschedule after the team's
  /// window at `ref` was processed (wakes must be strictly later) from one
  /// triggered by a state change at `ref` (the team may still need this
  /// boundary's window).
  void ScheduleTeamWake(const Team& team, util::SimTime ref,
                        bool after_window);
  void ScheduleAllTeamWakes(util::SimTime ref);
  void ScheduleAppearEvent();
  /// Pops every event due at `now_` and processes due team windows in
  /// ascending team order (the time-stepped sweep order).
  void ProcessDueTeams();
  /// Next pending boundary strictly after now_ (+inf when none).
  double NextEventBoundary();

  const roadnet::City& city_;
  const weather::FloodModel& flood_;
  roadnet::Router router_;
  std::vector<Request> requests_;
  double day_offset_s_;
  SimConfig config_;
  util::Rng rng_;

  std::vector<Team> teams_;
  std::vector<double> team_blocked_until_;
  /// Boundary at which the pickup-grace hospital run was last attempted and
  /// found no reachable hospital (-1: never). The event driver may defer the
  /// retry to the next hourly epoch only when the failed attempt happened at
  /// the boundary being rescheduled from — a team that merely *became*
  /// idle-with-onboard mid-window has not retried under this epoch yet and
  /// must wake at the very next boundary, exactly like the stepped loop.
  std::vector<double> team_grace_failed_at_;
  MetricsCollector metrics_;

  // Requests indexed for the engine.
  std::vector<int> appear_order_;  // request ids sorted by appear_time
  std::size_t appear_cursor_ = 0;
  /// Pending request ids keyed by the landmark teams pick them up from
  /// (the segment endpoint nearest the person).
  std::unordered_map<roadnet::LandmarkId, std::vector<int>> pending_by_landmark_;
  /// Pending request ids, kept sorted ascending: BuildContext copies this
  /// directly instead of re-sorting/deduplicating the landmark index every
  /// round.
  std::vector<int> pending_ids_;

  // Hourly condition cache.
  std::unordered_map<int, roadnet::NetworkCondition> cond_cache_;
  roadnet::NetworkCondition free_cond_;

  std::deque<PendingDecision> pending_decisions_;

  // Event-driver state (unused by the time-stepped driver).
  SimEventQueue events_;
  std::vector<std::uint64_t> team_wake_seq_;
  std::vector<double> team_wake_;
  double next_appear_event_ = -1.0;
  std::uint64_t boundaries_visited_ = 0;
  double last_visited_boundary_ = -1.0;

  // Registry-backed instruments. Each instance's Value() is its own exact
  // count (blockage_events() reads it); the registry merges same-name
  // counters across all live simulators (e.g. a parallel EpisodeRunner
  // batch).
  obs::Counter rounds_counter_{"sim_rounds_total",
                               "Dispatch rounds executed by simulators."};
  obs::Counter blockage_counter_{
      "sim_blockage_events_total",
      "Closed-segment discoveries that blocked a team en route."};

  // Incremental-serving clock (Run() drives these too).
  util::SimTime now_ = 0.0;
  util::SimTime next_dispatch_ = 0.0;
};

}  // namespace mobirescue::sim
