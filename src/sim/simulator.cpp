#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace mobirescue::sim {

using util::SimTime;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Grace period an idle team with passengers waits for co-located top-ups
/// before departing for the hospital.
constexpr double kPickupGraceS = 300.0;
}  // namespace

RescueSimulator::RescueSimulator(const roadnet::City& city,
                                 const weather::FloodModel& flood,
                                 std::vector<Request> requests,
                                 double day_offset_s, SimConfig config)
    : city_(city),
      flood_(flood),
      router_(city.network),
      requests_(std::move(requests)),
      day_offset_s_(day_offset_s),
      config_(config),
      rng_(config.seed),
      metrics_(static_cast<int>(config.horizon_s / util::kSecondsPerHour) + 1),
      free_cond_(city.network.num_segments()) {
  PlaceTeamsAtHospitals();
  team_blocked_until_.assign(teams_.size(), -1.0);
  team_grace_failed_at_.assign(teams_.size(), -1.0);
  team_wake_seq_.assign(teams_.size(), 0);
  team_wake_.assign(teams_.size(), kInf);
  for (Request& r : requests_) {
    const roadnet::RoadSegment& seg = city_.network.segment(r.segment);
    const double d_from =
        util::ApproxDistanceMeters(r.pos, city_.network.landmark(seg.from).pos);
    const double d_to =
        util::ApproxDistanceMeters(r.pos, city_.network.landmark(seg.to).pos);
    r.pickup_landmark = d_from <= d_to ? seg.from : seg.to;
  }
  appear_order_.resize(requests_.size());
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    appear_order_[i] = static_cast<int>(i);
  }
  std::sort(appear_order_.begin(), appear_order_.end(), [&](int a, int b) {
    return requests_[a].appear_time < requests_[b].appear_time;
  });
  if (event_engine()) ScheduleAppearEvent();
}

void RescueSimulator::PlaceTeamsAtHospitals() {
  // Paper V-B: initial team positions randomly distributed among hospitals.
  teams_.resize(config_.num_teams);
  for (int k = 0; k < config_.num_teams; ++k) {
    Team& team = teams_[k];
    team.id = k;
    team.capacity = config_.team_capacity;
    team.at = city_.hospitals[rng_.Index(city_.hospitals.size())];
  }
}

void RescueSimulator::BlockTeam(int team_id, SimTime until) {
  double& blocked =
      team_blocked_until_.at(static_cast<std::size_t>(team_id));
  blocked = std::max(blocked, until);
  Team& team = teams_[static_cast<std::size_t>(team_id)];
  if (blocked > now_) {
    // Blocked time never counts toward the Eq. (5) driving delay.
    StopDriveCharge(team, now_);
    // Frozen mid-segment: remember the pause so the remaining traversal is
    // served after the block (entry/arrival shift forward on resume).
    if (team.seg_entered && team.block_pause_time < 0.0) {
      team.block_pause_time = now_;
    }
    ScheduleTeamWake(team, now_, /*after_window=*/false);
  }
}

const roadnet::NetworkCondition& RescueSimulator::ConditionAt(SimTime t) {
  const int hour = util::HourIndex(t + day_offset_s_);
  auto it = cond_cache_.find(hour);
  if (it == cond_cache_.end()) {
    it = cond_cache_
             .emplace(hour, flood_.NetworkConditionAt(
                                city_.network,
                                (hour + 0.5) * util::kSecondsPerHour))
             .first;
    char attrs[32];
    std::snprintf(attrs, sizeof(attrs), "hour=%d", hour);
    obs::FlightRecorder::Global().Emit(obs::Severity::kInfo, "sim",
                                       "condition_epoch", attrs);
  }
  return it->second;
}

// --- Drive-time accrual (Eq. (5)) -------------------------------------

void RescueSimulator::ChargeDriveUpTo(Team& team, SimTime t) {
  if (team.drive_mark >= 0.0) {
    team.drive_time_since_dispatch += t - team.drive_mark;
    team.drive_mark = t;
  }
}

void RescueSimulator::StopDriveCharge(Team& team, SimTime t) {
  ChargeDriveUpTo(team, t);
  team.drive_mark = -1.0;
}

double RescueSimulator::DriveTimeView(const Team& team, SimTime now) const {
  double v = team.drive_time_since_dispatch;
  if (team.drive_mark >= 0.0) v += now - team.drive_mark;
  return v;
}

// --- Step-grid helpers -------------------------------------------------

util::SimTime RescueSimulator::GridCeil(SimTime t) const {
  const double step = config_.step_s;
  long long k = static_cast<long long>(std::ceil(t / step));
  while (static_cast<double>(k) * step < t) ++k;
  while (k > 0 && static_cast<double>(k - 1) * step >= t) --k;
  return static_cast<double>(k) * step;
}

util::SimTime RescueSimulator::GridAbove(SimTime t) const {
  const double step = config_.step_s;
  double b = GridCeil(t);
  if (b <= t) b += step;
  return b;
}

util::SimTime RescueSimulator::GridWindowStart(SimTime t) const {
  const double step = config_.step_s;
  // GridCeil leaves (k-1)*step < t <= k*step, so the window holding t
  // starts one grid point below the ceiling.
  return GridCeil(t) == t ? t - step : GridCeil(t) - step;
}

util::SimTime RescueSimulator::NextEpochBoundary(SimTime t) const {
  const int hour = util::HourIndex(t + day_offset_s_);
  const double epoch_end =
      static_cast<double>(hour + 1) * util::kSecondsPerHour - day_offset_s_;
  double b = GridCeil(epoch_end);
  if (b <= t) b = GridAbove(t);
  return b;
}

// --- Context -----------------------------------------------------------

DispatchContext RescueSimulator::BuildContext(SimTime now) {
  DispatchContext ctx;
  ctx.now = now;
  ctx.teams.reserve(teams_.size());
  const roadnet::NetworkCondition& cond = ConditionAt(now);
  for (const Team& team : teams_) {
    TeamView v;
    v.id = team.id;
    v.at = team.at;
    v.mode = team.mode;
    v.target_segment = team.target_segment;
    v.onboard = static_cast<int>(team.onboard.size());
    double remaining = 0.0;
    for (std::size_t i = 0; i < team.route.size(); ++i) {
      const double tt = cond.TravelTime(city_.network.segment(team.route[i]));
      if (std::isfinite(tt)) remaining += tt;
    }
    if (team.seg_entered) remaining -= now - team.seg_entry_time;
    v.leg_remaining_s = std::max(0.0, remaining);
    v.capacity = team.capacity;
    v.served_since_dispatch = team.served_since_dispatch;
    v.drive_time_since_dispatch = DriveTimeView(team, now);
    ctx.teams.push_back(v);
  }
  // pending_ids_ is maintained sorted ascending, so the context view needs
  // no per-round sort/deduplication.
  ctx.pending.reserve(pending_ids_.size());
  for (int id : pending_ids_) {
    ctx.pending.push_back(
        {id, requests_[id].segment, requests_[id].appear_time});
  }
  ctx.condition = &cond;
  ctx.free_condition = &free_cond_;
  return ctx;
}

// --- Routing -----------------------------------------------------------

void RescueSimulator::StartRouteToSegment(
    Team& team, roadnet::SegmentId target, SimTime now,
    const roadnet::NetworkCondition& plan_cond) {
  StopDriveCharge(team, now);
  const roadnet::RoadSegment& seg = city_.network.segment(target);
  // Route to the segment's entry landmark, then traverse the segment itself
  // (the paper dispatches teams "to the end of the destination segment").
  // When the segment is impassable, head for the endpoint where the people
  // actually wait (the water's edge they can reach on foot).
  roadnet::LandmarkId entry = seg.from;
  if (!plan_cond.IsOpen(target)) {
    const auto it_to = pending_by_landmark_.find(seg.to);
    const auto it_from = pending_by_landmark_.find(seg.from);
    if (it_from == pending_by_landmark_.end() &&
        it_to != pending_by_landmark_.end()) {
      entry = seg.to;
    }
  }
  // Teams cluster at hospitals and candidate segments, so the forward tree
  // from team.at is usually already cached for this condition epoch.
  const auto tree = router_.CachedTree(team.at, plan_cond);
  auto route = tree->RouteTo(city_.network, entry);
  if (!route.has_value()) {
    // Unreachable under the planner's view: the team stays put.
    team.mode = TeamMode::kIdle;
    team.route.clear();
    team.seg_entered = false;
    team.block_pause_time = -1.0;
    team.target_segment = roadnet::kInvalidSegment;
    return;
  }
  team.route = std::move(route->segments);
  if (plan_cond.IsOpen(target)) team.route.push_back(target);
  team.seg_entered = false;
  team.block_pause_time = -1.0;
  team.mode = TeamMode::kToTarget;
  team.target_segment = target;
  team.leg_start_time = now;
  // Accrual starts now; a team inside a blockage penalty starts accruing
  // only when it resumes (ProcessTeamWindow arms the mark then).
  if (team_blocked_until_[team.id] <= now) team.drive_mark = now;
  if (team.route.empty()) {
    // Already at the target: act as arrived.
    ArriveAtLandmark(team, team.at, now);
  }
}

void RescueSimulator::StartRouteToLandmark(Team& team,
                                           roadnet::LandmarkId target,
                                           SimTime now, TeamMode mode) {
  StopDriveCharge(team, now);
  const auto tree = router_.CachedTree(team.at, ConditionAt(now));
  auto route = tree->RouteTo(city_.network, target);
  team.mode = mode;
  team.leg_start_time = now;
  team.seg_entered = false;
  team.block_pause_time = -1.0;
  team.target_segment = roadnet::kInvalidSegment;
  if (!route.has_value() || route->segments.empty()) {
    team.route.clear();
    // Unreachable or already there.
    if (team.at == target || !route.has_value()) {
      if (mode == TeamMode::kToHospital && team.at == target) {
        ArriveAtLandmark(team, team.at, now);
      } else {
        team.mode = TeamMode::kIdle;
      }
    }
    return;
  }
  team.route = std::move(route->segments);
}

void RescueSimulator::HeadToHospital(Team& team, SimTime now) {
  StopDriveCharge(team, now);
  // One cached tree answers both "which hospital is nearest" here and the
  // route extraction in StartRouteToLandmark below.
  const auto tree = router_.CachedTree(team.at, ConditionAt(now));
  roadnet::LandmarkId h = roadnet::kInvalidLandmark;
  double best_t = std::numeric_limits<double>::infinity();
  for (roadnet::LandmarkId hospital : city_.hospitals) {
    if (tree->Reachable(hospital) && tree->time_s[hospital] < best_t) {
      best_t = tree->time_s[hospital];
      h = hospital;
    }
  }
  if (h == roadnet::kInvalidLandmark) {
    // Cut off by flooding: wait; a later condition may reopen a path (the
    // event driver retries at the next hourly epoch — conditions cannot
    // change sooner, so per-step retries are equivalent).
    team.mode = TeamMode::kIdle;
    team.route.clear();
    team.seg_entered = false;
    return;
  }
  if (h == team.at) {
    // Already at a hospital: deliver immediately.
    for (int rid : team.onboard) {
      requests_[rid].status = RequestStatus::kDelivered;
      requests_[rid].delivery_time = now;
      metrics_.RecordDelivery(now);
    }
    team.onboard.clear();
    team.mode = TeamMode::kIdle;
    team.route.clear();
    team.seg_entered = false;
    return;
  }
  StartRouteToLandmark(team, h, now, TeamMode::kToHospital);
}

// --- Pickups and arrivals ----------------------------------------------

void RescueSimulator::Pickup(Team& team, Request& request, SimTime now) {
  request.status = RequestStatus::kOnBoard;
  request.pickup_time = now;
  request.served_by_team = team.id;
  // Driving delay to *this* request: the team cannot have been driving
  // toward it before it appeared, so an en-route pickup of a fresh request
  // is charged from its appearance, not from the leg start.
  request.driving_delay_s = std::max(
      0.0, std::min(now - team.leg_start_time, now - request.appear_time));
  const double timeliness = std::max(0.0, now - request.appear_time);
  metrics_.RecordPickup(now, request.driving_delay_s, timeliness,
                        timeliness <= config_.timely_threshold_s, team.id);
  team.onboard.push_back(request.id);
  ++team.served_total;
  ++team.served_since_dispatch;
  // Remove from the pending indices.
  auto it = pending_by_landmark_.find(request.pickup_landmark);
  if (it != pending_by_landmark_.end()) {
    auto& ids = it->second;
    ids.erase(std::remove(ids.begin(), ids.end(), request.id), ids.end());
    if (ids.empty()) pending_by_landmark_.erase(it);
  }
  auto pit =
      std::lower_bound(pending_ids_.begin(), pending_ids_.end(), request.id);
  if (pit != pending_ids_.end() && *pit == request.id) {
    pending_ids_.erase(pit);
  }
}

void RescueSimulator::TryPickupsAtLandmark(Team& team, roadnet::LandmarkId lm,
                                           SimTime now) {
  // Teams recalled to the dispatching centre are standing down (Section
  // IV-C2: they are not serving teams); only serving/idle teams pick up.
  if (team.mode == TeamMode::kToDepot) return;
  auto it = pending_by_landmark_.find(lm);
  if (it == pending_by_landmark_.end()) return;
  // Copy: Pickup mutates the index.
  const std::vector<int> ids = it->second;
  for (int rid : ids) {
    if (team.Full()) break;
    if (requests_[rid].status != RequestStatus::kPending) continue;
    Pickup(team, requests_[rid], now);
  }
}

void RescueSimulator::ArriveAtLandmark(Team& team, roadnet::LandmarkId lm,
                                       SimTime now) {
  team.at = lm;
  TryPickupsAtLandmark(team, lm, now);
  if (!team.route.empty()) return;
  switch (team.mode) {
    case TeamMode::kToTarget:
      team.target_segment = roadnet::kInvalidSegment;
      if (!team.onboard.empty()) {
        HeadToHospital(team, now);
      } else {
        StopDriveCharge(team, now);
        team.mode = TeamMode::kIdle;
      }
      break;
    case TeamMode::kToHospital:
      for (int rid : team.onboard) {
        requests_[rid].status = RequestStatus::kDelivered;
        requests_[rid].delivery_time = now;
        metrics_.RecordDelivery(now);
      }
      team.onboard.clear();
      team.mode = TeamMode::kIdle;
      break;
    case TeamMode::kToDepot:
      team.mode = TeamMode::kIdle;
      break;
    case TeamMode::kIdle:
      break;
  }
}

// --- Shared engine mechanics (DESIGN.md §14) ---------------------------

void RescueSimulator::ProcessTeamWindow(Team& team, SimTime T) {
  // An idle team holding rescued people departs for the hospital after a
  // short grace period (it may briefly wait to fill remaining seats from
  // co-located requests, but never strands passengers). The grace decision
  // fires even inside a blockage penalty — the team plans its hospital run
  // now and moves once the penalty elapses.
  if (team.route.empty() && team.mode == TeamMode::kIdle &&
      !team.onboard.empty()) {
    const double last_pickup = requests_[team.onboard.back()].pickup_time;
    if (T - last_pickup > kPickupGraceS) {
      HeadToHospital(team, T);
      if (team.route.empty() && team.mode == TeamMode::kIdle &&
          !team.onboard.empty()) {
        team_grace_failed_at_[team.id] = T;  // cut off under this epoch
      }
    }
  }
  if (team.route.empty()) return;
  if (team_blocked_until_[team.id] > T) return;
  // Resuming from an exogenous mid-segment freeze: the remaining traversal
  // shifts forward by the frozen duration.
  if (team.block_pause_time >= 0.0) {
    if (team.seg_entered) {
      const double frozen = T - team.block_pause_time;
      team.seg_entry_time += frozen;
      team.seg_arrival_time += frozen;
    }
    team.block_pause_time = -1.0;
  }
  // A team that replanned inside a blockage penalty starts accruing drive
  // time at the boundary it actually resumes moving.
  if (team.mode == TeamMode::kToTarget && team.drive_mark < 0.0) {
    team.drive_mark = T;
  }
  AdvanceTeam(team, T);
}

void RescueSimulator::AdvanceTeam(Team& team, SimTime T) {
  const SimTime window_end = T + config_.step_s;
  SimTime t = T;
  while (!team.route.empty()) {
    if (team_blocked_until_[team.id] > t) return;  // blocked mid-window
    const roadnet::SegmentId sid = team.route.front();
    const roadnet::RoadSegment& seg = city_.network.segment(sid);
    if (!team.seg_entered) {
      // Openness and travel time are evaluated once, at segment entry,
      // against the condition epoch in force at that instant; a segment
      // closing mid-traversal no longer stops a vehicle already on it.
      const roadnet::NetworkCondition& cond = ConditionAt(t);
      if (!cond.IsOpen(sid)) {
        // Flooded segment discovered en route: block, then replan to the
        // current objective on the true network as seen at discovery time.
        blockage_counter_.Increment();
        {
          char attrs[64];
          std::snprintf(attrs, sizeof(attrs), "team=%d segment=%d t=%.0f",
                        team.id, static_cast<int>(sid), t);
          obs::FlightRecorder::Global().Emit(obs::Severity::kWarn, "sim",
                                             "blockage", attrs);
        }
        StopDriveCharge(team, t);
        BlockTeam(team.id, t + config_.blockage_penalty_s);
        const TeamMode mode = team.mode;
        const roadnet::SegmentId target = team.target_segment;
        if (mode == TeamMode::kToTarget &&
            target != roadnet::kInvalidSegment) {
          const SimTime leg_start = team.leg_start_time;
          StartRouteToSegment(team, target, t, cond);
          team.leg_start_time = leg_start;  // delay keeps accruing
        } else if (mode == TeamMode::kToHospital) {
          HeadToHospital(team, t);
        } else {
          team.route.clear();
          team.seg_entered = false;
          team.mode = TeamMode::kIdle;
        }
        return;
      }
      const double travel = seg.length_m /
                            (seg.speed_limit_mps * cond.SpeedFactor(sid));
      team.seg_entered = true;
      team.seg_entry_time = t;
      team.seg_arrival_time = t + travel;
    }
    if (team.seg_arrival_time > window_end) return;  // continues next window
    t = team.seg_arrival_time;
    team.seg_entered = false;
    team.route.erase(team.route.begin());
    ChargeDriveUpTo(team, t);
    ArriveAtLandmark(team, seg.to, t);
    if (team.Full() && team.mode == TeamMode::kToTarget) {
      HeadToHospital(team, t);
      return;  // the rest of the window is forfeited (stand-down to load)
    }
  }
}

int RescueSimulator::OnRequestAppear(Request& request, SimTime now) {
  request.status = RequestStatus::kPending;
  // The paper's zero-timeliness case: a team already positioned at the
  // request's pickup landmark takes the person immediately. A team still
  // inside its blockage-penalty window is stopped and turning around — it
  // cannot serve anyone until the penalty elapses.
  for (Team& team : teams_) {
    if (team.mode != TeamMode::kIdle || team.Full()) continue;
    if (team_blocked_until_[team.id] > now) continue;
    if (team.at == request.pickup_landmark) {
      request.pickup_time = now;
      request.status = RequestStatus::kOnBoard;
      request.served_by_team = team.id;
      request.driving_delay_s = 0.0;
      metrics_.RecordPickup(now, 0.0, 0.0, true, team.id);
      team.onboard.push_back(request.id);
      ++team.served_total;
      ++team.served_since_dispatch;
      if (team.Full()) HeadToHospital(team, now);
      return team.id;
    }
  }
  pending_by_landmark_[request.pickup_landmark].push_back(request.id);
  pending_ids_.insert(
      std::lower_bound(pending_ids_.begin(), pending_ids_.end(), request.id),
      request.id);
  return -1;
}

void RescueSimulator::SurfaceAppearances() {
  bool surfaced = false;
  while (appear_cursor_ < appear_order_.size()) {
    Request& r = requests_[appear_order_[appear_cursor_]];
    if (r.appear_time > now_) break;
    OnRequestAppear(r, now_);
    ++appear_cursor_;
    surfaced = true;
  }
  if (event_engine()) {
    ScheduleAppearEvent();
    // Zero-delay pickups may have changed team state (including a full
    // team departing for a hospital): refresh the wake-ups.
    if (surfaced) ScheduleAllTeamWakes(now_);
  }
}

void RescueSimulator::ApplyActions(const std::vector<TeamAction>& actions,
                                   SimTime now) {
  OBS_SPAN("sim.apply_actions");
  const roadnet::NetworkCondition& cond = ConditionAt(now);
  int serving = 0;
  for (std::size_t k = 0; k < actions.size() && k < teams_.size(); ++k) {
    Team& team = teams_[k];
    const TeamAction& action = actions[k];
    // Teams carrying people finish their delivery first; the dispatcher's
    // instruction applies to available teams.
    const bool busy_delivering = team.mode == TeamMode::kToHospital;
    switch (action.kind) {
      case ActionKind::kKeep:
        if (team.Serving()) ++serving;
        break;
      case ActionKind::kGoto:
        if (!busy_delivering && action.target != roadnet::kInvalidSegment) {
          StartRouteToSegment(team, action.target, now, cond);
        }
        // Chosen to drive to a destination segment => a serving team
        // (Section IV-C3), regardless of route feasibility.
        ++serving;
        break;
      case ActionKind::kDepot:
        if (!busy_delivering) {
          if (!team.onboard.empty()) {
            // Recalled with passengers: deliver them first.
            HeadToHospital(team, now);
          } else if (team.at != city_.depot) {
            StartRouteToLandmark(team, city_.depot, now, TeamMode::kToDepot);
          } else {
            StopDriveCharge(team, now);
            team.mode = TeamMode::kIdle;
            team.route.clear();
            team.seg_entered = false;
          }
        }
        break;
    }
  }
  metrics_.RecordServingTeams(now, serving);
}

int RescueSimulator::ApplyDueDecisions(Dispatcher& dispatcher) {
  int applied = 0;
  while (!pending_decisions_.empty() &&
         pending_decisions_.front().effective_time <= now_) {
    ApplyActions(pending_decisions_.front().actions, now_);
    pending_decisions_.pop_front();
    dispatcher.OnRoundComplete(BuildContext(now_));
    ++applied;
  }
  return applied;
}

// --- Event-driver bookkeeping ------------------------------------------

void RescueSimulator::ScheduleTeamWake(const Team& team, SimTime ref,
                                       bool after_window) {
  if (!event_engine()) return;
  double wake = kInf;
  SimEventType type = SimEventType::kSegmentArrival;
  if (!team.route.empty()) {
    const double blocked = team_blocked_until_[team.id];
    if (blocked > ref) {
      wake = GridCeil(blocked);
      type = SimEventType::kBlockageExpiry;
    } else if (team.block_pause_time >= 0.0) {
      // Pause shift pending: resume at this boundary's window.
      wake = ref;
      type = SimEventType::kBlockageExpiry;
    } else if (team.seg_entered) {
      if (std::isfinite(team.seg_arrival_time)) {
        wake = std::max(GridWindowStart(team.seg_arrival_time), ref);
        type = SimEventType::kSegmentArrival;
      }
      // Non-finite arrival: stuck on a zero-speed segment; no wake (the
      // time-stepped loop makes no progress there either).
    } else {
      wake = after_window ? ref + config_.step_s : ref;
      type = SimEventType::kSegmentArrival;
    }
  } else if (team.mode == TeamMode::kIdle && !team.onboard.empty()) {
    const double g =
        GridAbove(requests_[team.onboard.back()].pickup_time + kPickupGraceS);
    if (g > ref) {
      wake = g;
      type = SimEventType::kPickupGrace;
    } else if (after_window &&
               team_grace_failed_at_[team.id] == ref) {
      // The grace-branch hospital run was attempted at this very boundary
      // and found every hospital cut off: conditions only change on the
      // hourly epoch, so retrying any sooner cannot change the outcome.
      wake = NextEpochBoundary(ref);
      type = SimEventType::kConditionEpoch;
    } else if (after_window) {
      // The team became idle-with-onboard mid-window (e.g. a failed
      // blockage replan to its target) without attempting the hospital
      // run at a boundary; the stepped loop would retry next step against
      // a *different* destination set, so the event driver must too.
      wake = ref + config_.step_s;
      type = SimEventType::kPickupGrace;
    } else {
      wake = ref;
      type = SimEventType::kPickupGrace;
    }
  }
  if (after_window && wake <= ref) wake = ref + config_.step_s;
  const std::size_t k = static_cast<std::size_t>(team.id);
  if (!std::isfinite(wake)) {
    if (team_wake_[k] != kInf) {
      team_wake_[k] = kInf;
      ++team_wake_seq_[k];  // invalidate any queued entry
    }
    return;
  }
  if (wake == team_wake_[k]) return;  // queued entry is still correct
  team_wake_[k] = wake;
  const std::uint64_t seq = ++team_wake_seq_[k];
  events_.Push({wake, type, team.id, seq});
}

void RescueSimulator::ScheduleAllTeamWakes(SimTime ref) {
  for (const Team& team : teams_) {
    ScheduleTeamWake(team, ref, /*after_window=*/false);
  }
}

void RescueSimulator::ScheduleAppearEvent() {
  if (appear_cursor_ >= appear_order_.size()) return;
  const double b =
      GridCeil(requests_[appear_order_[appear_cursor_]].appear_time);
  if (b == next_appear_event_) return;
  next_appear_event_ = b;
  events_.Push({b, SimEventType::kRequestAppear, -1, 0});
}

void RescueSimulator::ProcessDueTeams() {
  std::vector<int> due;
  while (!events_.Empty() && events_.Top().boundary <= now_) {
    const SimEvent e = events_.Pop();
    if (e.team >= 0 && e.seq == team_wake_seq_[e.team] &&
        team_wake_[e.team] <= now_) {
      due.push_back(e.team);
    }
  }
  std::sort(due.begin(), due.end());
  due.erase(std::unique(due.begin(), due.end()), due.end());
  // Ascending team order: exactly the time-stepped sweep order, which is
  // what keeps same-window pickup races bit-identical across engines.
  for (int k : due) {
    team_wake_[k] = kInf;
    ++team_wake_seq_[k];
    ProcessTeamWindow(teams_[k], now_);
    ScheduleTeamWake(teams_[k], now_, /*after_window=*/true);
  }
}

double RescueSimulator::NextEventBoundary() {
  while (!events_.Empty()) {
    const SimEvent& top = events_.Top();
    if (top.team >= 0 && top.seq != team_wake_seq_[top.team]) {
      events_.Pop();  // stale reschedule
      continue;
    }
    if (top.boundary <= now_) {
      events_.Pop();  // already-processed boundary (idempotent control)
      continue;
    }
    return top.boundary;
  }
  return kInf;
}

// --- Engine drivers -----------------------------------------------------

bool RescueSimulator::NextRoundStepped(Dispatcher& dispatcher,
                                       DispatchContext* ctx) {
  while (now_ < config_.horizon_s) {
    if (now_ != last_visited_boundary_) {
      last_visited_boundary_ = now_;
      ++boundaries_visited_;
    }
    // 1. Surface newly appeared requests (idempotent on re-entry after a
    //    SubmitDecision: the cursor has already passed everything <= now_).
    SurfaceAppearances();

    // 2. Dispatch round due: hand the context to the caller, who computes
    //    the decision and returns it via SubmitDecision.
    if (now_ >= next_dispatch_) {
      *ctx = BuildContext(now_);
      return true;
    }

    // 3. Apply decisions whose latency has elapsed.
    ApplyDueDecisions(dispatcher);

    // 4. Move the fleet through the window (now_, now_ + step].
    {
      OBS_SPAN("sim.step_teams");
      for (Team& team : teams_) ProcessTeamWindow(team, now_);
    }
    now_ += config_.step_s;
  }
  return false;
}

bool RescueSimulator::NextRoundEvent(Dispatcher& dispatcher,
                                     DispatchContext* ctx) {
  for (;;) {
    if (now_ >= config_.horizon_s) {
      now_ = GridCeil(config_.horizon_s);
      return false;
    }
    if (now_ != last_visited_boundary_) {
      last_visited_boundary_ = now_;
      ++boundaries_visited_;
    }
    // Same boundary phases as the time-stepped driver, but only at
    // boundaries where a queued event (or a due round) makes them matter.
    SurfaceAppearances();
    if (now_ >= next_dispatch_) {
      *ctx = BuildContext(now_);
      return true;
    }
    {
      OBS_SPAN("sim.event");
      if (ApplyDueDecisions(dispatcher) > 0) ScheduleAllTeamWakes(now_);
      ProcessDueTeams();
    }
    const double next = NextEventBoundary();
    if (!(next < config_.horizon_s)) {
      now_ = GridCeil(config_.horizon_s);
      return false;
    }
    now_ = next;
  }
}

bool RescueSimulator::NextRound(Dispatcher& dispatcher, DispatchContext* ctx) {
  return event_engine() ? NextRoundEvent(dispatcher, ctx)
                        : NextRoundStepped(dispatcher, ctx);
}

void RescueSimulator::SubmitDecision(DispatchDecision decision) {
  rounds_counter_.Increment();
  PendingDecision pd;
  pd.effective_time = now_ + std::max(0.0, decision.compute_latency_s);
  pd.actions = std::move(decision.actions);
  if (event_engine()) {
    events_.Push(
        {GridCeil(pd.effective_time), SimEventType::kDecisionEffective, -1, 0});
  }
  pending_decisions_.push_back(std::move(pd));
  for (Team& team : teams_) {
    team.served_since_dispatch = 0;
    team.drive_time_since_dispatch = 0.0;
    if (team.drive_mark >= 0.0) team.drive_mark = now_;
  }
  next_dispatch_ = now_ + config_.dispatch_period_s;
  if (event_engine()) {
    events_.Push(
        {GridCeil(next_dispatch_), SimEventType::kDispatchRound, -1, 0});
  }
}

MetricsCollector RescueSimulator::Run(Dispatcher& dispatcher) {
  DispatchContext ctx;
  while (NextRound(dispatcher, &ctx)) {
    SubmitDecision(dispatcher.Decide(ctx));
  }
  return metrics_;
}

}  // namespace mobirescue::sim
