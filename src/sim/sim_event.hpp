// Typed event queue for the discrete-event simulator core (DESIGN.md §14).
//
// The engine's events all live on the step grid t_k = k * step_s: the
// bug-fixed time-stepped loop only *observes* control conditions (request
// appearance, dispatch rounds, decision effectiveness, blockage expiry,
// pickup-grace expiry) at step boundaries, so the event engine schedules
// wake-ups on the same grid and reproduces the loop's observable behavior
// exactly. Continuous quantities (segment arrival times, pickup/delivery
// timestamps) stay sub-step in both engines; an arrival at time t is
// processed inside the window (T, T + step] that contains it.
//
// Entries are lazily invalidated: each team has a monotonically increasing
// wake sequence number, and a popped entry whose seq no longer matches the
// team's current one is a stale reschedule and is dropped. Control events
// (appear / round / decision) are idempotent wake-ups and need no
// invalidation.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "obs/metrics.hpp"

namespace mobirescue::sim {

enum class SimEventType : int {
  kSegmentArrival = 0,   // a driving team's next arrival falls in this window
  kPickupGrace,          // idle-with-passengers grace period elapses
  kBlockageExpiry,       // a blockage penalty ends; the team resumes
  kConditionEpoch,       // hourly flood epoch: retry a cut-off hospital run
  kRequestAppear,        // next ground-truth request surfaces
  kDispatchRound,        // a dispatch round is due
  kDecisionEffective,    // a submitted decision's compute latency elapses
};
inline constexpr int kNumSimEventTypes = 7;

struct SimEvent {
  double boundary = 0.0;  // grid-aligned wake time
  SimEventType type = SimEventType::kSegmentArrival;
  int team = -1;               // team-typed events only
  std::uint64_t seq = 0;       // team wake sequence (lazy invalidation)
};

/// Min-heap of SimEvents ordered by boundary (ties broken by insertion so
/// pops are deterministic), with per-type push counters and a depth gauge.
class SimEventQueue {
 public:
  void Push(const SimEvent& e) {
    heap_.push(Entry{e, next_id_++});
    type_counters_[static_cast<int>(e.type)].Increment();
    depth_gauge_.Set(static_cast<double>(heap_.size()));
  }

  bool Empty() const { return heap_.empty(); }
  std::size_t Size() const { return heap_.size(); }

  const SimEvent& Top() const { return heap_.top().event; }

  SimEvent Pop() {
    SimEvent e = heap_.top().event;
    heap_.pop();
    depth_gauge_.Set(static_cast<double>(heap_.size()));
    return e;
  }

  /// Events pushed so far, by type: this queue's own counters (the
  /// registry merges same-name counters across simulators).
  std::uint64_t pushed(SimEventType type) const {
    return type_counters_[static_cast<int>(type)].Value();
  }
  std::uint64_t total_pushed() const {
    std::uint64_t n = 0;
    for (const obs::Counter& c : type_counters_) n += c.Value();
    return n;
  }

 private:
  struct Entry {
    SimEvent event;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.event.boundary != b.event.boundary) {
        return a.event.boundary > b.event.boundary;
      }
      return a.id > b.id;  // FIFO among equal boundaries: deterministic pops
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_id_ = 0;

  obs::Gauge depth_gauge_{"sim_event_queue_depth",
                          "Pending events in the simulator event queue."};
  // Registry-backed per-type counters (merged across live simulators).
  obs::Counter type_counters_[kNumSimEventTypes] = {
      {"sim_events_segment_arrival_total",
       "Segment-arrival wake-ups scheduled by event-driven simulators."},
      {"sim_events_pickup_grace_total",
       "Pickup-grace expiry events scheduled by event-driven simulators."},
      {"sim_events_blockage_expiry_total",
       "Blockage-penalty expiry events scheduled by event-driven simulators."},
      {"sim_events_condition_epoch_total",
       "Hourly flood-epoch retry events scheduled by event-driven "
       "simulators."},
      {"sim_events_request_appear_total",
       "Request-appearance events scheduled by event-driven simulators."},
      {"sim_events_dispatch_round_total",
       "Dispatch-round events scheduled by event-driven simulators."},
      {"sim_events_decision_effective_total",
       "Decision-effective events scheduled by event-driven simulators."},
  };
};

}  // namespace mobirescue::sim
