#include "serve/stream_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "roadnet/city_builder.hpp"
#include "roadnet/spatial_index.hpp"

namespace mobirescue::serve {
namespace {

class StreamStateTest : public ::testing::Test {
 protected:
  StreamStateTest() {
    roadnet::CityConfig config;
    config.grid_width = 6;
    config.grid_height = 6;
    city_ = roadnet::BuildCity(config);
    index_ = std::make_unique<roadnet::SpatialIndex>(city_.network, city_.box);
  }

  /// A moving record pinned to a landmark's position (always matchable).
  mobility::GpsRecord At(mobility::PersonId p, double t,
                         roadnet::LandmarkId lm,
                         double speed = 10.0) const {
    mobility::GpsRecord r;
    r.person = p;
    r.t = t;
    r.pos = city_.network.landmark(lm).pos;
    r.speed_mps = speed;
    return r;
  }

  /// Applies `records` as one drained batch.
  static void Drain(StreamState& state,
                    const std::vector<mobility::GpsRecord>& records) {
    state.ApplyBatch(records.data(), records.size());
  }

  static StreamStateConfig Tiles(int shards) {
    StreamStateConfig config;
    config.shards = shards;
    return config;
  }

  /// A synthetic day: people hop between landmarks, pinging every few
  /// minutes; per-person timestamps strictly increase.
  mobility::GpsTrace SyntheticDay(int people = 12, int pings = 40) const {
    mobility::GpsTrace trace;
    const std::size_t n = city_.network.num_landmarks();
    for (int p = 0; p < people; ++p) {
      for (int i = 0; i < pings; ++i) {
        const auto lm = static_cast<roadnet::LandmarkId>(
            (static_cast<std::size_t>(p) * 31 + static_cast<std::size_t>(i) * 7) % n);
        trace.push_back(At(p, 120.0 * i + p, lm, i % 3 == 0 ? 0.0 : 9.0));
      }
    }
    std::sort(trace.begin(), trace.end(),
              [](const mobility::GpsRecord& a, const mobility::GpsRecord& b) {
                return a.t < b.t;
              });
    return trace;
  }

  roadnet::City city_;
  std::unique_ptr<roadnet::SpatialIndex> index_;
};

TEST_F(StreamStateTest, TracksLatestPositionPerPerson) {
  StreamState state(city_.network, *index_);
  Drain(state, {At(1, 0.0, 0)});
  Drain(state, {At(1, 60.0, 3)});
  Drain(state, {At(2, 30.0, 5)});

  const auto& snap = state.Snapshot(60.0);
  ASSERT_EQ(snap.size(), 2u);
  std::unordered_map<mobility::PersonId, mobility::GpsRecord> by_person;
  for (const auto& r : snap) by_person[r.person] = r;
  EXPECT_DOUBLE_EQ(by_person.at(1).t, 60.0);
  EXPECT_DOUBLE_EQ(by_person.at(2).t, 30.0);
  EXPECT_EQ(state.num_people_seen(), 2u);
}

TEST_F(StreamStateTest, SnapshotContentMatchesBatchTracker) {
  const mobility::GpsTrace trace = SyntheticDay();

  for (const int shards : {1, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::PopulationTracker batch(trace);  // forward-only: one per pass
    StreamState streamed(city_.network, *index_, Tiles(shards));
    std::size_t cursor = 0;
    for (double t : {600.0, 1800.0, 3600.0, 5400.0}) {
      // Everything due by t, as one drain.
      const std::size_t begin = cursor;
      while (cursor < trace.size() && trace[cursor].t <= t) ++cursor;
      streamed.ApplyBatch(trace.data() + begin, cursor - begin);
      const auto& a = batch.Snapshot(t);
      const auto& b = streamed.Snapshot(t);
      ASSERT_EQ(a.size(), b.size()) << "t=" << t;

      // Same content keyed by person (row order is implementation detail).
      std::unordered_map<mobility::PersonId, mobility::GpsRecord> want;
      for (const auto& r : a) want[r.person] = r;
      for (const auto& r : b) {
        const auto it = want.find(r.person);
        ASSERT_NE(it, want.end()) << "person " << r.person;
        EXPECT_DOUBLE_EQ(r.t, it->second.t);
        EXPECT_DOUBLE_EQ(r.pos.lat, it->second.pos.lat);
        EXPECT_DOUBLE_EQ(r.pos.lon, it->second.pos.lon);
        EXPECT_DOUBLE_EQ(r.speed_mps, it->second.speed_mps);
      }
    }
  }
}

TEST_F(StreamStateTest, IncrementalFlowsMatchBatchAnalyzer) {
  const mobility::GpsTrace trace = SyntheticDay();

  // Batch path: match the whole trace, ingest once.
  mobility::MapMatcher matcher(city_.network, *index_);
  mobility::FlowRateAnalyzer batch(city_.network, 24);
  batch.Ingest(matcher.MatchTrace(trace));

  // Streamed path: one record at a time, in time order.
  for (const int shards : {1, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StreamState streamed(city_.network, *index_, Tiles(shards));
    for (const mobility::GpsRecord& r : trace) streamed.ApplyBatch(&r, 1);

    for (std::size_t seg = 0; seg < city_.network.num_segments(); ++seg) {
      for (int h = 0; h < 24; ++h) {
        const auto sid = static_cast<roadnet::SegmentId>(seg);
        ASSERT_DOUBLE_EQ(streamed.flows().SegmentFlow(sid, h),
                         batch.SegmentFlow(sid, h))
            << "seg=" << seg << " hour=" << h;
      }
    }
  }
}

TEST_F(StreamStateTest, CountsUnmatchedRecords) {
  mobility::MatchConfig strict;
  strict.max_match_distance_m = 1.0;
  StreamStateConfig config;
  config.match = strict;
  StreamState state(city_.network, *index_, config);

  mobility::GpsRecord far = At(1, 0.0, 0);
  far.pos.lat += 1.0;
  far.pos.lon += 1.0;
  Drain(state, {far});
  Drain(state, {At(2, 10.0, 0)});

  const StreamStateCounters& c = state.counters();
  EXPECT_EQ(c.applied, 2u);
  EXPECT_EQ(c.matched, 1u);
  EXPECT_EQ(c.unmatched, 1u);
  // Unmatched records still update the person's latest position.
  EXPECT_EQ(state.Snapshot(10.0).size(), 2u);
}

// --- Quarantine (DESIGN.md §13) --------------------------------------------

TEST_F(StreamStateTest, QuarantinesNonFiniteRecords) {
  StreamState state(city_.network, *index_);

  mobility::GpsRecord nan_lat = At(1, 0.0, 0);
  nan_lat.pos.lat = std::numeric_limits<double>::quiet_NaN();
  mobility::GpsRecord inf_lon = At(2, 1.0, 0);
  inf_lon.pos.lon = std::numeric_limits<double>::infinity();
  mobility::GpsRecord nan_speed = At(3, 2.0, 0);
  nan_speed.speed_mps = std::numeric_limits<double>::quiet_NaN();
  mobility::GpsRecord nan_t = At(4, 3.0, 0);
  nan_t.t = std::numeric_limits<double>::quiet_NaN();

  for (const auto& r : {nan_lat, inf_lon, nan_speed, nan_t}) Drain(state, {r});
  Drain(state, {At(5, 4.0, 0)});  // one clean record

  const StreamStateCounters& c = state.counters();
  EXPECT_EQ(c.quarantined_non_finite, 4u);
  EXPECT_EQ(c.quarantined(), 4u);
  EXPECT_EQ(c.applied, 1u);
  // Quarantined records never reach the latest-position state.
  EXPECT_EQ(state.num_people_seen(), 1u);
}

TEST_F(StreamStateTest, QuarantinesOutOfBoxWhenBoxConfigured) {
  StreamStateConfig config;
  config.accept_box = city_.box;
  StreamState state(city_.network, *index_, config);

  mobility::GpsRecord inside = At(1, 0.0, 0);
  mobility::GpsRecord outside = At(2, 1.0, 0);
  outside.pos.lat += 90.0;
  Drain(state, {inside});
  Drain(state, {outside});

  EXPECT_EQ(state.counters().applied, 1u);
  EXPECT_EQ(state.counters().quarantined_out_of_box, 1u);
  EXPECT_EQ(state.num_people_seen(), 1u);
}

TEST_F(StreamStateTest, QuarantinesStaleButAcceptsEqualTimestamps) {
  StreamState state(city_.network, *index_);
  Drain(state, {At(1, 100.0, 0)});
  // Strictly older: stale, the newer position survives.
  Drain(state, {At(1, 50.0, 3)});
  EXPECT_EQ(state.counters().quarantined_stale, 1u);
  EXPECT_EQ(state.Snapshot(100.0)[0].t, 100.0);

  // Equal timestamp: overwrite, NOT quarantine — the batch tracker's
  // stable-sort "latest wins" semantics (bit-identity depends on this).
  const mobility::GpsRecord equal_t = At(1, 100.0, 5);
  Drain(state, {equal_t});
  EXPECT_EQ(state.counters().quarantined_stale, 1u);
  EXPECT_EQ(state.counters().applied, 2u);
  const auto& snap = state.Snapshot(100.0);
  EXPECT_EQ(snap[0].pos.lat, equal_t.pos.lat);
  EXPECT_EQ(snap[0].pos.lon, equal_t.pos.lon);
}

TEST_F(StreamStateTest, ValidationOffTrustsInput) {
  StreamStateConfig config;
  config.validate = false;
  config.accept_box = city_.box;
  StreamState state(city_.network, *index_, config);

  mobility::GpsRecord nan_lat = At(1, 0.0, 0);
  nan_lat.pos.lat = std::numeric_limits<double>::quiet_NaN();
  Drain(state, {nan_lat});
  Drain(state, {At(2, 1.0, 0)});
  Drain(state, {At(2, 0.5, 3)});  // out of order, trusted anyway

  EXPECT_EQ(state.counters().quarantined(), 0u);
  EXPECT_EQ(state.counters().applied, 3u);
}

TEST_F(StreamStateTest, ExportRestoreRoundTrip) {
  // Build two states over the same network; run a day through the first,
  // export, restore into the second: snapshots, counters and flow counts
  // must all carry over (this is what crash recovery replays onto).
  const mobility::GpsTrace trace = SyntheticDay();
  for (const int shards : {1, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StreamState original(city_.network, *index_, Tiles(shards));
    Drain(original, trace);

    std::vector<mobility::GpsRecord> latest = original.ExportLatest();
    // ExportLatest is sorted by person (deterministic checkpoint bytes).
    for (std::size_t i = 1; i < latest.size(); ++i) {
      EXPECT_LT(latest[i - 1].person, latest[i].person);
    }
    std::vector<std::pair<std::uint64_t, std::uint32_t>> cells;
    std::vector<std::uint64_t> seen;
    original.ExportFlowState(&cells, &seen);

    StreamState restored(city_.network, *index_, Tiles(shards));
    restored.Restore(latest, original.counters(), cells, seen);

    EXPECT_EQ(restored.num_people_seen(), original.num_people_seen());
    EXPECT_EQ(restored.counters().applied, original.counters().applied);
    const double t = trace.back().t;
    ASSERT_EQ(restored.Snapshot(t).size(), original.Snapshot(t).size());
    for (std::size_t seg = 0; seg < city_.network.num_segments(); ++seg) {
      for (int h = 0; h < 24; ++h) {
        const auto sid = static_cast<roadnet::SegmentId>(seg);
        ASSERT_DOUBLE_EQ(restored.flows().SegmentFlow(sid, h),
                         original.flows().SegmentFlow(sid, h))
            << "seg=" << seg << " hour=" << h;
      }
    }

    // The flow dedup state restored too: re-applying an already-counted
    // record must not double-count anywhere (crash recovery replays records
    // that overlap the checkpoint).
    const int hour = static_cast<int>(trace.back().t / 3600.0);
    std::vector<double> before;
    for (std::size_t seg = 0; seg < city_.network.num_segments(); ++seg) {
      before.push_back(restored.flows().SegmentFlow(
          static_cast<roadnet::SegmentId>(seg), hour));
    }
    Drain(restored, {trace.back()});
    for (std::size_t seg = 0; seg < city_.network.num_segments(); ++seg) {
      EXPECT_DOUBLE_EQ(restored.flows().SegmentFlow(
                           static_cast<roadnet::SegmentId>(seg), hour),
                       before[seg])
          << "seg=" << seg;
    }
  }
}

// --- Drain shapes ------------------------------------------------------------

/// Everything a checkpoint carries, for whole-state comparisons.
struct ExportedState {
  std::vector<mobility::PersonId> people;
  std::vector<double> times;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> cells;
  std::vector<std::uint64_t> seen;
  std::uint64_t applied = 0, matched = 0, unmatched = 0;

  explicit ExportedState(const StreamState& state) {
    for (const mobility::GpsRecord& r : state.ExportLatest()) {
      people.push_back(r.person);
      times.push_back(r.t);
    }
    state.ExportFlowState(&cells, &seen);
    applied = state.counters().applied;
    matched = state.counters().matched;
    unmatched = state.counters().unmatched;
  }
  bool operator==(const ExportedState& o) const {
    return people == o.people && times == o.times && cells == o.cells &&
           seen == o.seen && applied == o.applied && matched == o.matched &&
           unmatched == o.unmatched;
  }
};

TEST_F(StreamStateTest, EmptyDrainsChangeNothing) {
  const mobility::GpsTrace trace = SyntheticDay();
  for (const int shards : {1, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StreamState state(city_.network, *index_, Tiles(shards));
    state.ApplyBatch(nullptr, 0);
    EXPECT_EQ(state.num_people_seen(), 0u);
    EXPECT_EQ(state.counters().applied, 0u);
    EXPECT_TRUE(state.Snapshot(0.0).empty());

    Drain(state, trace);
    const ExportedState before(state);
    state.ApplyBatch(nullptr, 0);
    state.ApplyBatch(trace.data(), 0);
    EXPECT_TRUE(ExportedState(state) == before);
  }
}

TEST_F(StreamStateTest, OneRecordDrainsMatchOneDrain) {
  // However a stream is split into drains, the state ends the same; and
  // every applied record is tallied exactly once as matched or unmatched,
  // agreeing with the batch matcher.
  mobility::GpsTrace trace = SyntheticDay();
  for (std::size_t i = 0; i < trace.size(); i += 4) {
    trace[i].pos.lat += 1.0;  // far off the road network: unmatched
  }
  const mobility::MapMatcher matcher(city_.network, *index_);
  const std::size_t want_matched = matcher.MatchTrace(trace).size();
  ASSERT_GT(want_matched, 0u);
  ASSERT_LT(want_matched, trace.size());

  for (const int shards : {1, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StreamState one_drain(city_.network, *index_, Tiles(shards));
    Drain(one_drain, trace);
    StreamState per_record(city_.network, *index_, Tiles(shards));
    for (const mobility::GpsRecord& r : trace) per_record.ApplyBatch(&r, 1);

    EXPECT_TRUE(ExportedState(per_record) == ExportedState(one_drain));
    for (const StreamState* state : {&one_drain, &per_record}) {
      EXPECT_EQ(state->counters().applied, trace.size());
      EXPECT_EQ(state->counters().matched, want_matched);
      EXPECT_EQ(state->counters().unmatched, trace.size() - want_matched);
    }
  }
}

TEST_F(StreamStateTest, RestoreRejectsCorruptFlowState) {
  StreamState state(city_.network, *index_);
  const std::vector<mobility::GpsRecord> empty_latest;
  const StreamStateCounters counters;

  // Cell index past the dense count table.
  EXPECT_THROW(
      state.Restore(empty_latest, counters, {{1u << 30, 1}}, {}),
      std::runtime_error);
  // Duplicate cell entries.
  EXPECT_THROW(state.Restore(empty_latest, counters, {{3, 1}, {3, 2}}, {}),
               std::runtime_error);
  // Duplicate dedup keys.
  EXPECT_THROW(state.Restore(empty_latest, counters, {}, {7, 7}),
               std::runtime_error);
}

}  // namespace
}  // namespace mobirescue::serve
