// Million-person closed-loop ingest load generator (DESIGN.md §17).
//
// Drives the full streaming ingest path — ShardedIngestQueue::Push, drain,
// apply — at metro scale three times over the *same* record stream:
//
//   per_record_reference  the scalar ingest StreamState used to run per
//                         record: a latest-position map, one
//                         MapMatcher::MatchRecord and one
//                         FlowRateAnalyzer::Ingest per record (clean input,
//                         so no validation)
//   one_tile_state_apply  StreamState::ApplyBatch, config.shards = 1
//                         (cell-grouped SoA nearest-segment scans)
//   sharded_state_apply   StreamState::ApplyBatch, config.shards = 16
//                         (the same, plus per-tile flow analyzers with
//                         small dedup sets)
//
// and reports sustained records/sec for each, the ingest queue's per-shard
// balance (max/mean cumulative accepted) and the drop rate. Both states
// must finish with latest-position and exported-flow bytes equal to the
// reference's — asserted before anything is reported, so a speedup can
// never come from skipped work.
//
// Full mode simulates 1,000,000 people over 10 five-minute reporting
// windows (10M records) and FAILS (exit 1) if the 16-tile state does not
// sustain >= 10x the reference throughput, or if anything was dropped.
// `--json PATH [--smoke]` writes mobirescue-bench-v1 JSON (the committed
// BENCH_scale.json artifact); --smoke shrinks to 2,000 people / 6 windows
// and skips the throughput gate (schema and parity only).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "mobility/flow_rate.hpp"
#include "mobility/map_matcher.hpp"
#include "roadnet/city_builder.hpp"
#include "roadnet/spatial_index.hpp"
#include "serve/ingest_queue.hpp"
#include "serve/stream_state.hpp"

using namespace mobirescue;

namespace {

constexpr int kQueueShards = 16;
constexpr int kStateShards = 16;
constexpr double kWindowSeconds = 300.0;

std::uint64_t SplitMix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double UnitDouble(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// One reporting window's records: every person pings once, position drawn
/// deterministically from (person, window) — identical streams for both
/// passes, per-person timestamps strictly increasing across windows.
void SynthWindow(const util::BoundingBox& box, int people, int window,
                 std::vector<mobility::GpsRecord>& out) {
  out.clear();
  out.reserve(static_cast<std::size_t>(people));
  for (int p = 0; p < people; ++p) {
    const std::uint64_t h = SplitMix64(
        (static_cast<std::uint64_t>(p) << 20) ^ static_cast<std::uint64_t>(window) ^ 0xC0FFEEULL);
    mobility::GpsRecord r;
    r.person = p;
    r.t = window * kWindowSeconds +
          UnitDouble(SplitMix64(h ^ 1)) * (kWindowSeconds - 1.0);
    r.pos = box.At(UnitDouble(h), UnitDouble(SplitMix64(h)));
    r.altitude_m = 20.0 + 50.0 * UnitDouble(SplitMix64(h ^ 2));
    r.speed_mps = 3.0 + 17.0 * UnitDouble(SplitMix64(h ^ 3));
    out.push_back(r);
  }
}

struct LoadRun {
  double seconds = 0.0;          // timed ingest loop (push + drain + apply)
  std::uint64_t records = 0;     // records pushed
  double drop_rate = 0.0;        // dropped / pushed
  double shard_imbalance = 0.0;  // queue max/mean cumulative accepted
};

/// The closed loop: synthesize a window (untimed — identical for every
/// pass), then push it through a fresh sharded queue in capacity-safe
/// chunks, drain, and fold each drained batch into `apply`.
template <typename Apply>
LoadRun RunClosedLoop(const util::BoundingBox& box, int people, int windows,
                      Apply&& apply) {
  serve::IngestQueueConfig qcfg;
  qcfg.num_shards = kQueueShards;
  qcfg.shard_capacity = 8192;
  serve::ShardedIngestQueue queue(qcfg);
  // Chunked so the closed loop never overruns a shard: 64k records over 16
  // shards is ~4k per shard, half the capacity even if ids were lopsided.
  const std::size_t kChunk = 65536;

  LoadRun run;
  std::vector<mobility::GpsRecord> window_buf;
  std::vector<mobility::GpsRecord> drained;
  drained.reserve(kChunk);
  for (int w = 0; w < windows; ++w) {
    SynthWindow(box, people, w, window_buf);
    const auto start = std::chrono::steady_clock::now();
    std::size_t i = 0;
    while (i < window_buf.size()) {
      const std::size_t n = std::min(kChunk, window_buf.size() - i);
      for (std::size_t k = 0; k < n; ++k) queue.Push(window_buf[i + k]);
      drained.clear();
      queue.DrainInto(drained);
      apply(drained.data(), drained.size());
      i += n;
    }
    run.seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    run.records += window_buf.size();
  }
  const serve::IngestCounters c = queue.counters();
  run.drop_rate = c.accepted > 0 ? static_cast<double>(c.dropped) /
                                       static_cast<double>(c.accepted + c.dropped)
                                 : 0.0;
  run.shard_imbalance = queue.ShardImbalance();
  return run;
}

/// What a state must end with: its checkpoint bytes and match tallies.
struct Exported {
  std::vector<mobility::GpsRecord> latest;  // sorted by person
  std::vector<std::pair<std::uint64_t, std::uint32_t>> cells;
  std::vector<std::uint64_t> seen;
  std::uint64_t applied = 0, matched = 0, unmatched = 0;
};

/// The per-record ingest on clean input: each record overwrites its
/// person's latest position, is matched on its own, and (when it snaps to a
/// segment) feeds one process-wide flow analyzer.
class PerRecordReference {
 public:
  PerRecordReference(const roadnet::RoadNetwork& net,
                     const roadnet::SpatialIndex& index,
                     const serve::StreamStateConfig& config)
      : matcher_(net, index, config.match),
        flows_(net, config.flow_total_hours,
               config.moving_speed_threshold_mps) {}

  void Apply(const mobility::GpsRecord* records, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const mobility::GpsRecord& r = records[i];
      latest_[r.person] = r;
      ++out_.applied;
      mobility::MatchedRecord m;
      if (matcher_.MatchRecord(r, &m)) {
        ++out_.matched;
        flows_.Ingest(m);
      } else {
        ++out_.unmatched;
      }
    }
  }

  Exported Export() const {
    Exported out = out_;
    out.latest.reserve(latest_.size());
    for (const auto& [id, rec] : latest_) out.latest.push_back(rec);
    std::sort(out.latest.begin(), out.latest.end(),
              [](const mobility::GpsRecord& a, const mobility::GpsRecord& b) {
                return a.person < b.person;
              });
    flows_.ExportState(&out.cells, &out.seen);
    return out;
  }

 private:
  mobility::MapMatcher matcher_;
  mobility::FlowRateAnalyzer flows_;
  std::unordered_map<mobility::PersonId, mobility::GpsRecord> latest_;
  Exported out_;
};

Exported ExportState(const serve::StreamState& state) {
  Exported out;
  out.latest = state.ExportLatest();
  state.ExportFlowState(&out.cells, &out.seen);
  out.applied = state.counters().applied;
  out.matched = state.counters().matched;
  out.unmatched = state.counters().unmatched;
  return out;
}

/// Bit-identity with the reference; any divergence voids the bench.
bool SameState(const Exported& a, const Exported& b, std::string* why) {
  if (a.latest.size() != b.latest.size()) {
    *why = "latest-position sizes differ";
    return false;
  }
  for (std::size_t i = 0; i < a.latest.size(); ++i) {
    const mobility::GpsRecord& ra = a.latest[i];
    const mobility::GpsRecord& rb = b.latest[i];
    if (ra.person != rb.person || ra.t != rb.t || ra.pos.lat != rb.pos.lat ||
        ra.pos.lon != rb.pos.lon || ra.speed_mps != rb.speed_mps) {
      *why = "latest-position record " + std::to_string(i) + " differs";
      return false;
    }
  }
  if (a.cells != b.cells) {
    *why = "flow cell counts differ";
    return false;
  }
  if (a.seen != b.seen) {
    *why = "flow dedup sets differ";
    return false;
  }
  if (a.applied != b.applied || a.matched != b.matched ||
      a.unmatched != b.unmatched) {
    *why = "stream counters differ";
    return false;
  }
  return true;
}

/// Runs the closed loop through a fresh StreamState with `shards` tiles and
/// checks its final state against the reference's. The state is freed on
/// return, so the passes never hold two million-person states at once.
bool RunState(const roadnet::City& city, const roadnet::SpatialIndex& index,
              serve::StreamStateConfig config, int shards, int people,
              int windows, const Exported& want, LoadRun* run) {
  config.shards = shards;
  serve::StreamState state(city.network, index, config);
  *run = RunClosedLoop(city.box, people, windows,
                       [&state](const mobility::GpsRecord* r, std::size_t n) {
                         state.ApplyBatch(r, n);
                       });
  std::string why;
  if (!SameState(ExportState(state), want, &why)) {
    std::fprintf(stderr,
                 "FAIL: %d-tile state diverged from the per-record "
                 "reference: %s\n",
                 shards, why.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  int people = 1'000'000;
  int windows = 10;
  int grid = 256;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--people") == 0 && i + 1 < argc) {
      people = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--windows") == 0 && i + 1 < argc) {
      windows = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--grid") == 0 && i + 1 < argc) {
      grid = std::atoi(argv[++i]);
    }
  }
  if (smoke) {
    people = 2000;
    windows = 6;
  }

  // Metro-scale world: a 256x256 street grid (~265k directed segments, ~84m
  // blocks — downtown street density, not an arterial skeleton) under the
  // default 64x64-cell index — the same construction DispatchService
  // serves from.
  roadnet::CityConfig city_config;
  city_config.grid_width = grid;
  city_config.grid_height = grid;
  const roadnet::City city = roadnet::BuildCity(city_config);
  const roadnet::SpatialIndex index(city.network, city.box);

  serve::StreamStateConfig config;
  config.accept_box = city.box;

  std::printf("bench_load: %d people x %d windows on a %dx%d city (%zu segments)\n",
              people, windows, city_config.grid_width, city_config.grid_height,
              city.network.num_segments());

  LoadRun reference;
  Exported want;
  {
    PerRecordReference ref(city.network, index, config);
    reference = RunClosedLoop(
        city.box, people, windows,
        [&ref](const mobility::GpsRecord* r, std::size_t n) {
          ref.Apply(r, n);
        });
    want = ref.Export();
  }
  LoadRun one_tile, sharded;
  if (!RunState(city, index, config, 1, people, windows, want, &one_tile) ||
      !RunState(city, index, config, kStateShards, people, windows, want,
                &sharded)) {
    return 1;
  }

  const auto ns_per_record = [](const LoadRun& run) {
    return run.seconds * 1e9 / static_cast<double>(run.records);
  };
  const double reference_ns = ns_per_record(reference);
  const double one_tile_ns = ns_per_record(one_tile);
  const double sharded_ns = ns_per_record(sharded);
  const double one_tile_speedup = reference_ns / one_tile_ns;
  const double speedup = reference_ns / sharded_ns;

  std::printf("%-22s %14s %14s %10s %10s\n", "op", "records/s",
              "ns_per_rec", "imbalance", "drop_rate");
  const auto row = [](const char* op, const LoadRun& run, double ns) {
    std::printf("%-22s %14.0f %14.1f %10.4f %10.6f\n", op, 1e9 / ns, ns,
                run.shard_imbalance, run.drop_rate);
  };
  row("per_record_reference", reference, reference_ns);
  row("one_tile_state_apply", one_tile, one_tile_ns);
  row("sharded_state_apply", sharded, sharded_ns);
  std::printf("speedup vs reference: 1 tile %.2fx, %d tiles %.2fx (gate: "
              ">= 10x at %d tiles, full mode only)\n",
              one_tile_speedup, kStateShards, speedup, kStateShards);
  std::printf("state parity: identical to the reference (latest positions, "
              "flow cells, dedup sets, counters)\n");

  const auto dims = [&](int shards, const LoadRun& run) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "people=%d,windows=%d,shards=%d,imbalance=%.4f,"
                  "drop_rate=%.6f",
                  people, windows, shards, run.shard_imbalance, run.drop_rate);
    return std::string(buf);
  };
  std::vector<bench::BenchRecord> records;
  records.push_back({"per_record_reference", dims(1, reference), reference_ns,
                     static_cast<std::int64_t>(reference.records), 0.0});
  records.push_back({"one_tile_state_apply", dims(1, one_tile), one_tile_ns,
                     static_cast<std::int64_t>(one_tile.records),
                     one_tile_speedup});
  records.push_back({"sharded_state_apply", dims(kStateShards, sharded),
                     sharded_ns, static_cast<std::int64_t>(sharded.records),
                     speedup});

  if (!json_path.empty()) {
    bench::WriteBenchJsonFile(json_path, smoke ? "scale-smoke" : "scale",
                              records);
    std::string error;
    if (!bench::ValidateBenchJsonFile(json_path, &error)) {
      std::fprintf(stderr, "bench JSON failed validation: %s\n",
                   error.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!smoke) {
    for (const LoadRun* run : {&reference, &one_tile, &sharded}) {
      if (run->drop_rate > 0.0) {
        std::fprintf(stderr, "FAIL: closed loop dropped records (%.6f)\n",
                     run->drop_rate);
        return 1;
      }
    }
    if (speedup < 10.0) {
      std::fprintf(stderr,
                   "FAIL: %d-tile ingest sustained only %.2fx the per-record "
                   "reference throughput (gate 10x)\n",
                   kStateShards, speedup);
      return 1;
    }
  }
  return 0;
}
