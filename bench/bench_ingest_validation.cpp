// Input-validation overhead microbenchmark: the quarantine stage
// (DESIGN.md §13) sits permanently on StreamState::ApplyBatch — the ingest
// hot path — so its cost must stay negligible next to the map-matching work
// each record already pays for. This bench drives the same steady-state
// record stream, one drain of a 64-person ring per op, through
//
//   apply_trusting     StreamState::ApplyBatch with validate=false (the
//                      pre-quarantine behaviour)
//   apply_validating   the production configuration: finiteness checks,
//                      accept-box test and per-person staleness guard
//
// and FAILS (exit 1) if validation adds more than 5% to the per-drain
// cost. `--json PATH [--smoke]` writes mobirescue-bench-v1 JSON; the
// overhead percentage rides in the `size` field. The gate takes the median
// of three interleaved min-of-reps runs (bench::MeasureOverheadMedian); its
// smoke test runs serially (bench/CMakeLists.txt).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "roadnet/city_builder.hpp"
#include "roadnet/spatial_index.hpp"
#include "serve/stream_state.hpp"

using namespace mobirescue;

namespace {

/// A steady-state ingest workload: a fixed ring of people hopping between
/// landmarks, timestamps advancing monotonically so the staleness guard is
/// exercised but never fires (the production steady state — clean input).
class ApplyLoop {
 public:
  ApplyLoop(const roadnet::City& city, const roadnet::SpatialIndex& index,
            serve::StreamStateConfig config)
      : state_(city.network, index, std::move(config)) {
    const std::size_t n = city.network.num_landmarks();
    for (int p = 0; p < 64; ++p) {
      mobility::GpsRecord r;
      r.person = p;
      r.pos = city.network
                  .landmark(static_cast<roadnet::LandmarkId>(
                      (static_cast<std::size_t>(p) * 13) % n))
                  .pos;
      r.speed_mps = 5.0;
      ring_.push_back(r);
    }
  }

  /// One drain: every person in the ring pings once.
  void Step() {
    for (mobility::GpsRecord& r : ring_) r.t = (t_ += 0.5);
    state_.ApplyBatch(ring_.data(), ring_.size());
  }

  const serve::StreamState& state() const { return state_; }

 private:
  serve::StreamState state_;
  std::vector<mobility::GpsRecord> ring_;
  double t_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const double min_time_s = smoke ? 0.05 : 0.5;

  roadnet::CityConfig city_config;
  city_config.grid_width = 8;
  city_config.grid_height = 8;
  const roadnet::City city = roadnet::BuildCity(city_config);
  const roadnet::SpatialIndex index(city.network, city.box);

  serve::StreamStateConfig trusting;
  trusting.validate = false;
  serve::StreamStateConfig validating;  // production defaults
  validating.accept_box = city.box;     // what DispatchService configures

  ApplyLoop plain_loop(city, index, trusting);
  ApplyLoop checked_loop(city, index, validating);
  // Warm both states into steady state (every person present in latest_,
  // flow dedup table populated, scratch buffers at capacity) before
  // measuring.
  for (int i = 0; i < 64; ++i) {
    plain_loop.Step();
    checked_loop.Step();
  }

  // Median of three interleaved min-of-reps runs: within a run both
  // variants see the same clock/thermal state, and the median across runs
  // discards the one a sibling ctest process happened to skew.
  const bench::OverheadMeasurement m = bench::MeasureOverheadMedian(
      [&plain_loop] { plain_loop.Step(); },
      [&checked_loop] { checked_loop.Step(); }, min_time_s);
  const bench::BenchTiming plain = m.baseline;
  const bench::BenchTiming checked = m.subject;
  const double overhead_pct = m.overhead_pct;

  // Sanity: the validating path must not have quarantined anything — this
  // stream is clean, so any quarantine would mean the bench (or the guard)
  // is wrong and the comparison meaningless.
  if (checked_loop.state().counters().quarantined() != 0) {
    std::fprintf(stderr,
                 "FAIL: clean stream quarantined %llu records — bench "
                 "invariant broken\n",
                 static_cast<unsigned long long>(
                     checked_loop.state().counters().quarantined()));
    return 1;
  }

  char dims[64];
  std::snprintf(dims, sizeof(dims),
                "people=64,records_per_op=64,overhead_pct=%.2f", overhead_pct);
  std::vector<bench::BenchRecord> records;
  records.push_back({"apply_trusting", dims, plain.ns_per_op,
                     plain.iterations, 0.0});
  records.push_back({"apply_validating", dims, checked.ns_per_op,
                     checked.iterations, 0.0});

  std::printf("%-20s %14s %12s\n", "op", "ns_per_op", "iterations");
  for (const bench::BenchRecord& r : records) {
    std::printf("%-20s %14.2f %12lld   %s\n", r.op.c_str(), r.ns_per_op,
                static_cast<long long>(r.iterations), r.size.c_str());
  }
  std::printf("validation overhead: %.2f%% (budget 5%%)\n", overhead_pct);

  if (!json_path.empty()) {
    bench::WriteBenchJsonFile(json_path,
                              smoke ? "ingest-validation-smoke"
                                    : "ingest-validation",
                              records);
    std::string error;
    if (!bench::ValidateBenchJsonFile(json_path, &error)) {
      std::fprintf(stderr, "bench JSON failed validation: %s\n",
                   error.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (overhead_pct > 5.0) {
    std::fprintf(stderr,
                 "FAIL: validation makes ApplyBatch %.2f%% slower than "
                 "trusting ingest (budget 5%%)\n",
                 overhead_pct);
    return 1;
  }
  return 0;
}
