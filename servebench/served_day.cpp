// Served-day benchmark (servebench/README.md).
//
// Serves one workload through the online dispatch service's public API in
// a closed loop in simulated time — DispatchService::ServeEpisode's shape
// with the producer side made explicit:
//
//   for every dispatch round the simulator surfaces (NextRound):
//     deliver every GPS record due by the round  (IngestBatch)
//     fold it into the streamed state            (AdvanceStateTo)
//     decide                                     (Tick)
//     hand the decision back                     (SubmitDecision)
//
// The next window is delivered only after the decision returns. One
// process, one thread: the producer and the tick loop take turns and the
// StreamState shard workers run inline. Every input is a function of
// --seed; the service only ever sees the generated records and requests.
//
// --trace 0 reports the end-to-end metrics. --trace 1 additionally
// re-executes every decide stage through its public function on the live
// tick's inputs, checks each one bitwise against the live round, reports
// the per-layer metrics and writes a Chrome trace_event file.
//
// The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and a details file with provenance and sample counts goes to --out-dir.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/world.hpp"
#include "dispatch/featurizer.hpp"
#include "dispatch/mobirescue_dispatcher.hpp"
#include "dispatch/simple_dispatchers.hpp"
#include "obs/exposition.hpp"
#include "opt/hungarian.hpp"
#include "serve/dispatch_service.hpp"
#include "serve/fault_injector.hpp"
#include "sim/population_tracker.hpp"
#include "sim/request.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

using namespace mobirescue;

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double Sec(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A change that claims a gain must also show it on this seed, which is
/// never one of the seeds the benchmark or the change is tuned on.
constexpr std::uint64_t kHeldOutSeed = 424242;

/// The injected fault schedule (serve::FaultInjector): the smallest load
/// that keeps ingest_drop_pct and fallback_tick_pct above 0 in every run.
/// One offered record in 1,000 is corrupted, and the primary dispatcher
/// throws on one round in 72 (once per 6 simulated hours) on average.
/// The schedule is fixed: condition set k of every run uses plan seed
/// FaultPlan{}.seed + k, whatever --seed is, so both metrics read how the
/// quarantine stage and the degradation ladder respond to the same faults.
constexpr double kCorruptProb = 0.001;
constexpr double kDecideFailureProb = 1.0 / 72.0;

/// An untraced run serves each condition set kRepeats times and keeps the
/// fastest serving round by round (FastestOf). It serves at least kMinSets
/// sets: the quality metrics, and learning_day's latency, whose work
/// depends on the day's promotions, need distinct days pooled.
constexpr int kRepeats = 2;
constexpr int kMinSets = 2;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// --- Workloads ------------------------------------------------------------

struct Workload {
  std::string name;
  int teams = 100;
  /// Streamed people = the world's generated population x replicas.
  int replicas = 1;
  /// The served window inside the evaluation day.
  double window_start_h = 0.0;
  double window_hours = 24.0;
  bool learn = false;
  /// StreamState region shards and ingest-queue shards (1: the default
  /// single-state service).
  int state_shards = 1;
  /// Wall time of one served window on a 4-vCPU Xeon VM: a run serves as
  /// many condition sets, kRepeats times each, as fit in --seconds, and
  /// at least kMinSets.
  double window_seconds = 1.0;
};

/// Each workload changes one factor of the paper's Section V-B setting
/// (24x24 city, 2,000 people, 100 teams of capacity 5, 5-minute ticks,
/// frozen policy) and holds the rest; README.md says why each exists.
std::optional<Workload> FindWorkload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "storm_day") {
    w.window_seconds = 2.1;
  } else if (name == "learning_day") {
    w.learn = true;
    w.window_seconds = 4.2;
  } else if (name == "big_fleet") {
    w.teams = 300;
    w.window_start_h = 5.0;
    w.window_hours = 6.0;
    w.window_seconds = 2.3;
  } else if (name == "metro_crowd") {
    w.replicas = 25;
    w.state_shards = 16;
    w.window_start_h = 5.0;
    w.window_hours = 6.0;
    w.window_seconds = 3.2;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    // Same code paths on the small test world (250 people, 20 teams),
    // over its whole eval day so the window has requests.
    w.teams = w.teams > 100 ? 60 : 20;
    w.replicas = std::min(w.replicas, 20);
    w.window_start_h = 0.0;
    w.window_hours = 24.0;
  }
  return w;
}

core::WorldConfig MakeWorldConfig(bool smoke) {
  core::WorldConfig config = smoke ? core::WorldConfig::Small()
                                   : core::WorldConfig{};
  if (!smoke) config.trace.population.num_people = 2000;
  return config;
}

// --- Inputs ---------------------------------------------------------------

/// The paper world's requests and GPS records inside the workload's window,
/// shared by every window a run serves. The world, and with it the
/// population, its storm movements and its requests, is the same in every
/// run, so the trained models and the quality metrics stay comparable from
/// seed to seed.
struct Window {
  /// Scenario time of the window start (the service's day offset).
  double offset_s = 0.0;
  std::vector<sim::Request> requests;
  /// Every person's records in time order, replayed under `replicas`
  /// distinct person ids.
  mobility::GpsTrace records;
  std::size_t people = 0;
};

/// One served window's conditions: the fault schedule, the offered stream
/// it produces, and where the fleet starts (drawn from the seed).
struct Conditions {
  serve::FaultPlan faults;
  /// The offered stream in delivery (time) order, faults applied.
  mobility::GpsTrace offered;
  /// The offered records quarantine keeps: the batch replay's trace.
  mobility::GpsTrace kept;
  sim::SimConfig sim;
};

/// Load generation, excluded from every timed call.
Window MakeWindow(const core::World& world, const Workload& w) {
  Window window;
  const double day_start = world.eval.spec.eval_day * util::kSecondsPerDay;
  const double begin = day_start + w.window_start_h * util::kSecondsPerHour;
  const double end = begin + w.window_hours * util::kSecondsPerHour;
  window.offset_s = begin;

  for (const mobility::RescueEvent& ev : world.eval.trace.rescues) {
    if (ev.request_time < begin || ev.request_time >= end) continue;
    if (ev.request_segment == roadnet::kInvalidSegment) continue;
    sim::Request r;
    r.id = static_cast<int>(window.requests.size());
    r.person = ev.person;
    r.appear_time = ev.request_time - begin;
    r.segment = ev.request_segment;
    r.pos = ev.request_pos;
    r.region = ev.region;
    window.requests.push_back(r);
  }

  mobility::GpsTrace base;
  mobility::PersonId stride = 0;
  for (const mobility::GpsRecord& r : world.eval.trace.records) {
    stride = std::max(stride, static_cast<mobility::PersonId>(r.person + 1));
    if (r.t < begin || r.t >= end) continue;
    mobility::GpsRecord copy = r;
    copy.t -= begin;
    base.push_back(copy);
  }
  std::stable_sort(base.begin(), base.end(),
                   [](const mobility::GpsRecord& a,
                      const mobility::GpsRecord& b) { return a.t < b.t; });
  window.records.reserve(base.size() * static_cast<std::size_t>(w.replicas));
  for (const mobility::GpsRecord& r : base) {
    for (int k = 0; k < w.replicas; ++k) {
      mobility::GpsRecord copy = r;
      copy.person = r.person + k * stride;
      window.records.push_back(copy);
    }
  }
  window.people = world.eval.trace.population.size() *
                  static_cast<std::size_t>(w.replicas);
  return window;
}

/// Load generation, excluded from every timed call.
Conditions MakeConditions(const Window& window, const Workload& w,
                          std::uint64_t seed, int set_index,
                          const util::BoundingBox& city_box) {
  Conditions c;
  c.faults.seed =
      serve::FaultPlan{}.seed + static_cast<std::uint64_t>(set_index);
  c.faults.corrupt_prob = kCorruptProb;
  c.faults.decide_failure_prob = kDecideFailureProb;
  // No delays or reorders: the deliveries keep the records' time order.
  serve::FaultInjector faults(c.faults);
  c.offered.reserve(window.records.size());
  c.kept.reserve(window.records.size());
  for (const serve::TimedDelivery& d : faults.PlanDeliveries(window.records)) {
    if (city_box.Contains(d.record.pos)) c.kept.push_back(d.record);
    c.offered.push_back(d.record);
  }
  c.sim.num_teams = w.teams;
  c.sim.horizon_s = w.window_hours * util::kSecondsPerHour;
  c.sim.seed = Mix(seed, 4);
  return c;
}

/// The fallback schedule DispatchService's degradation ladder follows
/// under a fault plan: a round whose Decide the plan fails and the
/// `cooldown` rounds after it are decided by the greedy fallback. Its own
/// injector asks the plan the same questions the service's chaos hook does.
class LadderMirror {
 public:
  LadderMirror(const serve::FaultPlan& plan, int cooldown)
      : faults_(plan), cooldown_(cooldown) {}

  /// Advances one round; true when the fallback decides it.
  bool NextRoundIsFallback(util::SimTime now) {
    if (remaining_ > 0) {
      --remaining_;
      return true;
    }
    if (faults_.ShouldFailDecide(now)) {
      remaining_ = cooldown_;
      return true;
    }
    return false;
  }

 private:
  serve::FaultInjector faults_;
  int cooldown_;
  int remaining_ = 0;
};

/// The batch replay's dispatcher: the primary dispatcher behind the same
/// fallback schedule the service's ladder produced.
class LadderReplayDispatcher : public sim::Dispatcher {
 public:
  LadderReplayDispatcher(sim::Dispatcher& primary, const roadnet::City& city,
                         const serve::FaultPlan& faults, int cooldown)
      : primary_(primary), fallback_(city), ladder_(faults, cooldown) {}

  std::string name() const override { return "ladder-replay"; }
  sim::DispatchDecision Decide(const sim::DispatchContext& context) override {
    if (ladder_.NextRoundIsFallback(context.now)) {
      return fallback_.Decide(context);
    }
    return primary_.Decide(context);
  }
  void OnRoundComplete(const sim::DispatchContext& after) override {
    primary_.OnRoundComplete(after);
  }

 private:
  sim::Dispatcher& primary_;
  dispatch::GreedyNearestDispatcher fallback_;
  LadderMirror ladder_;
};

// --- Spans ----------------------------------------------------------------

/// One Chrome-trace track per layer (module name).
enum Track {
  kTick, kServe, kPredict, kDispatch, kRl, kOpt, kSim, kLearn, kTracks
};
const char* const kTrackNames[kTracks] = {"tick",     "serve", "predict",
                                          "dispatch", "rl",    "opt",
                                          "sim",      "learn"};

struct Span {
  const char* name = "";
  Track track = kTick;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
  std::uint64_t tick = 0;
  Clock::time_point start, end;
};

/// Spans held in memory and written once, when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  std::uint64_t Add(const char* name, Track track, std::uint64_t parent,
                    std::uint64_t tick, Clock::time_point start,
                    Clock::time_point end) {
    spans_.push_back({name, track, spans_.size() + 1, parent, tick, start,
                      end});
    return spans_.back().id;
  }
  /// Re-times a span recorded before its end was known.
  void Close(std::uint64_t id, Clock::time_point end) {
    spans_[id - 1].end = end;
  }
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace_event JSON: X events with their span id, parent, tick
  /// and self time (duration minus the union of its children) in args.
  void WriteChrome(const std::string& path) const {
    std::vector<std::vector<std::size_t>> children(spans_.size() + 1);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      children[spans_[i].parent].push_back(i);
    }
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (int t = 0; t < kTracks; ++t) {
      out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
             "\"tid\": "
          << t + 1 << ", \"args\": {\"name\": \"" << kTrackNames[t]
          << "\"}},\n";
    }
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts = std::chrono::duration<double, std::micro>(
                            s.start - epoch_).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"id\": %llu, \"parent\": %llu, "
                    "\"tick\": %llu, \"self_us\": %.3f}}%s\n",
                    s.name, kTrackNames[s.track], s.track + 1, ts, dur,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.tick),
                    SelfUs(s, children[s.id]),
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("failed writing " + path);
  }

 private:
  double SelfUs(const Span& s, const std::vector<std::size_t>& kids) const {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (const std::size_t k : kids) {
      const auto a = std::max(spans_[k].start, s.start);
      const auto b = std::min(spans_[k].end, s.end);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    Clock::duration covered{0};
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : cover) {
      const auto from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    return std::chrono::duration<double, std::micro>(s.end - s.start -
                                                     covered).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// --- Per-layer accumulators ---------------------------------------------

struct Layers {
  std::vector<double> predict_ms, prepare_ms, featurize_ms, score_ms,
      assign_ms, other_ms, learn_ms, uncovered_pct, sim_ms;
  std::uint64_t predict_people = 0, candidates = 0, feature_rows = 0,
                score_rows = 0, assign_rows = 0, assign_cols = 0;
  roadnet::RouterCacheStats tree_cache;
};

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
    std::fprintf(stderr, "servebench: check failed: %s\n", what.c_str());
  }
};

template <typename T>
bool BitwiseEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// --- Stage re-execution -------------------------------------------------

/// Re-executes the decide stages of one live primary tick through their
/// public functions, on a featurizer the benchmark owns (built with the
/// service's config, so its tree cache sees the same rounds), and checks
/// each stage bitwise against what the live round produced.
class StageReplayer {
 public:
  StageReplayer(const core::World& world,
                const predict::SvmRequestPredictor& svm, double offset_s)
      : world_(world),
        svm_(svm),
        offset_s_(offset_s),
        config_(),
        featurizer_(*world.city, config_.featurizer) {}

  /// `scorer` holds the Q-network the live decision used.
  void Replay(std::uint64_t tick, const sim::DispatchContext& ctx,
              const serve::DispatchService& service,
              const dispatch::MobiRescueDispatcher& mr,
              const rl::DqnAgent& scorer, SpanLog& spans,
              std::uint64_t parent, Layers& layers, Checks& checks,
              double* stages_ms) {
    const std::string at = " (tick " + std::to_string(tick) + ")";
    *stages_ms = 0.0;
    if (mr.prediction_refreshed_at() == ctx.now) {
      const std::vector<mobility::GpsRecord> snapshot =
          service.state().ExportLatest();
      const auto p0 = Clock::now();
      const predict::Distribution dist = svm_.PredictDistribution(
          snapshot, ctx.now, offset_s_, *world_.index);
      const auto p1 = Clock::now();
      spans.Add("predict.refresh", kPredict, parent, tick, p0, p1);
      layers.predict_ms.push_back(Ms(p0, p1));
      layers.predict_people += snapshot.size();
      *stages_ms += Ms(p0, p1);
      checks.Expect(dist == mr.predicted_distribution(),
                    "predict: distribution differs from the live refresh" + at);
    }

    predict::Distribution demand = mr.predicted_distribution();
    std::vector<roadnet::SegmentId> pending_segments;
    for (const sim::RequestView& r : ctx.pending) {
      demand[r.segment] += 4;
      pending_segments.push_back(r.segment);
    }
    const auto q0 = Clock::now();
    const dispatch::RoundData round =
        featurizer_.PrepareRound(demand, *ctx.condition, pending_segments);
    const auto q1 = Clock::now();
    spans.Add("dispatch.prepare", kDispatch, parent, tick, q0, q1);
    layers.prepare_ms.push_back(Ms(q0, q1));
    layers.candidates += round.candidates.size();
    *stages_ms += Ms(q0, q1);

    const dispatch::RoundCapture& live = mr.last_capture();
    std::vector<std::size_t> rows;
    for (std::size_t k = 0; k < ctx.teams.size(); ++k) {
      if (ctx.teams[k].mode == sim::TeamMode::kIdle ||
          ctx.teams[k].mode == sim::TeamMode::kToDepot) {
        rows.push_back(k);
      }
    }
    const bool scored = !rows.empty() && !round.candidates.empty();
    checks.Expect(scored == live.valid,
                  "prepare: scored-round verdict differs" + at);
    if (!scored || !live.valid) return;
    checks.Expect(round.candidates == live.candidates,
                  "prepare: candidates differ" + at);
    checks.Expect(rows == live.rows, "featurize: decidable rows differ" + at);

    // Featurize exactly as the live round laid its rows out.
    const auto f0 = Clock::now();
    std::vector<std::vector<double>> features;
    std::vector<std::size_t> team_begin(rows.size());
    std::vector<std::vector<std::size_t>> cand_row(
        rows.size(),
        std::vector<std::size_t>(round.candidates.size(), SIZE_MAX));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const sim::TeamView& team = ctx.teams[rows[r]];
      team_begin[r] = features.size();
      features.push_back(featurizer_.Features(
          round, team, round.candidates.size(), &ctx.teams));
      for (std::size_t i = 0; i < round.candidates.size(); ++i) {
        if (!round.trees[i]->Reachable(team.at)) continue;
        cand_row[r][i] = features.size();
        features.push_back(featurizer_.Features(round, team, i, &ctx.teams));
      }
    }
    const auto f1 = Clock::now();
    spans.Add("dispatch.featurize", kDispatch, parent, tick, f0, f1);
    layers.featurize_ms.push_back(Ms(f0, f1));
    layers.feature_rows += features.size();
    *stages_ms += Ms(f0, f1);
    bool rows_equal = team_begin == live.team_begin &&
                      cand_row == live.cand_row &&
                      features.size() == live.feature_rows.size();
    for (std::size_t i = 0; rows_equal && i < features.size(); ++i) {
      rows_equal = BitwiseEqual(features[i], live.feature_rows[i]);
    }
    checks.Expect(rows_equal, "featurize: feature rows differ" + at);

    const auto s0 = Clock::now();
    const std::vector<double> qs = scorer.QValues(features);
    const auto s1 = Clock::now();
    spans.Add("rl.score", kRl, parent, tick, s0, s1);
    layers.score_ms.push_back(Ms(s0, s1));
    layers.score_rows += features.size();
    *stages_ms += Ms(s0, s1);
    checks.Expect(BitwiseEqual(qs, live.live_q),
                  "score: Q-values differ" + at);

    // The assignment tail of MobiRescueDispatcher::DecideByAssignment.
    std::vector<std::size_t> columns;
    for (std::size_t i = 0; i < round.candidates.size(); ++i) {
      int copies = 1;
      const auto it = round.demand.find(round.candidates[i]);
      if (it != round.demand.end() && it->second > 5) {
        copies = std::min(3, (it->second + 4) / 5);
      }
      for (int c = 0; c < copies; ++c) columns.push_back(i);
    }
    checks.Expect(columns == live.columns,
                  "assign: assignment columns differ" + at);
    const double prior = config_.prior_weight;
    opt::AssignmentProblem problem;
    problem.rows = rows.size();
    problem.cols = columns.size();
    problem.cost.assign(problem.rows * problem.cols, opt::kForbiddenCost);
    std::vector<std::vector<double>> margin(
        rows.size(), std::vector<double>(columns.size()));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const double depot =
          prior * dispatch::MobiRescueDispatcher::HeuristicPrior(
                      features[team_begin[r]]) +
          qs[team_begin[r]];
      for (std::size_t c = 0; c < columns.size(); ++c) {
        const std::size_t row = cand_row[r][columns[c]];
        double m = -std::numeric_limits<double>::infinity();
        if (row != SIZE_MAX) {
          m = prior * dispatch::MobiRescueDispatcher::HeuristicPrior(
                          features[row]) +
              qs[row] - depot;
        }
        margin[r][c] = m;
        if (std::isfinite(m)) problem.at(r, c) = -m;
      }
    }
    const auto a0 = Clock::now();
    const opt::AssignmentResult result = opt::SolveAssignment(problem);
    const auto a1 = Clock::now();
    spans.Add("opt.assign", kOpt, parent, tick, a0, a1);
    layers.assign_ms.push_back(Ms(a0, a1));
    layers.assign_rows += problem.rows;
    layers.assign_cols += problem.cols;
    *stages_ms += Ms(a0, a1);
    bool actions_equal = live.live_actions.size() == rows.size();
    for (std::size_t r = 0; actions_equal && r < rows.size(); ++r) {
      const int col = result.row_to_col[r];
      const sim::TeamAction& a = live.live_actions[r];
      if (col >= 0 && margin[r][static_cast<std::size_t>(col)] > 0.0) {
        actions_equal =
            a.kind == sim::ActionKind::kGoto &&
            a.target ==
                round.candidates[columns[static_cast<std::size_t>(col)]];
      } else {
        actions_equal = a.kind == sim::ActionKind::kKeep;
      }
    }
    checks.Expect(actions_equal, "assign: team actions differ" + at);
  }

  roadnet::RouterCacheStats tree_cache() const {
    return featurizer_.router().cache_stats();
  }

 private:
  const core::World& world_;
  const predict::SvmRequestPredictor& svm_;
  double offset_s_;
  dispatch::MobiRescueConfig config_;
  dispatch::DispatchFeaturizer featurizer_;
};

// --- Serving --------------------------------------------------------------

struct Env {
  core::World world;
  std::unique_ptr<predict::SvmRequestPredictor> svm;
  std::shared_ptr<rl::DqnAgent> agent;
  Window window;
};

struct RepResult {
  Clock::time_point service_built;
  sim::MetricsCollector metrics{24};
  std::vector<double> latency_ms;  // per tick: AdvanceStateTo + Tick
  std::vector<double> drain_ms;
  /// Per round, NextRound + IngestBatch + drain + Tick + SubmitDecision,
  /// and IngestBatch + drain alone; the last entry is the closing
  /// NextRound and the flush after the last round.
  std::vector<double> round_ms;
  std::vector<double> io_ms;
  double serve_s = 0.0;   // sum of round_ms, in seconds
  double ingest_s = 0.0;  // IngestBatch calls
  double drain_s = 0.0;   // AdvanceStateTo calls
  std::uint64_t offered = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t mirror_fallback_ticks = 0;
  serve::ServiceMetrics service;
};

std::shared_ptr<rl::DqnAgent> CloneAgent(const rl::DqnAgent& trained) {
  auto clone = std::make_shared<rl::DqnAgent>(trained.config());
  clone->LoadWeights(trained.SaveWeights());
  clone->LoadTargetWeights(trained.SaveTargetWeights());
  return clone;
}

double LearnHistogramSumMs() {
  for (const obs::MetricSnapshot& m : obs::Registry::Global().Snapshot()) {
    if (m.name == "serve_tick_learn_ms") return m.histogram.sum;
  }
  return 0.0;
}

/// Serves the workload's window once. With `spans` set the tick is traced:
/// round capture on, every stage re-executed and checked, spans recorded.
RepResult ServeWindow(const Env& env, const Workload& w,
                      const Conditions& cond, SpanLog* spans,
                      std::uint64_t* tick_counter, Layers& layers,
                      Checks& checks) {
  const core::World& world = env.world;
  const Window& in = env.window;
  RepResult rep;
  // Promotions hot-swap weights into the live agent: each learning window
  // starts from its own copy of the trained policy.
  std::shared_ptr<rl::DqnAgent> agent =
      w.learn ? CloneAgent(*env.agent) : env.agent;

  serve::ServiceConfig config;
  config.queue.num_shards = w.state_shards > 1 ? 16 : 8;
  config.queue.shard_capacity = 1 << 16;
  config.state.shards = w.state_shards;
  config.state.shard_workers = 0;
  config.learn.enabled = w.learn;
  serve::FaultInjector faults(cond.faults);
  config.decide_chaos = [&faults](util::SimTime now) {
    if (faults.ShouldFailDecide(now)) {
      throw std::runtime_error("injected decide failure");
    }
  };
  serve::DispatchService service(*world.city, *world.index, *env.svm, agent,
                                 in.offset_s, config);
  rep.service_built = Clock::now();
  auto& mr = dynamic_cast<dispatch::MobiRescueDispatcher&>(
      service.dispatcher());
  std::optional<StageReplayer> replayer;
  std::optional<rl::DqnAgent> pre_tick_scorer;
  if (spans != nullptr) {
    mr.EnableRoundCapture(true);
    replayer.emplace(world, *env.svm, in.offset_s);
  }
  LadderMirror ladder(cond.faults, config.degraded_cooldown_ticks);

  sim::RescueSimulator simulator(*world.city, *world.eval.flood, in.requests,
                                 in.offset_s, cond.sim);
  std::vector<mobility::GpsRecord> window;
  std::size_t next = 0;
  sim::DispatchContext ctx;
  for (;;) {
    const auto n0 = Clock::now();
    const bool more = simulator.NextRound(service.dispatcher(), &ctx);
    const auto n1 = Clock::now();
    if (!more) {
      rep.round_ms.push_back(Ms(n0, n1));
      break;
    }
    const std::uint64_t tick = ++*tick_counter;

    window.clear();
    while (next < cond.offered.size() && cond.offered[next].t <= ctx.now) {
      window.push_back(cond.offered[next++]);
    }
    rep.offered += window.size();
    const bool fallback = ladder.NextRoundIsFallback(ctx.now);
    if (fallback) ++rep.mirror_fallback_ticks;
    std::vector<double> weights_before;
    double learn_before = 0.0;
    std::uint64_t swaps_before = 0;
    if (spans != nullptr && w.learn) {
      weights_before = agent->SaveWeights();
      learn_before = LearnHistogramSumMs();
      const learn::LearnMetrics lm = service.learner()->metrics();
      swaps_before = lm.promotions + lm.rollbacks;
    }

    const auto i0 = Clock::now();
    service.IngestBatch(window);
    const auto i1 = Clock::now();
    service.AdvanceStateTo(ctx.now);
    const auto d1 = Clock::now();
    sim::DispatchDecision decision = service.Tick(ctx);
    const auto t1 = Clock::now();

    rep.ingest_s += Sec(i0, i1);
    rep.drain_s += Sec(i1, d1);
    rep.io_ms.push_back(Ms(i0, d1));
    rep.drain_ms.push_back(Ms(i1, d1));
    rep.latency_ms.push_back(Ms(i1, t1));

    std::uint64_t root = 0;
    if (spans != nullptr) {
      root = spans->Add("tick", kTick, 0, tick, n0, t1);
      spans->Add("sim.next_round", kSim, root, tick, n0, n1);
      spans->Add("serve.ingest", kServe, root, tick, i0, i1);
      spans->Add("serve.drain", kServe, root, tick, i1, d1);
      const std::uint64_t tick_span =
          spans->Add("serve.tick", kServe, root, tick, d1, t1);
      double learn_ms = 0.0;
      if (w.learn) {
        // The learner runs last inside Tick, after the decision exists;
        // its duration is the service's own serve_tick_learn_ms sample.
        learn_ms = LearnHistogramSumMs() - learn_before;
        layers.learn_ms.push_back(learn_ms);
        const auto learn_dur =
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(learn_ms));
        spans->Add("learn.tick", kLearn, tick_span, tick, t1 - learn_dur, t1);
      }
      if (!fallback) {
        const rl::DqnAgent* scorer = agent.get();
        const learn::LearnMetrics lm =
            w.learn ? service.learner()->metrics() : learn::LearnMetrics{};
        if (w.learn && lm.promotions + lm.rollbacks != swaps_before) {
          // A promotion or rollback swapped the live weights after this
          // tick's decision: score with the weights the decision used.
          if (!pre_tick_scorer) pre_tick_scorer.emplace(agent->config());
          pre_tick_scorer->LoadWeights(weights_before);
          scorer = &*pre_tick_scorer;
        }
        const auto r0 = Clock::now();
        const std::uint64_t replay =
            spans->Add("dispatch.replay", kDispatch, root, tick, r0, r0);
        double stages_ms = 0.0;
        replayer->Replay(tick, ctx, service, mr, *scorer, *spans, replay,
                         layers, checks, &stages_ms);
        spans->Close(replay, Clock::now());
        const double decide_ms = Ms(d1, t1) - learn_ms;
        layers.other_ms.push_back(decide_ms - stages_ms);
        const double latency = Ms(i1, t1);
        layers.uncovered_pct.push_back(
            100.0 * (latency - Ms(i1, d1) - learn_ms - stages_ms) / latency);
      }
    }

    const auto u0 = Clock::now();
    simulator.SubmitDecision(std::move(decision));
    const auto u1 = Clock::now();
    rep.round_ms.push_back(Ms(n0, n1) + Ms(i0, t1) + Ms(u0, u1));
    if (spans != nullptr) {
      spans->Add("sim.submit", kSim, root, tick, u0, u1);
      spans->Close(root, u1);
      layers.sim_ms.push_back(Ms(n0, n1) + Ms(u0, u1));
    }
  }
  // Flush records due after the last round, as ServeEpisode does.
  window.clear();
  for (; next < cond.offered.size(); ++next) {
    window.push_back(cond.offered[next]);
  }
  rep.offered += window.size();
  const auto f0 = Clock::now();
  service.IngestBatch(window);
  const auto f1 = Clock::now();
  service.AdvanceStateTo(simulator.now());
  const auto f2 = Clock::now();
  rep.ingest_s += Sec(f0, f1);
  rep.drain_s += Sec(f1, f2);
  rep.io_ms.push_back(Ms(f0, f2));
  rep.round_ms.back() += Ms(f0, f2);
  rep.serve_s =
      std::accumulate(rep.round_ms.begin(), rep.round_ms.end(), 0.0) / 1e3;

  rep.metrics = simulator.metrics();
  rep.sim_events = simulator.events_scheduled_total();
  rep.service = service.metrics();
  if (replayer) layers.tree_cache = replayer->tree_cache();
  checks.Expect(rep.service.fallback_ticks == rep.mirror_fallback_ticks,
                "ladder: service fallback ticks " +
                    std::to_string(rep.service.fallback_ticks) +
                    " != scheduled " +
                    std::to_string(rep.mirror_fallback_ticks));
  return rep;
}

bool SameOutcome(const sim::MetricsCollector& a,
                 const sim::MetricsCollector& b) {
  return a.total_served() == b.total_served() &&
         a.total_timely() == b.total_timely() &&
         BitwiseEqual(a.delay_samples(), b.delay_samples()) &&
         BitwiseEqual(a.timeliness_samples(), b.timeliness_samples());
}

/// The frozen-policy oracle: the same window replayed in batch —
/// PopulationTracker over the records quarantine kept, the MobiRescue
/// dispatcher behind the same fallback schedule, RescueSimulator::Run.
sim::MetricsCollector BatchReplay(const Env& env, const Conditions& cond) {
  const core::World& world = env.world;
  sim::PopulationTracker tracker(cond.kept);
  dispatch::MobiRescueDispatcher mr(*world.city, *env.svm, tracker,
                                    *world.index, env.agent,
                                    env.window.offset_s);
  LadderReplayDispatcher replay(
      mr, *world.city, cond.faults,
      serve::ServiceConfig{}.degraded_cooldown_ticks);
  sim::RescueSimulator simulator(*world.city, *world.eval.flood,
                                 env.window.requests, env.window.offset_s,
                                 cond.sim);
  return simulator.Run(replay);
}

/// Runs the batch replays of every condition set side by side, after the
/// timed serving is over. Episodes share only read-only state (world,
/// predictor, the frozen agent's const Q pass), as in core::RunMethods.
std::vector<sim::MetricsCollector> BatchReplays(
    const Env& env, const std::vector<Conditions>& conds) {
  std::vector<sim::MetricsCollector> out(conds.size());
  std::vector<std::exception_ptr> errors(conds.size());
  const std::size_t workers =
      std::max(2u, std::thread::hardware_concurrency()) - 1;
  for (std::size_t begin = 0; begin < conds.size(); begin += workers) {
    std::vector<std::thread> threads;
    for (std::size_t i = begin; i < std::min(conds.size(), begin + workers);
         ++i) {
      threads.emplace_back([&, i] {
        try {
          out[i] = BatchReplay(env, conds[i]);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

// --- Statistics and output ------------------------------------------------

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Element-wise minimum over servings of one condition set. The servings
/// do the same work round for round, so the minimum keeps what the code
/// needs and drops most of the bursts a shared machine adds to single
/// rounds (on the reference VM, the middle half of a window's rounds
/// moved by -10%..+30% between two servings of the same window).
std::vector<double> FastestOf(
    const std::vector<const std::vector<double>*>& servings) {
  std::vector<double> out = *servings.front();
  for (const std::vector<double>* s : servings) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::min(out[i], (*s)[i]);
    }
  }
  return out;
}

/// The highest percentile that leaves at least ten samples beyond it:
/// the 11th-largest sample. Returns {value, percentile}.
std::pair<double, double> Tail(std::vector<double> xs) {
  if (xs.empty()) return {0.0, 0.0};
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n <= 10) return {xs.back(), 100.0};
  return {xs[n - 11], 100.0 * static_cast<double>(n - 10) /
                          static_cast<double>(n)};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/servebench/results";
  std::string git_sha = "unavailable";
  std::string source_digest = "unavailable";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

int Run(const Args& args, Clock::time_point process_start) {
  const std::optional<Workload> found = FindWorkload(args.workload, args.smoke);
  if (!found) {
    std::fprintf(stderr, "servebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  // Set-up: world, SVM, DQN with the paper's TrainingConfig.
  Env env;
  const auto w0 = Clock::now();
  env.world = core::BuildWorld(MakeWorldConfig(args.smoke));
  const auto w1 = Clock::now();
  env.svm = core::TrainSvmPredictor(env.world);
  const auto w2 = Clock::now();
  core::TrainingConfig training;
  if (args.smoke) {
    training.episodes = 1;
    training.sim.num_teams = 20;
  }
  env.agent = core::TrainAgent(env.world, *env.svm, training);
  const auto w3 = Clock::now();
  env.window = MakeWindow(env.world, w);

  // A run serves `sets` condition sets. Untraced, each set is served
  // kRepeats times, the repeats interleaved, and every timing is the
  // fastest of the repeats round by round. Traced, up to two sets are
  // served twice each, untraced then traced, so the tracing overhead
  // compares equal inputs inside one process.
  const int sets =
      args.smoke ? 1
                 : std::max(kMinSets,
                            static_cast<int>(args.seconds /
                                             (kRepeats * w.window_seconds)));
  struct Serving {
    int set;
    bool traced;
  };
  std::vector<Serving> plan;
  if (args.trace) {
    for (int k = 0; k < std::min(sets, 2); ++k) {
      plan.push_back({k, false});
      plan.push_back({k, true});
    }
  } else {
    for (int r = 0; r < kRepeats; ++r) {
      for (int k = 0; k < sets; ++k) plan.push_back({k, false});
    }
  }
  const int served_sets = args.trace ? std::min(sets, 2) : sets;
  std::vector<Conditions> conds;
  for (int k = 0; k < served_sets; ++k) {
    conds.push_back(MakeConditions(env.window, w, Mix(args.seed, 100 + k), k,
                                   env.world.city->box));
  }
  const double loadgen_s = Sec(w3, Clock::now());

  Checks checks;
  Layers layers;
  SpanLog spans(process_start);
  std::uint64_t tick_counter = 0;
  std::vector<RepResult> reps;
  std::vector<double> untraced_latency, traced_latency;
  // Count metrics come from the first traced serving alone.
  Layers first_traced;
  std::optional<std::size_t> first_traced_rep;
  std::vector<std::vector<std::size_t>> servings_of(served_sets);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto [set, traced] = plan[i];
    reps.push_back(ServeWindow(env, w, conds[set], traced ? &spans : nullptr,
                               &tick_counter, layers, checks));
    if (traced && !first_traced_rep) {
      first_traced = layers;
      first_traced_rep = i;
    }
    auto& sink = traced ? traced_latency : untraced_latency;
    sink.insert(sink.end(), reps.back().latency_ms.begin(),
                reps.back().latency_ms.end());
    std::vector<std::size_t>& same = servings_of[set];
    if (!same.empty()) {
      const RepResult& first = reps[same.front()];
      checks.Expect(SameOutcome(reps.back().metrics, first.metrics) &&
                        reps.back().round_ms.size() == first.round_ms.size(),
                    "serving " + std::to_string(i) + " of condition set " +
                        std::to_string(set) +
                        " served a different day than its first serving");
    }
    same.push_back(i);
  }
  const double setup_s =
      Sec(process_start, reps.front().service_built) - loadgen_s;
  // Before the batch replays: the serving process's own peak.
  const double peak_rss_mb = PeakRssMb();

  checks.Expect(!env.window.requests.empty(),
                "the served window has no rescue requests");
  if (!w.learn) {
    const std::vector<sim::MetricsCollector> batch = BatchReplays(env, conds);
    for (std::size_t k = 0; k < reps.size(); ++k) {
      const sim::MetricsCollector& b = batch[plan[k].set];
      checks.Expect(SameOutcome(reps[k].metrics, b),
                    "serving " + std::to_string(k) +
                        ": streamed served/timely/delay samples differ from "
                        "the batch RescueSimulator::Run replay (streamed " +
                        std::to_string(reps[k].metrics.total_served()) +
                        " served, batch " + std::to_string(b.total_served()) +
                        ")");
    }
  }

  std::vector<Metric> metrics;
  std::string trace_path;
  double tail_percentile = 0.0;
  if (!args.trace) {
    std::vector<double> latency, serve_s;
    double applied = 0.0, io_s = 0.0, served = 0.0, timely = 0.0,
           serving = 0.0, lost = 0.0, offered = 0.0, fallback = 0.0,
           ticks = 0.0;
    const int hours = static_cast<int>(std::ceil(w.window_hours));
    for (const std::vector<std::size_t>& same : servings_of) {
      std::vector<const std::vector<double>*> lat, round, io;
      for (const std::size_t i : same) {
        lat.push_back(&reps[i].latency_ms);
        round.push_back(&reps[i].round_ms);
        io.push_back(&reps[i].io_ms);
      }
      const std::vector<double> fastest = FastestOf(lat);
      latency.insert(latency.end(), fastest.begin(), fastest.end());
      const std::vector<double> rounds = FastestOf(round);
      serve_s.push_back(std::accumulate(rounds.begin(), rounds.end(), 0.0) /
                        1e3);
      const std::vector<double> ios = FastestOf(io);
      io_s += std::accumulate(ios.begin(), ios.end(), 0.0) / 1e3;
      // The repeats serve the same day (checked above): count it once.
      const RepResult& r = reps[same.front()];
      applied += static_cast<double>(r.service.state.applied);
      served += r.metrics.total_served();
      timely += r.metrics.total_timely();
      const std::vector<double> per_hour = r.metrics.ServingTeamsPerHour();
      for (int h = 0; h < hours; ++h) serving += per_hour[h] / hours;
      lost += static_cast<double>(r.service.ingest.dropped +
                                  r.service.state.quarantined());
      offered += static_cast<double>(r.offered);
      fallback += static_cast<double>(r.service.fallback_ticks);
      ticks += static_cast<double>(r.service.ticks);
    }
    const auto [tail, percentile] = Tail(latency);
    tail_percentile = percentile;
    const double appeared =
        static_cast<double>(env.window.requests.size()) * served_sets;
    metrics = {
        {"setup_s", setup_s, "s"},
        {"tick_p50_ms", Median(latency), "ms"},
        {"tick_tail_ms", tail, "ms"},
        {"day_wall_s", Median(serve_s) * 24.0 / w.window_hours, "s"},
        {"ingest_rps", applied / io_s, "rec/s"},
        {"served_pct", 100.0 * served / appeared, "%"},
        {"timely_pct", 100.0 * timely / appeared, "%"},
        {"serving_teams_mean", serving / served_sets, "teams"},
        {"ingest_drop_pct", 100.0 * lost / offered, "%"},
        {"fallback_tick_pct", 100.0 * fallback / ticks, "%"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    // Timings pool every traced serving; counts are the first traced
    // serving's.
    const RepResult& traced = reps[*first_traced_rep];
    const Layers& counts = first_traced;
    const serve::ServiceMetrics& tm = traced.service;
    double ingest_s = 0.0, drain_s = 0.0, offered = 0.0;
    std::vector<double> drain_ms;
    for (std::size_t k = 0; k < reps.size(); ++k) {
      if (!plan[k].traced) continue;
      ingest_s += reps[k].ingest_s;
      drain_s += reps[k].drain_s;
      offered += static_cast<double>(reps[k].offered);
      drain_ms.insert(drain_ms.end(), reps[k].drain_ms.begin(),
                      reps[k].drain_ms.end());
    }
    const double untraced_p50 = Median(untraced_latency);
    // ns per unit of work over every traced window.
    const auto per = [](const std::vector<double>& ms, std::uint64_t count) {
      const double total = std::accumulate(ms.begin(), ms.end(), 0.0);
      return count > 0 ? total * 1e6 / static_cast<double>(count) : 0.0;
    };
    const double tree_total = static_cast<double>(counts.tree_cache.hits +
                                                  counts.tree_cache.misses);
    metrics = {
        {"serve.ingest.records", static_cast<double>(traced.offered), "count"},
        {"serve.ingest.ns_per_record", ingest_s * 1e9 / offered, "ns"},
        {"serve.ingest.shard_imbalance", tm.shard_imbalance, "ratio"},
        {"serve.drain.ms_p50", Median(drain_ms), "ms"},
        {"serve.drain.ns_per_record", drain_s * 1e9 / offered, "ns"},
        {"serve.drain.deferred", static_cast<double>(tm.deferred), "count"},
        {"serve.state.quarantined",
         static_cast<double>(tm.state.quarantined()), "count"},
        {"serve.state.people", static_cast<double>(tm.people_tracked),
         "count"},
        {"predict.refresh.calls",
         static_cast<double>(counts.predict_ms.size()), "count"},
        {"predict.refresh.people", static_cast<double>(counts.predict_people),
         "count"},
        {"predict.refresh.ms_p50", Median(layers.predict_ms), "ms"},
        {"predict.refresh.ns_per_person",
         per(layers.predict_ms, layers.predict_people), "ns"},
        {"dispatch.prepare.ms_p50", Median(layers.prepare_ms), "ms"},
        {"dispatch.prepare.candidates",
         static_cast<double>(counts.candidates), "count"},
        {"roadnet.tree_cache.hits",
         static_cast<double>(counts.tree_cache.hits), "count"},
        {"roadnet.tree_cache.misses",
         static_cast<double>(counts.tree_cache.misses), "count"},
        {"roadnet.tree_cache.hit_ratio",
         tree_total > 0.0 ? counts.tree_cache.hits / tree_total : 0.0,
         "ratio"},
        {"dispatch.featurize.ms_p50", Median(layers.featurize_ms), "ms"},
        {"dispatch.featurize.rows", static_cast<double>(counts.feature_rows),
         "count"},
        {"dispatch.featurize.ns_per_row",
         per(layers.featurize_ms, layers.feature_rows), "ns"},
        {"rl.score.ms_p50", Median(layers.score_ms), "ms"},
        {"rl.score.rows", static_cast<double>(counts.score_rows), "count"},
        {"rl.score.ns_per_row",
         per(layers.score_ms, layers.score_rows), "ns"},
        {"opt.assign.ms_p50", Median(layers.assign_ms), "ms"},
        {"opt.assign.rows", static_cast<double>(counts.assign_rows), "count"},
        {"opt.assign.cols", static_cast<double>(counts.assign_cols), "count"},
        {"dispatch.other.ms_p50", Median(layers.other_ms), "ms"},
        {"sim.advance.ms_p50", Median(layers.sim_ms), "ms"},
        {"sim.rounds", static_cast<double>(tm.ticks), "count"},
        {"sim.events", static_cast<double>(traced.sim_events), "count"},
        {"learn.tick.ms_p50", Median(layers.learn_ms), "ms"},
        {"learn.tick.train_steps", static_cast<double>(tm.learn.train_steps),
         "count"},
        {"learn.tick.transitions", static_cast<double>(tm.learn.transitions),
         "count"},
        {"learn.tick.promotions", static_cast<double>(tm.learn.promotions),
         "count"},
        {"setup.world_s", Sec(w0, w1), "s"},
        {"setup.svm_train_s", Sec(w1, w2), "s"},
        {"setup.dqn_train_s", Sec(w2, w3), "s"},
        {"trace.overhead_pct",
         100.0 * (Median(traced_latency) - untraced_p50) / untraced_p50, "%"},
        {"trace.uncovered_pct", Median(layers.uncovered_pct), "%"},
    };
    std::filesystem::create_directories(args.out_dir);
    trace_path = args.out_dir + "/" + w.name + "-seed" +
                 std::to_string(args.seed) + ".trace.json";
    spans.WriteChrome(trace_path);
    std::string error;
    checks.Expect(obs::ValidateChromeTraceFile(trace_path, &error),
                  "trace: " + trace_path + " failed validation: " + error);
  }

  std::uint64_t ticks = 0;
  for (const RepResult& r : reps) ticks += r.latency_ms.size();
  const std::uint64_t attempted = ticks + checks.attempted;
  const bool correct = checks.failed == 0;

  // Details: provenance, seeds and sample counts for this result.
  std::ostringstream details;
  details << "{\"schema\": \"servebench-result-v1\", \"workload\": "
          << Quote(w.name) << ", \"seed\": " << args.seed
          << ", \"heldout_seed\": " << kHeldOutSeed
          << ", \"trace\": " << (args.trace ? 1 : 0)
          << ", \"smoke\": " << (args.smoke ? "true" : "false")
          << ", \"provenance\": {\"git_sha\": " << Quote(args.git_sha)
          << ", \"source_digest\": " << Quote(args.source_digest)
          << ", \"build_type\": " << Quote(SERVEBENCH_BUILD_TYPE)
          << ", \"compiler\": " << Quote(__VERSION__)
          << ", \"nproc\": " << std::thread::hardware_concurrency()
          << ", \"date\": " << Quote(UtcNow()) << "}"
          << ", \"samples\": {\"windows\": " << reps.size()
          << ", \"condition_sets\": " << served_sets
          << ", \"repeats\": " << (args.trace ? 1 : kRepeats)
          << ", \"ticks\": " << ticks
          << ", \"ticks_per_window\": " << reps.front().latency_ms.size()
          << ", \"tail_percentile\": " << Num(tail_percentile)
          << ", \"people\": " << env.window.people
          << ", \"teams\": " << w.teams
          << ", \"requests\": " << env.window.requests.size()
          << ", \"offered_records\": " << reps.front().offered
          << ", \"predict_refreshes\": " << layers.predict_ms.size()
          << ", \"traced_stage_rounds\": " << layers.prepare_ms.size()
          << ", \"spans\": " << spans.size() << "}"
          << ", \"per_window\": [";
  for (std::size_t k = 0; k < reps.size(); ++k) {
    details << (k ? ", " : "") << "{\"serve_s\": " << Num(reps[k].serve_s)
            << ", \"tick_p50_ms\": " << Num(Median(reps[k].latency_ms))
            << "}";
  }
  details << "]"
          << ", \"loadgen_s\": " << Num(loadgen_s)
          << ", \"trace_file\": " << Quote(trace_path)
          << ", \"checks\": {\"attempted\": " << checks.attempted
          << ", \"failed\": " << checks.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    details << (i ? ", " : "") << Quote(checks.failures[i]);
  }
  details << "]}, \"metrics\": " << MetricsJson(metrics) << "}";
  std::filesystem::create_directories(args.out_dir);
  const std::string details_path = args.out_dir + "/" + w.name + "-seed" +
                                   std::to_string(args.seed) + "-trace" +
                                   (args.trace ? "1" : "0") + ".json";
  std::ofstream(details_path) << details.str() << "\n";
  std::printf("%s\n", details.str().c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(checks.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  try {
    return Run(ParseArgs(argc, argv), process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
