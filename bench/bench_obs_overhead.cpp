// Observability overhead microbenchmark (the PR's acceptance criterion):
// the obs instruments live permanently on the hot paths — Router::Route,
// DqnAgent::SelectAction, the DispatchService tick — so their unit costs
// and, more importantly, their *relative* cost on a real hot loop must stay
// negligible. This bench measures
//
//   counter_increment      striped relaxed fetch_add (obs::Counter)
//   histogram_observe      bucket lookup + two striped adds
//   span_disabled          OBS_SPAN when tracing is off (production default)
//   span_enabled           OBS_SPAN recording into a thread ring
//   event_emit_disabled    FlightRecorder::Emit on a disabled recorder
//   event_emit_enabled     FlightRecorder::Emit into a thread ring (the
//                          production default: the black box is always on)
//   hot_loop_plain         DQN SelectAction-equivalent: batched QValues over
//                          32 candidates + argmax, uninstrumented
//   hot_loop_instrumented  the same loop carrying exactly the production
//                          SelectAction instrumentation (span + counter)
//   hot_loop_events        the instrumented loop also emitting one flight
//                          event per iteration into an enabled ring
//
// and FAILS (exit 1) if hot_loop_instrumented OR hot_loop_events is more
// than 5% slower than the plain loop. `--json PATH [--smoke]` writes
// mobirescue-bench-v1 JSON; the overhead percentage rides in the `size`
// field. Unit costs are best-of-three; each gated comparison is the median
// of three interleaved runs (bench::MeasureOverheadMedian); the smoke test
// runs serially (bench/CMakeLists.txt).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "rl/dqn_agent.hpp"

using namespace mobirescue;

namespace {

volatile std::uint64_t g_sink = 0;

/// Best-of-`reps` MeasureNsPerOp: microbench loops this short are noise-
/// bounded from above, so the minimum is the honest estimate.
bench::BenchTiming Best(const std::function<void()>& fn, double min_time_s,
                        int reps = 3) {
  bench::BenchTiming best;
  for (int r = 0; r < reps; ++r) {
    const bench::BenchTiming t = bench::MeasureNsPerOp(fn, min_time_s);
    if (r == 0 || t.ns_per_op < best.ns_per_op) best = t;
  }
  return best;
}

std::vector<std::vector<double>> MakeCandidates(std::size_t n,
                                                std::size_t dim) {
  std::vector<std::vector<double>> rows(n, std::vector<double>(dim));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) {
      rows[i][d] = 0.01 * static_cast<double>((i * 31 + d * 7) % 97);
    }
  }
  return rows;
}

/// The greedy branch of DqnAgent::SelectAction: one batched forward pass
/// and an argmax scan. This is the loop the production instrumentation
/// (one span + one counter increment) sits on.
std::size_t HotLoopBody(const rl::DqnAgent& agent,
                        const std::vector<std::vector<double>>& candidates) {
  const std::vector<double> q = agent.QValues(candidates);
  std::size_t best = 0;
  double best_q = -1e300;
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (q[i] > best_q) {
      best_q = q[i];
      best = i;
    }
  }
  return best;
}

std::string OverheadSize(std::size_t candidates, std::size_t dim,
                         double overhead_pct) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "candidates=%zu,dim=%zu,overhead_pct=%.2f",
                candidates, dim, overhead_pct);
  return buf;
}

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

  // Local registry/recorder: unit costs are identical to the global ones
  // (the registry is never touched on the increment path) and the global
  // snapshot stays clean.
  obs::Registry registry;
  obs::Counter counter(registry, "bench_obs_events_total", "Bench counter.");
  obs::Histogram histogram(registry, "bench_obs_ms", "Bench histogram.",
                           obs::Histogram::LatencyBucketsMs());
  obs::TraceRecorder recorder;

  std::vector<bench::BenchRecord> records;
  auto add = [&records](const std::string& op, const std::string& size,
                        const bench::BenchTiming& t) {
    records.push_back({op, size, t.ns_per_op, t.iterations, 0.0});
  };

  add("counter_increment", "stripes=16",
      Best([&counter] { counter.Increment(); }, min_time_s));
  add("histogram_observe", "buckets=22",
      Best([&histogram] { histogram.Observe(0.37); }, min_time_s));

  add("span_disabled", "recorder=off", Best(
      [&recorder] { obs::ScopedSpan span("bench.span", recorder); },
      min_time_s));
  recorder.Enable();
  add("span_enabled", "recorder=on,ring=65536", Best(
      [&recorder] { obs::ScopedSpan span("bench.span", recorder); },
      min_time_s));
  recorder.Disable();
  recorder.Clear();

  // Flight-recorder unit costs: the black box runs enabled in production,
  // so the enabled ring append is the number that matters.
  obs::FlightRecorder flight;
  flight.Disable();
  add("event_emit_disabled", "recorder=off", Best(
      [&flight] {
        flight.Emit(obs::Severity::kInfo, "bench", "event");
      },
      min_time_s));
  flight.Enable();
  add("event_emit_enabled", "recorder=on,ring=8192", Best(
      [&flight] {
        flight.Emit(obs::Severity::kInfo, "bench", "event", "tick=42");
      },
      min_time_s));
  flight.Clear();

  // Hot loop: tracing off, as in a production serving process — the gate
  // covers the cost the instrumentation adds when nobody is looking.
  rl::DqnConfig agent_config;
  rl::DqnAgent agent(agent_config);
  const std::size_t num_candidates = 32;
  const std::vector<std::vector<double>> candidates =
      MakeCandidates(num_candidates, agent_config.feature_dim);

  const auto run_plain = [&agent, &candidates] {
    g_sink = g_sink + HotLoopBody(agent, candidates);
  };
  const auto run_instrumented = [&agent, &candidates, &counter, &recorder] {
    obs::ScopedSpan span("bench.hot_loop", recorder);
    counter.Increment();
    g_sink = g_sink + HotLoopBody(agent, candidates);
  };
  // Median-of-3 interleaved runs: each run's min-of-reps isolates the true
  // instrumentation cost (~10 ns on a ~10 µs loop) from scheduler noise,
  // and the median across runs shrugs off one run skewed by a sibling
  // ctest process.
  const bench::OverheadMeasurement instrumented_vs_plain =
      bench::MeasureOverheadMedian(run_plain, run_instrumented, min_time_s);
  const double overhead_pct = instrumented_vs_plain.overhead_pct;

  const std::string dims = OverheadSize(
      num_candidates, agent_config.feature_dim, overhead_pct);
  add("hot_loop_plain", dims, instrumented_vs_plain.baseline);
  add("hot_loop_instrumented", dims, instrumented_vs_plain.subject);

  // Second gate: the same loop also feeding the (enabled, production
  // default) flight recorder one event per iteration — far denser than any
  // real emission site, so the budget bounds the black box's worst case.
  const auto run_events = [&agent, &candidates, &counter, &recorder,
                           &flight] {
    obs::ScopedSpan span("bench.hot_loop", recorder);
    counter.Increment();
    flight.Emit(obs::Severity::kInfo, "bench", "hot_loop", "tick=42");
    g_sink = g_sink + HotLoopBody(agent, candidates);
  };
  const bench::OverheadMeasurement events_vs_plain =
      bench::MeasureOverheadMedian(run_plain, run_events, min_time_s);
  const std::string event_dims = OverheadSize(
      num_candidates, agent_config.feature_dim, events_vs_plain.overhead_pct);
  add("hot_loop_events", event_dims, events_vs_plain.subject);
  flight.Clear();

  // Informational: the same loop with tracing live (span lands in a ring).
  recorder.Enable();
  add("hot_loop_traced", dims, Best(
      [&agent, &candidates, &counter, &recorder] {
        obs::ScopedSpan span("bench.hot_loop", recorder);
        counter.Increment();
        g_sink = g_sink + HotLoopBody(agent, candidates);
      },
      min_time_s));
  recorder.Disable();

  std::printf("%-24s %14s %12s\n", "op", "ns_per_op", "iterations");
  for (const bench::BenchRecord& r : records) {
    std::printf("%-24s %14.2f %12lld   %s\n", r.op.c_str(), r.ns_per_op,
                static_cast<long long>(r.iterations), r.size.c_str());
  }
  std::printf("hot-loop overhead: %.2f%% (budget 5%%)\n", overhead_pct);
  std::printf("hot-loop + event-ring overhead: %.2f%% (budget 5%%)\n",
              events_vs_plain.overhead_pct);

  if (!json_path.empty()) {
    bench::WriteBenchJsonFile(json_path, smoke ? "obs-smoke" : "obs",
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
                 "FAIL: instrumented hot loop is %.2f%% slower than plain "
                 "(budget 5%%)\n",
                 overhead_pct);
    return 1;
  }
  if (events_vs_plain.overhead_pct > 5.0) {
    std::fprintf(stderr,
                 "FAIL: event-emitting hot loop is %.2f%% slower than plain "
                 "(budget 5%%)\n",
                 events_vs_plain.overhead_pct);
    return 1;
  }
  return 0;
}
