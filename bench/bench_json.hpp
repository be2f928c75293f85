// Machine-readable microbench output: a tiny timer, JSON emitter and
// structural validator for the BENCH_micro.json / BENCH_e2e.json artefacts
// the perf tracking in README.md describes.
//
// Schema ("mobirescue-bench-v1"):
//   {
//     "schema": "mobirescue-bench-v1",
//     "label": "micro",
//     "results": [
//       {"op": "mlp_forward", "size": "batch=32,net=11-32-32-1",
//        "ns_per_op": 1234.5, "iterations": 4096,
//        "speedup_vs_scalar": 4.2},
//       ...
//     ]
//   }
//
// `speedup_vs_scalar` is scalar-reference-ns / this-ns, or 0 when the op
// has no scalar reference implementation to compare against.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mobirescue::bench {

struct BenchRecord {
  std::string op;    // what was measured, e.g. "gemm"
  std::string size;  // problem size, e.g. "m=96,k=96,n=96"
  double ns_per_op = 0.0;
  std::int64_t iterations = 0;
  double speedup_vs_scalar = 0.0;  // 0: no scalar reference for this op
};

struct BenchTiming {
  double ns_per_op = 0.0;
  std::int64_t iterations = 0;
};

/// Times `fn` with a growing batch until at least `min_time_s` of
/// steady_clock wall time is covered, then reports the mean ns per call of
/// the final (largest) batch. One warm-up call happens before timing.
BenchTiming MeasureNsPerOp(const std::function<void()>& fn,
                           double min_time_s = 0.2);

/// One baseline/subject comparison plus the per-run relative overhead.
struct OverheadMeasurement {
  BenchTiming baseline;
  BenchTiming subject;
  double overhead_pct = 0.0;  // (subject - baseline) / baseline * 100
};

/// Robust relative-overhead measurement for the 5% budget gates. Each of
/// `runs` runs interleaves `reps` baseline/subject timings rep by rep —
/// both variants see the same clock/thermal state — and keeps each side's
/// minimum (short loops are noise-bounded from above, so the min is the
/// honest per-run estimate). The returned measurement is the run with the
/// MEDIAN overhead percentage: one run skewed by a scheduler hiccup cannot
/// flip the gate in either direction. Sustained contention from a full
/// `ctest -j` schedule can, so the gated smokes also run serially
/// (bench/CMakeLists.txt).
OverheadMeasurement MeasureOverheadMedian(
    const std::function<void()>& baseline,
    const std::function<void()>& subject, double min_time_s, int reps = 3,
    int runs = 3);

/// Writes the records under the mobirescue-bench-v1 schema. Throws
/// std::runtime_error if the file cannot be written.
void WriteBenchJsonFile(const std::string& path, const std::string& label,
                        const std::vector<BenchRecord>& records);

/// Structural check of a bench JSON file: the schema tag, a label, a
/// results array, and op/size/positive ns_per_op/positive iterations on
/// every record. On failure returns false and, when `error` is non-null,
/// stores a description of the first violation.
bool ValidateBenchJsonFile(const std::string& path, std::string* error);

}  // namespace mobirescue::bench
