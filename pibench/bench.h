#ifndef PIBENCH_BENCH_H_
#define PIBENCH_BENCH_H_

// Shared declarations of the repository benchmark: workload specs,
// statement shapes, latency bookkeeping, the in-memory span tracer and
// the metric list a run reports. See README.md in this directory for
// the workloads, metrics and how they relate.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace pibench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Statement shapes. The first five are reads, the rest writes.
enum Shape { kDistinct, kSort, kJoin, kPoint, kAgg, kInsert, kModify,
             kDelete, kNumShapes };
constexpr int kNumReadShapes = kAgg + 1;
const char* ShapeName(int shape);
inline bool IsRead(int shape) { return shape < kNumReadShapes; }

/// Rows and exception rate of one generated table.
struct TableSpec {
  std::uint64_t rows = 0;
  double exception_rate = 0.0;
};

/// Engine pool workers on every workload. The process runs on one CPU
/// (main.cc), where more workers would only take turns; and on a shared
/// machine a statement that waits for several workers runs at the pace of
/// the most delayed one.
constexpr std::size_t kPoolThreads = 1;

/// One workload: the three tables every workload loads (`u` nearly
/// unique, `l` nearly sorted, `o` a zero-exception sorted join input),
/// and how often set-up, the probe statements and the per-layer probes
/// repeat.
struct WorkloadSpec {
  std::string name;
  TableSpec u, l, o;
  int setup_reps = 1;
  int probe_reps = 1;
  int layer_reps = 1;
};

/// Returns false when `name` is not a workload.
bool LookupWorkload(const std::string& name, bool tiny, WorkloadSpec* out);

/// Statement accounting of a run.
struct Counters {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> busy_retries{0};
  /// Sends, including SERVER_BUSY retries, that went over the wire.
  std::atomic<std::uint64_t> wire_attempts{0};
};

double Median(std::vector<double> v);

/// Wall-clock latencies in ms per shape and stratum. A stratum is a
/// sub-population with its own cost: the table a write or point read
/// goes to (u or l), and for modifies whether the new value collides
/// with the exception domain. Index: 2 * (table is l) + (collides).
constexpr int kNumStrata = 4;
struct Latencies {
  std::vector<double> ms[kNumShapes][kNumStrata];
  /// Every sample of `shape`, all strata.
  std::vector<double> All(int shape) const;
  /// The shape's mean latency, as the mean of its per-stratum means:
  /// strata are drawn at random and their costs differ up to 2.5x, so
  /// each counts once whatever its share of the samples.
  double Mean(int shape) const;
};

/// One recorded span: a benchmark-side interval around a call into a
/// layer. `parent` indexes the same thread's span vector (-1: root).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t stmt = 0;
};

/// Per-thread span recorder. Spans stay in memory until the run ends.
/// A disabled tracer records nothing and costs one branch per span.
class Tracer {
 public:
  Tracer(bool on, int tid) : on_(on), tid_(tid) {}
  bool on() const { return on_; }
  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int Open(const std::string& name, std::uint64_t stmt);
  /// Closes span `id` and returns its duration in ms (0 when disabled).
  double Close(int id);

 private:
  bool on_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span. End() closes early and returns the duration in ms.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t stmt)
      : tracer_(tracer), id_(tracer.Open(name, stmt)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  double End() {
    const double ms = open_ ? tracer_.Close(id_) : 0.0;
    open_ = false;
    return ms;
  }

 private:
  Tracer& tracer_;
  int id_;
  bool open_ = true;
};

/// Times `fn` inside a span and returns its wall time in ms, whether or
/// not the tracer records.
template <typename Fn>
double TimedSpan(Tracer& tracer, const std::string& name, std::uint64_t stmt,
                 Fn&& fn) {
  ScopedSpan span(tracer, name, stmt);
  const Clock::time_point t0 = Clock::now();
  fn();
  const double ms = MsSince(t0);
  span.End();
  return ms;
}

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The outcome of one benchmark run.
struct RunResult {
  std::vector<Metric> metrics;
  /// Human-readable detail lines (sample counts, failures).
  std::vector<std::string> notes;
  /// Every recorded statement latency (untraced runs).
  Latencies latencies;
};

struct RunOptions {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
};

/// Runs one workload end to end: set-up, the timed closed loop, the probe
/// statements, the final output checks and — with `trace` — the
/// per-layer probes. Fills `result`; `tracers` receives every span
/// recorder used.
void RunWorkload(const RunOptions& options, Counters& counters,
                 std::vector<std::unique_ptr<Tracer>>* tracers,
                 RunResult* result);

}  // namespace pibench

#endif  // PIBENCH_BENCH_H_
