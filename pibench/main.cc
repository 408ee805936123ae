// pibench: runs one workload of the repository benchmark and prints its
// metrics. Usually started through run.py, which builds this program
// and validates the output against BENCHMARK.json:
//
//   pibench --workload <paper_read|server_point> --seed <n>
//           --seconds <s> --trace <0|1> [--tiny] [--out-dir <dir>]
//
// Prints detail lines, one `stamp {...}` line, and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 1 the spans are written to <out-dir>/trace-<workload>-<seed>.json
// (Chrome trace-event format; args carry span id, parent and statement);
// with --trace 0 every latency sample goes to
// <out-dir>/samples-<workload>-<seed>.json.

#include <malloc.h>
#include <sched.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

namespace pibench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pibench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--out-dir <dir>]\n");
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Writes every span as a Chrome complete event. Span ids are
/// (tid << 32 | index) so parents resolve across the merged list.
bool WriteTrace(const std::string& path,
                const std::vector<std::unique_ptr<Tracer>>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const auto& t : tracers) {
    for (const Span& s : t->spans()) origin = std::min(origin, s.start_ns);
  }
  std::map<std::string, double> self_ms;
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (const auto& t : tracers) {
    const std::vector<Span>& spans = t->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::int64_t id = (static_cast<std::int64_t>(t->tid()) << 32) |
                              static_cast<std::int64_t>(i);
      const std::int64_t parent =
          s.parent < 0 ? -1
                       : (static_cast<std::int64_t>(t->tid()) << 32) | s.parent;
      self_ms[s.name] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %lld, \"parent\": %lld, \"stmt\": %llu}}",
                   first ? "" : ",", s.name.c_str(), t->tid(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(id), static_cast<long long>(parent),
                   static_cast<unsigned long long>(s.stmt));
      first = false;
    }
  }
  // Self time per span name: each span minus the time its children cover.
  std::fprintf(f, "\n], \"self_ms\": {");
  first = true;
  for (const auto& [name, ms] : self_ms) {
    std::fprintf(f, "%s\"%s\": %s", first ? "" : ", ", name.c_str(),
                 JsonNumber(ms).c_str());
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

/// Writes every latency sample, per shape and stratum, as JSON.
bool WriteSamples(const std::string& path, const Latencies& lat) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{");
  for (int s = 0; s < kNumShapes; ++s) {
    std::fprintf(f, "%s\"%s\": [", s > 0 ? ",\n" : "", ShapeName(s));
    for (int t = 0; t < kNumStrata; ++t) {
      std::fprintf(f, "%s[", t > 0 ? ", " : "");
      for (std::size_t i = 0; i < lat.ms[s][t].size(); ++i) {
        std::fprintf(f, "%s%.6f", i > 0 ? ", " : "", lat.ms[s][t][i]);
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f, "}\n");
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "pibench: refusing to measure a build without NDEBUG "
               "(configure with CMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  std::string workload, out_dir = ".bench_out";
  RunOptions o;
  bool tiny = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--tiny") {
      tiny = true;
      continue;
    }
    if (v == nullptr) return Usage();
    ++i;
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && o.seconds > 0 && o.seconds <= 600;
    } else if (a == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      o.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--out-dir") {
      out_dir = v;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace ||
      !LookupWorkload(workload, tiny, &o.spec)) {
    return Usage();
  }

  // Fix glibc's allocation policy. By default malloc adapts its mmap
  // threshold to the sizes freed so far, so whether a query's multi-MiB
  // result buffers are page-faulted in afresh or reused from the heap
  // changes partway through a run and differs between runs (measured:
  // DISTINCT over 1M rows at 8 ms or 22 ms in one process). With fixed
  // thresholds large buffers are reused, and latencies measure the
  // engine's work.
  const bool malloc_fixed = mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
                            mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1;
  if (!malloc_fixed) {
    std::fprintf(stderr, "pibench: mallopt failed\n");
    return 1;
  }

  // Run every thread on one CPU, chosen before any thread exists so all
  // inherit it. A statement passes through several threads in turn
  // (client, server worker, engine pool worker), never two at once; on a
  // shared virtual machine each hand-off to a sleeping CPU waits for the
  // host to wake it, and that wait moved point SELECT latency by 1.5x
  // between runs. On one CPU a hand-off is a local context switch. The
  // highest allowed CPU is taken: the lowest usually serves interrupts.
  cpu_set_t cpus;
  int cpu = -1;
  if (sched_getaffinity(0, sizeof cpus, &cpus) == 0) {
    for (int i = CPU_SETSIZE - 1; i >= 0 && cpu < 0; --i) {
      if (CPU_ISSET(i, &cpus)) cpu = i;
    }
  }
  CPU_ZERO(&cpus);
  if (cpu >= 0) CPU_SET(cpu, &cpus);
  if (cpu < 0 || sched_setaffinity(0, sizeof cpus, &cpus) != 0) {
    std::fprintf(stderr, "pibench: cannot pin to one CPU\n");
    return 1;
  }

  const WorkloadSpec& w = o.spec;
  std::printf(
      "stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"tiny\": %s, \"nproc\": %u, \"cpu\": %d, "
      "\"pool_threads\": %zu, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"malloc\": "
      "\"mmap_threshold=32MiB trim_threshold=1GiB\", \"tables\": {\"u\": "
      "[%llu, %s], \"l\": [%llu, %s], \"o\": [%llu, %s]}}\n",
      w.name.c_str(), static_cast<unsigned long long>(o.seed),
      JsonNumber(o.seconds).c_str(), o.trace ? 1 : 0, tiny ? "true" : "false",
      std::thread::hardware_concurrency(), cpu, kPoolThreads, PIBENCH_BUILD_TYPE,
      PIBENCH_COMPILER, static_cast<unsigned long long>(w.u.rows),
      JsonNumber(w.u.exception_rate).c_str(),
      static_cast<unsigned long long>(w.l.rows),
      JsonNumber(w.l.exception_rate).c_str(),
      static_cast<unsigned long long>(w.o.rows),
      JsonNumber(w.o.exception_rate).c_str());
  std::fflush(stdout);

  Counters counters;
  std::vector<std::unique_ptr<Tracer>> tracers;
  RunResult r;
  RunWorkload(o, counters, &tracers, &r);

  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  bool finite = true;
  for (const Metric& m : r.metrics) {
    std::printf("metric %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (!std::isfinite(m.value)) finite = false;
  }
  mkdir(out_dir.c_str(), 0755);
  const std::string path = out_dir + (o.trace ? "/trace-" : "/samples-") +
                           w.name + "-" + std::to_string(o.seed) + ".json";
  if (!(o.trace ? WriteTrace(path, tracers)
                : WriteSamples(path, r.latencies))) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("%s %s\n", o.trace ? "trace" : "samples", path.c_str());
  if (!finite) {
    std::fprintf(stderr, "pibench: a metric is not a finite number\n");
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += counters.failed.load() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(counters.attempted.load());
  json += ", \"failed\": " + std::to_string(counters.failed.load());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace pibench

int main(int argc, char** argv) { return pibench::Main(argc, argv); }
