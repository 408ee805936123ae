#ifndef PIBENCH_RUN_H_
#define PIBENCH_RUN_H_

// State shared between the workload loops (workloads.cc) and the
// per-layer probes of a traced run (layers.cc).

#include "bench.h"
#include "oracle.h"

namespace pibench {

/// A set-up workload: the engine holding the loaded, indexed tables and
/// the oracle's model of them.
struct Env {
  std::unique_ptr<patchindex::Engine> engine;
  std::unique_ptr<Model> model;
};

/// State the workload loop and the probes share: the model and failure
/// accounting. Every statement is sent from one thread.
struct Shared {
  explicit Shared(Counters& c) : counters(c) {}
  Counters& counters;
  Model* model = nullptr;
  std::vector<std::string> errors;  // the first few failures, for notes

  void Fail(const std::string& what);
};

/// Generator seed of table `i` (0: u, 1: l, 2: o) for a run seed.
std::uint64_t TableSeed(std::uint64_t seed, int i);

/// The per-layer probes of a traced run (layers.cc). `read_mix` counts
/// the timed phase's reads per shape; ratios are weighted by it.
void RunLayerProbes(const RunOptions& options, Env& env, Shared& shared,
                    const std::uint64_t (&read_mix)[kNumReadShapes],
                    Tracer& tracer, RunResult* result);

}  // namespace pibench

#endif  // PIBENCH_RUN_H_
