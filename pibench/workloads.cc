// The workloads: set-up, the timed closed loop, the probe
// statements for shapes the loop does not issue, and the final checks.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "client/client.h"
#include "run.h"
#include "server/server.h"
#include "workload/generator.h"

namespace pibench {

using patchindex::ConstraintKind;
using patchindex::Engine;
using patchindex::EngineOptions;
using patchindex::GeneratorConfig;
using patchindex::QueryResult;
using patchindex::Result;
using patchindex::Rng;
using patchindex::Session;
using patchindex::Table;

const char* ShapeName(int shape) {
  static const char* const kNames[kNumShapes] = {
      "distinct", "sort", "join", "point", "agg", "insert", "modify",
      "delete"};
  return kNames[shape];
}

bool LookupWorkload(const std::string& name, bool tiny, WorkloadSpec* out) {
  WorkloadSpec w;
  w.name = name;
  if (name == "paper_read") {
    // Fig. 7/10 read path: 1M-row tables (16 MiB of column data each,
    // well beyond a 2 MiB L2) at e = 0.05; one session.
    w.u = {1'000'000, 0.05};
    w.l = {1'000'000, 0.05};
    w.o = {200'000, 0.0};
    w.setup_reps = 7;
  } else if (name == "server_point") {
    // A 100k-row table (1.6 MiB of column data) that fits in L2; one
    // server query worker and one client. Set-up takes ~30 ms, so it
    // repeats more often for a steady median.
    w.u = {100'000, 0.05};
    w.l = {100'000, 0.05};
    w.o = {20'000, 0.0};
    w.setup_reps = 25;
  } else {
    return false;
  }
  w.probe_reps = 3;
  w.layer_reps = 5;
  if (tiny) {
    for (TableSpec* t : {&w.u, &w.l, &w.o}) t->rows /= 50;
    w.setup_reps = 1;
    w.probe_reps = 1;
    w.layer_reps = 1;
  }
  *out = w;
  return true;
}

std::vector<double> Latencies::All(int shape) const {
  std::vector<double> v;
  for (const std::vector<double>& t : ms[shape]) {
    v.insert(v.end(), t.begin(), t.end());
  }
  return v;
}

double Median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Latencies::Mean(int shape) const {
  double sum = 0;
  int n = 0;
  for (const std::vector<double>& t : ms[shape]) {
    if (t.empty()) continue;
    double stratum = 0;
    for (double v : t) stratum += v;
    sum += stratum / static_cast<double>(t.size());
    ++n;
  }
  return n == 0 ? NAN : sum / n;
}

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::Open(const std::string& name, std::uint64_t stmt) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.stmt = stmt;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

double Tracer::Close(int id) {
  if (!on_ || id < 0) return 0.0;
  Span& s = spans_[id];
  s.end_ns = NowNs();
  // Spans close innermost first (RAII); drop `id` and anything left
  // open inside it.
  while (!open_.empty() && open_.back() >= id) open_.pop_back();
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

void Shared::Fail(const std::string& what) {
  counters.failed.fetch_add(1);
  if (errors.size() < 20) errors.push_back(what);
}

std::uint64_t TableSeed(std::uint64_t seed, int i) {
  return seed * 1'000'003 + static_cast<std::uint64_t>(i) * 7919;
}

namespace {

using SqlFn = std::function<Result<QueryResult>(const std::string&)>;

/// The statement issuer of a workload: its SQL entry point, span
/// recorder, latencies and random stream.
struct Client {
  SqlFn sql;
  const char* sql_span;  // "engine.sql" or "client.sql"
  Tracer* tracer;
  Latencies lat;
  Rng rng;
  std::vector<Tab> point_tables;
  std::uint64_t next_stmt;
  std::uint64_t reads[kNumReadShapes] = {};
};

/// Runs one read of `shape` and checks its answer against the model.
/// Records the latency when `record`.
void RunRead(Client& c, Shared& sh, int shape, bool record) {
  const std::uint64_t id = c.next_stmt++;
  const Tab pt = c.point_tables[c.rng.Uniform(0, c.point_tables.size() - 1)];
  std::int64_t key = 0;
  if (shape == kPoint) {
    key = static_cast<std::int64_t>(
        c.rng.Uniform(0, sh.model->key_space(pt) - 1));
  }
  const std::string sql = ReadSql(shape, pt, key);
  ScopedSpan stmt(*c.tracer, std::string("stmt.") + ShapeName(shape), id);
  sh.counters.attempted.fetch_add(1);
  const Clock::time_point t0 = Clock::now();
  Result<QueryResult> r = [&] {
    ScopedSpan call(*c.tracer, c.sql_span, id);
    return c.sql(sql);
  }();
  const double ms = MsSince(t0);
  if (!r.ok()) {
    sh.Fail(sql + ": " + r.status().ToString());
    return;
  }
  ScopedSpan check(*c.tracer, "oracle.check", id);
  const std::string err =
      shape == kPoint
          ? CheckPoint(r.value(), key, sh.model->Lookup(pt, key))
          : Compare(Summarize(shape, r.value()), sh.model->digest());
  if (!err.empty()) {
    sh.Fail(sql + ": " + err);
    return;
  }
  if (record) {
    c.lat.ms[shape][shape == kPoint && pt == Tab::kL ? 2 : 0].push_back(ms);
  }
}

/// Runs one write of `shape` on `t`. The model takes the write and
/// undoes it when the statement fails.
void RunWrite(Client& c, Shared& sh, int shape, Tab t, bool record) {
  const std::uint64_t id = c.next_stmt++;
  const WriteOp op = sh.model->NextWrite(shape, t, c.rng);
  const WriteOp undo = sh.model->Apply(op);
  const std::string sql = op.Sql();
  ScopedSpan stmt(*c.tracer, std::string("stmt.") + ShapeName(shape), id);
  sh.counters.attempted.fetch_add(1);
  const Clock::time_point t0 = Clock::now();
  Result<QueryResult> r = [&] {
    ScopedSpan call(*c.tracer, c.sql_span, id);
    return c.sql(sql);
  }();
  const double ms = MsSince(t0);
  const std::uint64_t want = op.rows.size();
  if (!r.ok() || r.value().rows_affected != want) {
    sh.Fail(sql + ": " +
            (r.ok() ? "rows_affected " +
                          std::to_string(r.value().rows_affected)
                    : r.status().ToString()));
    sh.model->Apply(undo);
    return;
  }
  if (record) {
    c.lat.ms[shape][(t == Tab::kL ? 2 : 0) + (op.collide ? 1 : 0)].push_back(ms);
  }
}

/// Builds the engine and loads the three tables with their
/// PatchIndexes. Returns the set-up time in seconds: from an empty
/// Engine until every index exists. Copying the generated values for
/// the model is not timed.
double SetUp(const RunOptions& o, Tracer& tr, Env* env, bool build_model) {
  env->model.reset();
  env->engine.reset();
  ScopedSpan setup(tr, "setup", 0);
  const WorkloadSpec& spec = o.spec;
  std::vector<std::int64_t> vals[3];
  double ms = 0.0;
  Clock::time_point t0 = Clock::now();
  EngineOptions eo;
  eo.num_threads = kPoolThreads;
  env->engine = std::make_unique<Engine>(eo);
  Session s = env->engine->CreateSession();
  const char* const names[3] = {"u", "l", "o"};
  const TableSpec specs[3] = {spec.u, spec.l, spec.o};
  for (int i = 0; i < 3; ++i) {
    GeneratorConfig cfg;
    cfg.num_rows = specs[i].rows;
    cfg.exception_rate = specs[i].exception_rate;
    cfg.seed = TableSeed(o.seed, i);
    auto table = [&] {
      ScopedSpan gen(tr, "workload.generate", 0);
      return std::make_unique<Table>(i == 0 ? GenerateNucTable(cfg)
                                            : GenerateNscTable(cfg));
    }();
    ms += MsSince(t0);
    if (build_model) vals[i] = table->column(1).i64_data();
    t0 = Clock::now();
    ScopedSpan add(tr, "engine.add_table", 0);
    const auto added = env->engine->catalog().AddTable(names[i],
                                                       std::move(table));
    if (!added.ok()) {
      std::fprintf(stderr, "AddTable %s: %s\n", names[i],
                   added.status().ToString().c_str());
      std::exit(1);
    }
  }
  for (int i = 0; i < 3; ++i) {
    ScopedSpan create(tr, "engine.create_patch_index", 0);
    const patchindex::Status st = s.CreatePatchIndex(
        names[i], 1,
        i == 0 ? ConstraintKind::kNearlyUnique : ConstraintKind::kNearlySorted);
    if (!st.ok()) {
      std::fprintf(stderr, "CreatePatchIndex %s: %s\n", names[i],
                   st.ToString().c_str());
      std::exit(1);
    }
  }
  ms += MsSince(t0);
  if (build_model) {
    env->model = std::make_unique<Model>(std::move(vals[0]),
                                         std::move(vals[1]), vals[2]);
  }
  return ms / 1000.0;
}

SqlFn SessionSql(Session& s) {
  return [&s](const std::string& sql) { return s.Sql(sql); };
}

/// Sends over the wire, retrying SERVER_BUSY rejections.
SqlFn ClientSql(patchindex::net::PiClient& client, Counters& counters) {
  return [&client, &counters](const std::string& sql) {
    for (;;) {
      counters.wire_attempts.fetch_add(1);
      Result<QueryResult> r = client.Sql(sql);
      if (r.ok() ||
          r.status().code() != patchindex::StatusCode::kUnavailable ||
          r.status().message().find("SERVER_BUSY") == std::string::npos) {
        return r;
      }
      counters.busy_retries.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
}

/// A closed loop: `step(i)` issues statement i until `seconds` elapse.
/// Returns {statements, elapsed seconds}.
std::pair<std::uint64_t, double> ClosedLoop(
    double seconds, const std::function<void(std::uint64_t)>& step) {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t n = 0;
  while (MsSince(t0) < seconds * 1000.0) step(n++);
  return {n, MsSince(t0) / 1000.0};
}

constexpr int kReadOrder[kNumReadShapes] = {kDistinct, kSort, kJoin, kPoint,
                                            kAgg};
constexpr int kWriteCycle[3] = {kInsert, kModify, kDelete};

/// Timed phase of one workload. Returns {statements, elapsed seconds}.
std::pair<std::uint64_t, double> TimedPhase(const std::string& workload,
                                            double seconds, Client& c,
                                            Shared& sh) {
  if (workload == "paper_read") {
    return ClosedLoop(seconds, [&](std::uint64_t i) {
      const int shape = kReadOrder[i % kNumReadShapes];
      ++c.reads[shape];
      RunRead(c, sh, shape, true);
    });
  }
  return ClosedLoop(seconds, [&](std::uint64_t i) {
    if (i % 10 == 9) {
      RunWrite(c, sh, kModify, Tab::kU, true);
    } else {
      ++c.reads[kPoint];
      RunRead(c, sh, kPoint, true);
    }
  });
}

/// One block of statements for every shape the timed phase does not
/// issue, so each workload reports every latency.
void ProbeBlock(const RunOptions& o, Client& c, Shared& sh) {
  const bool server = o.spec.name == "server_point";
  for (int rep = 0; rep < o.spec.probe_reps; ++rep) {
    if (server) {
      for (int shape : {kDistinct, kSort, kJoin, kAgg}) {
        RunRead(c, sh, shape, true);
      }
    }
    for (Tab t : {Tab::kU, Tab::kL}) {
      for (int shape : kWriteCycle) {
        if (shape == kModify && server) continue;
        RunWrite(c, sh, shape, t, true);
      }
    }
  }
}

/// Run-end checks: one strict read of every shape against the final
/// model state and CheckInvariant() on every index.
void FinalChecks(Env& env, Client& c, Shared& sh) {
  for (int shape : kReadOrder) RunRead(c, sh, shape, false);
  for (const char* name : {"u", "l", "o"}) {
    const patchindex::Table* t = env.engine->catalog().FindTable(name);
    const auto indexes = env.engine->catalog().manager().IndexesOn(*t);
    if (indexes.size() != 1) {
      sh.Fail(std::string("table ") + name + " lost its PatchIndex");
    }
    for (const patchindex::PatchIndex* idx : indexes) {
      if (!idx->CheckInvariant()) {
        sh.Fail(std::string("CheckInvariant failed on ") + name);
      }
    }
  }
}

double PeakRssMiB() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return NAN;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace

void RunWorkload(const RunOptions& o, Counters& counters,
                 std::vector<std::unique_ptr<Tracer>>* tracers,
                 RunResult* out) {
  auto new_tracer = [&](bool on) {
    tracers->push_back(
        std::make_unique<Tracer>(on, static_cast<int>(tracers->size())));
    return tracers->back().get();
  };
  Tracer* main_tr = new_tracer(o.trace);
  Tracer* off_tr = new_tracer(false);

  // Set-up, repeated; the last one is kept.
  Env env;
  const int setup_reps = o.trace ? 1 : o.spec.setup_reps;
  std::vector<double> setup_s;
  for (int i = 0; i < setup_reps; ++i) {
    setup_s.push_back(SetUp(o, *main_tr, &env, i + 1 == setup_reps));
  }

  Shared sh(counters);
  sh.model = env.model.get();

  const bool server = o.spec.name == "server_point";
  Session session = env.engine->CreateSession();
  std::unique_ptr<patchindex::net::PiServer> pi_server;
  patchindex::net::PiClient pi_client;
  if (server) {
    patchindex::net::ServerOptions so;
    so.query_workers = 1;
    pi_server = std::make_unique<patchindex::net::PiServer>(*env.engine, so);
    patchindex::Status st = pi_server->Start();
    if (st.ok()) st = pi_client.Connect("127.0.0.1", pi_server->port());
    if (!st.ok()) {
      std::fprintf(stderr, "server start/connect: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
  }
  Client c{server ? ClientSql(pi_client, counters) : SessionSql(session),
           server ? "client.sql" : "engine.sql",
           off_tr,
           {},
           Rng(o.seed * 31 + 1),
           server ? std::vector<Tab>{Tab::kU}
                  : std::vector<Tab>{Tab::kU, Tab::kL},
           1};

  // Warm-up: each shape of the timed loop once, checked but not
  // recorded.
  for (int shape : kReadOrder) {
    if (server && shape != kPoint) continue;
    RunRead(c, sh, shape, false);
  }
  if (server) RunWrite(c, sh, kModify, Tab::kU, false);

  // The timed loop runs in kSegments segments, each followed by a block
  // of probe statements, so both sample the whole run: the machine's
  // speed drifts over seconds to tens of seconds. A traced run traces the
  // middle two of every four segments (ABBA, so drift cancels); the
  // throughput difference is the tracing overhead.
  constexpr int kSegments = 16;
  double n[2] = {0, 0}, secs[2] = {0, 0};
  for (int seg = 0; seg < kSegments; ++seg) {
    const bool traced = o.trace && (seg % 4 == 1 || seg % 4 == 2);
    c.tracer = traced ? main_tr : off_tr;
    const auto q = TimedPhase(o.spec.name, o.seconds / kSegments, c, sh);
    n[traced] += static_cast<double>(q.first);
    secs[traced] += q.second;
    ProbeBlock(o, c, sh);
  }
  if (o.trace) {
    out->metrics.push_back(
        {"trace.overhead_pct",
         ((n[0] / secs[0]) / (n[1] / secs[1]) - 1.0) * 100.0, "%"});
  }
  c.tracer = main_tr;

  if (server) {
    pi_client.Close();
    pi_server->Stop();
    out->notes.push_back(
        "server: busy_retries=" + std::to_string(counters.busy_retries) +
        " wire_attempts=" + std::to_string(counters.wire_attempts));
  }
  c.sql = SessionSql(session);
  c.sql_span = "engine.sql";

  if (o.trace) {
    RunLayerProbes(o, env, sh, c.reads, *main_tr, out);
  }
  FinalChecks(env, c, sh);

  if (!o.trace) {
    Latencies& lat = out->latencies;
    lat = c.lat;
    std::size_t reads = 0, writes = 0;
    for (int s = 0; s < kNumShapes; ++s) {
      (IsRead(s) ? reads : writes) += lat.All(s).size();
    }
    std::vector<Metric>& m = out->metrics;
    m.push_back({"setup_s", Median(setup_s), "s"});
    m.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
    m.push_back({"ops_per_s", n[0] / secs[0], "1/s"});
    for (int s = 0; s < kNumShapes; ++s) {
      m.push_back({std::string(ShapeName(s)) + "_mean_ms", lat.Mean(s), "ms"});
    }
    std::string samples = "samples per stratum (u, u collide, l, l collide):";
    for (int s = 0; s < kNumShapes; ++s) {
      samples += std::string(" ") + ShapeName(s) + "=";
      for (int t = 0; t < kNumStrata; ++t) {
        samples += (t > 0 ? "/" : "") + std::to_string(lat.ms[s][t].size());
      }
    }
    samples += " reads=" + std::to_string(reads) +
               " writes=" + std::to_string(writes) +
               " timed_statements=" + std::to_string(
                                             static_cast<std::uint64_t>(n[0])) +
               " timed_seconds=" + std::to_string(secs[0]);
    out->notes.push_back(samples);
    std::string setups = "setup_s samples:";
    for (double v : setup_s) setups += " " + std::to_string(v);
    out->notes.push_back(setups);
  }
  for (const std::string& e : sh.errors) out->notes.push_back("FAILED: " + e);
}

}  // namespace pibench
