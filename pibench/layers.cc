// Per-layer probes of a traced run. Each probe times public calls into
// one module, on the workload's own tables and statements, inside spans
// recorded by the benchmark; the metric is the median of those spans.
// Calls the engine makes only inside Session (PatchIndex update handling,
// Table::Checkpoint) are driven on a replica table with its own index,
// as bench/bench_fig9_updates.cc does.

#include <cmath>

#include "bitmap/sharded_bitmap.h"
#include "client/client.h"
#include "exec/expression.h"
#include "optimizer/rewriter.h"
#include "patchindex/patch_index.h"
#include "run.h"
#include "server/server.h"
#include "workload/generator.h"

namespace pibench {

using namespace patchindex;
using patchindex::net::PiClient;
using patchindex::net::PiServer;
using patchindex::net::ServerOptions;

namespace {

/// Hand-built plans of the five read shapes, equivalent to ReadSql.
struct Plans {
  LogicalPtr plan[kNumReadShapes];
  double input_rows[kNumReadShapes] = {};
};

/// A global aggregate the way the binder plans one: grouped on a
/// constant key that is projected away afterwards.
LogicalPtr GlobalAgg(LogicalPtr child, std::size_t width,
                     std::vector<AggSpec> aggs) {
  std::vector<ExprPtr> pre = {ConstInt(0)};
  for (std::size_t i = 0; i < width; ++i) pre.push_back(Col(i));
  for (AggSpec& a : aggs) ++a.column;
  std::vector<ExprPtr> post;
  for (std::size_t i = 0; i < aggs.size(); ++i) post.push_back(Col(i + 1));
  return LProject(LAggregate(LProject(std::move(child), std::move(pre)), {0},
                             std::move(aggs)),
                  std::move(post));
}

Plans BuildPlans(const Table& u, const Table& l, const Table& o,
                 std::int64_t point_key) {
  Plans p;
  p.plan[kDistinct] = LDistinct(LScan(u, {1}), {0});
  p.plan[kSort] = LSort(LScan(l, {0, 1}), {{1, true}});
  p.plan[kJoin] =
      GlobalAgg(LJoin(LScan(o, {1}, /*sorted_col=*/0), LScan(l, {1}), 0, 0),
                2, {{AggOp::kCount, 0}});
  p.plan[kPoint] =
      LSelect(LScan(u, {0, 1}), Eq(Col(0), ConstInt(point_key)), 1e-6);
  p.plan[kAgg] =
      GlobalAgg(LScan(u, {1}), 1, {{AggOp::kCount, 0}, {AggOp::kSum, 0}});
  const auto nu = static_cast<double>(u.num_rows());
  p.input_rows[kDistinct] = nu;
  p.input_rows[kSort] = static_cast<double>(l.num_rows());
  p.input_rows[kJoin] = static_cast<double>(o.num_rows() + l.num_rows());
  p.input_rows[kPoint] = nu;
  p.input_rows[kAgg] = nu;
  return p;
}

/// Names the exec metric of each read shape after its operator.
const char* ExecName(int shape) {
  static const char* const kNames[kNumReadShapes] = {"distinct", "sort",
                                                     "join", "filter", "agg"};
  return kNames[shape];
}

/// Checks a read result of `shape` against the model's current state.
void CheckRead(Shared& sh, int shape, const QueryResult& r,
               std::int64_t point_key, const std::string& what) {
  const std::string err =
      shape == kPoint
          ? CheckPoint(r, point_key, sh.model->Lookup(Tab::kU, point_key))
          : Compare(Summarize(shape, r), sh.model->digest());
  if (!err.empty()) sh.Fail(what + ": " + err);
}

/// Rows the model expects from a read of `shape`.
std::uint64_t ExpectedRows(Shared& sh, int shape, std::int64_t point_key) {
  switch (shape) {
    case kDistinct:
      return sh.model->digest().distinct_u;
    case kSort:
      return sh.model->digest().rows_l;
    case kPoint:
      return sh.model->Lookup(Tab::kU, point_key).has_value() ? 1 : 0;
    default:
      return 1;
  }
}

class Probe {
 public:
  Probe(const RunOptions& o, Env& env, Shared& sh, Tracer& tr,
        RunResult* out)
      : o_(o), env_(env), sh_(sh), tr_(tr), out_(out),
        session_(env.engine->CreateSession()),
        rng_(o.seed * 31 + 3) {}

  void Add(const std::string& name, double value, const std::string& unit) {
    out_->metrics.push_back({name, value, unit});
  }

  /// Runs `fn` under a fresh statement id inside a `probe.<group>` span.
  template <typename Fn>
  void Stmt(const std::string& group, Fn&& fn) {
    const std::uint64_t id = next_stmt_++;
    ScopedSpan span(tr_, "probe." + group, id);
    fn(id);
  }

  void Ok(const Status& st, const std::string& what) {
    sh_.counters.attempted.fetch_add(1);
    if (!st.ok()) sh_.Fail(what + ": " + st.ToString());
  }

  const RunOptions& o_;
  Env& env_;
  Shared& sh_;
  Tracer& tr_;
  RunResult* out_;
  Session session_;
  Rng rng_;
  std::uint64_t next_stmt_ = 2'000'000'000;
};

/// sql.prepare_us.<shape>: Session::Prepare of every statement shape.
void ProbePrepare(Probe& p) {
  std::vector<double> us[kNumShapes];
  for (int rep = 0; rep < 4 * p.o_.spec.layer_reps; ++rep) {
    for (int shape = 0; shape < kNumShapes; ++shape) {
      const std::string sql =
          IsRead(shape)
              ? ReadSql(shape, Tab::kU, p.sh_.model->key_space(Tab::kU) / 2)
              : p.sh_.model->NextWrite(shape, Tab::kU, p.rng_).Sql();
      p.Stmt("prepare", [&](std::uint64_t id) {
        Status st;
        us[shape].push_back(1000.0 * TimedSpan(p.tr_, "sql.prepare", id, [&] {
                              st = p.session_.Prepare(sql).status();
                            }));
        p.Ok(st, "Prepare " + sql);
      });
    }
  }
  for (int shape = 0; shape < kNumShapes; ++shape) {
    p.Add(std::string("sql.prepare_us.") + ShapeName(shape), Median(us[shape]),
          "us");
  }
}

/// optimizer.*, exec.* and engine.execute_ms.*: the read shapes as
/// hand-built plans through OptimizePlan, the serial operator tree, and
/// Session::Execute with and without the PatchIndex rewrites.
void ProbeReadPath(Probe& p, const std::uint64_t (&read_mix)[kNumReadShapes]) {
  Catalog& cat = p.env_.engine->catalog();
  const Table& u = *cat.FindTable("u");
  const Table& l = *cat.FindTable("l");
  const Table& o = *cat.FindTable("o");
  const std::int64_t point_key = p.sh_.model->key_space(Tab::kU) / 2;
  const Plans plans = BuildPlans(u, l, o, point_key);
  const PatchIndexManager& mgr = cat.manager();
  OptimizerOptions no_rewrites;
  no_rewrites.enable_patch_rewrites = false;

  std::vector<double> opt_us[kNumReadShapes], exec_ns[kNumReadShapes],
      exe_ms[kNumReadShapes], off_ms[kNumReadShapes];
  for (int rep = 0; rep < p.o_.spec.layer_reps; ++rep) {
    for (int shape = 0; shape < kNumReadShapes; ++shape) {
      p.Stmt(std::string("read.") + ShapeName(shape), [&](std::uint64_t id) {
        LogicalPtr clone = ClonePlan(plans.plan[shape]);
        LogicalPtr optimized;
        opt_us[shape].push_back(
            1000.0 * TimedSpan(p.tr_, "optimizer.optimize", id, [&] {
              optimized = OptimizePlan(clone, mgr);
            }));
        OperatorPtr op = CompilePlan(optimized);
        std::uint64_t rows = 0;
        const double drain_ms = TimedSpan(p.tr_, "exec.drain", id, [&] {
          rows = CountRows(*op);
        });
        exec_ns[shape].push_back(drain_ms * 1e6 / plans.input_rows[shape]);
        p.sh_.counters.attempted.fetch_add(1);
        if (rows != ExpectedRows(p.sh_, shape, point_key)) {
          p.sh_.Fail(std::string("serial ") + ShapeName(shape) + " returned " +
                     std::to_string(rows) + " rows");
        }

        for (const bool rewrites : {true, false}) {
          if (!rewrites && (shape == kPoint || shape == kAgg)) continue;
          clone = ClonePlan(plans.plan[shape]);
          Result<QueryResult> r = Status::Internal("not run");
          const double ms = TimedSpan(
              p.tr_, rewrites ? "engine.execute" : "engine.execute_no_rewrite",
              id, [&] {
                r = rewrites ? p.session_.Execute(clone)
                             : p.session_.Execute(clone, no_rewrites);
              });
          p.Ok(r.status(), std::string("Execute ") + ShapeName(shape));
          if (!r.ok()) continue;
          CheckRead(p.sh_, shape, r.value(), point_key,
                    std::string("Execute ") + ShapeName(shape));
          (rewrites ? exe_ms : off_ms)[shape].push_back(ms);
        }
      });
    }
  }
  for (int shape = 0; shape < kNumReadShapes; ++shape) {
    p.Add(std::string("optimizer.optimize_us.") + ShapeName(shape),
          Median(opt_us[shape]), "us");
    p.Add(std::string("exec.") + ExecName(shape) + "_ns_per_row",
          Median(exec_ns[shape]), "ns/row");
    p.Add(std::string("engine.execute_ms.") + ShapeName(shape),
          Median(exe_ms[shape]), "ms");
  }
  for (int shape : {kDistinct, kSort, kJoin}) {
    p.Add(std::string("optimizer.patch_speedup.") + ShapeName(shape),
          Median(off_ms[shape]) / Median(exe_ms[shape]), "x");
  }

  // Rewrite and parallel shares, weighted by the timed phase's reads.
  double total = 0, rewritten = 0, parallel = 0;
  for (int shape = 0; shape < kNumReadShapes; ++shape) {
    if (read_mix[shape] == 0) continue;
    const std::string sql = ReadSql(shape, Tab::kU, point_key);
    const std::uint64_t id = p.next_stmt_++;
    ScopedSpan span(p.tr_, "probe.explain", id);
    Result<std::string> plan = Status::Internal("not run");
    TimedSpan(p.tr_, "engine.explain", id,
              [&] { plan = p.session_.Explain(sql); });
    p.Ok(plan.status(), "Explain " + sql);
    Result<QueryResult> r = Status::Internal("not run");
    TimedSpan(p.tr_, "engine.sql", id, [&] { r = p.session_.Sql(sql); });
    p.Ok(r.status(), sql);
    if (!plan.ok() || !r.ok()) continue;
    CheckRead(p.sh_, shape, r.value(), point_key, sql);
    const auto w = static_cast<double>(read_mix[shape]);
    total += w;
    if (plan.value().find("Patch") != std::string::npos) rewritten += w;
    if (r.value().parallel) parallel += w;
  }
  p.Add("optimizer.rewrite_ratio", rewritten / total, "ratio");
  p.Add("engine.parallel_ratio", parallel / total, "ratio");
}

/// engine.update_ms.*: Session::ExecuteUpdate with hand-built
/// UpdateQuery deltas on the catalog tables; the model replays them.
void ProbeEngineUpdates(Probe& p) {
  std::vector<double> ms[kNumShapes];
  for (int rep = 0; rep < p.o_.spec.layer_reps; ++rep) {
    for (Tab t : {Tab::kU, Tab::kL}) {
      for (int shape : {kInsert, kModify, kDelete}) {
        p.Stmt(std::string("update.") + ShapeName(shape),
               [&](std::uint64_t id) {
          const WriteOp op = p.sh_.model->NextWrite(shape, t, p.rng_);
          // Modify and delete address rows by rowID: find it first.
          RowId row = 0;
          if (shape != kInsert) {
            const Table& table = *p.env_.engine->catalog().FindTable(
                TabName(t));
            Result<QueryResult> r = p.session_.Execute(LSelect(
                LScan(table, {0}), Eq(Col(0), ConstInt(op.rows[0].first)),
                1e-6));
            p.Ok(r.status(), "row lookup");
            if (!r.ok() || r.value().rows.row_ids.size() != 1) {
              p.sh_.Fail("row lookup for key " +
                         std::to_string(op.rows[0].first));
              return;
            }
            row = r.value().rows.row_ids[0];
          }
          UpdateQuery q;
          if (shape == kInsert) {
            std::vector<Row> rows;
            for (const auto& [k, v] : op.rows) {
              rows.push_back(MakeGeneratorRow(k, v));
            }
            q = UpdateQuery::Insert(std::move(rows));
          } else if (shape == kModify) {
            q = UpdateQuery::Modify({{row, 1, Value(op.rows[0].second)}});
          } else {
            q = UpdateQuery::Delete({row});
          }
          p.sh_.model->Apply(op);
          Status st;
          ms[shape].push_back(TimedSpan(p.tr_, "engine.execute_update", id, [&] {
            st = p.session_.ExecuteUpdate(TabName(t), std::move(q));
          }));
          p.Ok(st, std::string("ExecuteUpdate ") + ShapeName(shape));
        });
      }
    }
  }
  for (int shape : {kInsert, kModify, kDelete}) {
    p.Add(std::string("engine.update_ms.") + ShapeName(shape),
          Median(ms[shape]), "ms");
  }
}

/// patchindex.*, storage.checkpoint_ms and bitmap.*: the §5 commit steps
/// on replica tables, discovery per index, and bitmap operations.
void ProbeReplica(Probe& p) {
  const WorkloadSpec& spec = p.o_.spec;
  std::vector<double> handle[kNumShapes], ckpt, after, scan_fraction,
      discovery(3, 0.0);
  double utilization = NAN;
  std::vector<std::uint64_t> u_patches;
  std::uint64_t u_rows = 0;
  const TableSpec specs[3] = {spec.u, spec.l, spec.o};
  for (int i = 0; i < 3; ++i) {
    GeneratorConfig cfg;
    cfg.num_rows = specs[i].rows;
    cfg.exception_rate = specs[i].exception_rate;
    cfg.seed = TableSeed(p.o_.seed, i);
    Table t = i == 0 ? GenerateNucTable(cfg) : GenerateNscTable(cfg);
    const ConstraintKind kind = i == 0 ? ConstraintKind::kNearlyUnique
                                       : ConstraintKind::kNearlySorted;
    std::unique_ptr<PatchIndex> idx;
    p.Stmt("discovery", [&](std::uint64_t id) {
      discovery[i] = TimedSpan(p.tr_, "patchindex.create", id, [&] {
        idx = PatchIndex::Create(t, 1, kind);
      });
    });
    if (i == 2) break;  // o is never written
    if (i == 0) {
      u_rows = t.num_rows();
      for (RowId r : idx->patches().PatchRowIds()) u_patches.push_back(r);
    }
    std::int64_t next_key = static_cast<std::int64_t>(t.num_rows());
    std::int64_t fresh = 5'000'000'000;
    for (int rep = 0; rep < 4 * spec.layer_reps; ++rep) {
      for (int shape : {kInsert, kModify, kDelete}) {
        p.Stmt(std::string("replica.") + ShapeName(shape),
               [&](std::uint64_t id) {
          const std::uint64_t n = t.num_rows();
          auto value = [&](bool collide) -> std::int64_t {
            if (!collide) return fresh += 2;
            return static_cast<std::int64_t>(
                i == 0 ? p.rng_.Uniform(0, 99) : p.rng_.Uniform(0, 2 * n));
          };
          Status st;
          if (shape == kInsert) {
            for (int r = 0; r < 10; ++r) {
              t.BufferInsert(MakeGeneratorRow(next_key++, value(r % 2 == 0)));
            }
          } else if (shape == kModify) {
            st = t.BufferModify(p.rng_.Uniform(0, n - 1), 1,
                                Value(value(p.rng_.NextBool(0.5))));
          } else {
            st = t.BufferDelete(p.rng_.Uniform(0, n - 1));
          }
          p.Ok(st, "buffer replica write");
          handle[shape].push_back(TimedSpan(p.tr_, "patchindex.handle", id, [&] {
            st = idx->HandleUpdateQuery();
          }));
          p.Ok(st, "HandleUpdateQuery");
          ckpt.push_back(TimedSpan(p.tr_, "storage.checkpoint", id,
                                   [&] { t.Checkpoint(); }));
          after.push_back(TimedSpan(p.tr_, "patchindex.after_checkpoint", id,
                                    [&] { st = idx->AfterCheckpoint(); }));
          p.Ok(st, "AfterCheckpoint");
          if (i == 0 && shape != kDelete) {
            scan_fraction.push_back(idx->last_handled_scan_fraction());
          }
        });
      }
    }
    if (!idx->CheckInvariant()) p.sh_.Fail("replica CheckInvariant failed");
    if (i == 0) {
      const auto* bitmap_set = dynamic_cast<const BitmapPatchSet*>(
          &idx->patches());
      if (bitmap_set != nullptr) {
        utilization = bitmap_set->bitmap().Utilization();
      }
    }
  }
  for (int shape : {kInsert, kModify, kDelete}) {
    p.Add(std::string("patchindex.handle_ms.") + ShapeName(shape),
          Median(handle[shape]), "ms");
  }
  p.Add("patchindex.after_checkpoint_ms", Median(after), "ms");
  p.Add("storage.checkpoint_ms", Median(ckpt), "ms");
  double sf = 0;
  for (double f : scan_fraction) sf += f;
  p.Add("patchindex.scan_fraction",
        scan_fraction.empty() ? NAN : sf / scan_fraction.size(), "ratio");
  p.Add("patchindex.discovery_ms", discovery[0] + discovery[1] + discovery[2],
        "ms");
  p.Add("bitmap.utilization", utilization, "ratio");

  // Bitmap deletes and appends, replayed on a bitmap of u's size and
  // density at seeded positions.
  ShardedBitmap bm(u_rows);
  for (std::uint64_t r : u_patches) bm.Set(r);
  std::vector<double> del_us, app_us;
  const int ops = 256;
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t pos = p.rng_.Uniform(0, bm.size() - 1);
    del_us.push_back(1000.0 * TimedSpan(p.tr_, "bitmap.delete", 0,
                                        [&] { bm.Delete(pos); }));
    app_us.push_back(1000.0 * TimedSpan(p.tr_, "bitmap.append", 0,
                                        [&] { bm.Append(10); }));
  }
  p.Add("bitmap.delete_us", Median(del_us), "us");
  p.Add("bitmap.append_us", Median(app_us), "us");
}

/// Sizes and rates of the catalog tables and indexes at run end.
void ProbeFootprint(Probe& p) {
  Catalog& cat = p.env_.engine->catalog();
  double table_bytes = 0, index_bytes = 0, rows = 0;
  for (const char* name : {"u", "l", "o"}) {
    const Table& t = *cat.FindTable(name);
    table_bytes += static_cast<double>(t.MemoryUsageBytes());
    rows += static_cast<double>(t.num_rows());
    for (const PatchIndex* idx : cat.manager().IndexesOn(t)) {
      index_bytes += static_cast<double>(idx->MemoryUsageBytes());
    }
  }
  p.Add("storage.bytes_per_row", table_bytes / rows, "B/row");
  p.Add("patchindex.bytes_per_row", index_bytes / rows, "B/row");

  const PatchIndex* u_idx = cat.manager().IndexesOn(*cat.FindTable("u"))[0];
  p.Add("patchindex.exception_rate_end", u_idx->exception_rate(), "ratio");

  std::vector<double> ns;
  for (int rep = 0; rep < 4 * p.o_.spec.layer_reps; ++rep) {
    std::uint64_t n = 0;
    const double ms = TimedSpan(p.tr_, "bitmap.scan", 0, [&] {
      u_idx->ForEachPatchInRange(0, u_idx->NumRows(),
                                 [&n](RowId) { ++n; });
    });
    if (n != u_idx->NumPatches()) p.sh_.Fail("patch scan count mismatch");
    ns.push_back(ms * 1e6 / static_cast<double>(u_idx->NumRows()));
  }
  p.Add("bitmap.scan_ns_per_row", Median(ns), "ns/row");
}

/// server.*: the same point SELECT over loopback and in process.
void ProbeServer(Probe& p) {
  ServerOptions so;
  so.query_workers = 1;
  PiServer server(*p.env_.engine, so);
  PiClient client;
  Status st = server.Start();
  if (st.ok()) st = client.Connect("127.0.0.1", server.port());
  p.Ok(st, "server start/connect");
  if (!st.ok()) return;
  std::vector<double> diff_us;
  for (int rep = 0; rep < 40 * p.o_.spec.layer_reps; ++rep) {
    const auto key = static_cast<std::int64_t>(
        p.rng_.Uniform(0, p.sh_.model->key_space(Tab::kU) - 1));
    const std::optional<std::int64_t> expected =
        p.sh_.model->Lookup(Tab::kU, key);
    const std::string sql = ReadSql(kPoint, Tab::kU, key);
    p.Stmt("server_rtt", [&](std::uint64_t id) {
      Result<QueryResult> remote = Status::Internal("not run");
      Result<QueryResult> local = Status::Internal("not run");
      p.sh_.counters.wire_attempts.fetch_add(1);
      const double rtt = TimedSpan(p.tr_, "client.sql", id,
                                   [&] { remote = client.Sql(sql); });
      const double eng = TimedSpan(p.tr_, "engine.sql", id,
                                   [&] { local = p.session_.Sql(sql); });
      p.Ok(remote.status(), "remote " + sql);
      p.Ok(local.status(), sql);
      if (!remote.ok() || !local.ok()) return;
      for (const Result<QueryResult>* r : {&remote, &local}) {
        const std::string err = CheckPoint(r->value(), key, expected);
        if (!err.empty()) p.sh_.Fail(sql + ": " + err);
      }
      diff_us.push_back(1000.0 * (rtt - eng));
    });
  }
  client.Close();
  server.Stop();
  p.Add("server.rtt_minus_engine_us", Median(diff_us), "us");
  const auto attempts = p.sh_.counters.wire_attempts.load();
  p.Add("server.busy_retries",
        static_cast<double>(p.sh_.counters.busy_retries.load()) /
            static_cast<double>(attempts),
        "ratio");
}

}  // namespace

void RunLayerProbes(const RunOptions& options, Env& env, Shared& shared,
                    const std::uint64_t (&read_mix)[kNumReadShapes],
                    Tracer& tracer, RunResult* result) {
  Probe p(options, env, shared, tracer, result);
  double generate_ms = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name == "workload.generate") {
      generate_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  p.Add("workload.generate_ms", generate_ms, "ms");
  ProbePrepare(p);
  ProbeReadPath(p, read_mix);
  ProbeEngineUpdates(p);
  ProbeReplica(p);
  ProbeFootprint(p);
  ProbeServer(p);
}

}  // namespace pibench
