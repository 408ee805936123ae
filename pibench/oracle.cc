#include "oracle.h"

#include <utility>

namespace pibench {

using patchindex::ColumnType;
using patchindex::ColumnVector;
using patchindex::QueryResult;

namespace {

// The generator's NUC exceptions use the values [0, 100); its fresh
// unique values start at 1e9 and stay below 1e9 + rows. Written fresh
// values start above both, and above every NSC value (< 2 * rows).
constexpr std::int64_t kNucExceptionValues = 100;
constexpr std::int64_t kFreshNuc = 3'000'000'000;
constexpr std::int64_t kFreshNsc = 4'000'000'000;
constexpr int kInsertRows = 10;

std::int64_t Cell(const ColumnVector& c, std::size_t i) {
  return c.type == ColumnType::kDouble ? static_cast<std::int64_t>(c.f64[i])
                                       : c.i64[i];
}

}  // namespace

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

const char* TabName(Tab t) { return t == Tab::kU ? "u" : "l"; }

std::string WriteOp::Sql() const {
  const std::string t = TabName(table);
  switch (shape) {
    case kInsert: {
      std::string sql = "INSERT INTO " + t + " VALUES ";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += "(" + std::to_string(rows[i].first) + ", " +
               std::to_string(rows[i].second) + ")";
      }
      return sql;
    }
    case kModify:
      return "UPDATE " + t + " SET val = " + std::to_string(rows[0].second) +
             " WHERE key = " + std::to_string(rows[0].first);
    default:
      return "DELETE FROM " + t + " WHERE key = " +
             std::to_string(rows[0].first);
  }
}

std::string ReadSql(int shape, Tab point_table, std::int64_t key) {
  switch (shape) {
    case kDistinct:
      return "SELECT DISTINCT val FROM u";
    case kSort:
      return "SELECT key, val FROM l ORDER BY val";
    case kJoin:
      return "SELECT COUNT(*) FROM o JOIN l ON o.val = l.val";
    case kPoint:
      return std::string("SELECT key, val FROM ") + TabName(point_table) +
             " WHERE key = " + std::to_string(key);
    default:
      return "SELECT COUNT(*), SUM(val) FROM u";
  }
}

Model::Model(std::vector<std::int64_t> u_vals,
             std::vector<std::int64_t> l_vals,
             const std::vector<std::int64_t>& o_vals) {
  for (std::int64_t v : o_vals) ++o_counts_[v];
  l_rows_initial_ = static_cast<std::int64_t>(l_vals.size());
  u_counts_.reserve(u_vals.size());
  for (Tab t : {Tab::kU, Tab::kL}) {
    std::vector<std::int64_t>& vals = t == Tab::kU ? u_vals : l_vals;
    TableState& s = tab(t);
    s.live.assign(vals.size(), 1);
    for (std::size_t k = 0; k < vals.size(); ++k) {
      AddRow(t, static_cast<std::int64_t>(k), vals[k], +1);
    }
    s.vals = std::move(vals);
  }
}

void Model::AddRow(Tab t, std::int64_t key, std::int64_t val, int sign) {
  const std::uint64_t h = RowHash(key, val);
  if (t == Tab::kU) {
    d_.rows_u += sign;
    d_.sum_u += sign * val;
    std::uint32_t& n = u_counts_[val];
    if (sign > 0 && n++ == 0) {
      ++d_.distinct_u;
      d_.distinct_fp += Mix(static_cast<std::uint64_t>(val));
    }
    if (sign < 0 && --n == 0) {
      --d_.distinct_u;
      d_.distinct_fp -= Mix(static_cast<std::uint64_t>(val));
      u_counts_.erase(val);
    }
  } else {
    d_.rows_l += sign;
    d_.fp_l += sign > 0 ? h : -h;
    const auto it = o_counts_.find(val);
    if (it != o_counts_.end()) {
      d_.join += sign > 0 ? it->second : -std::uint64_t{it->second};
    }
  }
}

std::optional<std::int64_t> Model::Lookup(Tab t, std::int64_t key) const {
  const TableState& s = tab(t);
  if (key < 0 || key >= static_cast<std::int64_t>(s.vals.size()) ||
      s.live[key] == 0) {
    return std::nullopt;
  }
  return s.vals[key];
}

void Model::Set(Tab t, std::int64_t key, std::optional<std::int64_t> val) {
  TableState& s = tab(t);
  if (key >= static_cast<std::int64_t>(s.vals.size())) {
    s.vals.resize(key + 1, 0);
    s.live.resize(key + 1, 0);
  }
  if (s.live[key] != 0) AddRow(t, key, s.vals[key], -1);
  s.live[key] = val.has_value() ? 1 : 0;
  if (val.has_value()) {
    s.vals[key] = *val;
    AddRow(t, key, *val, +1);
  }
}

WriteOp Model::NextWrite(int shape, Tab t, patchindex::Rng& rng) {
  auto value = [&](bool collide) -> std::int64_t {
    if (t == Tab::kU) {
      return collide ? static_cast<std::int64_t>(
                           rng.Uniform(0, kNucExceptionValues - 1))
                     : kFreshNuc + fresh_++;
    }
    return collide ? static_cast<std::int64_t>(rng.Uniform(
                         0, static_cast<std::uint64_t>(2 * l_rows_initial_)))
                   : kFreshNsc + 2 * fresh_++;
  };
  WriteOp op;
  op.shape = shape;
  op.table = t;
  if (shape == kInsert) {
    const std::int64_t first = key_space(t);
    for (int i = 0; i < kInsertRows; ++i) {
      op.rows.emplace_back(first + i, value(i % 2 == 0));
    }
    return op;
  }
  // A live key: rejection sampling (deletes are rare), then a scan.
  const TableState& s = tab(t);
  const auto n = static_cast<std::uint64_t>(s.vals.size());
  std::int64_t key = -1;
  for (int tries = 0; tries < 64 && key < 0; ++tries) {
    const auto k = static_cast<std::int64_t>(rng.Uniform(0, n - 1));
    if (s.live[k] != 0) key = k;
  }
  for (std::uint64_t k = 0; key < 0 && k < n; ++k) {
    if (s.live[k] != 0) key = static_cast<std::int64_t>(k);
  }
  op.collide = shape == kModify && rng.NextBool(0.5);
  op.rows.emplace_back(key, shape == kModify ? value(op.collide) : 0);
  return op;
}

WriteOp Model::Apply(const WriteOp& op) {
  WriteOp undo;
  undo.table = op.table;
  if (op.shape == kInsert) {
    undo.shape = kDelete;
    for (const auto& [key, val] : op.rows) {
      Set(op.table, key, val);
      undo.rows.emplace_back(key, 0);
    }
    return undo;
  }
  const std::int64_t key = op.rows[0].first;
  const std::optional<std::int64_t> old = Lookup(op.table, key);
  undo.shape = old.has_value() ? kModify : kDelete;
  undo.rows.emplace_back(key, old.value_or(0));
  if (op.shape == kModify) {
    Set(op.table, key, op.rows[0].second);
  } else {
    Set(op.table, key, std::nullopt);
  }
  // Undoing a delete re-inserts the row under its old key.
  if (op.shape == kDelete && old.has_value()) undo.shape = kInsert;
  return undo;
}

Answer Summarize(int shape, const QueryResult& r) {
  Answer a;
  a.shape = shape;
  const patchindex::Batch& b = r.rows;
  a.rows = b.num_rows();
  const std::size_t want_cols = shape == kDistinct || shape == kJoin ? 1 : 2;
  if (b.columns.size() != want_cols) {
    a.error = "expected " + std::to_string(want_cols) + " columns, got " +
              std::to_string(b.columns.size());
    return a;
  }
  switch (shape) {
    case kDistinct:
      for (std::size_t i = 0; i < a.rows; ++i) {
        a.fp += Mix(static_cast<std::uint64_t>(Cell(b.columns[0], i)));
      }
      break;
    case kSort:
      for (std::size_t i = 0; i < a.rows; ++i) {
        const std::int64_t val = Cell(b.columns[1], i);
        if (i > 0 && val < Cell(b.columns[1], i - 1)) {
          a.error = "ORDER BY output not ascending at row " +
                    std::to_string(i);
          return a;
        }
        a.fp += RowHash(Cell(b.columns[0], i), val);
      }
      break;
    default:
      if (a.rows != 1) {
        a.error = "expected one row, got " + std::to_string(a.rows);
        return a;
      }
      a.a = Cell(b.columns[0], 0);
      if (shape == kAgg) a.b = Cell(b.columns[1], 0);
      break;
  }
  return a;
}

std::string Compare(const Answer& a, const Digest& d) {
  if (!a.error.empty()) return a.error;
  bool ok = true;
  switch (a.shape) {
    case kDistinct:
      ok = a.rows == d.distinct_u && a.fp == d.distinct_fp;
      break;
    case kSort:
      ok = a.rows == d.rows_l && a.fp == d.fp_l;
      break;
    case kJoin:
      ok = static_cast<std::uint64_t>(a.a) == d.join;
      break;
    default:
      ok = static_cast<std::uint64_t>(a.a) == d.rows_u && a.b == d.sum_u;
      break;
  }
  if (ok) return "";
  return std::string(ShapeName(a.shape)) + " answer differs from the model " +
         "(rows " + std::to_string(a.rows) + ", a " + std::to_string(a.a) +
         ", b " + std::to_string(a.b) + ")";
}

namespace {

/// Shape-only point check: at most one row, and it carries `key`.
std::string CheckPointShape(const QueryResult& r, std::int64_t key) {
  const patchindex::Batch& b = r.rows;
  if (b.num_rows() > 1 || b.columns.size() != 2) {
    return "point SELECT returned " + std::to_string(b.num_rows()) +
           " rows / " + std::to_string(b.columns.size()) + " columns";
  }
  if (b.num_rows() == 1 && Cell(b.columns[0], 0) != key) {
    return "point SELECT returned the wrong key";
  }
  return "";
}

}  // namespace

std::string CheckPoint(const QueryResult& r, std::int64_t key,
                       std::optional<std::int64_t> expected) {
  std::string err = CheckPointShape(r, key);
  if (!err.empty()) return err;
  const patchindex::Batch& b = r.rows;
  if (b.num_rows() != (expected.has_value() ? 1u : 0u) ||
      (expected.has_value() && Cell(b.columns[1], 0) != *expected)) {
    return "point SELECT on key " + std::to_string(key) +
           " differs from the model";
  }
  return "";
}

}  // namespace pibench
