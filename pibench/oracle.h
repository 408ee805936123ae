#ifndef PIBENCH_ORACLE_H_
#define PIBENCH_ORACLE_H_

// The benchmark's independent oracle: a model of the three tables built
// from the generated rows and kept current by replaying every write the
// benchmark sends. Expected answers come from the model, never from the
// engine. Set-valued answers are compared through order-independent
// 64-bit fingerprints (sums of a mixing hash), so checking a million-row
// result costs one pass over it.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/rng.h"

namespace pibench {

/// SplitMix64 finalizer: the per-element hash of the fingerprints.
std::uint64_t Mix(std::uint64_t x);
inline std::uint64_t RowHash(std::int64_t key, std::int64_t val) {
  return Mix(static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL ^
             Mix(static_cast<std::uint64_t>(val)));
}

/// Every read answer of the model at one state.
struct Digest {
  std::uint64_t distinct_u = 0;  // |DISTINCT u.val|
  std::uint64_t distinct_fp = 0; // sum of Mix over the distinct u.val
  std::uint64_t rows_u = 0;
  std::int64_t sum_u = 0;
  std::uint64_t rows_l = 0;
  std::uint64_t fp_l = 0;        // sum of RowHash over l's rows
  std::uint64_t join = 0;        // |o JOIN l ON o.val = l.val|
};

/// Which modelled table: the nearly-unique `u` or the nearly-sorted `l`
/// (the join input `o` is never written).
enum class Tab { kU, kL };
const char* TabName(Tab t);

/// One write statement, as values.
struct WriteOp {
  int shape = kInsert;  // kInsert, kModify or kDelete
  Tab table = Tab::kU;
  /// kInsert: the new rows; kModify/kDelete: the one targeted row (for
  /// kDelete only the key matters).
  std::vector<std::pair<std::int64_t, std::int64_t>> rows;
  /// kModify: the new value comes from the exception domain. Such a
  /// modify costs the NUC handling a duplicate search the fresh one skips.
  bool collide = false;
  std::string Sql() const;
};

class Model {
 public:
  /// Takes the generated (key, val) columns; keys are 0..n-1.
  Model(std::vector<std::int64_t> u_vals, std::vector<std::int64_t> l_vals,
        const std::vector<std::int64_t>& o_vals);

  Digest digest() const { return d_; }

  /// The live value of `key`, or nullopt for a dead or unknown key.
  std::optional<std::int64_t> Lookup(Tab t, std::int64_t key) const;
  /// Keys ever used in `t` (the next insert gets this key).
  std::int64_t key_space(Tab t) const {
    return static_cast<std::int64_t>(tab(t).vals.size());
  }

  /// Draws the next write of kind `shape` against the current state:
  /// inserts take fresh keys, modifies and deletes a live key. Half the
  /// written values collide with the table's exception domain, half are
  /// fresh (for `l`: they extend the sorted run).
  WriteOp NextWrite(int shape, Tab t, patchindex::Rng& rng);

  /// Applies `op` to the model and returns the op that undoes it.
  WriteOp Apply(const WriteOp& op);

 private:
  struct TableState {
    std::vector<std::int64_t> vals;
    std::vector<std::uint8_t> live;
  };
  TableState& tab(Tab t) { return t == Tab::kU ? u_ : l_; }
  const TableState& tab(Tab t) const { return t == Tab::kU ? u_ : l_; }
  void Set(Tab t, std::int64_t key, std::optional<std::int64_t> val);
  void AddRow(Tab t, std::int64_t key, std::int64_t val, int sign);

  TableState u_, l_;
  std::unordered_map<std::int64_t, std::uint32_t> u_counts_;
  std::unordered_map<std::int64_t, std::uint32_t> o_counts_;
  std::int64_t l_rows_initial_ = 0;
  std::int64_t fresh_ = 0;
  Digest d_;
};

/// Summary of a read answer in the same terms as Digest.
struct Answer {
  int shape = kDistinct;
  std::uint64_t rows = 0;
  std::uint64_t fp = 0;
  std::int64_t a = 0, b = 0;  // join: a = count; agg: a = count, b = sum
  std::string error;          // shape errors (unsorted, wrong width, ...)
};

/// Summarizes a read result of `shape` (not kPoint).
Answer Summarize(int shape, const patchindex::QueryResult& r);
/// Empty when `a` is the answer `d` predicts, else what differs.
std::string Compare(const Answer& a, const Digest& d);
/// Empty when `r` is the point answer for (key, expected).
std::string CheckPoint(const patchindex::QueryResult& r, std::int64_t key,
                       std::optional<std::int64_t> expected);

/// The read statement of `shape`; `key` is used by kPoint only.
std::string ReadSql(int shape, Tab point_table, std::int64_t key);

}  // namespace pibench

#endif  // PIBENCH_ORACLE_H_
