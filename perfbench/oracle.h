// Answer checks for every benchmark request. Operator and resilient
// requests are checked against a partial_sort over ordered key bits (the
// library's canonical total order, NaN included); key-value payloads must be
// the input index of an element carrying the same key, so a payload that
// drifts from its key is caught. Engine queries are checked against a
// scalar evaluator over the table's host-side columns, which tolerates ties
// by comparing rank values and re-deriving each returned row.
#ifndef MPTOPK_PERFBENCH_ORACLE_H_
#define MPTOPK_PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/key_transform.h"
#include "common/tuple_types.h"
#include "engine/query.h"

namespace mptopk::perfbench {

template <typename E>
uint64_t OrderedKey(const E& e) {
  using K = typename ElementTraits<E>::Key;
  return KeyTraits<K>::ToOrderedBits(ElementTraits<E>::PrimaryKey(e));
}

/// The k largest (or smallest) ordered keys of `in`, best first.
template <typename E>
std::vector<uint64_t> ExpectedKeys(const std::vector<E>& in, size_t k,
                                   bool largest) {
  std::vector<uint64_t> keys(in.size());
  for (size_t i = 0; i < in.size(); ++i) keys[i] = OrderedKey(in[i]);
  k = std::min(k, keys.size());
  if (largest) {
    std::partial_sort(keys.begin(), keys.begin() + k, keys.end(),
                      std::greater<uint64_t>());
  } else {
    std::partial_sort(keys.begin(), keys.begin() + k, keys.end());
  }
  keys.resize(k);
  return keys;
}

/// Checks a top-k (largest) or bottom-k answer: exactly the expected keys in
/// best-first order, and for KV every payload is a distinct input index
/// whose element carries the returned key.
template <typename E>
bool CheckTopK(const std::vector<E>& input,
               const std::vector<uint64_t>& expected, bool largest,
               const std::vector<E>& got, std::string* why) {
  if (got.size() != expected.size()) {
    *why = "returned " + std::to_string(got.size()) + " items, expected " +
           std::to_string(expected.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (OrderedKey(got[i]) != expected[i]) {
      *why = std::string(largest ? "top" : "bottom") + "-k key mismatch at " +
             std::to_string(i);
      return false;
    }
  }
  if constexpr (std::is_same_v<E, KV>) {
    std::unordered_set<uint32_t> seen;
    for (const KV& e : got) {
      if (e.value >= input.size() ||
          OrderedKey(input[e.value]) != OrderedKey(e) ||
          !seen.insert(e.value).second) {
        *why = "payload " + std::to_string(e.value) +
               " does not travel with its key";
        return false;
      }
    }
  }
  return true;
}

/// Scalar evaluator for the engine's filter + top-k and group-by-count
/// queries over host copies of the table columns.
class TableOracle {
 public:
  /// Columns as doubles (the engine reads every column as double), plus the
  /// int64 id column.
  void AddColumn(const std::string& name, std::vector<double> values) {
    columns_[name] = std::move(values);
  }
  void SetIds(std::vector<int64_t> ids);

  struct FilterTopKAnswer {
    size_t matched = 0;
    std::vector<float> top_ranks;  ///< descending, min(k, matched) values
  };
  FilterTopKAnswer EvalFilterTopK(const engine::Filter& f,
                                  const engine::Ranking& r, size_t k) const;
  bool CheckFilterTopK(const engine::Filter& f, const engine::Ranking& r,
                       const FilterTopKAnswer& want,
                       const engine::QueryResult& got,
                       std::string* why) const;

  struct GroupByAnswer {
    std::unordered_map<int32_t, uint32_t> counts;
    std::vector<uint32_t> top_counts;  ///< descending
  };
  GroupByAnswer EvalGroupBy(const std::string& column, size_t k) const;
  bool CheckGroupBy(const GroupByAnswer& want,
                    const engine::GroupByResult& got, std::string* why) const;

 private:
  bool Match(const engine::Filter& f, size_t row) const;
  float Rank(const engine::Ranking& r, size_t row) const;

  std::unordered_map<std::string, std::vector<double>> columns_;
  std::vector<int64_t> ids_;
  std::unordered_map<int64_t, size_t> row_of_id_;
};

}  // namespace mptopk::perfbench

#endif  // MPTOPK_PERFBENCH_ORACLE_H_
