#include "oracle.h"

namespace mptopk::perfbench {

void TableOracle::SetIds(std::vector<int64_t> ids) {
  ids_ = std::move(ids);
  row_of_id_.clear();
  for (size_t r = 0; r < ids_.size(); ++r) row_of_id_[ids_[r]] = r;
}

// Mirrors engine::Compare / CompiledQuery::Match: CNF over double reads.
bool TableOracle::Match(const engine::Filter& f, size_t row) const {
  for (const engine::Disjunction& d : f.all_of) {
    bool any = false;
    for (const engine::FilterClause& c : d.any_of) {
      const double v = columns_.at(c.column)[row];
      bool m = false;
      switch (c.op) {
        case engine::CompareOp::kLt: m = v < c.value; break;
        case engine::CompareOp::kLe: m = v <= c.value; break;
        case engine::CompareOp::kGt: m = v > c.value; break;
        case engine::CompareOp::kGe: m = v >= c.value; break;
        case engine::CompareOp::kEq: m = v == c.value; break;
      }
      if (m) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

// Mirrors CompiledQuery::RankValue: double accumulation, float result.
float TableOracle::Rank(const engine::Ranking& r, size_t row) const {
  double v = 0;
  for (const engine::RankingTerm& t : r.terms) {
    v += t.coeff * columns_.at(t.column)[row];
  }
  return static_cast<float>(v);
}

TableOracle::FilterTopKAnswer TableOracle::EvalFilterTopK(
    const engine::Filter& f, const engine::Ranking& r, size_t k) const {
  FilterTopKAnswer a;
  for (size_t row = 0; row < ids_.size(); ++row) {
    if (!Match(f, row)) continue;
    ++a.matched;
    a.top_ranks.push_back(Rank(r, row));
  }
  const size_t kk = std::min(k, a.top_ranks.size());
  std::partial_sort(a.top_ranks.begin(), a.top_ranks.begin() + kk,
                    a.top_ranks.end(), std::greater<float>());
  a.top_ranks.resize(kk);
  return a;
}

bool TableOracle::CheckFilterTopK(const engine::Filter& f,
                                  const engine::Ranking& r,
                                  const FilterTopKAnswer& want,
                                  const engine::QueryResult& got,
                                  std::string* why) const {
  if (got.matched_rows != want.matched) {
    *why = "matched " + std::to_string(got.matched_rows) + " rows, expected " +
           std::to_string(want.matched);
    return false;
  }
  if (got.ids.size() != want.top_ranks.size() ||
      got.rank_values != want.top_ranks) {
    *why = "top-k rank values differ from the scalar evaluator";
    return false;
  }
  std::unordered_set<int64_t> seen;
  for (size_t i = 0; i < got.ids.size(); ++i) {
    auto it = row_of_id_.find(got.ids[i]);
    if (it == row_of_id_.end() || !seen.insert(got.ids[i]).second) {
      *why = "unknown or repeated id " + std::to_string(got.ids[i]);
      return false;
    }
    if (!Match(f, it->second) || Rank(r, it->second) != got.rank_values[i]) {
      *why = "id " + std::to_string(got.ids[i]) +
             " does not match the filter or its rank value";
      return false;
    }
  }
  return true;
}

TableOracle::GroupByAnswer TableOracle::EvalGroupBy(const std::string& column,
                                                    size_t k) const {
  GroupByAnswer a;
  for (double v : columns_.at(column)) ++a.counts[static_cast<int32_t>(v)];
  for (const auto& [key, count] : a.counts) a.top_counts.push_back(count);
  const size_t kk = std::min(k, a.top_counts.size());
  std::partial_sort(a.top_counts.begin(), a.top_counts.begin() + kk,
                    a.top_counts.end(), std::greater<uint32_t>());
  a.top_counts.resize(kk);
  return a;
}

bool TableOracle::CheckGroupBy(const GroupByAnswer& want,
                               const engine::GroupByResult& got,
                               std::string* why) const {
  if (got.num_groups != want.counts.size()) {
    *why = "found " + std::to_string(got.num_groups) + " groups, expected " +
           std::to_string(want.counts.size());
    return false;
  }
  if (got.counts != want.top_counts || got.keys.size() != got.counts.size()) {
    *why = "top-k group counts differ from the scalar evaluator";
    return false;
  }
  std::unordered_set<int32_t> seen;
  for (size_t i = 0; i < got.keys.size(); ++i) {
    auto it = want.counts.find(got.keys[i]);
    if (it == want.counts.end() || it->second != got.counts[i] ||
        !seen.insert(got.keys[i]).second) {
      *why = "group " + std::to_string(got.keys[i]) +
             " is unknown, repeated or miscounted";
      return false;
    }
  }
  return true;
}

}  // namespace mptopk::perfbench
