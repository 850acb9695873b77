// The three benchmark workloads. Each builds a fixed pass of requests;
// main.cc replays passes in a closed loop. The seed changes only
// the data (key values, table contents): the request mix, k, filters, order
// and fault plans are the same for every seed, so runs with different seeds
// measure the same work. Each run holds kDataVariants data sets drawn from
// its seed and rotates them over the requests, so one run's timings average
// over several inputs rather than hanging on one draw. Why each workload
// exists, and which layer it stresses, is in README.md.
#include <algorithm>
#include <array>
#include <random>
#include <thread>

#include "common/distributions.h"
#include "engine/batch.h"
#include "engine/tweets.h"
#include "harness.h"
#include "oracle.h"
#include "planner/plan_topk.h"
#include "planner/resilient.h"
#include "simt/fault_injection.h"
#include "topk/registry.h"

namespace mptopk::perfbench {
namespace {

// Request order within a pass: shuffled once, the same for every seed.
constexpr uint64_t kOrderSeed = 0x5eed;

// Seed of data variant v: distinct for every (seed, variant) pair.
uint64_t DataSeed(uint64_t seed, int variant) {
  return seed * kDataVariants + static_cast<uint64_t>(variant);
}

std::unique_ptr<simt::Device> MakeDevice(int workers, int trace_sample) {
  simt::DeviceSpec spec = simt::DeviceSpec::TitanXMaxwell();
  spec.host_workers = workers;
  auto dev = std::make_unique<simt::Device>(spec);
  dev->set_trace_sample_target(trace_sample);
  return dev;
}

std::vector<KV> WithIndexPayload(const std::vector<float>& keys) {
  std::vector<KV> out(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = KV{keys[i], static_cast<uint32_t>(i)};
  }
  return out;
}

template <typename E>
cost::Workload TopKWorkload(size_t n, size_t k, Distribution dist) {
  cost::Workload w;
  w.n = n;
  w.k = k;
  w.elem_size = sizeof(E);
  w.key_size = sizeof(
      typename KeyTraits<typename ElementTraits<E>::Key>::Unsigned);
  w.dist = dist;
  return w;
}

// Times PlanTopK on a request's workload as its own root span (outside the
// request, so it does not count as tracing overhead).
void TracePlan(SpanRecorder* spans, size_t request, const simt::Device& dev,
               const cost::Workload& w) {
  if (spans == nullptr) return;
  ScopedSpan span(spans, "planner", "PlanTopK", request);
  auto plan = planner::PlanTopK(dev.spec(), w, /*include_extensions=*/true);
  if (!plan.ok()) std::abort();  // every benchmark workload is plannable
}

// ---------------------------------------------------------------------------
// operators-traced: each request runs one GPU sweep operator directly
// (top-k or bottom-k, f32 or KV, k in {32, 128}, uniform or bucket-killer
// keys) with every block traced on one worker.

class OperatorsTraced final : public Workload {
 public:
  static constexpr size_t kN = size_t{1} << 16;

  int workers() const override { return 1; }
  int trace_sample() const override { return 0; }
  size_t pass_length() const override { return reqs_.size(); }
  // One class per operator.
  int num_classes() const override { return static_cast<int>(ops_.size()); }
  int class_of(size_t i) const override { return reqs_[i].op_index; }

  Status Setup(uint64_t seed) override {
    dev_ = MakeDevice(1, 0);
    ops_ = topk::GpuSweepOperators(/*include_extensions=*/true);
    for (int v = 0; v < kDataVariants; ++v) {
      Data& d = data_[v];
      const uint64_t ds = DataSeed(seed, v);
      d.keys[0] = GenerateFloats(kN, Distribution::kUniform, 2 * ds);
      d.keys[1] = GenerateFloats(kN, Distribution::kBucketKiller, 2 * ds + 1);
      for (int dist = 0; dist < 2; ++dist) {
        d.kv[dist] = WithIndexPayload(d.keys[dist]);
      }
    }

    // Per operator, the half fraction dir ^ elem ^ k ^ dist == 0 of the
    // 2^4 variants: every factor level and every pair of levels appears
    // equally often. Sort, by far the slowest under full tracing, runs
    // five of its eight so the pass is 45 requests (see pass_length()).
    reqs_.clear();
    for (size_t o = 0; o < ops_.size(); ++o) {
      int taken = 0;
      const int limit = ops_[o]->name() == "Sort" ? 5 : 8;
      for (int v = 0; v < 16 && taken < limit; ++v) {
        const int bottom = v & 1, kv = (v >> 1) & 1, big_k = (v >> 2) & 1,
                  adv = (v >> 3) & 1;
        if ((bottom ^ kv ^ big_k ^ adv) != 0) continue;
        reqs_.push_back(Req{static_cast<int>(o), bottom == 1, kv == 1,
                            big_k ? size_t{128} : size_t{32}, adv});
        ++taken;
      }
    }
    std::mt19937_64 rng(kOrderSeed);
    std::shuffle(reqs_.begin(), reqs_.end(), rng);
    kernel_ms_.assign(reqs_.size(), 0.0);
    sim_ms_.assign(reqs_.size(), 0.0);
    return Status::OK();
  }

  void PrepareOracle() override {
    for (Data& d : data_) {
      d.expected.clear();
      for (const Req& r : reqs_) {
        d.expected.push_back(
            r.kv ? ExpectedKeys(d.kv[r.dist], r.k, !r.bottom)
                 : ExpectedKeys(d.keys[r.dist], r.k, !r.bottom));
      }
    }
  }

  bool MutantSelfCheck(std::string* why) override {
    // A correct KV answer with two payloads swapped (keys still right) and
    // one with a key replaced must both be rejected.
    const std::vector<KV>& in = data_[0].kv[0];
    auto want = ExpectedKeys(in, 32, true);
    auto r = ops_[0]->TopKHost(*dev_, in.data(), in.size(), 32);
    std::string sink;
    if (!r.ok() || !CheckTopK(in, want, true, r->items, &sink)) {
      *why = "reference answer rejected: " + sink;
      return false;
    }
    std::vector<KV> swapped = r->items;
    std::swap(swapped[0].value, swapped[1].value);
    std::vector<KV> wrong_key = r->items;
    wrong_key.back().key = -1.0f;  // keys are U(0, 1): never in the top 32
    if (CheckTopK(in, want, true, swapped, &sink) ||
        CheckTopK(in, want, true, wrong_key, &sink)) {
      *why = "operator oracle accepted a mutant";
      return false;
    }
    return true;
  }

  RequestResult Run(size_t i, int variant, SimCounters* sim,
                    SpanRecorder* spans) override {
    const Req& r = reqs_[i];
    const Data& d = data_[variant];
    const topk::TopKOperator* op = ops_[r.op_index];
    dev_->ResetAccounting();
    RequestResult out;
    {
      ScopedSpan req_span(spans, "request", op->name(), i);
      ScopedSpan op_span(spans, "topk", op->name(), i);
      const auto t0 = Clock::now();
      out.ok = r.kv ? RunOne(op, d.kv[r.dist], r, &got_kv_)
                    : RunOne(op, d.keys[r.dist], r, &got_f32_);
      out.host_ms = MsBetween(t0, Clock::now());
    }
    SimCounters s;
    s.sim_ms = dev_->total_sim_ms() + dev_->pcie_ms();
    s.AddDevice(*dev_);
    kernel_ms_[i] = s.kernel_ms;
    sim_ms_[i] = s.sim_ms;
    *sim += s;
    TracePlan(spans, i, *dev_,
              r.kv ? TopKWorkload<KV>(kN, r.k, Dist(r))
                   : TopKWorkload<float>(kN, r.k, Dist(r)));
    return out;
  }

  bool Check(size_t i, int variant, std::string* why) override {
    const Req& r = reqs_[i];
    const Data& d = data_[variant];
    return r.kv ? CheckTopK(d.kv[r.dist], d.expected[i], !r.bottom, got_kv_,
                            why)
                : CheckTopK(d.keys[r.dist], d.expected[i], !r.bottom,
                            got_f32_, why);
  }

  void SetWorkers(int workers) override { dev_->set_host_workers(workers); }
  const simt::Device& device() const override { return *dev_; }

  void LayerMetrics(const SimCounters&, const SpanRecorder&,
                    Metrics* out) override {
    for (size_t o = 0; o < ops_.size(); ++o) {
      const std::string name = MetricName(ops_[o]->name());
      double sim = 0;
      std::vector<double> residual;
      for (size_t i = 0; i < reqs_.size(); ++i) {
        const Req& r = reqs_[i];
        if (r.op_index != static_cast<int>(o)) continue;
        sim += sim_ms_[i];
        if (r.bottom) continue;  // the cost model prices top-k only
        const double pred = ops_[o]->CostMs(
            dev_->spec(), r.kv ? TopKWorkload<KV>(kN, r.k, Dist(r))
                               : TopKWorkload<float>(kN, r.k, Dist(r)));
        residual.push_back(std::abs(pred - kernel_ms_[i]) / kernel_ms_[i]);
      }
      (*out)["topk.sim_ms." + name] = {sim, "ms"};
      (*out)["cost.residual." + name] = {Median(residual), "frac"};
    }
  }

 private:
  struct Req {
    int op_index;
    bool bottom;
    bool kv;
    size_t k;
    int dist;  // 0 uniform, 1 bucket killer
  };
  struct Data {
    std::vector<float> keys[2];  // [dist]
    std::vector<KV> kv[2];
    std::vector<std::vector<uint64_t>> expected;  // per request
  };

  static Distribution Dist(const Req& r) {
    return r.dist == 0 ? Distribution::kUniform : Distribution::kBucketKiller;
  }

  template <typename E>
  bool RunOne(const topk::TopKOperator* op, const std::vector<E>& in,
              const Req& r, std::vector<E>* got) {
    auto res = r.bottom ? op->BottomKHost(*dev_, in.data(), in.size(), r.k)
                        : op->TopKHost(*dev_, in.data(), in.size(), r.k);
    if (!res.ok()) return false;
    *got = std::move(res->items);
    return true;
  }

  std::unique_ptr<simt::Device> dev_;
  std::vector<const topk::TopKOperator*> ops_;
  std::array<Data, kDataVariants> data_;
  std::vector<Req> reqs_;
  std::vector<double> kernel_ms_, sim_ms_;  // of the request's last run
  std::vector<float> got_f32_;
  std::vector<KV> got_kv_;
};

// ---------------------------------------------------------------------------
// tweets-batch: Q1-Q4 over a seeded tweets table, two queries per
// BatchExecutor::Execute on four streams, strategies and the top-k operator
// cycled, sampled tracing on min(4, nproc) workers.

class TweetsBatch final : public Workload {
 public:
  static constexpr size_t kRows = size_t{1} << 16;
  static constexpr size_t kBatches = 25;
  static constexpr size_t kPerBatch = 2;
  static constexpr int kStreams = 4;

  int workers() const override {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(hw, 1, 4);
  }
  int trace_sample() const override { return 32; }
  size_t pass_length() const override { return kBatches; }
  // Query j has shape Q(j % 4 + 1), so a batch is either Q1+Q2 or Q3+Q4.
  int num_classes() const override { return 2; }
  int class_of(size_t i) const override { return static_cast<int>(i % 2); }

  Status Setup(uint64_t seed) override {
    dev_ = MakeDevice(workers(), 32);
    for (int v = 0; v < kDataVariants; ++v) {
      Data& d = data_[v];
      MPTOPK_ASSIGN_OR_RETURN(
          d.table,
          engine::MakeTweetsTable(dev_.get(), kRows, DataSeed(seed, v)));
      d.exec = std::make_unique<engine::BatchExecutor>(*d.table, kStreams);
    }

    std::vector<std::string> kv_ops;
    for (const topk::TopKOperator* op : topk::GpuSweepOperators(true)) {
      if (op->SupportsElem<KV>()) kv_ops.push_back(op->name());
    }
    const size_t ks[] = {16, 32, 50, 64};
    const engine::Ranking by_retweets{{{"retweet_count", 1.0}}};
    queries_.clear();
    for (size_t j = 0; j < kBatches * kPerBatch; ++j) {
      engine::BatchQuery q;
      const size_t cycle = j / 4;
      q.k = ks[cycle % 4];
      q.strategy = static_cast<engine::TopKStrategy>(cycle % 3);
      q.exec.topk_operator = kv_ops[(j / 2) % kv_ops.size()];
      switch (j % 4) {
        case 0:
          q.label = "q1-time";
          q.filter = engine::Filter{
              {{"tweet_time", engine::CompareOp::kLt,
                (0.2 + 0.2 * (cycle % 4)) * engine::kTweetTimeRange}}};
          q.ranking = by_retweets;
          break;
        case 1:
          q.label = "q2-custom-rank";
          q.ranking = engine::Ranking{
              {{"retweet_count", 1.0},
               {"likes_count", 0.25 * static_cast<double>(1 + cycle % 3)}}};
          break;
        case 2:
          q.label = "q3-lang";
          q.filter = engine::Filter{
              {{"lang", engine::CompareOp::kEq, engine::kLangEn},
               {"lang", engine::CompareOp::kEq, engine::kLangEs}}};
          q.ranking = by_retweets;
          break;
        default:
          q.label = "q4-groupby";
          q.kind = engine::BatchQuery::Kind::kGroupByCount;
          q.group_column = "uid";
          q.groupby_strategy = static_cast<engine::GroupByStrategy>(cycle % 2);
          break;
      }
      q.label += "/" + std::string(q.kind == engine::BatchQuery::Kind::
                                                    kGroupByCount
                                       ? (cycle % 2 == 0 ? "sort" : "bitonic")
                                       : engine::StrategyName(q.strategy)) +
                 "/" + q.exec.topk_operator;
      queries_.push_back(std::move(q));
    }
    return Status::OK();
  }

  void PrepareOracle() override {
    for (Data& d : data_) {
      d.oracle = TableOracle();
      for (const char* name :
           {"tweet_time", "retweet_count", "likes_count", "lang", "uid"}) {
        const int32_t* p = d.table->GetColumn(name).value()->i32.host_data();
        d.oracle.AddColumn(name, std::vector<double>(p, p + kRows));
      }
      const int64_t* ids = d.table->GetColumn("id").value()->i64.host_data();
      d.oracle.SetIds(std::vector<int64_t>(ids, ids + kRows));
      d.topk_want.clear();
      d.group_want.clear();
      for (const engine::BatchQuery& q : queries_) {
        if (q.kind == engine::BatchQuery::Kind::kGroupByCount) {
          d.group_want.push_back(d.oracle.EvalGroupBy(q.group_column, q.k));
          d.topk_want.emplace_back();
        } else {
          d.topk_want.push_back(
              d.oracle.EvalFilterTopK(q.filter, q.ranking, q.k));
          d.group_want.emplace_back();
        }
      }
    }
  }

  bool MutantSelfCheck(std::string* why) override {
    // Run one filter query and one group-by query, then corrupt each answer
    // in a way that keeps its shape: a foreign id, a miscount.
    const Data& d = data_[0];
    auto rep = d.exec->Execute({queries_[0], queries_[3]});
    std::string sink;
    if (!rep.ok() || rep->failed != 0 ||
        !d.oracle.CheckFilterTopK(queries_[0].filter, queries_[0].ranking,
                                  d.topk_want[0], rep->items[0].result,
                                  &sink) ||
        !d.oracle.CheckGroupBy(d.group_want[3], rep->items[1].group_result,
                               &sink)) {
      *why = "reference answer rejected: " + sink;
      return false;
    }
    engine::QueryResult foreign = rep->items[0].result;
    foreign.ids.back() = -1;
    engine::GroupByResult miscounted = rep->items[1].group_result;
    miscounted.counts.back() += 1;
    if (d.oracle.CheckFilterTopK(queries_[0].filter, queries_[0].ranking,
                                 d.topk_want[0], foreign, &sink) ||
        d.oracle.CheckGroupBy(d.group_want[3], miscounted, &sink)) {
      *why = "table oracle accepted a mutant";
      return false;
    }
    return true;
  }

  RequestResult Run(size_t i, int variant, SimCounters* sim,
                    SpanRecorder* spans) override {
    const std::vector<engine::BatchQuery> batch(
        queries_.begin() + i * kPerBatch,
        queries_.begin() + (i + 1) * kPerBatch);
    dev_->ResetAccounting();
    const size_t alloc_before = dev_->lifetime_alloc_bytes();
    const size_t footprint_before = dev_->footprint_bytes();
    RequestResult out;
    StatusOr<engine::BatchReport> rep = Status::Internal("not run");
    {
      ScopedSpan req_span(spans, "request", batch[0].label, i);
      ScopedSpan exec_span(spans, "engine", "Execute", i);
      const auto t0 = Clock::now();
      rep = data_[variant].exec->Execute(batch);
      out.host_ms = MsBetween(t0, Clock::now());
    }
    out.ok = rep.ok() && rep->failed == 0;
    if (i == 0) pass_ = PassAlloc{};
    pass_.alloc_bytes += dev_->lifetime_alloc_bytes() - alloc_before;
    pass_.footprint_growth += dev_->footprint_bytes() - footprint_before;
    SimCounters s;
    s.AddDevice(*dev_);
    if (out.ok) {
      s.sim_ms = rep->makespan_ms;
      s.makespan_ms = rep->makespan_ms;
      s.serialized_ms = rep->serialized_sum_ms;
      for (const engine::BatchItemReport& item : rep->items) {
        ++s.queries;
        s.engine_kernels += item.result.kernels_launched +
                            item.group_result.kernels_launched;
        pass_.arena_peak = std::max(pass_.arena_peak, item.arena_peak_bytes);
      }
      last_ = std::move(rep).value();
    }
    *sim += s;
    TracePlan(spans, i, *dev_,
              TopKWorkload<KV>(kRows, batch[0].k, Distribution::kUniform));
    return out;
  }

  bool Check(size_t i, int variant, std::string* why) override {
    const Data& d = data_[variant];
    for (size_t j = 0; j < kPerBatch; ++j) {
      const size_t qi = i * kPerBatch + j;
      const engine::BatchQuery& q = queries_[qi];
      const engine::BatchItemReport& item = last_.items[j];
      const bool ok =
          q.kind == engine::BatchQuery::Kind::kGroupByCount
              ? d.oracle.CheckGroupBy(d.group_want[qi], item.group_result, why)
              : d.oracle.CheckFilterTopK(q.filter, q.ranking, d.topk_want[qi],
                                         item.result, why);
      if (!ok) {
        *why = q.label + ": " + *why;
        return false;
      }
    }
    return true;
  }

  void SetWorkers(int workers) override { dev_->set_host_workers(workers); }
  const simt::Device& device() const override { return *dev_; }

  void LayerMetrics(const SimCounters& pass, const SpanRecorder& spans,
                    Metrics* out) override {
    (*out)["engine.execute_host_ms"] = {spans.MedianMs("engine", "Execute"),
                                        "ms"};
    (*out)["engine.kernels_per_query"] = {
        static_cast<double>(pass.engine_kernels) / pass.queries, "count"};
    (*out)["engine.sim_makespan_ms"] = {pass.makespan_ms / kBatches, "ms"};
    (*out)["engine.overlap"] = {pass.serialized_ms / pass.makespan_ms, "x"};
    (*out)["engine.pool_reuse_frac"] = {
        1.0 - static_cast<double>(pass_.footprint_growth) /
                  static_cast<double>(pass_.alloc_bytes),
        "frac"};
    (*out)["engine.arena_peak_mb"] = {pass_.arena_peak / (1024.0 * 1024.0),
                                      "MiB"};
  }

 private:
  struct Data {
    std::unique_ptr<engine::Table> table;
    std::unique_ptr<engine::BatchExecutor> exec;
    TableOracle oracle;
    std::vector<TableOracle::FilterTopKAnswer> topk_want;  // per query
    std::vector<TableOracle::GroupByAnswer> group_want;
  };
  // Allocator traffic of the current pass: bytes requested, address space
  // newly carved out, and the largest per-query arena.
  struct PassAlloc {
    size_t alloc_bytes = 0;
    size_t footprint_growth = 0;
    size_t arena_peak = 0;
  };

  // Declared before data_: the tables' buffers release into the device.
  std::unique_ptr<simt::Device> dev_;
  std::array<Data, kDataVariants> data_;
  std::vector<engine::BatchQuery> queries_;
  engine::BatchReport last_;
  PassAlloc pass_;
};

// ---------------------------------------------------------------------------
// resilient-faults: host-input ResilientTopK and device-input
// ResilientTopKDevice at n = 2^14..2^16 under a seeded fault plan per
// request. Sampled tracing, one worker.

enum ResClass {
  kClean,
  kTransient,
  kAllocFail,
  kCorrupt,
  kDegradeCpu,         // device input: every GPU operator fails -> CPU
  kDegradeChunkedCpu,  // host input: staging fails -> ChunkedTopK, whose
                       // chunk copy fails too -> CPU
  kNumResClasses
};

constexpr const char* kResClassNames[kNumResClasses] = {
    "clean",       "transient", "alloc-fail", "corrupt",
    "degrade-cpu", "degrade-chunked-cpu"};

class ResilientFaults final : public Workload {
 public:
  static constexpr size_t kCheap = 44;

  int workers() const override { return 1; }
  int trace_sample() const override { return 32; }
  size_t pass_length() const override { return reqs_.size(); }
  int num_classes() const override { return kNumResClasses; }
  int class_of(size_t i) const override { return reqs_[i].cls; }

  Status Setup(uint64_t seed) override {
    dev_ = MakeDevice(1, 32);
    // Inputs 0..5: f32 and KV at 2^14, 2^15, 2^16 (even = f32), resident
    // on the device too for the device-input entry point.
    for (int v = 0; v < kDataVariants; ++v) {
      Data& d = data_[v];
      const uint64_t ds = DataSeed(seed, v);
      for (int s = 0; s < 3; ++s) {
        const size_t n = size_t{1} << (14 + s);
        d.f32[s] = GenerateFloats(n, Distribution::kUniform, 6 * ds + s);
        d.kv[s] = WithIndexPayload(
            GenerateFloats(n, Distribution::kUniform, 6 * ds + 3 + s));
        MPTOPK_ASSIGN_OR_RETURN(d.dev_f32[s], dev_->Alloc<float>(n));
        MPTOPK_RETURN_NOT_OK(
            dev_->CopyToDevice(d.dev_f32[s], d.f32[s].data(), n));
        MPTOPK_ASSIGN_OR_RETURN(d.dev_kv[s], dev_->Alloc<KV>(n));
        MPTOPK_RETURN_NOT_OK(dev_->CopyToDevice(d.dev_kv[s], d.kv[s].data(), n));
      }
    }
    // 44 cheap requests cycle the five cheap classes over the six inputs
    // and both entry points; one host-input request walks the whole
    // degrade chain (chunked, then CPU). It costs as much as the other 44
    // together, so one per pass keeps the cheap replicates per run high;
    // p90 sits 3.5 request types below it, inside the cheap block.
    const size_t ks[] = {16, 64, 100};
    reqs_.clear();
    for (size_t j = 0; j < kCheap; ++j) {
      Req r;
      r.cls = static_cast<int>(j % 5);
      r.input = static_cast<int>(j % 6);
      r.device_input = r.cls == kDegradeCpu || (j / 5) % 2 == 1;
      r.k = ks[(j / 2) % 3];
      if (r.cls == kCorrupt) {
        // The executor's verifier misses corruption it should catch: it
        // checks keys only, so a flipped KV payload bit goes through, and
        // its membership spot-checks sample items with replacement, so a
        // flipped low-order key bit in an unsampled item keeps the order
        // and goes through too (both return wrong answers; README.md).
        // Top-1 over f32 is the case it verifies completely: any flip of
        // the single key fails the membership or the outrank check.
        r.input &= ~1;
        r.k = 1;
      }
      reqs_.push_back(r);
    }
    reqs_.push_back(Req{kDegradeChunkedCpu, 3, false, 64});
    std::mt19937_64 rng(kOrderSeed);
    std::shuffle(reqs_.begin(), reqs_.end(), rng);
    for (size_t i = 0; i < reqs_.size(); ++i) reqs_[i].fault_seed = 1 + i;
    return Status::OK();
  }

  void PrepareOracle() override {
    for (Data& d : data_) {
      d.expected.clear();
      for (const Req& r : reqs_) {
        const int s = r.input / 2;
        d.expected.push_back(r.input % 2 == 0
                                 ? ExpectedKeys(d.f32[s], r.k, true)
                                 : ExpectedKeys(d.kv[s], r.k, true));
      }
    }
  }

  bool MutantSelfCheck(std::string* why) override {
    // A payload pointing at an element with a different key must fail.
    const std::vector<KV>& in = data_[0].kv[0];
    auto want = ExpectedKeys(in, 16, true);
    auto r = planner::ResilientTopK(*dev_, in.data(), in.size(), 16);
    std::string sink;
    if (!r.ok() || !CheckTopK(in, want, true, r->items, &sink)) {
      *why = "reference answer rejected: " + sink;
      return false;
    }
    std::vector<KV> mutant = r->items;
    mutant[0].value = mutant.back().value;
    if (CheckTopK(in, want, true, mutant, &sink)) {
      *why = "resilient oracle accepted a mutant";
      return false;
    }
    return true;
  }

  RequestResult Run(size_t i, int variant, SimCounters* sim,
                    SpanRecorder* spans) override {
    const Req& r = reqs_[i];
    Data& d = data_[variant];
    dev_->ResetAccounting();
    planner::ResilienceOptions opts;
    plan_ = std::make_shared<simt::FaultPlan>(FaultsFor(r, &opts));
    dev_->set_fault_plan(plan_);
    RequestResult out;
    const int s = r.input / 2;
    {
      ScopedSpan req_span(spans, "request", kResClassNames[r.cls], i);
      ScopedSpan planner_span(
          spans, "planner",
          r.device_input ? "ResilientTopKDevice" : "ResilientTopK", i);
      const auto t0 = Clock::now();
      out.ok = r.input % 2 == 0
                   ? RunOne(r, opts, d.f32[s], d.dev_f32[s], &got_f32_)
                   : RunOne(r, opts, d.kv[s], d.dev_kv[s], &got_kv_);
      out.host_ms = MsBetween(t0, Clock::now());
    }
    dev_->set_fault_plan(nullptr);
    SimCounters c;
    c.sim_ms = dev_->total_sim_ms() + dev_->pcie_ms();
    c.AddDevice(*dev_);
    if (out.ok) {
      c.attempts = report_.attempts.size();
      c.retries = report_.retries;
      c.fallbacks = report_.fallbacks;
      c.corruption_reruns = report_.corruption_reruns;
      c.degraded = report_.degraded_to_chunked;
      c.used_cpu = report_.used_cpu;
      c.added_latency_ms = report_.added_latency_ms;
    }
    *sim += c;
    if (spans != nullptr && out.ok) {
      const size_t n = size_t{1} << (14 + s);
      TracePlan(spans, i, *dev_,
                r.input % 2 == 0
                    ? TopKWorkload<float>(n, r.k, Distribution::kUniform)
                    : TopKWorkload<KV>(n, r.k, Distribution::kUniform));
      TraceOperators(i, d, spans);
    }
    return out;
  }

  bool Check(size_t i, int variant, std::string* why) override {
    const Req& r = reqs_[i];
    const Data& d = data_[variant];
    const int s = r.input / 2;
    const bool ok =
        r.input % 2 == 0
            ? CheckTopK(d.f32[s], d.expected[i], true, got_f32_, why)
            : CheckTopK(d.kv[s], d.expected[i], true, got_kv_, why);
    if (!ok) {
      *why = std::string(kResClassNames[r.cls]) + " request (n=2^" +
             std::to_string(14 + s) + ", k=" + std::to_string(r.k) + "): " +
             *why + "; executor: " + report_.Summary();
      return false;
    }
    // The fault must have taken the recovery path its class exercises.
    const planner::ExecutionReport& rep = report_;
    bool path = true;
    switch (r.cls) {
      case kClean: path = rep.faults_seen == 0; break;
      case kTransient: path = rep.retries >= 1 && !rep.degraded_to_chunked; break;
      case kAllocFail:
        path = rep.fallbacks >= 1 && !rep.degraded_to_chunked && !rep.used_cpu;
        break;
      // The corrupted readback may be an operator's intermediate one, or
      // land in a trimmed tail; the check is that a bit was flipped and the
      // answer still holds.
      case kCorrupt: path = plan_->stats().corruptions == 1; break;
      case kDegradeCpu: path = rep.used_cpu; break;
      case kDegradeChunkedCpu:
        path = rep.degraded_to_chunked && rep.used_cpu;
        break;
    }
    if (!path) {
      *why = std::string(kResClassNames[r.cls]) +
             " request took an unexpected path: " + rep.Summary();
    }
    return path;
  }

  void SetWorkers(int workers) override { dev_->set_host_workers(workers); }
  const simt::Device& device() const override { return *dev_; }

  void LayerMetrics(const SimCounters& pass, const SpanRecorder& spans,
                    Metrics* out) override {
    const double n = static_cast<double>(reqs_.size());
    (*out)["planner.resilient_host_ms"] = {
        spans.MedianMs("planner", "Resilient"), "ms"};
    (*out)["planner.degrade_host_ms"] = {
        spans.MedianMs("request", "degrade-chunked"), "ms"};
    (*out)["planner.attempts_per_request"] = {pass.attempts / n, "count"};
    (*out)["planner.retries"] = {static_cast<double>(pass.retries), "count"};
    (*out)["planner.fallbacks"] = {static_cast<double>(pass.fallbacks),
                                   "count"};
    (*out)["planner.corruption_reruns"] = {
        static_cast<double>(pass.corruption_reruns), "count"};
    (*out)["planner.useful_attempt_frac"] = {n / pass.attempts, "frac"};
    (*out)["planner.degraded_frac"] = {pass.degraded / n, "frac"};
    (*out)["planner.cpu_frac"] = {pass.used_cpu / n, "frac"};
    (*out)["planner.added_latency_ms"] = {pass.added_latency_ms, "ms"};
  }

 private:
  struct Req {
    int cls = kClean;
    int input = 0;  // 0..5; even = f32, odd = KV; size 2^(14 + input / 2)
    bool device_input = false;
    size_t k = 16;
    uint64_t fault_seed = 0;
  };
  struct Data {
    std::vector<float> f32[3];  // [log2(n) - 14]
    std::vector<KV> kv[3];
    simt::DeviceBuffer<float> dev_f32[3];
    simt::DeviceBuffer<KV> dev_kv[3];
    std::vector<std::vector<uint64_t>> expected;  // per request
  };

  // Transfer and allocation indices count from plan installation. Host
  // input stages first (allocation 1, transfer 1), so its in-algorithm
  // faults sit one index later than the device-input ones.
  static simt::FaultPlanConfig FaultsFor(const Req& r,
                                         planner::ResilienceOptions* opts) {
    simt::FaultPlanConfig c;
    c.seed = r.fault_seed;
    const int staged = r.device_input ? 0 : 1;
    switch (r.cls) {
      case kClean: break;
      case kTransient: c.fail_transfer_index = 1 + staged; break;
      case kAllocFail: c.fail_alloc_index = 1 + staged; break;
      case kCorrupt: c.corrupt_readback_index = 1; break;
      case kDegradeCpu: c.fail_alloc_above_bytes = 1; break;
      case kDegradeChunkedCpu:
        c.fail_alloc_index = 1;
        c.fail_transfer_index = 1;
        opts->max_retries = 0;
        break;
    }
    return c;
  }

  template <typename E>
  bool RunOne(const Req& r, const planner::ResilienceOptions& opts,
              const std::vector<E>& host, simt::DeviceBuffer<E>& device,
              std::vector<E>* got) {
    auto res = r.device_input
                   ? planner::ResilientTopKDevice(*dev_, device, host.size(),
                                                  r.k, opts)
                   : planner::ResilientTopK(*dev_, host.data(), host.size(),
                                            r.k, opts);
    if (!res.ok()) return false;
    *got = std::move(res->items);
    report_ = std::move(res->report);
    return true;
  }

  // Re-runs, fault-free and outside the request, the operators the
  // executor reached (the streaming stage when it degraded, every CPU
  // operator when the CPU answered), so each gets its own host time.
  void TraceOperators(size_t i, const Data& d, SpanRecorder* spans) {
    const Req& r = reqs_[i];
    const int s = r.input / 2;
    std::vector<const topk::TopKOperator*> ops;
    if (report_.degraded_to_chunked) ops.push_back(topk::StreamingFallback());
    if (report_.used_cpu) {
      for (const topk::TopKOperator* op : topk::CpuFallbackChain()) {
        ops.push_back(op);
      }
    } else {
      ops.push_back(topk::FindOperator(report_.final_algorithm).value());
    }
    for (const topk::TopKOperator* op : ops) {
      ScopedSpan span(spans, "topk", op->name(), i);
      const bool ok = r.input % 2 == 0 ? TraceOne(op, d.f32[s], r.k)
                                       : TraceOne(op, d.kv[s], r.k);
      if (!ok) std::abort();  // fault-free re-runs of a chain member
    }
  }

  template <typename E>
  bool TraceOne(const topk::TopKOperator* op, const std::vector<E>& in,
                size_t k) {
    if (!op->CheckCaps(topk::ElemTypeOf<E>::value, in.size(), k).ok()) {
      return true;  // e.g. the power-of-two-only CPU network at k = 100
    }
    return op->TopKHost(*dev_, in.data(), in.size(), k).ok();
  }

  // Declared before data_: the resident inputs release into the device.
  std::unique_ptr<simt::Device> dev_;
  std::array<Data, kDataVariants> data_;
  std::vector<Req> reqs_;
  std::shared_ptr<simt::FaultPlan> plan_;
  planner::ExecutionReport report_;
  std::vector<float> got_f32_;
  std::vector<KV> got_kv_;
};

}  // namespace

std::unique_ptr<Workload> MakeOperatorsTraced() {
  return std::make_unique<OperatorsTraced>();
}
std::unique_ptr<Workload> MakeTweetsBatch() {
  return std::make_unique<TweetsBatch>();
}
std::unique_ptr<Workload> MakeResilientFaults() {
  return std::make_unique<ResilientFaults>();
}

}  // namespace mptopk::perfbench
