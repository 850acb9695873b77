// Failure-injection tests, built on the deterministic FaultPlan hooks
// (simt/fault_injection.h): injected faults must surface as Status errors —
// never crashes, leaks or silent corruption — and the resilient executor
// (planner/resilient.h) must convert every faulted run back into a correct
// top-k answer with bit-for-bit reproducible decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/distributions.h"
#include "engine/query.h"
#include "engine/tweets.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/chunked.h"
#include "planner/resilient.h"
#include "topk/registry.h"

namespace mptopk {
namespace {

using simt::FaultPlan;
using simt::FaultPlanConfig;

std::vector<float> TopKReference(const std::vector<float>& data, size_t k) {
  std::vector<float> ref = data;
  std::sort(ref.begin(), ref.end(), std::greater<float>());
  ref.resize(std::min(ref.size(), k));
  return ref;
}

simt::DeviceSpec TinyMemorySpec(size_t bytes) {
  auto spec = simt::DeviceSpec::TitanXMaxwell();
  spec.global_mem_bytes = bytes;
  return spec;
}

std::shared_ptr<FaultPlan> Install(simt::Device& dev,
                                   const FaultPlanConfig& cfg) {
  auto plan = std::make_shared<FaultPlan>(cfg);
  dev.set_fault_plan(plan);
  return plan;
}

// --- FaultPlan unit behaviour ----------------------------------------------

TEST(FaultPlanTest, NthAllocationFailsOnce) {
  FaultPlanConfig cfg;
  cfg.fail_alloc_index = 2;
  FaultPlan plan(cfg);
  EXPECT_TRUE(plan.OnAlloc(100).ok());
  Status st = plan.OnAlloc(100);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(plan.OnAlloc(100).ok());  // one-shot: later allocs succeed
  EXPECT_EQ(plan.stats().allocs_seen, 3);
  EXPECT_EQ(plan.stats().allocs_failed, 1);
}

TEST(FaultPlanTest, AllocAboveThresholdFailsPersistently) {
  FaultPlanConfig cfg;
  cfg.fail_alloc_above_bytes = 4096;
  FaultPlan plan(cfg);
  EXPECT_TRUE(plan.OnAlloc(4096).ok());
  EXPECT_EQ(plan.OnAlloc(4097).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(plan.OnAlloc(1 << 20).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(plan.stats().allocs_failed, 2);
}

TEST(FaultPlanTest, NthTransferIsUnavailableAndRetryable) {
  FaultPlanConfig cfg;
  cfg.fail_transfer_index = 1;
  FaultPlan plan(cfg);
  Status st = plan.OnTransfer(64, /*readback=*/false);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(st.IsRetryable());
  // The retry advances the counter past the one-shot trigger.
  EXPECT_TRUE(plan.OnTransfer(64, /*readback=*/false).ok());
  EXPECT_EQ(plan.stats().transfers_seen, 2);
  EXPECT_EQ(plan.stats().transfers_failed, 1);
}

TEST(FaultPlanTest, NthLaunchAborts) {
  FaultPlanConfig cfg;
  cfg.fail_launch_index = 3;
  FaultPlan plan(cfg);
  EXPECT_TRUE(plan.OnLaunch("a").ok());
  EXPECT_TRUE(plan.OnLaunch("b").ok());
  EXPECT_EQ(plan.OnLaunch("c").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(plan.OnLaunch("d").ok());
  EXPECT_EQ(plan.stats().launches_aborted, 1);
}

TEST(FaultPlanTest, ResetRearmsOneShotTriggers) {
  FaultPlanConfig cfg;
  cfg.fail_alloc_index = 1;
  FaultPlan plan(cfg);
  EXPECT_FALSE(plan.OnAlloc(8).ok());
  EXPECT_TRUE(plan.OnAlloc(8).ok());
  plan.Reset();
  EXPECT_EQ(plan.stats().allocs_seen, 0);
  EXPECT_FALSE(plan.OnAlloc(8).ok());  // fires again
}

TEST(FaultPlanTest, ProbabilisticFaultsAreSeedDeterministic) {
  FaultPlanConfig cfg;
  cfg.seed = 7;
  cfg.transient_transfer_prob = 0.5;
  FaultPlan a(cfg), b(cfg);
  cfg.seed = 8;
  FaultPlan c(cfg);
  std::vector<bool> sa, sb, sc;
  for (int i = 0; i < 100; ++i) {
    sa.push_back(a.OnTransfer(64, false).ok());
    sb.push_back(b.OnTransfer(64, false).ok());
    sc.push_back(c.OnTransfer(64, false).ok());
  }
  EXPECT_EQ(sa, sb);  // same seed, same fault sequence
  EXPECT_NE(sa, sc);  // different seed decorrelates
}

TEST(FaultPlanTest, CorruptReadbackFlipsExactlyOneBit) {
  simt::Device dev;
  const size_t n = 64;
  std::vector<uint32_t> zeros(n, 0);
  auto buf = dev.Alloc<uint32_t>(n).value();
  ASSERT_TRUE(dev.CopyToDevice(buf, zeros.data(), n).ok());
  FaultPlanConfig cfg;
  cfg.seed = 3;
  cfg.corrupt_readback_index = 1;
  auto plan = Install(dev, cfg);
  std::vector<uint32_t> host(n, 0);
  ASSERT_TRUE(dev.CopyToHost(host.data(), buf, n).ok());
  int set_bits = 0;
  for (uint32_t w : host) set_bits += __builtin_popcount(w);
  EXPECT_EQ(set_bits, 1);
  EXPECT_EQ(plan->stats().corruptions, 1);
  // Subsequent readbacks are clean (one-shot).
  ASSERT_TRUE(dev.CopyToHost(host.data(), buf, n).ok());
  set_bits = 0;
  for (uint32_t w : host) set_bits += __builtin_popcount(w);
  EXPECT_EQ(set_bits, 0);
}

// --- Device OOM propagation (pre-FaultPlan behaviour must still hold) -------

TEST(FailureInjectionTest, BitonicPropagatesDeviceOom) {
  const size_t n = 1 << 16;
  simt::Device dev(TinyMemorySpec(n * sizeof(float) + 1024));
  auto data = GenerateFloats(n, Distribution::kUniform);
  auto buf = dev.Alloc<float>(n);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(dev.CopyToDevice(*buf, data.data(), n).ok());
  auto r = gpu::BitonicTopKDevice(dev, *buf, n, 32);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(FailureInjectionTest, AllocationReleasedAfterFailure) {
  const size_t n = 1 << 16;
  simt::Device dev(TinyMemorySpec(n * sizeof(float) + 2048));
  auto data = GenerateFloats(n, Distribution::kUniform);
  size_t before = dev.allocated_bytes();
  {
    auto buf = dev.Alloc<float>(n);
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE(dev.CopyToDevice(*buf, data.data(), n).ok());
    auto r = gpu::BitonicTopKDevice(dev, *buf, n, 32);
    ASSERT_FALSE(r.ok());  // reduction buffers do not fit
  }
  // RAII must return every byte, so the device is reusable.
  EXPECT_EQ(dev.allocated_bytes(), before);
  auto r2 = topk::FindOperator("BitonicTopK").value()->TopKHost(
      dev, data.data(), 256, 8);
  EXPECT_TRUE(r2.ok()) << r2.status();
}

// --- Scripted fault campaign ------------------------------------------------

// For every algorithm, fail each of its internal allocations in turn. Every
// run must either succeed with a correct answer or return a non-OK Status,
// and the device must get every byte back (no leak across the failure path).
TEST(FaultCampaignTest, AllocSweepEveryAlgorithm) {
  const size_t n = 1 << 14;
  const size_t k = 32;
  auto data = GenerateFloats(n, Distribution::kUniform);
  const auto ref = TopKReference(data, k);
  for (const topk::TopKOperator* op :
       topk::GpuSweepOperators(/*include_extensions=*/true)) {
    // Calibrate: count the algorithm's allocations under a no-fault plan.
    int allocs = 0;
    {
      simt::Device dev;
      auto buf = dev.Alloc<float>(n).value();
      ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
      auto plan = Install(dev, FaultPlanConfig{});
      auto r = op->TopKDevice(dev, buf, n, k);
      ASSERT_TRUE(r.ok()) << op->name() << ": " << r.status();
      allocs = plan->stats().allocs_seen;
    }
    ASSERT_GT(allocs, 0) << op->name();
    for (int i = 1; i <= allocs; ++i) {
      simt::Device dev;
      auto buf = dev.Alloc<float>(n).value();
      ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
      FaultPlanConfig cfg;
      cfg.fail_alloc_index = i;
      Install(dev, cfg);
      const size_t before = dev.allocated_bytes();
      auto r = op->TopKDevice(dev, buf, n, k);
      if (r.ok()) {
        ASSERT_EQ(r->items.size(), k) << op->name() << " alloc " << i;
        EXPECT_EQ(r->items.front(), ref.front());
      } else {
        EXPECT_FALSE(r.status().message().empty());
      }
      EXPECT_EQ(dev.allocated_bytes(), before)
          << op->name() << " leaked after failing alloc " << i;
    }
  }
}

// The resilient executor must convert each of those faulted runs into the
// correct answer (fallback to another algorithm, degrade, or CPU).
TEST(FaultCampaignTest, ResilientConvertsEveryAllocFault) {
  const size_t n = 1 << 14;
  const size_t k = 32;
  auto data = GenerateFloats(n, Distribution::kUniform);
  const auto ref = TopKReference(data, k);
  for (int i = 1; i <= 12; ++i) {
    simt::Device dev;
    FaultPlanConfig cfg;
    cfg.fail_alloc_index = i;
    Install(dev, cfg);
    auto r = planner::ResilientTopK(dev, data.data(), n, k);
    ASSERT_TRUE(r.ok()) << "failing alloc " << i << ": " << r.status();
    ASSERT_EQ(r->items.size(), k);
    for (size_t j = 0; j < k; ++j) {
      EXPECT_EQ(r->items[j], ref[j]) << "failing alloc " << i;
    }
    EXPECT_EQ(dev.allocated_bytes(), 0u) << "failing alloc " << i;
  }
}

// --- Resilient executor behaviour -------------------------------------------

TEST(ResilientTopKTest, NoFaultNoOverheadDecisions) {
  const size_t n = 1 << 14;
  const size_t k = 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device dev;
  auto r = planner::ResilientTopK(dev, data.data(), n, k);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->report.retries, 0);
  EXPECT_EQ(r->report.fallbacks, 0);
  EXPECT_EQ(r->report.faults_seen, 0);
  EXPECT_FALSE(r->report.used_cpu);
  EXPECT_FALSE(r->report.degraded_to_chunked);
  EXPECT_EQ(r->report.added_latency_ms, 0.0);
  EXPECT_EQ(r->items, TopKReference(data, k));
}

TEST(ResilientTopKTest, TransientTransferFaultIsRetried) {
  const size_t n = 1 << 14;
  const size_t k = 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device dev;
  FaultPlanConfig cfg;
  cfg.fail_transfer_index = 2;  // #1 stages the input; #2 is in-algorithm
  Install(dev, cfg);
  auto r = planner::ResilientTopK(dev, data.data(), n, k);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->report.retries, 1);
  EXPECT_EQ(r->report.faults_seen, 1);
  EXPECT_GT(r->report.backoff_ms, 0.0);
  EXPECT_GT(r->report.added_latency_ms, 0.0);
  EXPECT_EQ(r->items, TopKReference(data, k));
}

TEST(ResilientTopKTest, LaunchAbortIsRetried) {
  const size_t n = 1 << 14;
  const size_t k = 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device dev;
  FaultPlanConfig cfg;
  cfg.fail_launch_index = 1;
  Install(dev, cfg);
  auto r = planner::ResilientTopK(dev, data.data(), n, k);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GE(r->report.retries, 1);
  EXPECT_EQ(r->items, TopKReference(data, k));
}

TEST(ResilientTopKTest, PersistentExhaustionFallsBackToCpu) {
  const size_t n = 1 << 14;
  const size_t k = 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device dev;
  FaultPlanConfig cfg;
  cfg.fail_alloc_above_bytes = 4096;  // no working buffer fits anywhere
  Install(dev, cfg);
  auto r = planner::ResilientTopK(dev, data.data(), n, k);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->report.used_cpu);
  EXPECT_EQ(r->report.final_algorithm, "cpu:HandPq");
  EXPECT_GE(r->report.fallbacks, 2);  // chunked, then CPU
  EXPECT_EQ(r->items, TopKReference(data, k));
}

TEST(ResilientTopKTest, OversizedInputDegradesToChunked) {
  const size_t n = 1 << 17;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device dev(TinyMemorySpec(n * sizeof(float)));  // no headroom
  dev.set_trace_sample_target(4);
  auto r = planner::ResilientTopK(dev, data.data(), n, 64);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->report.degraded_to_chunked);
  EXPECT_EQ(r->report.final_algorithm, "ChunkedTopK");
  EXPECT_FALSE(r->report.used_cpu);
  EXPECT_EQ(r->items, TopKReference(data, 64));
}

TEST(ResilientTopKTest, CorruptedResultReadbackIsCaughtAndRerun) {
  const size_t n = 1 << 14;
  const size_t k = 8;
  auto data = GenerateFloats(n, Distribution::kUniform);
  planner::ResilienceOptions opts;
  // Calibrate: how many readbacks does a clean resilient run perform? The
  // last one carries the result.
  int readbacks = 0;
  {
    simt::Device dev;
    auto buf = dev.Alloc<float>(n).value();
    ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
    auto plan = Install(dev, FaultPlanConfig{});
    auto r = planner::ResilientTopKDevice(dev, buf, n, k, opts);
    ASSERT_TRUE(r.ok()) << r.status();
    readbacks = plan->stats().readbacks_seen;
  }
  ASSERT_GT(readbacks, 0);
  // Re-run, flipping one bit of the result readback.
  simt::Device dev;
  auto buf = dev.Alloc<float>(n).value();
  ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
  FaultPlanConfig cfg;
  cfg.seed = 1;
  cfg.corrupt_readback_index = readbacks;
  auto plan = Install(dev, cfg);
  auto r = planner::ResilientTopKDevice(dev, buf, n, k, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(plan->stats().corruptions, 1);
  EXPECT_EQ(r->report.corruption_reruns, 1);
  EXPECT_GT(r->report.added_latency_ms, 0.0);
  EXPECT_EQ(r->items, TopKReference(data, k));
}

// Flips one bit of the result readback (the last one a clean run performs)
// under fault seed `seed`; returns the resilient answer and, through
// `corruptions`, how many readbacks the plan corrupted.
template <typename E>
StatusOr<planner::ResilientResult<E>> RunWithCorruptResult(
    const std::vector<E>& data, size_t k, uint64_t seed, int* corruptions) {
  const size_t n = data.size();
  int readbacks = 0;
  {
    simt::Device dev;
    auto buf = dev.Alloc<E>(n).value();
    EXPECT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
    auto plan = Install(dev, FaultPlanConfig{});
    auto r = planner::ResilientTopKDevice(dev, buf, n, k);
    EXPECT_TRUE(r.ok()) << r.status();
    readbacks = plan->stats().readbacks_seen;
  }
  simt::Device dev;
  auto buf = dev.Alloc<E>(n).value();
  EXPECT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
  FaultPlanConfig cfg;
  cfg.seed = seed;
  cfg.corrupt_readback_index = readbacks;
  auto plan = Install(dev, cfg);
  auto r = planner::ResilientTopKDevice(dev, buf, n, k);
  *corruptions = plan->stats().corruptions;
  return r;
}

// A flipped low-order key bit keeps the result descending and the boundary
// counts intact; only matching every item against the input catches it.
TEST(ResilientTopKTest, LowOrderKeyBitFlipIsCaughtAndRerun) {
  const size_t n = 1 << 13;
  const size_t k = 64;
  auto data = GenerateFloats(n, Distribution::kUniform);
  for (uint64_t seed : {1, 3, 4}) {
    int corruptions = 0;
    auto r = RunWithCorruptResult(data, k, seed, &corruptions);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(corruptions, 1) << "seed=" << seed;
    EXPECT_EQ(r->report.corruption_reruns, 1) << "seed=" << seed;
    EXPECT_EQ(r->items, TopKReference(data, k)) << "seed=" << seed;
  }
}

// A flipped payload bit leaves every key untouched: membership must compare
// the payload too.
TEST(ResilientTopKTest, PayloadBitFlipIsCaughtAndRerun) {
  const size_t n = 1 << 13;
  const size_t k = 64;
  auto keys = GenerateFloats(n, Distribution::kUniform);
  std::vector<KV> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = KV{keys[i], static_cast<uint32_t>(i * 2654435761u)};
  }
  std::vector<KV> ref = data;
  std::sort(ref.begin(), ref.end(),
            [](const KV& a, const KV& b) { return a.key > b.key; });
  ref.resize(k);
  for (uint64_t seed : {1, 3, 4}) {
    int corruptions = 0;
    auto r = RunWithCorruptResult(data, k, seed, &corruptions);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(corruptions, 1) << "seed=" << seed;
    EXPECT_EQ(r->report.corruption_reruns, 1) << "seed=" << seed;
    EXPECT_EQ(r->items, ref) << "seed=" << seed;
  }
}

TEST(ResilientTopKTest, SameSeedIsBitForBitDeterministic) {
  const size_t n = 1 << 14;
  const size_t k = 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  auto run = [&]() {
    simt::Device dev;
    FaultPlanConfig cfg;
    cfg.seed = 42;
    cfg.transient_transfer_prob = 0.25;
    cfg.fail_launch_index = 2;
    Install(dev, cfg);
    auto r = planner::ResilientTopK(dev, data.data(), n, k);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.items, b.items);
  ASSERT_EQ(a.report.attempts.size(), b.report.attempts.size());
  for (size_t i = 0; i < a.report.attempts.size(); ++i) {
    EXPECT_EQ(a.report.attempts[i].stage, b.report.attempts[i].stage);
    EXPECT_EQ(a.report.attempts[i].code, b.report.attempts[i].code);
    EXPECT_EQ(a.report.attempts[i].backoff_ms, b.report.attempts[i].backoff_ms);
  }
  EXPECT_EQ(a.report.retries, b.report.retries);
  EXPECT_EQ(a.report.fallbacks, b.report.fallbacks);
  EXPECT_EQ(a.report.final_algorithm, b.report.final_algorithm);
  // Bit-for-bit: simulated latency, not approximately equal.
  EXPECT_EQ(a.report.backoff_ms, b.report.backoff_ms);
  EXPECT_EQ(a.report.total_device_ms, b.report.total_device_ms);
  EXPECT_EQ(a.report.added_latency_ms, b.report.added_latency_ms);
  EXPECT_EQ(a.report.Summary(), b.report.Summary());
}

// --- Report vs attempt log ---------------------------------------------------

// One fault scenario of the report-consistency campaign.
struct Scenario {
  std::string name;
  FaultPlanConfig faults;
  int max_retries = 3;
  bool tiny_memory = false;  // device memory holds the input and no more
};

std::vector<Scenario> ReportCampaign() {
  std::vector<Scenario> out;
  auto add = [&](std::string name, FaultPlanConfig c, int retries = 3,
                 bool tiny = false) {
    out.push_back({std::move(name), c, retries, tiny});
  };
  add("clean", {});
  for (int i = 1; i <= 6; ++i) {
    FaultPlanConfig c;
    c.fail_alloc_index = i;
    add("alloc" + std::to_string(i), c);
    c = {};
    c.fail_transfer_index = i;
    add("transfer" + std::to_string(i), c);
    add("transfer" + std::to_string(i) + "/no-retry", c, 0);
  }
  for (int i = 1; i <= 4; ++i) {
    FaultPlanConfig c;
    c.fail_launch_index = i;
    add("launch" + std::to_string(i), c);
    c = {};
    c.seed = static_cast<uint64_t>(i);
    c.corrupt_readback_index = i;
    add("corrupt" + std::to_string(i), c);
  }
  for (uint64_t seed : {1, 2, 3}) {
    FaultPlanConfig c;
    c.seed = seed;
    c.transient_transfer_prob = 0.4;
    add("flaky" + std::to_string(seed), c);
  }
  FaultPlanConfig c;
  c.fail_alloc_above_bytes = 4096;
  add("exhausted", c);
  c = {};
  c.fail_alloc_index = 1;
  c.fail_transfer_index = 1;
  add("alloc1+transfer1/no-retry", c, 0);
  add("tiny-memory", {}, 3, /*tiny=*/true);
  return out;
}

// Checks that every ExecutionReport tally agrees with the attempt log it
// summarizes. The "resident" entry is a capacity note, not a fault.
void ExpectReportMatchesAttempts(const planner::ExecutionReport& rep,
                                 const std::string& where) {
  SCOPED_TRACE(where);
  const auto& log = rep.attempts;
  ASSERT_FALSE(log.empty());
  int faults = 0, retried = 0, reruns = 0, fallbacks = 0;
  double backoff = 0.0;
  bool chunked = false;
  for (size_t i = 0; i < log.size(); ++i) {
    const planner::AttemptRecord& a = log[i];
    const bool failed = a.code != StatusCode::kOk;
    if (failed && a.stage != "resident") ++faults;
    if (a.backoff_ms > 0.0) {
      ++retried;
      backoff += a.backoff_ms;
    }
    if (a.stage == "ChunkedTopK") chunked = true;
    if (i + 1 == log.size() || !failed) continue;
    if (log[i + 1].stage != a.stage) {
      ++fallbacks;  // moved on after a failure
    } else if (a.detail.rfind("verification:", 0) == 0) {
      ++reruns;  // the same stage ran again after a rejected result
    }
  }
  EXPECT_EQ(rep.faults_seen, faults);
  EXPECT_EQ(rep.retries, retried);
  EXPECT_EQ(rep.backoff_ms, backoff);  // bitwise: same terms, same order
  EXPECT_EQ(rep.corruption_reruns, reruns);
  EXPECT_EQ(rep.fallbacks, fallbacks);
  if (rep.faults_seen == 0) {
    EXPECT_EQ(rep.added_latency_ms, 0.0);
  }
  // Failed attempts' device time includes the backoff charged after them.
  EXPECT_GE(rep.added_latency_ms, rep.backoff_ms - 1e-9);
  EXPECT_EQ(log.back().code, StatusCode::kOk);
  EXPECT_EQ(log.back().stage, rep.final_algorithm);
  EXPECT_EQ(rep.used_cpu, rep.final_algorithm.rfind("cpu:", 0) == 0);
  EXPECT_EQ(rep.degraded_to_chunked, chunked);
}

struct CampaignTotals {
  int ok = 0, retries = 0, reruns = 0, chunked = 0, cpu = 0;
};

// Runs the campaign over one element type through both entry points.
template <typename E>
void RunReportCampaign(const std::vector<E>& data, size_t k,
                       CampaignTotals* totals) {
  const size_t n = data.size();
  std::vector<E> ref = data;
  std::sort(ref.begin(), ref.end(), [](const E& a, const E& b) {
    return ElementTraits<E>::Less(b, a);
  });
  ref.resize(k);
  auto key = [](const E& e) { return ElementTraits<E>::PrimaryKey(e); };
  for (const Scenario& sc : ReportCampaign()) {
    for (bool device_input : {false, true}) {
      const std::string where =
          sc.name + (device_input ? " (device input)" : " (host input)");
      simt::Device dev(sc.tiny_memory
                           ? TinyMemorySpec(n * sizeof(E))
                           : simt::DeviceSpec::TitanXMaxwell());
      planner::ResilienceOptions opts;
      opts.max_retries = sc.max_retries;
      StatusOr<planner::ResilientResult<E>> r = Status::Internal("not run");
      if (device_input) {
        auto buf = dev.Alloc<E>(n).value();
        ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
        Install(dev, sc.faults);
        r = planner::ResilientTopKDevice(dev, buf, n, k, opts);
      } else {
        Install(dev, sc.faults);
        r = planner::ResilientTopK(dev, data.data(), n, k, opts);
      }
      if (!r.ok()) {
        // Only exhausted retries of the input transfer may fail the call.
        EXPECT_EQ(r.status().code(), StatusCode::kUnavailable) << where;
        continue;
      }
      ASSERT_EQ(r->items.size(), k) << where;
      for (size_t i = 0; i < k; ++i) {
        ASSERT_EQ(key(r->items[i]), key(ref[i])) << where << " item " << i;
      }
      ExpectReportMatchesAttempts(r->report, where);
      ++totals->ok;
      totals->retries += r->report.retries;
      totals->reruns += r->report.corruption_reruns;
      totals->chunked += r->report.degraded_to_chunked;
      totals->cpu += r->report.used_cpu;
    }
  }
}

TEST(ResilientTopKTest, ReportAgreesWithAttemptLog) {
  const size_t n = 1 << 12;
  const size_t k = 32;
  auto keys = GenerateFloats(n, Distribution::kUniform, 5);
  std::vector<KV> kv(n);
  for (size_t i = 0; i < n; ++i) {
    kv[i] = KV{keys[i], static_cast<uint32_t>(i)};
  }
  CampaignTotals totals;
  RunReportCampaign(keys, k, &totals);
  RunReportCampaign(kv, k, &totals);
  // The campaign must exercise every recovery path it checks.
  EXPECT_GT(totals.ok, 100);
  EXPECT_GT(totals.retries, 0);
  EXPECT_GT(totals.reruns, 0);
  EXPECT_GT(totals.chunked, 0);
  EXPECT_GT(totals.cpu, 0);
}

// --- Engine routing ----------------------------------------------------------

TEST(EngineResilienceTest, ResilientFlagMatchesDirectExecution) {
  simt::Device dev;
  auto table = engine::MakeTweetsTable(&dev, 1 << 14, 7).value();
  engine::Filter f{{"tweet_time", engine::CompareOp::kLt, 1 << 13}};
  engine::Ranking rank{{{"retweet_count", 1.0}, {"likes_count", 0.5}}};
  auto direct = engine::FilterTopKQuery(*table, f, rank, "id", 10,
                                        engine::TopKStrategy::kFilterBitonic);
  ASSERT_TRUE(direct.ok()) << direct.status();
  engine::ExecOptions exec;
  exec.resilient = true;
  auto res = engine::FilterTopKQuery(*table, f, rank, "id", 10,
                                     engine::TopKStrategy::kFilterBitonic,
                                     exec);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->rank_values, direct->rank_values);
  EXPECT_FALSE(res->resilience_summary.empty());

  auto gdirect = engine::GroupByCountTopKQuery(*table, "lang", 5,
                                               engine::GroupByStrategy::kSort);
  ASSERT_TRUE(gdirect.ok()) << gdirect.status();
  auto gres = engine::GroupByCountTopKQuery(
      *table, "lang", 5, engine::GroupByStrategy::kSort, exec);
  ASSERT_TRUE(gres.ok()) << gres.status();
  EXPECT_EQ(gres->counts, gdirect->counts);
  EXPECT_FALSE(gres->resilience_summary.empty());
}

// --- StatusOr hardening (release builds must abort, not read garbage) --------

#if GTEST_HAS_DEATH_TEST
TEST(StatusOrDeathTest, ValueOnErrorAbortsWithMessage) {
  StatusOr<int> s(Status::Internal("boom"));
  EXPECT_DEATH({ (void)s.value(); }, "boom");
}
#endif

}  // namespace
}  // namespace mptopk
