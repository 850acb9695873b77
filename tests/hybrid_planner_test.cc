// Tests for CPU/GPU placement in PlanTopK (paper Section 8 future work):
// with Workload::host_resident, every GPU operator pays one PCIe staging
// copy and the CPU operators' host cost hooks compete in the same ranking;
// device-resident data never leaves the GPU.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/distributions.h"
#include "planner/plan_topk.h"

namespace mptopk::planner {
namespace {

simt::DeviceSpec Gpu() { return simt::DeviceSpec::TitanXMaxwell(); }

cost::Workload W(size_t n, size_t k, Distribution d = Distribution::kUniform) {
  return cost::Workload{n, k, 4, 4, d};
}

cost::Workload Host(size_t n, size_t k,
                    Distribution d = Distribution::kUniform) {
  cost::Workload w = W(n, k, d);
  w.host_resident = true;
  return w;
}

bool OnGpu(const topk::TopKOperator* op) {
  return op->caps().backend == topk::Backend::kGpuSim;
}

// The cheapest CPU entry of a ranking.
const OperatorEstimate& BestCpu(const Plan& plan) {
  for (const OperatorEstimate& e : plan.ranked) {
    if (!OnGpu(e.op)) return e;
  }
  ADD_FAILURE() << "no CPU entry in the ranking";
  return plan.ranked.front();
}

// Rank of the named operator in the plan (ranked.size() when absent).
size_t RankOf(const Plan& plan, const std::string& name) {
  for (size_t i = 0; i < plan.ranked.size(); ++i) {
    if (plan.ranked[i].op->name() == name) return i;
  }
  return plan.ranked.size();
}

TEST(HybridPlannerTest, DeviceResidentDataStaysOnGpu) {
  auto plan = PlanTopK(Gpu(), W(1ull << 28, 32));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(OnGpu(plan->best)) << plan->best->name();
}

TEST(HybridPlannerTest, HostResidentUniformPrefersCpu) {
  // Uniform data, one-shot use: PCIe staging alone exceeds the streaming
  // CPU heap cost (paper Section 1's motivation for on-GPU top-k: avoid
  // moving data, not move it in order to run top-k).
  const cost::Workload w = Host(1ull << 28, 32);
  auto plan = PlanTopK(Gpu(), w);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->best->name(), "cpu:HandPq");
  EXPECT_GT(cost::PcieStagingMs(Gpu(), w),
            plan->ranked.front().predicted_ms * 0.5);
}

TEST(HybridPlannerTest, SortedInputPushesCpuTowardBitonic) {
  auto uniform = PlanTopK(Gpu(), Host(1ull << 26, 256));
  auto sorted =
      PlanTopK(Gpu(), Host(1ull << 26, 256, Distribution::kIncreasing));
  ASSERT_TRUE(uniform.ok());
  ASSERT_TRUE(sorted.ok());
  EXPECT_LT(RankOf(*sorted, "cpu:Bitonic"), RankOf(*sorted, "cpu:HandPq"))
      << "insert-per-element input should switch to data-oblivious bitonic";
  EXPECT_GT(BestCpu(*sorted).predicted_ms, BestCpu(*uniform).predicted_ms);
}

TEST(HybridPlannerTest, GpuWinsOnSortedHostData) {
  // Fig 15b: on sorted input the GPU is 60-120x faster than CPU heaps --
  // worth the transfer.
  auto plan = PlanTopK(Gpu(), Host(1ull << 28, 32, Distribution::kIncreasing));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(OnGpu(plan->best)) << plan->best->name();
}

TEST(HybridPlannerTest, RejectsBadWorkload) {
  EXPECT_FALSE(PlanTopK(Gpu(), Host(16, 32)).ok());
}

TEST(HybridPlannerTest, DeviceResidentRankingsHoldOnlyGpuEntries) {
  for (size_t n : {size_t{1} << 12, size_t{1} << 20, size_t{1} << 28}) {
    for (size_t k : {1, 32, 256, 1000}) {
      for (Distribution d : {Distribution::kUniform,
                             Distribution::kIncreasing}) {
        for (bool ext : {false, true}) {
          auto plan = PlanTopK(Gpu(), W(n, k, d), ext);
          ASSERT_TRUE(plan.ok());
          for (const OperatorEstimate& e : plan->ranked) {
            EXPECT_TRUE(OnGpu(e.op))
                << e.op->name() << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(HybridPlannerTest, HostResidentGpuEntriesAddExactlyTheStagingTerm) {
  for (size_t n : {size_t{1} << 12, size_t{1} << 24, size_t{1} << 28}) {
    for (size_t k : {32, 64, 100}) {
      for (Distribution d : {Distribution::kUniform,
                             Distribution::kIncreasing}) {
        const cost::Workload host = Host(n, k, d);
        auto on_device = PlanTopK(Gpu(), W(n, k, d));
        auto on_host = PlanTopK(Gpu(), host);
        ASSERT_TRUE(on_device.ok());
        ASSERT_TRUE(on_host.ok());
        std::vector<OperatorEstimate> gpu_entries;
        for (const OperatorEstimate& e : on_host->ranked) {
          if (OnGpu(e.op)) gpu_entries.push_back(e);
        }
        const double staging = cost::PcieStagingMs(Gpu(), host);
        ASSERT_EQ(gpu_entries.size(), on_device->ranked.size());
        for (size_t i = 0; i < gpu_entries.size(); ++i) {
          EXPECT_EQ(gpu_entries[i].op, on_device->ranked[i].op)
              << "n=" << n << " k=" << k << " rank " << i;
          EXPECT_DOUBLE_EQ(gpu_entries[i].predicted_ms,
                           on_device->ranked[i].predicted_ms + staging)
              << gpu_entries[i].op->name() << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

// Host-resident plans only name operators whose caps accept the request, and
// the chosen one runs: small inputs with a non-power-of-two k or k > 256
// must not land on cpu:Bitonic. The chosen operator is run up to n = 2^20;
// at 2^24 a simulated GPU run costs seconds of host time, so only the
// ranking is checked there.
TEST(HybridPlannerTest, HostResidentPlansRespectCaps) {
  constexpr size_t kLargestRun = size_t{1} << 20;
  for (size_t n : {size_t{1} << 10, size_t{1} << 12, size_t{1} << 14,
                   size_t{1} << 16, size_t{1} << 20, size_t{1} << 24}) {
    for (Distribution d : {Distribution::kUniform,
                           Distribution::kIncreasing}) {
      const auto data =
          n <= kLargestRun ? GenerateFloats(n, d, /*seed=*/n)
                           : std::vector<float>{};
      for (size_t k : {32, 100, 256, 300, 512, 1000}) {
        auto plan = PlanTopK(Gpu(), Host(n, k, d));
        ASSERT_TRUE(plan.ok()) << plan.status();
        for (const OperatorEstimate& e : plan->ranked) {
          EXPECT_TRUE(e.op->CheckCaps(topk::ElemType::kF32, n, k).ok())
              << e.op->name() << " n=" << n << " k=" << k;
        }
        if (n > kLargestRun) continue;
        simt::Device dev;
        dev.set_trace_sample_target(4);
        auto r = plan->best->TopKHost(dev, data.data(), n, k);
        ASSERT_TRUE(r.ok()) << plan->best->name() << " n=" << n << " k=" << k
                            << ": " << r.status();
        EXPECT_EQ(r->items.size(), k);
      }
    }
  }
}

}  // namespace
}  // namespace mptopk::planner
