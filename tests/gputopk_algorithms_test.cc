// Cross-algorithm correctness tests: every operator in the GPU sweep (Sort,
// PerThread, RadixSelect, BucketSelect, Bitonic) through its registry
// façade, over k x distribution x type sweeps. All algorithms must agree
// with the host reference (primary-key multiset).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/distributions.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/perthread_topk.h"
#include "topk/registry.h"

namespace mptopk::gpu {
namespace {

template <typename E>
std::vector<typename ElementTraits<E>::Key> ReferenceKeys(std::vector<E> data,
                                                          size_t k) {
  std::sort(data.begin(), data.end(),
            [](const E& a, const E& b) { return ElementTraits<E>::Less(b, a); });
  std::vector<typename ElementTraits<E>::Key> keys(k);
  for (size_t i = 0; i < k; ++i) keys[i] = ElementTraits<E>::PrimaryKey(data[i]);
  return keys;
}

template <typename E>
void CheckKeys(const TopKResult<E>& got, const std::vector<E>& data,
               size_t k) {
  auto expect = ReferenceKeys(data, k);
  ASSERT_EQ(got.items.size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(ElementTraits<E>::PrimaryKey(got.items[i]), expect[i])
        << "rank " << i;
  }
}

struct AlgoCase {
  const topk::TopKOperator* op;
  int index;  // position in the sweep; seeds the input
  size_t k;
  Distribution dist;
};

class AlgoSweepTest : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(AlgoSweepTest, MatchesReference) {
  auto [op, index, k, dist] = GetParam();
  auto data = GenerateFloats(1 << 16, dist, /*seed=*/k * 31 + index);
  simt::Device dev;
  auto r = op->TopKHost(dev, data.data(), data.size(), k);
  ASSERT_TRUE(r.ok()) << r.status();
  CheckKeys(*r, data, k);
}

std::vector<AlgoCase> AllCases() {
  std::vector<AlgoCase> cases;
  const auto sweep = topk::GpuSweepOperators();
  for (int i = 0; i < static_cast<int>(sweep.size()); ++i) {
    for (size_t k : {1, 2, 7, 32, 100, 256}) {
      cases.push_back({sweep[i], i, k, Distribution::kUniform});
    }
    cases.push_back({sweep[i], i, 32, Distribution::kIncreasing});
    cases.push_back({sweep[i], i, 32, Distribution::kDecreasing});
    cases.push_back({sweep[i], i, 32, Distribution::kBucketKiller});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    All, AlgoSweepTest, ::testing::ValuesIn(AllCases()),
    [](const auto& info) {
      return info.param.op->name() + "_k" + std::to_string(info.param.k) +
             "_" + DistributionName(info.param.dist);
    });

// --- Type coverage ---------------------------------------------------------

template <typename E>
void TypeCase(const std::vector<E>& data, size_t k) {
  for (const topk::TopKOperator* op : topk::GpuSweepOperators()) {
    simt::Device dev;
    auto r = op->TopKHost(dev, data.data(), data.size(), k);
    ASSERT_TRUE(r.ok()) << op->name() << ": " << r.status();
    CheckKeys(*r, data, k);
  }
}

TEST(AlgoTypesTest, U32) { TypeCase(GenerateU32(1 << 15, Distribution::kUniform), 64); }
TEST(AlgoTypesTest, I32) { TypeCase(GenerateI32(1 << 15, Distribution::kUniform), 64); }
TEST(AlgoTypesTest, F64) { TypeCase(GenerateDoubles(1 << 15, Distribution::kUniform), 64); }

TEST(AlgoTypesTest, KVPayloadSurvivesAllAlgorithms) {
  auto keys = GenerateFloats(1 << 14, Distribution::kUniform);
  std::vector<KV> data(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    data[i] = KV{keys[i], static_cast<uint32_t>(i)};
  }
  for (const topk::TopKOperator* op : topk::GpuSweepOperators()) {
    simt::Device dev;
    auto r = op->TopKHost(dev, data.data(), data.size(), 32);
    ASSERT_TRUE(r.ok()) << op->name() << ": " << r.status();
    // Keys unique -> the payload must identify the original element.
    for (const KV& kv : r->items) {
      EXPECT_EQ(data[kv.value].key, kv.key) << op->name();
    }
  }
}

// --- Paper resource-limit behaviour (Section 4.1 / 6.2) --------------------

TEST(PerThreadLimitsTest, FailsAtK512Floats) {
  simt::Device dev;
  auto data = GenerateFloats(1 << 16, Distribution::kUniform);
  auto r = PerThreadTopK(dev, data.data(), data.size(), 512);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(PerThreadLimitsTest, FailsAtK256Doubles) {
  simt::Device dev;
  auto data = GenerateDoubles(1 << 15, Distribution::kUniform);
  EXPECT_TRUE(PerThreadTopK(dev, data.data(), data.size(), 128).ok());
  auto r = PerThreadTopK(dev, data.data(), data.size(), 256);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(PerThreadLimitsTest, K256FloatsStillWorks) {
  simt::Device dev;
  auto data = GenerateFloats(1 << 16, Distribution::kUniform);
  auto r = PerThreadTopK(dev, data.data(), data.size(), 256);
  ASSERT_TRUE(r.ok()) << r.status();
  CheckKeys(*r, data, 256);
}

// --- Register variant (Appendix A) ------------------------------------------

TEST(PerThreadRegistersTest, CorrectAcrossK) {
  auto data = GenerateFloats(1 << 16, Distribution::kUniform, 11);
  for (size_t k : {8, 32, 64}) {
    simt::Device dev;
    PerThreadOptions o;
    o.use_registers = true;
    auto r = PerThreadTopK(dev, data.data(), data.size(), k, o);
    ASSERT_TRUE(r.ok()) << r.status();
    CheckKeys(*r, data, k);
  }
}

TEST(PerThreadRegistersTest, SpillsBillLocalTraffic) {
  auto data = GenerateFloats(1 << 16, Distribution::kUniform, 11);
  PerThreadOptions o;
  o.use_registers = true;
  simt::Device small, large;
  ASSERT_TRUE(PerThreadTopK(small, data.data(), data.size(), 32, o).ok());
  ASSERT_TRUE(PerThreadTopK(large, data.data(), data.size(), 128, o).ok());
  EXPECT_EQ(small.total_metrics().local_bytes, 0u)
      << "k=32 fits the register budget";
  EXPECT_GT(large.total_metrics().local_bytes, 0u)
      << "k=128 must spill to local memory";
}

// --- Performance shape checks (paper Section 6) -----------------------------

// Simulated kernel ms of one host-staged run of a registered operator.
template <typename E>
double KernelMs(const char* op, simt::Device& dev, const std::vector<E>& data,
                size_t k) {
  auto r = topk::FindOperator(op).value()->TopKHost(dev, data.data(),
                                                    data.size(), k);
  EXPECT_TRUE(r.ok()) << op << ": " << r.status();
  return r.ok() ? r->kernel_ms : 0.0;
}

TEST(AlgoShapeTest, SortIsFlatInK) {
  auto data = GenerateFloats(1 << 18, Distribution::kUniform);
  double t32, t256;
  {
    simt::Device dev;
    t32 = KernelMs("Sort", dev, data, 32);
  }
  {
    simt::Device dev;
    t256 = KernelMs("Sort", dev, data, 256);
  }
  EXPECT_NEAR(t32, t256, t32 * 0.02);
}

TEST(AlgoShapeTest, BitonicBeatsSortAtSmallK) {
  auto data = GenerateFloats(1 << 20, Distribution::kUniform);
  simt::Device d1, d2;
  double bitonic = BitonicTopK(d1, data.data(), data.size(), 32)->kernel_ms;
  double sort = KernelMs("Sort", d2, data, 32);
  EXPECT_LT(bitonic * 4, sort) << "paper reports up to 15x";
}

TEST(AlgoShapeTest, RadixSelectFasterOnUniformIntsThanFloats) {
  // Uniform u32 keys give maximal per-pass reduction on the first digit;
  // U(0,1) floats concentrate in few exponent buckets (paper Section 6.3).
  const size_t n = 1 << 20;
  simt::Device d1, d2;
  auto f = GenerateFloats(n, Distribution::kUniform);
  auto u = GenerateU32(n, Distribution::kUniform);
  double tf = KernelMs("RadixSelect", d1, f, 64);
  double tu = KernelMs("RadixSelect", d2, u, 64);
  EXPECT_LT(tu, tf);
}

TEST(AlgoShapeTest, BucketKillerDegradesRadixSelectToSortCost) {
  const size_t n = 1 << 20;
  simt::Device d1, d2, d3;
  auto killer = GenerateFloats(n, Distribution::kBucketKiller);
  auto uniform = GenerateFloats(n, Distribution::kUniform);
  double t_killer = KernelMs("RadixSelect", d1, killer, 32);
  double t_uniform = KernelMs("RadixSelect", d2, uniform, 32);
  EXPECT_GT(t_killer, t_uniform * 1.5);
  // And bitonic is unaffected (data-oblivious).
  double t_bitonic = BitonicTopK(d3, killer.data(), n, 32)->kernel_ms;
  EXPECT_LT(t_bitonic, t_killer);
}

TEST(AlgoShapeTest, BucketSelectFastAtK1) {
  const size_t n = 1 << 20;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device d1, d2;
  double t1 = KernelMs("BucketSelect", d1, data, 1);
  double t64 = KernelMs("BucketSelect", d2, data, 64);
  EXPECT_LT(t1, t64 * 0.7) << "k=1 returns right after min/max";
}

TEST(AlgoShapeTest, PerThreadOccupancyCliffAtLargeK) {
  const size_t n = 1 << 20;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device d1, d2;
  double t16 = PerThreadTopK(d1, data.data(), n, 16)->kernel_ms;
  double t256 = PerThreadTopK(d2, data.data(), n, 256)->kernel_ms;
  EXPECT_GT(t256, t16 * 2) << "shared-memory occupancy loss (paper Fig 11a)";
}

}  // namespace
}  // namespace mptopk::gpu
