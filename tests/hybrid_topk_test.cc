// Tests for the radix-prefilter + bitonic hybrid (paper Section 8 future
// work): correctness across distributions, the fallback path, and the
// expected cost advantage at scale.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/distributions.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/hybrid_topk.h"
#include "topk/registry.h"

namespace mptopk::gpu {
namespace {

template <typename E>
void CheckAgainstReference(const TopKResult<E>& got, std::vector<E> data,
                           size_t k) {
  std::sort(data.begin(), data.end(),
            [](const E& a, const E& b) { return ElementTraits<E>::Less(b, a); });
  ASSERT_EQ(got.items.size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(ElementTraits<E>::PrimaryKey(got.items[i]),
              ElementTraits<E>::PrimaryKey(data[i]))
        << "rank " << i;
  }
}

// Host-staged run of the HybridTopK operator (power-of-two k runs the
// kernel as is).
template <typename E>
StatusOr<TopKResult<E>> RunHybrid(simt::Device& dev, const std::vector<E>& data,
                                  size_t k) {
  return topk::FindOperator("HybridTopK").value()->TopKHost(
      dev, data.data(), data.size(), k);
}

struct HybridCase {
  size_t k;
  Distribution dist;
};

class HybridSweepTest : public ::testing::TestWithParam<HybridCase> {};

TEST_P(HybridSweepTest, MatchesReference) {
  auto [k, dist] = GetParam();
  auto data = GenerateFloats(1 << 16, dist, 13 * k);
  simt::Device dev;
  auto r = RunHybrid(dev, data, k);
  ASSERT_TRUE(r.ok()) << r.status();
  CheckAgainstReference(*r, data, k);
}

INSTANTIATE_TEST_SUITE_P(
    All, HybridSweepTest,
    ::testing::Values(HybridCase{1, Distribution::kUniform},
                      HybridCase{32, Distribution::kUniform},
                      HybridCase{256, Distribution::kUniform},
                      HybridCase{1024, Distribution::kUniform},
                      HybridCase{32, Distribution::kIncreasing},
                      HybridCase{32, Distribution::kDecreasing},
                      HybridCase{32, Distribution::kBucketKiller}),
    [](const auto& info) {
      return std::string(DistributionName(info.param.dist)) + "_k" +
             std::to_string(info.param.k);
    });

TEST(HybridTopKTest, BucketKillerTakesFallback) {
  // Nearly all keys equal: the pivot cannot discriminate, the candidate
  // cap overflows, and the hybrid must take the plain-bitonic fallback and
  // still be correct.
  auto data = GenerateFloats(1 << 16, Distribution::kBucketKiller);
  simt::Device with_hybrid, plain;
  auto hy = RunHybrid(with_hybrid, data, 32);
  auto bi = BitonicTopK(plain, data.data(), data.size(), 32);
  ASSERT_TRUE(hy.ok());
  ASSERT_TRUE(bi.ok());
  EXPECT_EQ(hy->items, bi->items);
  // Fallback cost: at most bitonic plus the wasted sample + filter passes
  // (at this small n the sampling stage is skipped entirely, so the times
  // may be identical).
  EXPECT_GE(hy->kernel_ms, bi->kernel_ms);
  EXPECT_LT(hy->kernel_ms, bi->kernel_ms * 3.0);
}

TEST(HybridTopKTest, BeatsBitonicOnUniformIntsAtScale) {
  const size_t n = 1 << 21;
  auto data = GenerateU32(n, Distribution::kUniform);
  simt::Device d1, d2;
  d1.set_trace_sample_target(24);
  d2.set_trace_sample_target(24);
  auto hy = RunHybrid(d1, data, 32);
  auto bi = BitonicTopK(d2, data.data(), n, 32);
  ASSERT_TRUE(hy.ok());
  ASSERT_TRUE(bi.ok());
  EXPECT_LT(hy->kernel_ms, bi->kernel_ms)
      << "one histogram read + tiny bitonic should beat shared-bound "
         "bitonic over everything";
}

TEST(HybridTopKTest, BeatsBitonicOnUniformFloatsAtScale) {
  // The sampled pivot discriminates any distribution with enough distinct
  // keys -- including U(0,1) floats, where a byte-radix prefilter would
  // fail on the exponent clustering.
  const size_t n = 1 << 21;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device d1, d2;
  d1.set_trace_sample_target(24);
  d2.set_trace_sample_target(24);
  auto hy = RunHybrid(d1, data, 32);
  auto bi = BitonicTopK(d2, data.data(), n, 32);
  ASSERT_TRUE(hy.ok());
  ASSERT_TRUE(bi.ok());
  EXPECT_EQ(hy->items, bi->items);
  EXPECT_LT(hy->kernel_ms, bi->kernel_ms);
}

TEST(HybridTopKTest, KVPayloadsSurvive) {
  auto keys = GenerateFloats(1 << 15, Distribution::kUniform);
  std::vector<KV> data(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    data[i] = KV{keys[i], static_cast<uint32_t>(i)};
  }
  simt::Device dev;
  auto r = RunHybrid(dev, data, 64);
  ASSERT_TRUE(r.ok()) << r.status();
  for (const KV& kv : r->items) {
    EXPECT_EQ(data[kv.value].key, kv.key);
  }
}

TEST(HybridTopKTest, OperatorRoundsUpNonPowerOfTwoK) {
  auto data = GenerateFloats(1 << 15, Distribution::kUniform);
  simt::Device dev;
  auto r = topk::FindOperator("HybridTopK").value()->TopKHost(
      dev, data.data(), data.size(), 100);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->items.size(), 100u);
  CheckAgainstReference(*r, data, 100);
}

TEST(HybridTopKTest, RejectsBadArguments) {
  auto data = GenerateFloats(128, Distribution::kUniform);
  simt::Device dev;
  // The raw kernel's k rule: power-of-two k <= n (the operator rounds k up).
  auto buf = dev.Alloc<float>(data.size()).value();
  ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), data.size()).ok());
  EXPECT_FALSE(HybridTopKDevice(dev, buf, 128, 0).ok());
  EXPECT_FALSE(HybridTopKDevice(dev, buf, 128, 3).ok());
  EXPECT_FALSE(HybridTopKDevice(dev, buf, 128, 256).ok());
}

}  // namespace
}  // namespace mptopk::gpu
