// Tests for the bottom-k direction ("largest or smallest", paper abstract):
// implemented as top-k over order-negated keys, so every registered
// operator that claims supports_bottom_k must work symmetrically — the GPU
// backends through a device negate pass, the CPU backends through a negated
// host copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/distributions.h"
#include "topk/registry.h"

namespace mptopk {
namespace {

// Off every warp and tile boundary.
constexpr size_t kN = 10007;
// Above kMaxGrid (128) x the largest selection tile (2048 elements), so each
// block of the bounded-grid selection kernels loops over several tiles.
constexpr size_t kManyTilesN = (size_t{1} << 18) + 1;

template <typename E>
std::vector<E> ReferenceBottom(std::vector<E> data, size_t k) {
  std::sort(data.begin(), data.end(),
            [](const E& a, const E& b) { return ElementTraits<E>::Less(a, b); });
  data.resize(k);
  return data;
}

std::vector<const topk::TopKOperator*> BottomKOperators() {
  std::vector<const topk::TopKOperator*> out;
  for (const topk::TopKOperator* op : topk::Registry::Instance().All()) {
    if (op->caps().supports_bottom_k) out.push_back(op);
  }
  return out;
}

std::vector<KV> KeysWithIndexPayload(const std::vector<float>& keys) {
  std::vector<KV> data(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    data[i] = KV{keys[i], static_cast<uint32_t>(i)};
  }
  return data;
}

// Bottom-k of `data` through the host entry and, for operators with a
// device-resident entry, through BottomKDevice on a staged copy. Every block
// runs; `trace_sample` > 0 traces (and race-checks) only that many per launch.
template <typename E>
std::vector<gpu::TopKResult<E>> RunBottomK(const topk::TopKOperator* op,
                                           const std::vector<E>& data,
                                           size_t k, int trace_sample = 0) {
  std::vector<gpu::TopKResult<E>> out;
  simt::Device host_dev;
  host_dev.set_trace_sample_target(trace_sample);
  auto r = op->BottomKHost(host_dev, data.data(), data.size(), k);
  EXPECT_TRUE(r.ok()) << op->name() << " host: " << r.status();
  if (r.ok()) out.push_back(std::move(r).value());
  if (op->has_device_entry()) {
    simt::Device dev;
    dev.set_trace_sample_target(trace_sample);
    auto buf = dev.Alloc<E>(data.size());
    EXPECT_TRUE(buf.ok());
    if (!buf.ok()) return out;
    EXPECT_TRUE(dev.CopyToDevice(*buf, data.data(), data.size()).ok());
    auto d = op->BottomKDevice(dev, *buf, data.size(), k);
    EXPECT_TRUE(d.ok()) << op->name() << " device: " << d.status();
    if (d.ok()) out.push_back(std::move(d).value());
  }
  return out;
}

class BottomKTest
    : public ::testing::TestWithParam<const topk::TopKOperator*> {};

TEST_P(BottomKTest, FloatsAscending) {
  const topk::TopKOperator* op = GetParam();
  auto data = GenerateFloats(kN, Distribution::kUniform, 21);
  const auto expect = ReferenceBottom(data, 32);
  const auto runs = RunBottomK(op, data, 32);
  EXPECT_EQ(runs.size(), op->has_device_entry() ? 2u : 1u);
  for (const auto& r : runs) {
    ASSERT_EQ(r.items.size(), 32u);
    for (size_t i = 0; i < 32; ++i) {
      EXPECT_EQ(r.items[i], expect[i]) << op->name() << " rank " << i;
    }
  }
}

TEST_P(BottomKTest, SignedIntsIncludingMin) {
  const topk::TopKOperator* op = GetParam();
  auto data = GenerateI32(kN, Distribution::kUniform, 22);
  data[100] = INT32_MIN;  // ~x must handle the extremes
  data[200] = INT32_MAX;
  const auto expect = ReferenceBottom(data, 16);
  for (const auto& r : RunBottomK(op, data, 16)) {
    EXPECT_EQ(r.items, expect) << op->name();
    EXPECT_EQ(r.items.front(), INT32_MIN) << op->name();
  }
}

TEST_P(BottomKTest, KVPayloadsFollowSmallestKeys) {
  const topk::TopKOperator* op = GetParam();
  ASSERT_TRUE(op->SupportsElem<KV>()) << op->name();
  // At kManyTilesN only 8 blocks per launch are traced (and race-checked),
  // which keeps the case cheap; those blocks still loop over several tiles.
  for (auto [n, trace_sample] : {std::pair<size_t, int>{kN, 0},
                                 std::pair<size_t, int>{kManyTilesN, 8}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto data =
        KeysWithIndexPayload(GenerateFloats(n, Distribution::kUniform, 23));
    const auto expect = ReferenceBottom(data, 16);
    for (const auto& r : RunBottomK(op, data, 16, trace_sample)) {
      ASSERT_EQ(r.items.size(), 16u);
      std::set<uint32_t> payloads;
      for (size_t i = 0; i < 16; ++i) {
        const KV& kv = r.items[i];
        EXPECT_EQ(kv.key, expect[i].key) << op->name() << " rank " << i;
        ASSERT_LT(kv.value, data.size()) << op->name();
        EXPECT_EQ(data[kv.value].key, kv.key) << op->name() << " rank " << i;
        payloads.insert(kv.value);
      }
      EXPECT_EQ(payloads.size(), 16u) << op->name() << ": duplicated payload";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Operators, BottomKTest,
                         ::testing::ValuesIn(BottomKOperators()),
                         [](const auto& info) {
                           std::string name = info.param->name();
                           std::replace(name.begin(), name.end(), ':', '_');
                           return name;
                         });

TEST(BottomKRegistryTest, CoversGpuAndCpuBackends) {
  int gpu = 0, cpu = 0;
  for (const topk::TopKOperator* op : BottomKOperators()) {
    (op->caps().backend == topk::Backend::kCpu ? cpu : gpu)++;
  }
  EXPECT_GE(gpu, 6);
  EXPECT_GE(cpu, 3);
}

TEST(BottomKRegistryTest, ChunkedTopKIsUnimplemented) {
  const topk::TopKOperator* chunked =
      topk::FindOperator("ChunkedTopK").value();
  EXPECT_FALSE(chunked->caps().supports_bottom_k);
  auto data = GenerateFloats(kN, Distribution::kUniform, 25);
  simt::Device dev;
  auto r = chunked->BottomKHost(dev, data.data(), data.size(), 16);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

// Operators without a device entry reject BottomKDevice before they touch
// the device: no allocation, no negate launch.
TEST(BottomKRegistryTest, DeviceBottomKRejectedBeforeAnyDeviceWork) {
  constexpr size_t kSmallN = 4096;
  auto data = GenerateFloats(kSmallN, Distribution::kUniform, 26);
  simt::Device src;
  auto buf = src.Alloc<float>(kSmallN).value();
  ASSERT_TRUE(src.CopyToDevice(buf, data.data(), kSmallN).ok());
  for (const char* name : {"ChunkedTopK", "cpu:HandPq"}) {
    const topk::TopKOperator* op = topk::FindOperator(name).value();
    ASSERT_FALSE(op->has_device_entry()) << name;
    simt::Device dev;
    auto r = op->BottomKDevice(dev, buf, kSmallN, 16);
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented) << name;
    EXPECT_TRUE(dev.kernel_log().empty()) << name;
    EXPECT_EQ(dev.peak_allocated_bytes(), 0u) << name;
  }
}

TEST(BottomKTest, NegationIsInvolution) {
  for (float v : {0.0f, -0.0f, 1.5f, -3e38f}) {
    EXPECT_EQ(ElementTraits<float>::Negated(ElementTraits<float>::Negated(v)),
              v);
  }
  for (int32_t v : {0, -1, INT32_MIN, INT32_MAX}) {
    EXPECT_EQ(
        ElementTraits<int32_t>::Negated(ElementTraits<int32_t>::Negated(v)),
        v);
  }
  // Order reversal for ints: a < b  <=>  ~b < ~a.
  EXPECT_LT(ElementTraits<int32_t>::Negated(INT32_MAX),
            ElementTraits<int32_t>::Negated(INT32_MIN));
}

}  // namespace
}  // namespace mptopk
