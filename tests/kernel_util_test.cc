// Unit tests for the shared device-side building blocks: FillDevice,
// BlockExclusiveScan (property-tested across sizes), TwoWayCompactTile, and
// the RunTopK call frame every GPU top-k entry point runs in.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/distributions.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/hybrid_topk.h"
#include "gputopk/kernel_util.h"
#include "gputopk/perthread_topk.h"
#include "gputopk/radix_sort.h"
#include "gputopk/select.h"
#include "topk/registry.h"

namespace mptopk::gpu {
namespace {

using simt::Block;
using simt::Device;
using simt::GlobalSpan;
using simt::Thread;

TEST(FillDeviceTest, FillsExactRange) {
  Device dev;
  auto buf = dev.Alloc<uint32_t>(1000).value();
  std::fill(buf.host_data(), buf.host_data() + 1000, 7u);
  ASSERT_TRUE(FillDevice<uint32_t>(dev, buf, 100, 500, 42u).ok());
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(buf.host_data()[i], (i >= 100 && i < 600) ? 42u : 7u) << i;
  }
}

TEST(FillDeviceTest, ZeroCountIsNoop) {
  Device dev;
  auto buf = dev.Alloc<uint32_t>(8).value();
  size_t launches = dev.kernel_log().size();
  ASSERT_TRUE(FillDevice<uint32_t>(dev, buf, 0, 0, 1u).ok());
  EXPECT_EQ(dev.kernel_log().size(), launches);
}

class BlockScanTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BlockScanTest, MatchesSerialPrefixSum) {
  const size_t n = GetParam();
  Device dev;
  std::mt19937 rng(n);
  std::vector<uint32_t> input(n);
  for (auto& v : input) v = rng() % 100;

  auto out_buf = dev.Alloc<uint32_t>(n).value();
  auto total_buf = dev.Alloc<uint32_t>(1).value();
  GlobalSpan<uint32_t> out(out_buf), total_span(total_buf);
  auto stats = dev.Launch({.grid_dim = 1, .block_dim = 256}, [&](Block& blk) {
    auto data = blk.AllocShared<uint32_t>(n);
    auto scratch = blk.AllocShared<uint32_t>(n);
    blk.ForEachThread([&](Thread& t) {
      for (size_t i = t.tid; i < n; i += 256) data.Write(t, i, input[i]);
    });
    blk.Sync();
    uint32_t total = 0;
    BlockExclusiveScan(blk, data, n, scratch, &total);
    blk.ForEachThread([&](Thread& t) {
      for (size_t i = t.tid; i < n; i += 256) out.Write(t, i, data.Read(t, i));
      if (t.tid == 0) total_span.Write(t, 0, total);
    });
  });
  ASSERT_TRUE(stats.ok());

  uint32_t expect = 0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out_buf.host_data()[i], expect) << "i=" << i;
    expect += input[i];
  }
  EXPECT_EQ(total_buf.host_data()[0], expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlockScanTest,
                         ::testing::Values(1, 2, 3, 17, 255, 256, 257, 1000,
                                           2048),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(TwoWayCompactTest, SplitsHiEqDrop) {
  // Classify ints: >66 -> hi stream, ==66 -> eq stream, else dropped.
  Device dev;
  const size_t n = 4096;
  std::mt19937 rng(5);
  std::vector<int32_t> input(n);
  for (auto& v : input) v = rng() % 100;

  auto in_buf = dev.Alloc<int32_t>(n).value();
  dev.CopyToDevice(in_buf, input.data(), n);
  auto hi_buf = dev.Alloc<int32_t>(n).value();
  auto eq_buf = dev.Alloc<int32_t>(n).value();
  auto counters = dev.Alloc<uint32_t>(2).value();
  counters.host_data()[0] = 0;
  counters.host_data()[1] = 0;

  GlobalSpan<int32_t> in(in_buf), hi(hi_buf), eq(eq_buf);
  GlobalSpan<uint32_t> cnts(counters);
  auto stats = dev.Launch({.grid_dim = 2, .block_dim = 256}, [&](Block& blk) {
    auto w = TwoWayCompactWorkspace<int32_t>::Alloc(blk, 1024);
    size_t lo = static_cast<size_t>(blk.block_idx()) * (n / 2);
    for (size_t base = lo; base < lo + n / 2; base += 1024) {
      TwoWayCompactTile<int32_t>(
          blk, w, in, base, base + 1024,
          [](int32_t v) { return v > 66 ? 1 : (v == 66 ? 0 : -1); }, hi,
          /*out_hi_offset=*/0, eq, cnts);
    }
  });
  ASSERT_TRUE(stats.ok());

  size_t expect_hi = std::count_if(input.begin(), input.end(),
                                   [](int v) { return v > 66; });
  size_t expect_eq = std::count(input.begin(), input.end(), 66);
  EXPECT_EQ(counters.host_data()[0], expect_hi);
  EXPECT_EQ(counters.host_data()[1], expect_eq);

  // The streams must hold exactly the matching multisets.
  std::vector<int32_t> hi_out(hi_buf.host_data(),
                              hi_buf.host_data() + expect_hi);
  for (int32_t v : hi_out) EXPECT_GT(v, 66);
  std::vector<int32_t> want_hi;
  for (int32_t v : input) {
    if (v > 66) want_hi.push_back(v);
  }
  std::sort(hi_out.begin(), hi_out.end());
  std::sort(want_hi.begin(), want_hi.end());
  EXPECT_EQ(hi_out, want_hi);
  for (size_t i = 0; i < expect_eq; ++i) {
    EXPECT_EQ(eq_buf.host_data()[i], 66);
  }
}

TEST(TwoWayCompactTest, AllMatchAndNoneMatch) {
  Device dev;
  const size_t n = 2048;
  std::vector<int32_t> input(n, 5);
  auto in_buf = dev.Alloc<int32_t>(n).value();
  dev.CopyToDevice(in_buf, input.data(), n);
  auto hi_buf = dev.Alloc<int32_t>(n).value();
  auto eq_buf = dev.Alloc<int32_t>(n).value();
  auto counters = dev.Alloc<uint32_t>(2).value();

  for (auto [cls, expect_hi] :
       std::vector<std::pair<int, size_t>>{{1, n}, {-1, 0}}) {
    counters.host_data()[0] = 0;
    counters.host_data()[1] = 0;
    GlobalSpan<int32_t> in(in_buf), hi(hi_buf), eq(eq_buf);
    GlobalSpan<uint32_t> cnts(counters);
    auto stats = dev.Launch({.grid_dim = 1, .block_dim = 256},
                            [&](Block& blk) {
      auto w = TwoWayCompactWorkspace<int32_t>::Alloc(blk, 1024);
      for (size_t base = 0; base < n; base += 1024) {
        TwoWayCompactTile<int32_t>(
            blk, w, in, base, base + 1024,
            [cls](int32_t) { return cls; }, hi, 0, eq, cnts);
      }
    });
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(counters.host_data()[0], expect_hi);
    EXPECT_EQ(counters.host_data()[1], 0u);
  }
}

TEST(TracerDeterminismTest, SampledTimingIsStable) {
  // Repeated sampled launches of the same kernel produce identical
  // simulated times (the foundation of reproducible benches).
  auto run = [] {
    Device dev;
    dev.set_trace_sample_target(4);
    auto buf = dev.Alloc<float>(1 << 14).value();
    GlobalSpan<float> g(buf);
    auto stats = dev.Launch({.grid_dim = 64, .block_dim = 256},
                            [&](Block& blk) {
      blk.ForEachThread([&](Thread& t) {
        size_t i = (static_cast<size_t>(blk.block_idx()) * 256 + t.tid) %
                   (1 << 14);
        g.Write(t, i, 1.f);
      });
    });
    return stats->time.total_ms;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

// --- RunTopK: the call frame of every GPU top-k entry point ------------------

// Runs `call` on `dev` and checks that the frame's stamps are views over the
// device's log: kernel_ms is the growth of total_sim_ms() bit for bit (and
// the sum of the new kernel_log() entries), kernels_launched the growth of
// the log.
void ExpectStampsMatchLog(
    Device& dev, const std::function<StatusOr<TopKResult<float>>()>& call,
    const std::string& label) {
  const double ms_before = dev.total_sim_ms();
  const size_t log_before = dev.kernel_log().size();
  auto r = call();
  ASSERT_TRUE(r.ok()) << label << ": " << r.status();
  EXPECT_EQ(r->kernel_ms, dev.total_sim_ms() - ms_before) << label;
  double logged_ms = 0.0;
  for (size_t i = log_before; i < dev.kernel_log().size(); ++i) {
    logged_ms += dev.kernel_log()[i].time.total_ms;
  }
  EXPECT_NEAR(r->kernel_ms, logged_ms, 1e-12 * logged_ms) << label;
  EXPECT_GT(r->kernels_launched, 0) << label;
  EXPECT_EQ(static_cast<size_t>(r->kernels_launched),
            dev.kernel_log().size() - log_before)
      << label;
}

TEST(RunTopKTest, EveryOperatorStampsWhatTheDeviceLogged) {
  // 2^17 + 3 takes HybridTopK's sampled path (whose sample top-m is a
  // nested framed bitonic call); 2^14 + 3 its plain-bitonic path.
  for (size_t n : {(size_t{1} << 14) + 3, (size_t{1} << 17) + 3}) {
    auto data = GenerateFloats(n, Distribution::kUniform, n);
    for (const topk::TopKOperator* op :
         topk::GpuSweepOperators(/*include_extensions=*/true)) {
      Device dev;
      dev.set_trace_sample_target(8);
      auto buf = dev.Alloc<float>(n).value();
      ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
      for (size_t k : {1, 32, 100}) {
        ExpectStampsMatchLog(
            dev, [&] { return op->TopKDevice(dev, buf, n, k); },
            op->name() + " n=" + std::to_string(n) + " k=" +
                std::to_string(k));
      }
    }
  }
}

TEST(RunTopKTest, BitonicReduceRunsStampsWhatTheDeviceLogged) {
  for (size_t k : {1, 32, 256}) {
    for (size_t runs : {1, 9, 700}) {
      // Alternating ascending / descending sorted runs are bitonic.
      const size_t m = k * runs;
      auto data = GenerateFloats(m, Distribution::kUniform, m);
      for (size_t r = 0; r < runs; ++r) {
        auto first = data.begin() + r * k;
        std::sort(first, first + k);
        if (r % 2 == 1) std::reverse(first, first + k);
      }
      Device dev;
      auto buf = dev.Alloc<float>(m).value();
      ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), m).ok());
      ExpectStampsMatchLog(
          dev, [&] { return BitonicReduceRuns(dev, buf, m, k); },
          "k=" + std::to_string(k) + " m=" + std::to_string(m));
    }
  }
}

TEST(RunTopKTest, RejectsBadKBeforeAnyDeviceEvent) {
  using Entry = std::function<StatusOr<TopKResult<float>>(
      Device&, simt::DeviceBuffer<float>&, size_t, size_t)>;
  const std::vector<std::pair<std::string, Entry>> entries = {
      {"SortTopKDevice",
       [](Device& d, simt::DeviceBuffer<float>& b, size_t n, size_t k) {
         return SortTopKDevice(d, b, n, k);
       }},
      {"PerThreadTopKDevice",
       [](Device& d, simt::DeviceBuffer<float>& b, size_t n, size_t k) {
         return PerThreadTopKDevice(d, b, n, k);
       }},
      {"RadixSelectTopKDevice",
       [](Device& d, simt::DeviceBuffer<float>& b, size_t n, size_t k) {
         return RadixSelectTopKDevice(d, b, n, k);
       }},
      {"BucketSelectTopKDevice",
       [](Device& d, simt::DeviceBuffer<float>& b, size_t n, size_t k) {
         return BucketSelectTopKDevice(d, b, n, k);
       }},
      {"BitonicTopKDevice",
       [](Device& d, simt::DeviceBuffer<float>& b, size_t n, size_t k) {
         return BitonicTopKDevice(d, b, n, k);
       }},
      {"BitonicReduceRuns",
       [](Device& d, simt::DeviceBuffer<float>& b, size_t n, size_t k) {
         return BitonicReduceRuns(d, b, n, k);
       }},
      {"HybridTopKDevice",
       [](Device& d, simt::DeviceBuffer<float>& b, size_t n, size_t k) {
         return HybridTopKDevice(d, b, n, k);
       }},
  };
  const size_t n = 1024;
  auto data = GenerateFloats(n, Distribution::kUniform);
  for (const auto& [name, run] : entries) {
    for (size_t k : {size_t{0}, n + 1}) {
      // The input lives on another device, so this one's peak stays zero
      // unless the call itself allocates.
      Device staging;
      auto buf = staging.Alloc<float>(n).value();
      ASSERT_TRUE(staging.CopyToDevice(buf, data.data(), n).ok());
      Device dev;
      auto r = run(dev, buf, n, k);
      ASSERT_FALSE(r.ok()) << name << " k=" << k;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << name << " k=" << k;
      EXPECT_TRUE(dev.kernel_log().empty()) << name << " k=" << k;
      EXPECT_EQ(dev.peak_allocated_bytes(), 0u) << name << " k=" << k;
      EXPECT_EQ(dev.pcie_ms(), 0.0) << name << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace mptopk::gpu
