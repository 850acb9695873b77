// LSD radix sort implementation. Per 8-bit digit pass:
//
//   1. histogram kernel: per-block shared 256-bin histogram of the digit,
//      written to global as hist[bin * grid + block] (bin-major so the scan
//      yields per-block scatter bases directly);
//   2. scan kernel: exclusive prefix sum over the 256*grid table (single
//      block, chunked through shared memory with a running carry);
//   3. scatter kernel: re-reads the tile, ranks elements per digit in
//      element order (stable), reorders the tile in shared memory by digit,
//      and writes each digit's run to its global base -- consecutive shared
//      slots land in consecutive global slots, keeping writes coalesced.
#include "gputopk/radix_sort.h"

#include <algorithm>

#include "common/bits.h"
#include "gputopk/kernel_util.h"

namespace mptopk::gpu {
namespace {

using simt::Block;
using simt::DeviceBuffer;
using simt::GlobalSpan;
using simt::Thread;

constexpr int kRadixBits = 8;
constexpr int kRadix = 1 << kRadixBits;
constexpr int kBlockDim = 256;
constexpr int kMaxGrid = 128;  // bounded grid; blocks cover contiguous tile ranges

// Tile size per block, chosen so the scatter kernel's shared footprint
// (tile + reorder buffer + ranks + histograms) fits in 48 KiB for the
// element width.
template <typename E>
constexpr size_t RadixTile() {
  return sizeof(E) <= 8 ? 2048 : 1024;
}

template <typename E>
uint32_t DigitOf(const E& e, int pass) {
  return ExtractDigitLsd(OrderedKeyBits(e), pass, kRadixBits);
}

// Pass 1: per-block digit histogram into hist[bin * grid + block]. Each
// block covers a contiguous range of tiles (bounded grid), which both
// amortizes the flush and keeps the later scatter stable.
template <typename E>
Status LaunchHistogram(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                       GlobalSpan<uint32_t> hist, int pass, int grid,
                       size_t per_block) {
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = kBlockDim, .name = "radix_histogram"},
      [&](Block& blk) {
        auto counts = blk.AllocShared<uint32_t>(kRadix);
        blk.ForEachThread([&](Thread& t) {
          for (int b = t.tid; b < kRadix; b += kBlockDim) {
            counts.Write(t, b, 0);
          }
        });
        blk.Sync();
        size_t base = static_cast<size_t>(blk.block_idx()) * per_block;
        size_t end = std::min(base + per_block, n);
        blk.ForEachThread([&](Thread& t) {
          for (size_t i = base + t.tid; i < end; i += kBlockDim) {
            counts.AtomicAdd(t, DigitOf(in.Read(t, i), pass), 1u);
          }
        });
        blk.Sync();
        blk.ForEachThread([&](Thread& t) {
          for (int b = t.tid; b < kRadix; b += kBlockDim) {
            hist.Write(t,
                       static_cast<size_t>(b) * grid + blk.block_idx(),
                       counts.Read(t, b));
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// Pass 2: exclusive scan over hist[0, count) with one block, chunking
// through shared memory with a running carry.
Status LaunchScan(const simt::ExecCtx& dev, GlobalSpan<uint32_t> hist, size_t count) {
  constexpr size_t kChunk = 2048;
  auto st = dev.Launch(
      {.grid_dim = 1, .block_dim = kBlockDim, .name = "radix_scan"},
      [&](Block& blk) {
        auto data = blk.AllocShared<uint32_t>(kChunk);
        auto scratch = blk.AllocShared<uint32_t>(kChunk);
        uint32_t carry = 0;
        for (size_t base = 0; base < count; base += kChunk) {
          size_t len = std::min(kChunk, count - base);
          blk.ForEachThread([&](Thread& t) {
            for (size_t i = t.tid; i < len; i += kBlockDim) {
              data.Write(t, i, hist.Read(t, base + i));
            }
          });
          blk.Sync();
          uint32_t total = 0;
          BlockExclusiveScan(blk, data, len, scratch, &total);
          blk.ForEachThread([&](Thread& t) {
            for (size_t i = t.tid; i < len; i += kBlockDim) {
              hist.Write(t, base + i, data.Read(t, i) + carry);
            }
          });
          blk.Sync();
          carry += total;
        }
      });
  return st.ok() ? Status::OK() : st.status();
}

// Pass 3: stable scatter through a shared reorder buffer. Each block walks
// its contiguous tile range in order, maintaining cumulative per-digit
// offsets (emitted[]) so ranks stay stable across tiles; global bases come
// from the scanned per-block histogram.
template <typename E>
Status LaunchScatter(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                     GlobalSpan<E> out, GlobalSpan<uint32_t> hist_scanned,
                     int pass, int grid, size_t per_block) {
  const size_t tile_n = RadixTile<E>();
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = kBlockDim, .name = "radix_scatter"},
      [&](Block& blk) {
        auto tile = blk.AllocShared<E>(tile_n);
        auto reorder = blk.AllocShared<E>(tile_n);
        auto rank = blk.AllocShared<uint32_t>(tile_n);
        auto cnt = blk.AllocShared<uint32_t>(kRadix);
        auto bin_start = blk.AllocShared<uint32_t>(kRadix);
        auto scratch = blk.AllocShared<uint32_t>(kRadix);
        auto emitted = blk.AllocShared<uint32_t>(kRadix);

        blk.ForEachThread([&](Thread& t) {
          for (int b = t.tid; b < kRadix; b += kBlockDim) {
            emitted.Write(t, b, 0);
          }
        });
        blk.Sync();

        size_t range_lo = static_cast<size_t>(blk.block_idx()) * per_block;
        size_t range_hi = std::min(range_lo + per_block, n);
        for (size_t base = range_lo; base < range_hi; base += tile_n) {
          size_t count = std::min(tile_n, range_hi - base);

          // Coalesced load of the tile; zero the per-tile digit counters.
          blk.ForEachThread([&](Thread& t) {
            for (size_t i = t.tid; i < count; i += kBlockDim) {
              tile.Write(t, i, in.Read(t, base + i));
            }
            for (int b = t.tid; b < kRadix; b += kBlockDim) {
              cnt.Write(t, b, 0);
            }
          });
          blk.Sync();

          // Rank in element order: each thread owns a contiguous slice and
          // threads execute in order, so AtomicAdd assigns stable ranks
          // (mirrors per-thread-histogram + hierarchical scan of real GPU
          // radix sorts at equivalent shared traffic).
          size_t per_thread = CeilDiv(count, kBlockDim);
          blk.ForEachThread([&](Thread& t) {
            size_t lo = t.tid * per_thread;
            size_t hi = std::min(count, lo + per_thread);
            for (size_t i = lo; i < hi; ++i) {
              uint32_t d = DigitOf(tile.Read(t, i), pass);
              rank.Write(t, i, cnt.AtomicAdd(t, d, 1u));
            }
          });
          blk.Sync();

          // Local exclusive scan of the digit counts.
          blk.ForEachThread([&](Thread& t) {
            for (int b = t.tid; b < kRadix; b += kBlockDim) {
              bin_start.Write(t, b, cnt.Read(t, b));
            }
          });
          blk.Sync();
          BlockExclusiveScan(blk, bin_start, kRadix, scratch, nullptr);

          // Reorder the tile by (digit, rank).
          blk.ForEachThread([&](Thread& t) {
            for (size_t i = t.tid; i < count; i += kBlockDim) {
              E e = tile.Read(t, i);
              uint32_t d = DigitOf(e, pass);
              uint32_t pos = bin_start.Read(t, d) + rank.Read(t, i);
              reorder.Write(t, pos, e);
            }
          });
          blk.Sync();

          // Coalesced write-out: consecutive reorder slots of one digit land
          // in consecutive global positions.
          blk.ForEachThread([&](Thread& t) {
            for (size_t i = t.tid; i < count; i += kBlockDim) {
              E e = reorder.Read(t, i);
              uint32_t d = DigitOf(e, pass);
              uint32_t global_base = hist_scanned.Read(
                  t, static_cast<size_t>(d) * grid + blk.block_idx());
              uint32_t local_rank = static_cast<uint32_t>(i) -
                                    bin_start.Read(t, d) +
                                    emitted.Read(t, d);
              out.Write(t, global_base + local_rank, e);
            }
          });
          blk.Sync();

          // Advance the cumulative per-digit offsets.
          blk.ForEachThread([&](Thread& t) {
            for (int b = t.tid; b < kRadix; b += kBlockDim) {
              emitted.Write(t, b, emitted.Read(t, b) + cnt.Read(t, b));
            }
          });
          blk.Sync();
        }
      });
  return st.ok() ? Status::OK() : st.status();
}

}  // namespace

template <typename E>
Status RadixSortDevice(const simt::ExecCtx& dev, DeviceBuffer<E>& data, size_t n,
                       DeviceBuffer<E>* out) {
  if (n == 0) return Status::OK();
  if (out->size() < n) {
    return Status::InvalidArgument("output buffer too small");
  }
  const int grid = static_cast<int>(
      std::min<uint64_t>(kMaxGrid, CeilDiv(n, RadixTile<E>())));
  const size_t per_block =
      RoundUp(CeilDiv(n, grid), RadixTile<E>());
  const int passes = static_cast<int>(sizeof(KeyBits<E>));
  MPTOPK_ASSIGN_OR_RETURN(auto ping, dev.Alloc<E>(n));
  MPTOPK_ASSIGN_OR_RETURN(
      auto hist, dev.Alloc<uint32_t>(static_cast<size_t>(kRadix) * grid));

  GlobalSpan<E> src(data);
  GlobalSpan<E> a(ping), b(*out);
  // Arrange ping-pong so the final pass lands in *out (passes is even for
  // all supported key widths).
  GlobalSpan<E> cur = src, dst = (passes % 2 == 0) ? a : b;
  GlobalSpan<uint32_t> h(hist);
  for (int pass = 0; pass < passes; ++pass) {
    MPTOPK_RETURN_NOT_OK(
        LaunchHistogram(dev, cur, n, h, pass, grid, per_block));
    MPTOPK_RETURN_NOT_OK(
        LaunchScan(dev, h, static_cast<size_t>(kRadix) * grid));
    MPTOPK_RETURN_NOT_OK(
        LaunchScatter(dev, cur, n, dst, h, pass, grid, per_block));
    cur = dst;
    dst = (pass % 2 == 0) == (passes % 2 == 0) ? b : a;
  }
  return Status::OK();
}

template <typename E>
StatusOr<TopKResult<E>> SortTopKDevice(const simt::ExecCtx& dev,
                                       DeviceBuffer<E>& data, size_t n,
                                       size_t k) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("require 1 <= k <= n");
  }
  DeviceTimeTracker tracker(dev);
  MPTOPK_ASSIGN_OR_RETURN(auto sorted, dev.Alloc<E>(n));
  MPTOPK_RETURN_NOT_OK(RadixSortDevice(dev, data, n, &sorted));
  // The array is ascending; emit the last k reversed (descending).
  MPTOPK_ASSIGN_OR_RETURN(auto out_k, dev.Alloc<E>(k));
  GlobalSpan<E> s(sorted), o(out_k);
  auto st = dev.Launch(
      {.grid_dim = 1, .block_dim = kBlockDim, .name = "sort_emit_topk"},
      [&](Block& blk) {
        blk.ForEachThread([&](Thread& t) {
          for (size_t i = t.tid; i < k; i += kBlockDim) {
            o.Write(t, i, s.Read(t, n - 1 - i));
          }
        });
      });
  if (!st.ok()) return st.status();

  TopKResult<E> result;
  result.items.resize(k);
  MPTOPK_RETURN_NOT_OK(dev.CopyToHost(result.items.data(), out_k, k));
  result.kernel_ms = tracker.ElapsedMs();
  result.kernels_launched = tracker.Launches();
  return result;
}

#define MPTOPK_INSTANTIATE_SORT(E)                                          \
  template Status RadixSortDevice<E>(const simt::ExecCtx&, DeviceBuffer<E>&,        \
                                     size_t, DeviceBuffer<E>*);              \
  template StatusOr<TopKResult<E>> SortTopKDevice<E>(                        \
      const simt::ExecCtx&, DeviceBuffer<E>&, size_t, size_t);

MPTOPK_INSTANTIATE_SORT(float)
MPTOPK_INSTANTIATE_SORT(double)
MPTOPK_INSTANTIATE_SORT(uint32_t)
MPTOPK_INSTANTIATE_SORT(int32_t)
MPTOPK_INSTANTIATE_SORT(uint64_t)
MPTOPK_INSTANTIATE_SORT(int64_t)
MPTOPK_INSTANTIATE_SORT(KV)
MPTOPK_INSTANTIATE_SORT(KV64)
MPTOPK_INSTANTIATE_SORT(KKV)
MPTOPK_INSTANTIATE_SORT(KKKV)

#undef MPTOPK_INSTANTIATE_SORT

}  // namespace mptopk::gpu
