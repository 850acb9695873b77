// Selection skeleton shared by Radix Select and Bucket Select. Host-driven
// passes over the candidates, each:
//
//   1. histogram kernel (shared-memory bins + one global atomic flush per
//      non-empty bin per block);
//   2. tiny host readback of the histogram, pivot-bucket search from the top;
//   3. cluster kernel: elements in buckets above the pivot stream directly
//      into the result, elements in the pivot bucket become the next pass's
//      candidates. Both streams are staged in shared memory per tile and
//      written out coalesced after one global-counter reservation per tile.
//
// A bin rule (MsdDigit, EqualWidthBucket) supplies the bin count, the kernel
// names and the bin of an element; the kernels are instantiated per rule.
// All key arithmetic happens in the order-preserving unsigned key-bit
// domain, so float and int keys share the machinery.
#include "gputopk/select.h"

#include <algorithm>
#include <array>

#include "common/bits.h"
#include "gputopk/kernel_util.h"

namespace mptopk::gpu {
namespace {

using simt::Block;
using simt::DeviceBuffer;
using simt::GlobalSpan;
using simt::Thread;

constexpr int kBlockDim = 256;
constexpr int kMaxGrid = 128;  // bounded grid; blocks cover element ranges

// Sized so the scan-based compaction workspace (3 staged tiles + per-thread
// counters) fits 48 KiB shared memory.
template <typename E>
constexpr size_t SelectTile() {
  return sizeof(E) <= 4 ? 2048 : (sizeof(E) <= 12 ? 1024 : 512);
}

// Blocks cover contiguous tile-aligned element ranges (bounded grid) so the
// per-block flushes and reservations amortize over many tiles.
struct SelectGrid {
  int blocks;
  size_t per_block;
};

template <typename E>
SelectGrid GridFor(size_t n) {
  const size_t tile = SelectTile<E>();
  const int grid = static_cast<int>(
      std::min<uint64_t>(kMaxGrid, CeilDiv(n, tile)));
  return {grid, RoundUp(CeilDiv(n, grid), tile)};
}

// Radix Select's bin: the pass's 8-bit MSD digit of the key bits.
template <typename E>
struct MsdDigit {
  static constexpr int kBits = 8;
  static constexpr int kBins = 1 << kBits;
  static constexpr const char* kHistogramName = "select_histogram";
  static constexpr const char* kClusterName = "select_cluster";
  static constexpr const char* kCopyOutName = "select_copy_out";

  int pass;
  uint32_t operator()(const E& e) const {
    return ExtractDigitMsd(OrderedKeyBits(e), pass, kBits);
  }
};

// Bucket Select's bin: equal-width buckets over [lo, hi] of the key bits.
template <typename E>
struct EqualWidthBucket {
  static constexpr int kBins = 16;
  static constexpr const char* kHistogramName = "bucket_histogram";
  static constexpr const char* kClusterName = "bucket_cluster";
  static constexpr const char* kCopyOutName = "bucket_copy_out";

  KeyBits<E> lo;
  KeyBits<E> width;
  uint32_t operator()(const E& e) const {
    KeyBits<E> idx = (OrderedKeyBits(e) - lo) / width;
    return static_cast<uint32_t>(
        std::min<KeyBits<E>>(idx, static_cast<KeyBits<E>>(kBins - 1)));
  }
};

template <typename E, typename Bin>
Status LaunchHistogram(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                       const Bin& bin, GlobalSpan<uint32_t> hist) {
  const SelectGrid g = GridFor<E>(n);
  auto st = dev.Launch(
      {.grid_dim = g.blocks, .block_dim = kBlockDim,
       .name = Bin::kHistogramName},
      [&](Block& blk) {
        auto counts = blk.AllocShared<uint32_t>(Bin::kBins);
        blk.ForEachThread([&](Thread& t) {
          for (int b = t.tid; b < Bin::kBins; b += kBlockDim) {
            counts.Write(t, b, 0);
          }
        });
        blk.Sync();
        size_t base = static_cast<size_t>(blk.block_idx()) * g.per_block;
        size_t end = std::min(base + g.per_block, n);
        blk.ForEachThread([&](Thread& t) {
          for (size_t i = base + t.tid; i < end; i += kBlockDim) {
            counts.AtomicAdd(t, bin(in.Read(t, i)), 1u);
          }
        });
        blk.Sync();
        blk.ForEachThread([&](Thread& t) {
          for (int b = t.tid; b < Bin::kBins; b += kBlockDim) {
            uint32_t c = counts.Read(t, b);
            if (c != 0) hist.ReduceAdd(t, b, c);
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// Streams bin > pivot into result[emitted + ...] and bin == pivot into
// next_cand via scan-based per-tile compaction (one global reservation pair
// per tile; no same-word atomic storms). counters[0] counts emitted-this-
// pass, counters[1] counts next candidates.
template <typename E, typename Bin>
Status LaunchCluster(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                     const Bin& bin, uint32_t pivot, GlobalSpan<E> result,
                     size_t emitted, GlobalSpan<E> next_cand,
                     GlobalSpan<uint32_t> counters) {
  const size_t tile = SelectTile<E>();
  const SelectGrid g = GridFor<E>(n);
  auto st = dev.Launch(
      {.grid_dim = g.blocks, .block_dim = kBlockDim,
       .name = Bin::kClusterName},
      [&](Block& blk) {
        auto w = TwoWayCompactWorkspace<E>::Alloc(blk, tile);
        size_t range_lo = static_cast<size_t>(blk.block_idx()) * g.per_block;
        size_t range_hi = std::min(range_lo + g.per_block, n);
        for (size_t base = range_lo; base < range_hi; base += tile) {
          size_t end = std::min(base + tile, range_hi);
          TwoWayCompactTile<E>(
              blk, w, in, base, end,
              [&](const E& e) {
                uint32_t b = bin(e);
                return b > pivot ? 1 : (b == pivot ? 0 : -1);
              },
              result, emitted, next_cand, counters);
        }
      });
  return st.ok() ? Status::OK() : st.status();
}

// Copies count elements from src into result[emitted, emitted+count).
template <typename E>
Status LaunchCopyOut(const simt::ExecCtx& dev, const char* name,
                     GlobalSpan<E> src, size_t count, GlobalSpan<E> result,
                     size_t emitted) {
  const int grid =
      static_cast<int>(std::min<uint64_t>(256, CeilDiv(count, kBlockDim)));
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = kBlockDim, .name = name},
      [&](Block& blk) {
        blk.ForEachThread([&](Thread& t) {
          size_t stride = static_cast<size_t>(grid) * kBlockDim;
          for (size_t i =
                   static_cast<size_t>(blk.block_idx()) * kBlockDim + t.tid;
               i < count; i += stride) {
            result.Write(t, emitted + i, src.Read(t, i));
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// A pass's split of the candidates: the pivot bin, the count above it
// (emitted) and the count in it (the next candidates).
struct Split {
  uint32_t pivot;
  size_t hi_count;
  size_t eq_count;
};

// Pivot: first bucket from the top whose cumulative count reaches k_rem.
Split FindPivot(const uint32_t* h, int bins, size_t k_rem) {
  size_t cum = 0;
  int pivot = bins - 1;
  for (int b = bins - 1; b >= 0; --b) {
    cum += h[b];
    if (cum >= k_rem) {
      pivot = b;
      break;
    }
  }
  return {static_cast<uint32_t>(pivot), cum - h[pivot], h[pivot]};
}

// The per-pass state: candidate ping-pong buffers (pass 0 reads the input
// directly), the histogram and compaction counters, and how much of the
// result is filled.
template <typename E, typename Bin>
class SelectPasses {
 public:
  SelectPasses(DeviceBuffer<E>& data, size_t n, size_t k)
      : candidates_(data), cand_count_(n), k_rem_(k) {}

  Status Alloc(const simt::ExecCtx& dev) {
    MPTOPK_ASSIGN_OR_RETURN(cand_a_, dev.Alloc<E>(cand_count_));
    MPTOPK_ASSIGN_OR_RETURN(cand_b_, dev.Alloc<E>(cand_count_));
    MPTOPK_ASSIGN_OR_RETURN(hist_, dev.Alloc<uint32_t>(Bin::kBins));
    MPTOPK_ASSIGN_OR_RETURN(counters_, dev.Alloc<uint32_t>(2));
    next_ = GlobalSpan<E>(cand_a_);
    spare_ = GlobalSpan<E>(cand_b_);
    return Status::OK();
  }

  size_t cand_count() const { return cand_count_; }
  size_t k_rem() const { return k_rem_; }

  /// Steps 1-2: histogram the candidates by `bin` and find the pivot.
  StatusOr<Split> Histogram(const simt::ExecCtx& dev, const Bin& bin) {
    MPTOPK_RETURN_NOT_OK(FillDevice<uint32_t>(dev, hist_, 0, Bin::kBins, 0));
    MPTOPK_RETURN_NOT_OK(LaunchHistogram(dev, candidates_, cand_count_, bin,
                                         GlobalSpan<uint32_t>(hist_)));
    std::array<uint32_t, Bin::kBins> h;
    MPTOPK_RETURN_NOT_OK(dev.CopyToHost(h.data(), hist_, Bin::kBins));
    return FindPivot(h.data(), Bin::kBins, k_rem_);
  }

  /// Step 3: bins above the pivot go to the result, the pivot bin becomes
  /// the candidates.
  Status Cluster(const simt::ExecCtx& dev, const Bin& bin, const Split& split,
                 GlobalSpan<E> result) {
    MPTOPK_RETURN_NOT_OK(FillDevice<uint32_t>(dev, counters_, 0, 2, 0));
    MPTOPK_RETURN_NOT_OK(LaunchCluster(dev, candidates_, cand_count_, bin,
                                       split.pivot, result, emitted_, next_,
                                       GlobalSpan<uint32_t>(counters_)));
    emitted_ += split.hi_count;
    k_rem_ -= split.hi_count;
    cand_count_ = split.eq_count;
    candidates_ = next_;
    std::swap(next_, spare_);
    return Status::OK();
  }

  /// Fills the rest of the result with the first k_rem candidates.
  Status CopyOutRemaining(const simt::ExecCtx& dev, GlobalSpan<E> result) {
    MPTOPK_RETURN_NOT_OK(LaunchCopyOut(dev, Bin::kCopyOutName, candidates_,
                                       k_rem_, result, emitted_));
    emitted_ += k_rem_;
    k_rem_ = 0;
    return Status::OK();
  }

 private:
  DeviceBuffer<E> cand_a_, cand_b_;
  DeviceBuffer<uint32_t> hist_, counters_;
  GlobalSpan<E> candidates_, next_, spare_;
  size_t cand_count_;
  size_t emitted_ = 0;
  size_t k_rem_;
};

// Selection produces an unordered top-k set; canonicalize to descending on
// the host (k is tiny). The paper's variants likewise leave ordering to the
// consumer.
template <typename E>
StatusOr<TopKResult<E>> ReadResult(const simt::ExecCtx& dev,
                                   DeviceBuffer<E>& result_buf, size_t k,
                                   const DeviceTimeTracker& tracker) {
  TopKResult<E> out;
  out.items.resize(k);
  MPTOPK_RETURN_NOT_OK(dev.CopyToHost(out.items.data(), result_buf, k));
  SortDescending(&out.items);
  out.kernel_ms = tracker.ElapsedMs();
  out.kernels_launched = tracker.Launches();
  return out;
}

// ---- Bucket Select's own kernels --------------------------------------------

// First pass: min/max of the key bits (shared tree reduction per block, one
// global atomic pair per block).
template <typename E>
Status LaunchMinMax(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                    GlobalSpan<uint64_t> minmax) {
  const SelectGrid g = GridFor<E>(n);
  auto st = dev.Launch(
      {.grid_dim = g.blocks, .block_dim = kBlockDim, .name = "bucket_minmax"},
      [&](Block& blk) {
        auto mn = blk.AllocShared<uint64_t>(kBlockDim);
        auto mx = blk.AllocShared<uint64_t>(kBlockDim);
        size_t base = static_cast<size_t>(blk.block_idx()) * g.per_block;
        size_t end = std::min(base + g.per_block, n);
        blk.ForEachThread([&](Thread& t) {
          uint64_t lo = UINT64_MAX, hi = 0;
          for (size_t i = base + t.tid; i < end; i += kBlockDim) {
            uint64_t v = static_cast<uint64_t>(OrderedKeyBits(in.Read(t, i)));
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
          mn.Write(t, t.tid, lo);
          mx.Write(t, t.tid, hi);
        });
        blk.Sync();
        for (int stride = kBlockDim / 2; stride > 0; stride >>= 1) {
          blk.ForEachThread([&](Thread& t) {
            if (t.tid < stride) {
              mn.Write(t, t.tid,
                       std::min(mn.Read(t, t.tid), mn.Read(t, t.tid + stride)));
              mx.Write(t, t.tid,
                       std::max(mx.Read(t, t.tid), mx.Read(t, t.tid + stride)));
            }
          });
          blk.Sync();
        }
        blk.ForEachThread([&](Thread& t) {
          if (t.tid == 0) {
            minmax.ReduceMin(t, 0, mn.Read(t, 0));
            minmax.ReduceMax(t, 1, mx.Read(t, 0));
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// k == 1 fast path: one more scan to fetch (any) element matching the max.
template <typename E>
Status LaunchGatherMax(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                       uint64_t max_bits, GlobalSpan<E> result,
                       GlobalSpan<uint32_t> flag) {
  const SelectGrid g = GridFor<E>(n);
  auto st = dev.Launch(
      {.grid_dim = g.blocks, .block_dim = kBlockDim,
       .name = "bucket_gather_max"},
      [&](Block& blk) {
        size_t base = static_cast<size_t>(blk.block_idx()) * g.per_block;
        size_t end = std::min(base + g.per_block, n);
        blk.ForEachThread([&](Thread& t) {
          for (size_t i = base + t.tid; i < end; i += kBlockDim) {
            E e = in.Read(t, i);
            if (static_cast<uint64_t>(OrderedKeyBits(e)) == max_bits) {
              if (flag.AtomicAdd(t, 0, 1u) == 0) {
                result.Write(t, 0, e);
              }
            }
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

}  // namespace

template <typename E>
StatusOr<TopKResult<E>> RadixSelectTopKDevice(const simt::ExecCtx& dev,
                                              DeviceBuffer<E>& data, size_t n,
                                              size_t k) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("require 1 <= k <= n");
  }
  DeviceTimeTracker tracker(dev);
  MPTOPK_ASSIGN_OR_RETURN(auto result_buf, dev.Alloc<E>(k));
  GlobalSpan<E> result(result_buf);
  SelectPasses<E, MsdDigit<E>> s(data, n, k);
  MPTOPK_RETURN_NOT_OK(s.Alloc(dev));

  const int passes = static_cast<int>(sizeof(KeyBits<E>));
  for (int pass = 0; pass < passes && s.k_rem() > 0; ++pass) {
    const MsdDigit<E> digit{pass};
    MPTOPK_ASSIGN_OR_RETURN(Split split, s.Histogram(dev, digit));
    if (split.hi_count == 0 && split.eq_count == s.cand_count()) {
      // No reduction: skip the clustering write, just advance the digit
      // (paper Section 4.2). All candidates share this digit value.
      continue;
    }
    MPTOPK_RETURN_NOT_OK(s.Cluster(dev, digit, split, result));
    if (s.cand_count() == s.k_rem()) {
      MPTOPK_RETURN_NOT_OK(s.CopyOutRemaining(dev, result));
    }
  }
  if (s.k_rem() > 0) {
    // All remaining candidates tie on the full key; pad with any k_rem.
    MPTOPK_RETURN_NOT_OK(s.CopyOutRemaining(dev, result));
  }
  return ReadResult(dev, result_buf, k, tracker);
}

template <typename E>
StatusOr<TopKResult<E>> BucketSelectTopKDevice(const simt::ExecCtx& dev,
                                               DeviceBuffer<E>& data,
                                               size_t n, size_t k) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("require 1 <= k <= n");
  }
  using U = KeyBits<E>;
  using Bucket = EqualWidthBucket<E>;
  constexpr int kMaxPasses = 64;
  DeviceTimeTracker tracker(dev);
  MPTOPK_ASSIGN_OR_RETURN(auto result_buf, dev.Alloc<E>(k));
  MPTOPK_ASSIGN_OR_RETURN(auto minmax_buf, dev.Alloc<uint64_t>(2));
  minmax_buf.host_data()[0] = UINT64_MAX;
  minmax_buf.host_data()[1] = 0;

  GlobalSpan<E> input(data);
  GlobalSpan<E> result(result_buf);
  MPTOPK_RETURN_NOT_OK(
      LaunchMinMax(dev, input, n, GlobalSpan<uint64_t>(minmax_buf)));
  uint64_t mm[2];
  MPTOPK_RETURN_NOT_OK(dev.CopyToHost(mm, minmax_buf, 2));

  if (k == 1) {
    // Paper: at k=1 bucket select terminates right after min/max.
    MPTOPK_ASSIGN_OR_RETURN(auto flag, dev.Alloc<uint32_t>(1));
    flag.host_data()[0] = 0;
    MPTOPK_RETURN_NOT_OK(LaunchGatherMax(dev, input, n, mm[1], result,
                                         GlobalSpan<uint32_t>(flag)));
    return ReadResult(dev, result_buf, k, tracker);
  }

  U lo = static_cast<U>(mm[0]);
  U hi = static_cast<U>(mm[1]);
  SelectPasses<E, Bucket> s(data, n, k);
  MPTOPK_RETURN_NOT_OK(s.Alloc(dev));
  for (int pass = 0; pass < kMaxPasses && s.k_rem() > 0; ++pass) {
    if (lo == hi || s.cand_count() == s.k_rem()) {
      // Degenerate range (all candidates tie) or exact fit: flush.
      MPTOPK_RETURN_NOT_OK(s.CopyOutRemaining(dev, result));
      break;
    }
    const Bucket bucket{lo, static_cast<U>((hi - lo) / Bucket::kBins + 1)};
    MPTOPK_ASSIGN_OR_RETURN(Split split, s.Histogram(dev, bucket));
    MPTOPK_RETURN_NOT_OK(s.Cluster(dev, bucket, split, result));

    // Narrow the range to the pivot bucket (overflow-safe at the top of the
    // unsigned domain).
    U new_lo = static_cast<U>(lo + bucket.width * static_cast<U>(split.pivot));
    U new_hi = static_cast<U>(new_lo + (bucket.width - 1));
    if (new_hi < new_lo || new_hi > hi) new_hi = hi;
    lo = new_lo;
    hi = new_hi;
  }
  if (s.k_rem() > 0) {
    return Status::Internal("bucket select failed to converge");
  }
  return ReadResult(dev, result_buf, k, tracker);
}

#define MPTOPK_INSTANTIATE_SELECT(E)                                   \
  template StatusOr<TopKResult<E>> RadixSelectTopKDevice<E>(           \
      const simt::ExecCtx&, DeviceBuffer<E>&, size_t, size_t);         \
  template StatusOr<TopKResult<E>> BucketSelectTopKDevice<E>(          \
      const simt::ExecCtx&, DeviceBuffer<E>&, size_t, size_t);

MPTOPK_INSTANTIATE_SELECT(float)
MPTOPK_INSTANTIATE_SELECT(double)
MPTOPK_INSTANTIATE_SELECT(uint32_t)
MPTOPK_INSTANTIATE_SELECT(int32_t)
MPTOPK_INSTANTIATE_SELECT(uint64_t)
MPTOPK_INSTANTIATE_SELECT(int64_t)
MPTOPK_INSTANTIATE_SELECT(KV)
MPTOPK_INSTANTIATE_SELECT(KV64)
MPTOPK_INSTANTIATE_SELECT(KKV)
MPTOPK_INSTANTIATE_SELECT(KKKV)

#undef MPTOPK_INSTANTIATE_SELECT

}  // namespace mptopk::gpu
