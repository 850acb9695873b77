// Sampling-based hybrid top-k — an implementation of the paper's
// future-work direction ("hybrids of the presented algorithms ... as well
// as hybrid and adaptive solutions", Section 8).
//
// A small strided sample is read (one sector per element, ~free), its exact
// top-m computed with bitonic top-k (tiny), and the m-th sampled key used
// as a selection pivot: one threshold-filter pass compacts the few
// elements >= pivot (warp-ballot compaction: ~one coalesced read plus the
// matched writes), and bitonic top-k finishes on the survivors. Expected
// cost ~1.05 input reads — below optimized bitonic's shared-memory-bound
// ~1.5-2x-of-read cost at every size, for any key distribution the sample
// can discriminate.
//
// Correctness never depends on sampling luck: if fewer than k elements
// reach the pivot, or ties/adversarial data overflow the candidate cap
// (e.g. bucket-killer inputs where almost all keys are equal), the
// algorithm falls back to plain bitonic over everything, inheriting its
// robustness at the price of the wasted sample pass.
#ifndef MPTOPK_GPUTOPK_HYBRID_TOPK_H_
#define MPTOPK_GPUTOPK_HYBRID_TOPK_H_

#include <cstddef>

#include "common/status.h"
#include "common/tuple_types.h"
#include "gputopk/topk_result.h"
#include "simt/device.h"
#include "simt/exec_ctx.h"

namespace mptopk::gpu {

/// Top-k of device-resident data[0, n) via the sampled-pivot + bitonic
/// pipeline. Requires power-of-two k (like bitonic; the registry's
/// HybridTopK operator rounds any k up). Input is not modified.
template <typename E>
StatusOr<TopKResult<E>> HybridTopKDevice(const simt::ExecCtx& dev,
                                         simt::DeviceBuffer<E>& data,
                                         size_t n, size_t k);

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_HYBRID_TOPK_H_
