// Radix Select and Bucket Select top-k (paper Sections 2.3, 4.2): one
// selection skeleton with two bucketing rules. Each pass builds a histogram
// of the candidates, finds the pivot bucket from the top, and clusters:
// buckets above the pivot stream straight into the result (the paper's
// "eliminates the last pass" revision) and the pivot bucket becomes the next
// pass's candidates.
//
//   * Radix Select bins by the pass's 8-bit MSD digit of the order-preserving
//     key bits (256 bins). A pass that achieves no reduction skips its
//     clustering write and just advances the digit (the bucket-killer
//     defense that keeps the worst case at sort cost); ties left after the
//     last digit are padded into the result. Uniform integer keys shed a
//     factor 256 per pass; adversarial inputs degrade to full-scan cost per
//     pass.
//   * Bucket Select bins into 16 equal-width buckets over [lo, hi] of the
//     key bits, found by a min/max pass, and narrows the range to the pivot
//     bucket after each pass. The range provably shrinks 16x per pass; the
//     candidate-count reduction stays data dependent (value-clustered inputs
//     degrade it, paper Section 6.4). Its atomics make it slower than Radix
//     Select, except at k == 1, where it returns right after min/max.
#ifndef MPTOPK_GPUTOPK_SELECT_H_
#define MPTOPK_GPUTOPK_SELECT_H_

#include <cstddef>

#include "common/status.h"
#include "common/tuple_types.h"
#include "gputopk/topk_result.h"
#include "simt/device.h"
#include "simt/exec_ctx.h"

namespace mptopk::gpu {

/// Computes the top-k of device-resident data[0, n) via MSD radix selection.
/// Any 1 <= k <= n is supported (k need not be a power of two). Ties at the
/// k-th value are broken arbitrarily. Input is not modified.
template <typename E>
StatusOr<TopKResult<E>> RadixSelectTopKDevice(const simt::ExecCtx& dev,
                                              simt::DeviceBuffer<E>& data,
                                              size_t n, size_t k);

/// Computes the top-k of device-resident data[0, n) via bucket selection.
/// Any 1 <= k <= n. Ties at the k-th value broken arbitrarily. Input is not
/// modified.
template <typename E>
StatusOr<TopKResult<E>> BucketSelectTopKDevice(const simt::ExecCtx& dev,
                                               simt::DeviceBuffer<E>& data,
                                               size_t n, size_t k);

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_SELECT_H_
