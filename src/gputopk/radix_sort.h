// LSD radix sort on the simulated device (the paper's "Sort and Choose"
// baseline, Section 2.2 / 3): 8-bit digits over the order-preserving bit
// pattern of the primary key, one histogram + scan + stable scatter pass per
// digit. Runtime is independent of k — the whole input is sorted.
#ifndef MPTOPK_GPUTOPK_RADIX_SORT_H_
#define MPTOPK_GPUTOPK_RADIX_SORT_H_

#include <cstddef>

#include "common/status.h"
#include "common/tuple_types.h"
#include "gputopk/topk_result.h"
#include "simt/device.h"
#include "simt/exec_ctx.h"

namespace mptopk::gpu {

/// Sorts `data[0, n)` ascending by primary key into `out` (which must have
/// size >= n). The input buffer is left unmodified.
template <typename E>
Status RadixSortDevice(const simt::ExecCtx& dev, simt::DeviceBuffer<E>& data,
                       size_t n, simt::DeviceBuffer<E>* out);

/// Top-k via full sort: sorts everything, returns the k greatest descending
/// (paper algorithm "Sort").
template <typename E>
StatusOr<TopKResult<E>> SortTopKDevice(const simt::ExecCtx& dev,
                                       simt::DeviceBuffer<E>& data, size_t n,
                                       size_t k);

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_RADIX_SORT_H_
