// Resilient top-k execution (see resilient.h for the contract).
#include "planner/resilient.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "topk/registry.h"

namespace mptopk::planner {

std::string ExecutionReport::Summary() const {
  std::ostringstream os;
  os << (final_algorithm.empty() ? "<failed>" : final_algorithm) << " after "
     << attempts.size() << (attempts.size() == 1 ? " attempt" : " attempts")
     << " (" << retries << (retries == 1 ? " retry" : " retries") << ", "
     << fallbacks << (fallbacks == 1 ? " fallback" : " fallbacks");
  if (corruption_reruns > 0) {
    os << ", " << corruption_reruns << " corruption rerun"
       << (corruption_reruns == 1 ? "" : "s");
  }
  if (degraded_to_chunked) os << ", degraded to chunked";
  if (used_cpu) os << ", ran on CPU";
  os << ", " << backoff_ms << " ms backoff)";
  return os.str();
}

namespace {

/// Simulated device clock: kernel time + charged backoff + PCIe staging.
double DeviceClockMs(const simt::ExecCtx& dev) {
  return dev.total_sim_ms() + dev.pcie_ms();
}

/// Bit-level identity of an element: every key through its ordered bits
/// (all NaNs canonical — the library's NaN contract) plus the raw payload.
template <typename E>
auto Identity(const E& e) {
  auto bits = [](auto key) {
    return KeyTraits<decltype(key)>::ToOrderedBits(key);
  };
  if constexpr (std::is_same_v<E, KV> || std::is_same_v<E, KV64>) {
    return std::make_tuple(bits(e.key), e.value);
  } else if constexpr (std::is_same_v<E, KKV>) {
    return std::make_tuple(bits(e.key), bits(e.key2), e.value);
  } else if constexpr (std::is_same_v<E, KKKV>) {
    return std::make_tuple(bits(e.key), bits(e.key2), bits(e.key3), e.value);
  } else {
    return bits(e);
  }
}

// The result invariant check: exactly k items, descending, boundary counts
// against the input (at most k-1 input elements may outrank the k-th result
// element, at least k must reach it), and membership: every result element
// must match a distinct input element bit for bit, payload included. One
// O(n) pass over the input — far cheaper than re-running any of the
// algorithms. Only input elements that reach the k-th result can match, so
// only those are looked up (a binary search over the sorted result), and
// only until every result element has its match.
template <typename E>
Status VerifyTopK(const E* input, size_t n, const std::vector<E>& items,
                  size_t k) {
  if (items.size() != k) {
    return Status::Internal(
        "verification: result has " + std::to_string(items.size()) +
        " items, expected " + std::to_string(k));
  }
  for (size_t i = 1; i < items.size(); ++i) {
    if (ElementTraits<E>::Less(items[i - 1], items[i])) {
      return Status::Internal("verification: result not descending at index " +
                              std::to_string(i));
    }
  }
  if (k == 0) return Status::OK();

  using Id = decltype(Identity(items[0]));
  std::vector<Id> ids(k);
  for (size_t i = 0; i < k; ++i) ids[i] = Identity(items[i]);
  std::sort(ids.begin(), ids.end());
  // unmatched[s]: result copies of ids[s] still without an input match,
  // kept at the first index s of each run of equal identities.
  std::vector<uint32_t> unmatched(k, 0);
  for (size_t i = 0, s = 0; i < k; ++i) {
    if (ids[i] != ids[s]) s = i;
    ++unmatched[s];
  }
  size_t left = k;

  const E& kth = items.back();
  size_t outrank = 0;  // input elements strictly greater than the k-th result
  size_t reach = 0;    // input elements >= the k-th result
  for (size_t i = 0; i < n; ++i) {
    const E& e = input[i];
    if (ElementTraits<E>::Less(kth, e)) ++outrank;
    if (ElementTraits<E>::Less(e, kth)) continue;
    ++reach;
    if (left == 0) continue;
    const Id id = Identity(e);
    auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it == ids.end() || *it != id) continue;
    uint32_t& u = unmatched[static_cast<size_t>(it - ids.begin())];
    if (u > 0) {
      --u;
      --left;
    }
  }
  if (outrank > k - 1) {
    return Status::Internal(
        "verification: " + std::to_string(outrank) +
        " input elements outrank the k-th result element (max " +
        std::to_string(k - 1) + ")");
  }
  if (reach < k) {
    return Status::Internal(
        "verification: only " + std::to_string(reach) +
        " input elements reach the k-th result element (need " +
        std::to_string(k) + ")");
  }
  if (left > 0) {
    return Status::Internal("verification: " + std::to_string(left) +
                            " result elements match no distinct input "
                            "element bit for bit");
  }
  return Status::OK();
}

/// Simulated backoff before same-stage retry r is kBackoffBaseMs * 2^r.
constexpr double kBackoffBaseMs = 0.25;

/// The result check of a stage with no result to verify (a transfer).
Status NoCheck() { return Status::OK(); }

/// The one recovery loop: runs `attempt` until it succeeds and `check`
/// accepts its result. A retryable (kUnavailable) failure is retried up to
/// opts.max_retries times after exponential simulated backoff; a result the
/// check rejects (corrupted readback) is re-executed once. Every attempt is
/// logged under `stage`, and this is the only place that tallies
/// faults_seen, retries, backoff_ms, corruption_reruns and the device time
/// of failed attempts (added_latency_ms).
template <typename Attempt, typename Check>
Status RunStage(const simt::ExecCtx& dev, const ResilienceOptions& opts,
                const std::string& stage, Attempt&& attempt, Check&& check,
                ExecutionReport* rep) {
  int retries = 0;
  bool reran = false;
  while (true) {
    const double t0 = DeviceClockMs(dev);
    Status st = attempt();
    const bool ran = st.ok();
    if (ran) st = check();
    if (st.ok()) {
      rep->attempts.push_back({stage, StatusCode::kOk, "", 0.0});
      return st;
    }
    AttemptRecord rec{stage, st.code(), st.message(), 0.0};
    ++rep->faults_seen;
    bool again = false;
    if (ran) {  // the check rejected the result
      again = !reran;
      if (again) {
        reran = true;
        ++rep->corruption_reruns;
      }
    } else if (st.IsRetryable() && retries < opts.max_retries) {
      rec.backoff_ms =
          kBackoffBaseMs * static_cast<double>(uint64_t{1} << retries);
      dev.AddSimulatedDelayMs(rec.backoff_ms);
      rep->backoff_ms += rec.backoff_ms;
      ++rep->retries;
      ++retries;
      again = true;
    }
    rep->attempts.push_back(std::move(rec));
    rep->added_latency_ms += DeviceClockMs(dev) - t0;
    if (!again) {
      return st.WithContext(ran ? stage + " (corrupt after re-execution)"
                                : stage);
    }
  }
}

/// Runs registry operator `op` as one verified stage over `input` (on the
/// device copy `device` when given, else on the host) and names it the
/// final algorithm on success.
template <typename E>
Status RunOperator(const simt::ExecCtx& dev, const ResilienceOptions& opts,
                   const topk::TopKOperator* op,
                   simt::DeviceBuffer<E>* device, const E* input, size_t n,
                   size_t k, ExecutionReport* rep, std::vector<E>* items) {
  Status st = RunStage(
      dev, opts, op->name(),
      [&]() -> Status {
        auto r = device != nullptr ? op->TopKDevice(dev, *device, n, k)
                                   : op->TopKHost(dev, input, n, k);
        if (!r.ok()) return r.status();
        *items = std::move(r.value().items);
        return Status::OK();
      },
      [&] { return VerifyTopK(input, n, *items, k); }, rep);
  if (st.ok()) rep->final_algorithm = op->name();
  return st;
}

/// Walks the planner-ranked GPU operators (topk/registry.h) over
/// device-resident data, retrying within a stage and falling back across
/// stages. No chunked/CPU degrade here — callers layer those on.
template <typename E>
Status RunGpuStages(const simt::ExecCtx& dev, simt::DeviceBuffer<E>& data, size_t n,
                    size_t k, const ResilienceOptions& opts,
                    ExecutionReport* rep, std::vector<E>* items) {
  auto plan = PlanTopK(dev.spec(), DeviceTopKWorkload<E>(dev, n, k),
                       opts.include_extensions);
  if (!plan.ok()) {
    // Logged as a failed one-attempt stage (planner errors never retry).
    return RunStage(
        dev, opts, "planner", [&] { return plan.status(); }, NoCheck, rep);
  }
  Status last = Status::Internal("planner returned no feasible operator");
  bool first = true;
  for (const OperatorEstimate& est : plan.value().ranked) {
    if (!first) ++rep->fallbacks;  // reached only after the previous failed
    first = false;
    last = RunOperator(dev, opts, est.op, &data, data.host_data(), n, k, rep,
                       items);
    if (last.ok()) return last;
  }
  return last;
}

/// The final CPU stage over host-resident input: the registry's CPU
/// operators in caps fallback order (hand-rolled heap first), skipping any
/// whose caps reject this (element type, n, k) request.
template <typename E>
Status RunCpuStage(const simt::ExecCtx& dev, const E* data, size_t n, size_t k,
                   const ResilienceOptions& opts, ExecutionReport* rep,
                   std::vector<E>* items) {
  Status last = Status::Internal("no CPU operator registered");
  bool first = true;
  for (const topk::TopKOperator* op : topk::CpuFallbackChain()) {
    if (!op->CheckCaps(topk::ElemTypeOf<E>::value, n, k).ok()) continue;
    if (!first) ++rep->fallbacks;
    first = false;
    last = RunOperator<E>(dev, opts, op, nullptr, data, n, k, rep, items);
    if (last.ok()) {
      rep->used_cpu = true;
      return last;
    }
  }
  return last;
}

/// The frame both entry points share: the k check, the total device time of
/// a successful call, and the entry point's name on every failure. `chain`
/// runs the stages into the result and returns the reason it failed.
template <typename E, typename Chain>
StatusOr<ResilientResult<E>> RunResilient(const simt::ExecCtx& dev,
                                          const char* entry, size_t n,
                                          size_t k, Chain&& chain) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("require 1 <= k <= n").WithContext(entry);
  }
  ResilientResult<E> out;
  const double t_begin = DeviceClockMs(dev);
  Status st = chain(&out.report, &out.items);
  if (!st.ok()) return st.WithContext(entry);
  out.report.total_device_ms = DeviceClockMs(dev) - t_begin;
  return out;
}

}  // namespace

template <typename E>
StatusOr<ResilientResult<E>> ResilientTopKDevice(
    const simt::ExecCtx& dev, simt::DeviceBuffer<E>& data, size_t n, size_t k,
    const ResilienceOptions& opts) {
  return RunResilient<E>(
      dev, "ResilientTopKDevice", n, k,
      [&](ExecutionReport* rep, std::vector<E>* items) -> Status {
        if (n > data.size()) {
          return Status::InvalidArgument("n exceeds device buffer size");
        }
        if (RunGpuStages(dev, data, n, k, opts, rep, items).ok()) {
          return Status::OK();
        }
        ++rep->fallbacks;
        // Accounted readback of the input (itself subject to transient
        // faults).
        std::vector<E> host(n);
        Status rb = RunStage(
            dev, opts, "cpu-readback",
            [&] { return dev.CopyToHost(host.data(), data, n); }, NoCheck,
            rep);
        if (!rb.ok()) return rb.WithContext("input readback failed");
        return RunCpuStage(dev, host.data(), n, k, opts, rep, items)
            .WithContext("all stages failed");
      });
}

template <typename E>
StatusOr<ResilientResult<E>> ResilientTopK(const simt::ExecCtx& dev, const E* data,
                                           size_t n, size_t k,
                                           const ResilienceOptions& opts) {
  return RunResilient<E>(
      dev, "ResilientTopK", n, k,
      [&](ExecutionReport* rep, std::vector<E>* items) -> Status {
        const size_t bytes = n * sizeof(E);
        const size_t used = dev.allocated_bytes();
        const size_t free_bytes = dev.spec().global_mem_bytes > used
                                      ? dev.spec().global_mem_bytes - used
                                      : 0;
        // The resident path needs the input plus algorithm scratch; require
        // modest headroom before attempting it, else degrade to streaming
        // immediately.
        if (bytes + bytes / 8 <= free_bytes) {
          // Stage the input. An allocation failure (device full / injected)
          // is never retryable and degrades to chunked; transient copy
          // faults retry like any stage.
          auto buf = dev.Alloc<E>(n);
          Status st = RunStage(
              dev, opts, "stage-input",
              [&]() -> Status {
                if (!buf.ok()) return buf.status();
                return dev.CopyToDevice(buf.value(), data, n);
              },
              NoCheck, rep);
          if (st.ok() &&
              RunGpuStages(dev, buf.value(), n, k, opts, rep, items).ok()) {
            return Status::OK();
          }
        } else {
          rep->attempts.push_back(
              {"resident", StatusCode::kResourceExhausted,
               "input (" + std::to_string(bytes) +
                   " bytes) exceeds free device memory (" +
                   std::to_string(free_bytes) + " bytes)",
               0.0});
        }

        const topk::TopKOperator* streaming = topk::StreamingFallback();
        if (streaming != nullptr &&
            streaming->CheckCaps(topk::ElemTypeOf<E>::value, n, k).ok()) {
          ++rep->fallbacks;
          rep->degraded_to_chunked = true;
          if (RunOperator<E>(dev, opts, streaming, nullptr, data, n, k, rep,
                             items)
                  .ok()) {
            return Status::OK();
          }
        }
        ++rep->fallbacks;
        return RunCpuStage(dev, data, n, k, opts, rep, items)
            .WithContext("all stages failed");
      });
}

#define MPTOPK_INSTANTIATE_RESILIENT(E)                          \
  template StatusOr<ResilientResult<E>> ResilientTopKDevice<E>(  \
      const simt::ExecCtx&, simt::DeviceBuffer<E>&, size_t, size_t,     \
      const ResilienceOptions&);                                 \
  template StatusOr<ResilientResult<E>> ResilientTopK<E>(        \
      const simt::ExecCtx&, const E*, size_t, size_t, const ResilienceOptions&);

MPTOPK_INSTANTIATE_RESILIENT(float)
MPTOPK_INSTANTIATE_RESILIENT(double)
MPTOPK_INSTANTIATE_RESILIENT(uint32_t)
MPTOPK_INSTANTIATE_RESILIENT(int32_t)
MPTOPK_INSTANTIATE_RESILIENT(KV)

#undef MPTOPK_INSTANTIATE_RESILIENT

}  // namespace mptopk::planner
