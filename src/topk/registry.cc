// Registry implementation plus the built-in operator set: the six GPU
// algorithms, the chunked streaming executor and the three CPU backends.
// Built-ins live in this translation unit so that any binary referencing
// the Registry links their registrars (static-library dead-stripping keeps
// whole objects, and every Registry user pulls this one in).
#include "topk/registry.h"

#include <cctype>
#include <utility>

#include "cputopk/cpu_topk.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/chunked.h"
#include "gputopk/hybrid_topk.h"
#include "gputopk/perthread_topk.h"
#include "gputopk/radix_sort.h"
#include "gputopk/select.h"

namespace mptopk::topk {

// ---- TopKOperator base ------------------------------------------------------

Status TopKOperator::CheckCaps(ElemType t, size_t n, size_t k) const {
  if ((caps_.elem_types & ElemBit(t)) == 0) {
    return Status::InvalidArgument(name_ + " does not support element type " +
                                   ElemTypeName(t));
  }
  return CheckShape(n, k);
}

Status TopKOperator::CheckShape(size_t n, size_t k) const {
  if (k == 0 || k > n) {
    return Status::InvalidArgument(
        name_ + ": require 1 <= k <= n (k=" + std::to_string(k) +
        ", n=" + std::to_string(n) + ")");
  }
  if (caps_.pow2_k_only && !IsPowerOfTwo(k)) {
    return Status::InvalidArgument(name_ + " requires power-of-two k (k=" +
                                   std::to_string(k) + ")");
  }
  if (caps_.max_k != 0 && k > caps_.max_k) {
    return Status::InvalidArgument(
        name_ + ": k=" + std::to_string(k) + " exceeds max supported k=" +
        std::to_string(caps_.max_k));
  }
  return Status::OK();
}

// Default hooks: GPU operators get staging host paths for free; everything
// else is an explicit kUnimplemented (unreachable through the caps-checked
// façades when elem_types is declared honestly).
#define MPTOPK_X(T, EN, NAME)                                                \
  StatusOr<gpu::TopKResult<T>> TopKOperator::RunDevice(                      \
      const simt::ExecCtx&, simt::DeviceBuffer<T>&, size_t, size_t) const {  \
    return Status::Unimplemented(                                            \
        name_ + " has no device-resident entry point for " NAME);            \
  }                                                                          \
  StatusOr<gpu::TopKResult<T>> TopKOperator::RunHost(                        \
      const simt::ExecCtx& dev, const T* data, size_t n, size_t k) const {   \
    if (!has_device_entry()) {                                               \
      return Status::Unimplemented(name_ +                                   \
                                   " has no host entry point for " NAME);    \
    }                                                                        \
    return StageAndRunDevice<T>(dev, data, n, k);                            \
  }
MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_X)
#undef MPTOPK_X

// ---- Registry ---------------------------------------------------------------

Registry& Registry::Instance() {
  static Registry* r = new Registry();  // leaked: outlives static teardown
  return *r;
}

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

const TopKOperator* Registry::Register(std::unique_ptr<TopKOperator> op,
                                       int order,
                                       std::vector<std::string> aliases) {
  if (FindOrNull(op->name()) != nullptr) {
    std::fprintf(stderr, "duplicate top-k operator registration: %s\n",
                 op->name().c_str());
    std::abort();
  }
  entries_.push_back(Entry{std::move(op), order, std::move(aliases)});
  return entries_.back().op.get();
}

const TopKOperator* Registry::FindOrNull(const std::string& name) const {
  const std::string want = Lower(name);
  for (const Entry& e : entries_) {
    if (Lower(e.op->name()) == want) return e.op.get();
    for (const std::string& a : e.aliases) {
      if (Lower(a) == want) return e.op.get();
    }
  }
  return nullptr;
}

StatusOr<const TopKOperator*> Registry::Find(const std::string& name) const {
  if (const TopKOperator* op = FindOrNull(name); op != nullptr) return op;
  return Status::InvalidArgument("unknown top-k operator '" + name +
                                 "'; registered operators: " +
                                 KnownOperatorList());
}

std::vector<const TopKOperator*> Registry::All() const {
  std::vector<std::pair<int, const TopKOperator*>> v;
  v.reserve(entries_.size());
  for (const Entry& e : entries_) v.emplace_back(e.order, e.op.get());
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second->name() < b.second->name();
            });
  std::vector<const TopKOperator*> out;
  out.reserve(v.size());
  for (const auto& [order, op] : v) out.push_back(op);
  return out;
}

std::string Registry::KnownOperatorList() const {
  std::string out;
  for (const TopKOperator* op : All()) {
    if (!out.empty()) out += ", ";
    out += op->name();
  }
  return out;
}

std::vector<const TopKOperator*> GpuSweepOperators(bool include_extensions) {
  std::vector<const TopKOperator*> out;
  for (const TopKOperator* op : Registry::Instance().All()) {
    if (!op->has_device_entry()) continue;
    if (op->caps().extension && !include_extensions) continue;
    out.push_back(op);
  }
  return out;
}

std::vector<const TopKOperator*> CpuFallbackChain() {
  std::vector<const TopKOperator*> out;
  for (const TopKOperator* op : Registry::Instance().All()) {
    if (op->caps().backend == Backend::kCpu) out.push_back(op);
  }
  std::sort(out.begin(), out.end(),
            [](const TopKOperator* a, const TopKOperator* b) {
              if (a->caps().fallback_rank != b->caps().fallback_rank) {
                return a->caps().fallback_rank < b->caps().fallback_rank;
              }
              return a->name() < b->name();
            });
  return out;
}

const TopKOperator* StreamingFallback() {
  for (const TopKOperator* op : Registry::Instance().All()) {
    if (op->caps().streams_host_input) return op;
  }
  return nullptr;
}

// ---- Built-in operators -----------------------------------------------------

namespace {

constexpr uint32_t kChunkedElemTypes =
    ElemTypeOf<float>::bit | ElemTypeOf<double>::bit |
    ElemTypeOf<uint32_t>::bit | ElemTypeOf<int32_t>::bit |
    ElemTypeOf<KV>::bit;

constexpr uint32_t kCpuElemTypes =
    ElemTypeOf<float>::bit | ElemTypeOf<double>::bit |
    ElemTypeOf<uint32_t>::bit | ElemTypeOf<int32_t>::bit |
    ElemTypeOf<int64_t>::bit | ElemTypeOf<KV>::bit;

cost::Workload RoundKUp(const cost::Workload& w) {
  cost::Workload w2 = w;
  w2.k = NextPowerOfTwo(w.k);
  return w2;
}

// Cost hooks: the Section 7 models, with each operator's feasibility rule
// (previously inlined in planner/plan_topk.cc) owned by the operator.
double SortCost(const simt::DeviceSpec& s, const cost::Workload& w) {
  return cost::SortCostMs(s, w);
}
double PerThreadCost(const simt::DeviceSpec& s, const cost::Workload& w) {
  return cost::PerThreadCostMs(s, w);  // negative when beyond shared memory
}
double RadixSelectCost(const simt::DeviceSpec& s, const cost::Workload& w) {
  return cost::RadixSelectCostMs(s, w);
}
double BucketSelectCost(const simt::DeviceSpec& s, const cost::Workload& w) {
  return cost::BucketSelectCostMs(s, w);
}
double BitonicCost(const simt::DeviceSpec& s, const cost::Workload& w) {
  // Two k-runs per tile (same rule as the kernels).
  size_t tile_limit = 4096 / 2;
  if (w.elem_size > 8) tile_limit = 2048 / 2;
  if (NextPowerOfTwo(w.k) > tile_limit) return -1.0;
  return cost::BitonicTopKCostMs(s, RoundKUp(w));
}
double HybridCost(const simt::DeviceSpec& s, const cost::Workload& w) {
  if (NextPowerOfTwo(w.k) > 1024) return -1.0;
  return cost::HybridCostMs(s, RoundKUp(w));
}
// CPU hooks: host-side models, independent of the device. cpu:StlPq has
// none: the heap model cannot tell it from cpu:HandPq, and a tied entry
// would only reorder the plan.
double CpuHeapCost(const simt::DeviceSpec&, const cost::Workload& w) {
  return cost::CpuHeapCostMs(w);
}
double CpuBitonicCost(const simt::DeviceSpec&, const cost::Workload& w) {
  return cost::CpuBitonicCostMs(w);
}

OperatorCaps GpuCaps(double (*cost)(const simt::DeviceSpec&,
                                    const cost::Workload&)) {
  OperatorCaps c;
  c.backend = Backend::kGpuSim;
  c.elem_types = kAllElemTypes;
  c.cost_ms = cost;
  return c;
}

OperatorCaps ExtensionCaps(double (*cost)(const simt::DeviceSpec&,
                                          const cost::Workload&)) {
  OperatorCaps c = GpuCaps(cost);
  c.extension = true;
  return c;
}

// The comparison-network methods' k rule: round k up to a power of two,
// trim the result, and fall back to radix select when the round-up would
// exceed n.
template <typename E, typename RunFn>
StatusOr<gpu::TopKResult<E>> RunRoundedPow2(const simt::ExecCtx& dev,
                                            simt::DeviceBuffer<E>& data,
                                            size_t n, size_t k, RunFn run) {
  const size_t k2 = NextPowerOfTwo(k);
  if (k2 > n) return gpu::RadixSelectTopKDevice(dev, data, n, k);
  MPTOPK_ASSIGN_OR_RETURN(auto r, run(k2));
  r.items.resize(k);
  return r;
}

// A device-resident GPU operator: every element type's RunDevice hook
// calls `run(dev, data, n, k)`, a stateless generic callable.
template <typename Run>
class GpuOperator final : public TopKOperator {
 public:
  GpuOperator(std::string name, std::string display_name, OperatorCaps caps,
              Run run)
      : TopKOperator(std::move(name), std::move(display_name), caps),
        run_(run) {}

 protected:
#define MPTOPK_X(T, EN, NAME)                                               \
  StatusOr<gpu::TopKResult<T>> RunDevice(                                   \
      const simt::ExecCtx& dev, simt::DeviceBuffer<T>& data, size_t n,      \
      size_t k) const override {                                            \
    return run_(dev, data, n, k);                                           \
  }
  MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_X)
#undef MPTOPK_X

 private:
  Run run_;
};

template <typename Run>
std::unique_ptr<TopKOperator> MakeGpuOperator(std::string name,
                                              std::string display_name,
                                              OperatorCaps caps, Run run) {
  return std::make_unique<GpuOperator<Run>>(
      std::move(name), std::move(display_name), caps, run);
}

class ChunkedOperator final : public TopKOperator {
 public:
  ChunkedOperator() : TopKOperator("ChunkedTopK", Caps()) {}

 private:
  static OperatorCaps Caps() {
    OperatorCaps c;
    c.backend = Backend::kGpuSim;
    c.elem_types = kChunkedElemTypes;
    c.streams_host_input = true;
    c.supports_bottom_k = false;  // no staged full-input negate pass
    return c;
  }

  // Streaming host entry only — chunked.h's default geometry (auto chunk
  // size, bitonic per-chunk reduction) — the resilient executor's degrade
  // stage.
#define MPTOPK_X(T, EN, NAME)                                              \
  StatusOr<gpu::TopKResult<T>> RunHost(const simt::ExecCtx& dev,           \
                                       const T* data, size_t n, size_t k)  \
      const override {                                                     \
    MPTOPK_ASSIGN_OR_RETURN(auto c, gpu::ChunkedTopK(dev, data, n, k));    \
    gpu::TopKResult<T> r;                                                  \
    r.items = std::move(c.items);                                          \
    r.kernel_ms = c.kernel_ms;                                             \
    return r;                                                              \
  }
 protected:
  MPTOPK_X(float, kF32, "f32")
  MPTOPK_X(double, kF64, "f64")
  MPTOPK_X(uint32_t, kU32, "u32")
  MPTOPK_X(int32_t, kI32, "i32")
  MPTOPK_X(::mptopk::KV, kKV, "kv")
#undef MPTOPK_X
};

class CpuOperator final : public TopKOperator {
 public:
  CpuOperator(std::string name, cpu::CpuAlgorithm algo, int fallback_rank,
              bool pow2_only, size_t max_k,
              double (*cost)(const simt::DeviceSpec&, const cost::Workload&))
      : TopKOperator(std::move(name),
                     Caps(fallback_rank, pow2_only, max_k, cost)),
        algo_(algo) {}

 private:
  static OperatorCaps Caps(int fallback_rank, bool pow2_only, size_t max_k,
                           double (*cost)(const simt::DeviceSpec&,
                                          const cost::Workload&)) {
    OperatorCaps c;
    c.backend = Backend::kCpu;
    c.elem_types = kCpuElemTypes;
    c.pow2_k_only = pow2_only;
    c.max_k = max_k;
    c.fallback_rank = fallback_rank;
    c.cost_ms = cost;
    return c;
  }

  cpu::CpuAlgorithm algo_;

  // Host entry only, for the CPU-instantiated element set; wall-clock goes
  // to TopKResult::host_ms (kernel_ms stays 0 — no simulated device time).
#define MPTOPK_X(T, EN, NAME)                                              \
  StatusOr<gpu::TopKResult<T>> RunHost(const simt::ExecCtx&, const T* data, \
                                       size_t n, size_t k) const override { \
    MPTOPK_ASSIGN_OR_RETURN(auto c, cpu::CpuTopK(data, n, k, algo_));      \
    gpu::TopKResult<T> r;                                                  \
    r.items = std::move(c.items);                                          \
    r.host_ms = c.wall_ms;                                                 \
    return r;                                                              \
  }
 protected:
  MPTOPK_X(float, kF32, "f32")
  MPTOPK_X(double, kF64, "f64")
  MPTOPK_X(uint32_t, kU32, "u32")
  MPTOPK_X(int32_t, kI32, "i32")
  MPTOPK_X(int64_t, kI64, "i64")
  MPTOPK_X(::mptopk::KV, kKV, "kv")
#undef MPTOPK_X
};

// Display order mirrors the paper's presentation (and the bench column
// order): the five core GPU algorithms, the hybrid extension, the
// streaming executor, then the CPU baselines.
OperatorRegistrar r_sort(
    MakeGpuOperator("Sort", "Sort", GpuCaps(&SortCost),
                    [](const simt::ExecCtx& dev, auto& data, size_t n,
                       size_t k) {
                      return gpu::SortTopKDevice(dev, data, n, k);
                    }),
    10, {"sort"});
OperatorRegistrar r_perthread(
    MakeGpuOperator("PerThreadTopK", "PerThread", GpuCaps(&PerThreadCost),
                    [](const simt::ExecCtx& dev, auto& data, size_t n,
                       size_t k) {
                      return gpu::PerThreadTopKDevice(dev, data, n, k);
                    }),
    20, {"perthread"});
OperatorRegistrar r_radix(
    MakeGpuOperator("RadixSelect", "RadixSelect", GpuCaps(&RadixSelectCost),
                    [](const simt::ExecCtx& dev, auto& data, size_t n,
                       size_t k) {
                      return gpu::RadixSelectTopKDevice(dev, data, n, k);
                    }),
    30, {"radix_select"});
OperatorRegistrar r_bucket(
    MakeGpuOperator("BucketSelect", "BucketSelect", GpuCaps(&BucketSelectCost),
                    [](const simt::ExecCtx& dev, auto& data, size_t n,
                       size_t k) {
                      return gpu::BucketSelectTopKDevice(dev, data, n, k);
                    }),
    40, {"bucket_select"});
OperatorRegistrar r_bitonic(
    MakeGpuOperator("BitonicTopK", "BitonicTopK", GpuCaps(&BitonicCost),
                    [](const simt::ExecCtx& dev, auto& data, size_t n,
                       size_t k) {
                      return RunRoundedPow2(dev, data, n, k, [&](size_t k2) {
                        return gpu::BitonicTopKDevice(dev, data, n, k2,
                                                      gpu::BitonicOptions{});
                      });
                    }),
    50, {"bitonic"});
OperatorRegistrar r_hybrid(
    MakeGpuOperator("HybridTopK", "HybridTopK", ExtensionCaps(&HybridCost),
                    [](const simt::ExecCtx& dev, auto& data, size_t n,
                       size_t k) {
                      return RunRoundedPow2(dev, data, n, k, [&](size_t k2) {
                        return gpu::HybridTopKDevice(dev, data, n, k2);
                      });
                    }),
    60, {"hybrid"});
OperatorRegistrar r_chunked(std::make_unique<ChunkedOperator>(), 70,
                            {"chunked"});
OperatorRegistrar r_cpu_stl(
    std::make_unique<CpuOperator>("cpu:StlPq", cpu::CpuAlgorithm::kStlPq,
                                  /*fallback_rank=*/1, /*pow2_only=*/false,
                                  /*max_k=*/0, /*cost=*/nullptr),
    80, {"stlpq", "cpu_stlpq"});
OperatorRegistrar r_cpu_hand(
    std::make_unique<CpuOperator>("cpu:HandPq", cpu::CpuAlgorithm::kHandPq,
                                  /*fallback_rank=*/0, /*pow2_only=*/false,
                                  /*max_k=*/0, &CpuHeapCost),
    90, {"handpq", "cpu_handpq"});
OperatorRegistrar r_cpu_bitonic(
    std::make_unique<CpuOperator>("cpu:Bitonic", cpu::CpuAlgorithm::kBitonic,
                                  /*fallback_rank=*/2, /*pow2_only=*/true,
                                  /*max_k=*/256, &CpuBitonicCost),
    100, {"cpu_bitonic"});

}  // namespace

}  // namespace mptopk::topk
