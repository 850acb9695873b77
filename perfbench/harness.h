// Shared pieces of the end-to-end benchmark: the workload interface, the
// deterministic simulated-accounting record that the determinism guard
// compares, the span recorder behind the traced pass, and small statistics
// helpers.
#ifndef MPTOPK_PERFBENCH_HARNESS_H_
#define MPTOPK_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "simt/device.h"

namespace mptopk::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolation percentile (index p * (n - 1)), p in [0, 1].
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
/// Harrell-Davis quantile estimate: a Beta-weighted mean of all order
/// statistics. Request times come in clusters (one per request type), and a
/// single order statistic near a cluster edge jumps between runs; this
/// estimate moves smoothly instead.
double HarrellDavisQuantile(std::vector<double> v, double p);

/// Simulated accounting of one pass. Every field is a function of the
/// inputs alone — never of wall time or the host worker count — so two
/// passes over the same requests must agree exactly (the determinism
/// guard). Allocator state (pool reuse, footprint) depends on history and
/// is deliberately not here.
struct SimCounters {
  double sim_ms = 0;  ///< kernels + PCIe + backoff (tweets: batch makespans)
  double kernel_ms = 0;
  double pcie_ms = 0;
  uint64_t kernels = 0;
  uint64_t blocks_launched = 0;
  uint64_t blocks_traced = 0;
  uint64_t warp_instructions = 0;
  uint64_t global_transactions = 0;
  uint64_t bank_conflict_cycles = 0;
  // planner (resilient executor reports)
  uint64_t attempts = 0;
  uint64_t retries = 0;
  uint64_t fallbacks = 0;
  uint64_t corruption_reruns = 0;
  uint64_t degraded = 0;
  uint64_t used_cpu = 0;
  double added_latency_ms = 0;
  // engine (batch reports)
  uint64_t queries = 0;
  uint64_t engine_kernels = 0;
  double makespan_ms = 0;
  double serialized_ms = 0;

  /// Adds the device's kernel and PCIe accounting since its last
  /// ResetAccounting() (sim_ms is set by the workload).
  void AddDevice(const simt::Device& dev);
  SimCounters& operator+=(const SimCounters& o);
  /// Names of the fields that differ from `o` (empty when identical).
  std::vector<std::string> Diff(const SimCounters& o) const;
};

/// Benchmark-side spans around each call into a library layer. A span's
/// parent is the span open when it began; spans of one request share the
/// request index.
class SpanRecorder {
 public:
  struct Span {
    std::string layer;  ///< "request", "engine", "planner", "topk"
    std::string name;
    int64_t request = -1;
    int parent = -1;
    double start_us = 0;
    double end_us = 0;
  };

  explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}

  int Begin(std::string layer, std::string name, int64_t request);
  void End(int id);

  /// Self time (span minus the time its children cover), summed per layer,
  /// in ms, over the spans inside a root "request" span (under_requests)
  /// or over all the others.
  std::map<std::string, double> SelfMsByLayer(bool under_requests) const;
  /// Sum of durations of root "request" spans, in ms.
  double RequestMs() const;
  /// Median duration in ms of spans of `layer` whose name starts with
  /// `prefix` (0 when none).
  double MedianMs(const std::string& layer, const std::string& prefix) const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the recorder is null (untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string layer, std::string name,
             int64_t request)
      : rec_(rec),
        id_(rec != nullptr
                ? rec->Begin(std::move(layer), std::move(name), request)
                : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Outcome of one request. host_ms covers only the calls into the library
/// (no fault-plan set-up, no oracle).
struct RequestResult {
  bool ok = false;
  double host_ms = 0;
};

using Metrics = std::map<std::string, std::pair<double, std::string>>;

/// Data sets drawn from one seed. Request i of a pass with offset o runs on
/// variant (o + i) % kDataVariants, and timed passes step the offset, so a
/// run's timings average over this many inputs.
inline constexpr int kDataVariants = 4;

/// One benchmark workload: a fixed pass of requests derived from the seed,
/// replayed in a closed loop over one warmed, pooled device.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Host worker count the device is pinned to.
  virtual int workers() const = 0;
  /// Device trace-sampling target (0 = every block traced).
  virtual int trace_sample() const = 0;
  /// Requests per pass. Chosen as an odd multiple of 5 so that p50 and p90
  /// fall in the middle of one request's replicate block for every pass
  /// count, never on the boundary between two request types.
  virtual size_t pass_length() const = 0;
  /// Number of request classes, and the class of each request in the pass
  /// (set-up warms up one request of every class).
  virtual int num_classes() const = 0;
  virtual int class_of(size_t request) const = 0;

  /// Generates the inputs of every data variant and the device (timed as
  /// set-up).
  virtual Status Setup(uint64_t seed) = 0;
  /// Precomputes oracle answers (not part of set-up time).
  virtual void PrepareOracle() = 0;
  /// Checks the oracle against deliberately wrong answers; false when a
  /// mutant is accepted.
  virtual bool MutantSelfCheck(std::string* why) = 0;

  /// Runs request `i` of the pass on data variant `variant`: adds its
  /// simulated accounting to *sim and records spans when `spans` is
  /// non-null.
  virtual RequestResult Run(size_t i, int variant, SimCounters* sim,
                            SpanRecorder* spans) = 0;
  /// Checks the answer of the request last run against the oracle.
  virtual bool Check(size_t i, int variant, std::string* why) = 0;

  /// Re-pins the host worker count (for the 1-worker comparison pass).
  virtual void SetWorkers(int workers) = 0;
  /// The device, for allocator accessors.
  virtual const simt::Device& device() const = 0;

  /// Per-layer metrics specific to this workload, from one traced pass.
  virtual void LayerMetrics(const SimCounters& pass,
                            const SpanRecorder& spans, Metrics* out) = 0;
};

std::unique_ptr<Workload> MakeOperatorsTraced();
std::unique_ptr<Workload> MakeTweetsBatch();
std::unique_ptr<Workload> MakeResilientFaults();

/// Metric-name-safe operator name ("cpu:HandPq" -> "cpu-HandPq").
std::string MetricName(const std::string& op_name);

}  // namespace mptopk::perfbench

#endif  // MPTOPK_PERFBENCH_HARNESS_H_
