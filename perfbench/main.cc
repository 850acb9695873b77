// End-to-end benchmark program. One run measures one workload as a closed
// loop with one client: the next request is sent only after the previous
// one returned, passes of a fixed request list over seeded data are
// replayed until --seconds have elapsed, and every answer is checked.
//
//   perfbench --workload <operators-traced|tweets-batch|resilient-faults>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out_dir <dir>] [--git_sha <sha>] [--source_digest <hex>]
//
// --trace 0 prints the end-to-end metrics (tracing off). --trace 1 runs
// untraced and traced passes, a traced pass on one worker, and prints the
// per-layer metrics; it writes a Chrome trace-event file and a per-layer
// self-time table to --out_dir. The last stdout line is one JSON object.
// See README.md for the workloads and the metric -> layer map.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <thread>

#include "harness.h"
#include "topk/registry.h"

namespace mptopk::perfbench {
namespace {

// The tail percentile. Every run holds enough passes for kTailBeyond
// samples beyond it, so it is the highest percentile with that many samples
// beyond it in every run, and the same one in every run.
constexpr double kTailPercentile = 0.9;
constexpr size_t kTailBeyond = 10;
// Set-up is repeated and its median reported, scaled to a machine on which
// the reference probe takes kProbeRefMs.
constexpr int kSetups = 3;
constexpr double kProbeRefMs = 10.0;
// A reference probe runs whenever this much wall time passed since the last.
constexpr double kProbeEveryMs = 100;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".perfbench_out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], v = argv[i + 1];
    if (flag == "--workload") a->workload = v;
    else if (flag == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a->seconds = std::atof(v.c_str());
    else if (flag == "--trace") a->trace = v == "1";
    else if (flag == "--out_dir") a->out_dir = v;
    else if (flag == "--git_sha") a->git_sha = v;
    else if (flag == "--source_digest") a->source_digest = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

std::function<std::unique_ptr<Workload>()> Factory(const std::string& name) {
  if (name == "operators-traced") return MakeOperatorsTraced;
  if (name == "tweets-batch") return MakeTweetsBatch;
  if (name == "resilient-faults") return MakeResilientFaults;
  return nullptr;
}

// Host timings from a debug or sanitizer build say nothing about the
// library; refuse them.
bool BuildIsTimeable(std::string* why) {
#ifndef NDEBUG
  *why = "assertions are enabled (NDEBUG not defined)";
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "built with a sanitizer";
  return false;
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    *why = "built with -fsanitize";
    return false;
  }
  return true;
}

/// A fixed std::sort of 2^17 u32, timed in-process and interleaved with the
/// requests. The machine's speed drifts between processes (same binary,
/// same requests: up to 1.2x in wall time); dividing request times by this
/// probe's median cancels much of that drift. Allocation-free while timing.
class ReferenceProbe {
 public:
  static constexpr size_t kN = size_t{1} << 17;

  ReferenceProbe() : src_(kN), work_(kN) {
    std::mt19937 rng(12345);  // fixed: the probe is the same in every run
    for (uint32_t& v : src_) v = rng();
    samples_.reserve(1 << 16);
    last_ = Clock::now();
  }

  void MaybeRun() {
    if (MsBetween(last_, Clock::now()) >= kProbeEveryMs) Run();
  }
  void Run() {
    std::copy(src_.begin(), src_.end(), work_.begin());
    const auto t0 = Clock::now();
    std::sort(work_.begin(), work_.end());
    last_ = Clock::now();
    if (samples_.size() < samples_.capacity()) {
      samples_.push_back(MsBetween(t0, last_));
    }
  }
  double Quantile(double p) const { return Percentile(samples_, p); }
  size_t count() const { return samples_.size(); }
  /// Median of the samples taken since sample index `from`.
  double MedianSince(size_t from) const {
    return Median(std::vector<double>(samples_.begin() + from, samples_.end()));
  }

 private:
  std::vector<uint32_t> src_, work_;
  std::vector<double> samples_;
  Clock::time_point last_;
};

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct PassResult {
  SimCounters sim;
  std::vector<double> host_ms;
  double host_total_ms = 0;
  size_t failed = 0;
};

// Runs one pass; request i uses data variant (offset + i) % kDataVariants.
PassResult RunPass(Workload& w, int offset, SpanRecorder* spans,
                   ReferenceProbe& probe) {
  PassResult p;
  for (size_t i = 0; i < w.pass_length(); ++i) {
    const int variant = static_cast<int>((offset + i) % kDataVariants);
    RequestResult r = w.Run(i, variant, &p.sim, spans);
    std::string why = "request returned an error";
    if (!r.ok || !w.Check(i, variant, &why)) {
      if (p.failed++ < 5) {
        std::fprintf(stderr, "request %zu failed: %s\n", i, why.c_str());
      }
    }
    p.host_ms.push_back(r.host_ms);
    p.host_total_ms += r.host_ms;
    probe.MaybeRun();
  }
  return p;
}

// The determinism guard: simulated accounting must repeat exactly.
void GuardSame(const SimCounters& ref, const SimCounters& got,
               const char* what) {
  const std::vector<std::string> diff = ref.Diff(got);
  if (diff.empty()) return;
  std::string fields;
  for (const std::string& f : diff) fields += " " + f;
  std::fprintf(stderr,
               "determinism guard: simulated accounting differs (%s):%s\n",
               what, fields.c_str());
  std::exit(3);
}

void Put(Metrics* m, const std::string& name, double v, const char* unit) {
  (*m)[name] = {v, unit};
}

// Every per-layer metric, zero until a workload that exercises the layer
// fills it in, so every traced run prints the same names.
Metrics ZeroLayerMetrics() {
  Metrics m;
  for (const char* n : {"engine.execute_host_ms", "engine.sim_makespan_ms",
                        "planner.plan_host_ms", "planner.resilient_host_ms",
                        "planner.degrade_host_ms", "planner.added_latency_ms",
                        "simt.kernel_ms", "simt.pcie_ms", "self_ms.request",
                        "self_ms.engine", "self_ms.planner", "self_ms.topk"}) {
    Put(&m, n, 0, "ms");
  }
  for (const char* n :
       {"engine.kernels_per_query", "planner.attempts_per_request",
        "planner.retries", "planner.fallbacks", "planner.corruption_reruns",
        "simt.kernels", "simt.blocks_launched", "simt.blocks_traced",
        "simt.warp_instructions", "simt.global_transactions",
        "simt.bank_conflict_cycles"}) {
    Put(&m, n, 0, "count");
  }
  for (const char* n :
       {"engine.pool_reuse_frac", "planner.useful_attempt_frac",
        "planner.degraded_frac", "planner.cpu_frac", "trace.overhead_frac"}) {
    Put(&m, n, 0, "frac");
  }
  Put(&m, "engine.overlap", 0, "x");
  Put(&m, "simt.worker_speedup", 0, "x");
  Put(&m, "engine.arena_peak_mb", 0, "MiB");
  Put(&m, "simt.peak_alloc_mb", 0, "MiB");
  Put(&m, "simt.footprint_mb", 0, "MiB");
  Put(&m, "simt.host_us_per_block", 0, "us");
  for (const topk::TopKOperator* op : topk::Registry::Instance().All()) {
    Put(&m, "topk.host_ms." + MetricName(op->name()), 0, "ms");
  }
  for (const topk::TopKOperator* op : topk::GpuSweepOperators(true)) {
    Put(&m, "topk.sim_ms." + MetricName(op->name()), 0, "ms");
    Put(&m, "cost.residual." + MetricName(op->name()), 0, "frac");
  }
  return m;
}

// Per-layer self times of the traced pass, printed and written as a table.
// Spans under a request account for the traced request time; the
// out-of-request spans (PlanTopK and operator re-runs) are listed apart.
void ReportLayers(const SpanRecorder& rec, const std::string& path,
                  Metrics* m) {
  const auto in_req = rec.SelfMsByLayer(/*under_requests=*/true);
  const auto other = rec.SelfMsByLayer(/*under_requests=*/false);
  const double req_ms = rec.RequestMs();
  std::string table = "layer\tscope\tself_ms\tshare_of_request\n";
  double sum = 0;
  for (const auto& [layer, ms] : in_req) {
    char row[160];
    std::snprintf(row, sizeof(row), "%s\trequest\t%.3f\t%.4f\n",
                  layer.c_str(), ms, ms / req_ms);
    table += row;
    sum += ms;
    Put(m, "self_ms." + layer, ms, "ms");
  }
  for (const auto& [layer, ms] : other) {
    char row[160];
    std::snprintf(row, sizeof(row), "%s\tprobe\t%.3f\t-\n", layer.c_str(), ms);
    table += row;
  }
  char tail[200];
  std::snprintf(tail, sizeof(tail),
                "# self times under requests sum to %.3f ms; traced request "
                "time %.3f ms\n",
                sum, req_ms);
  table += tail;
  std::printf("# per-layer self time (traced pass)\n%s", table.c_str());
  std::ofstream(path) << table;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out_dir <dir>] [--git_sha <sha>] "
                 "[--source_digest <hex>]\n");
    return 2;
  }
  auto factory = Factory(args.workload);
  if (!factory) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::string why;
  if (!BuildIsTimeable(&why)) {
    std::fprintf(stderr, "refusing to benchmark: %s\n", why.c_str());
    return 2;
  }

  // Set-up: device and data generation plus one warm-up request of every
  // class, repeated; the last set-up is the one measured. Each is scaled by
  // the probes timed right after it.
  ReferenceProbe probe;
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s, setup_raw_s;
  for (int s = 0; s < kSetups; ++s) {
    w.reset();
    const auto t0 = Clock::now();
    w = factory();
    if (Status st = w->Setup(args.seed); !st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    for (int c = 0; c < w->num_classes(); ++c) {
      for (size_t i = 0; i < w->pass_length(); ++i) {
        if (w->class_of(i) != c) continue;
        SimCounters sink;
        w->Run(i, 0, &sink, nullptr);
        break;
      }
    }
    setup_raw_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    const size_t probe_from = probe.count();
    for (int i = 0; i < 5; ++i) probe.Run();
    setup_s.push_back(setup_raw_s.back() * kProbeRefMs /
                      probe.MedianSince(probe_from));
  }
  w->PrepareOracle();
  bool correct = w->MutantSelfCheck(&why);
  if (!correct) std::fprintf(stderr, "oracle self-check: %s\n", why.c_str());

  const size_t L = w->pass_length();
  const size_t min_requests = static_cast<size_t>(
      std::ceil(kTailBeyond / (1.0 - kTailPercentile) - 1e-9));
  const size_t min_passes =
      std::max<size_t>((min_requests + L - 1) / L, kDataVariants);

  Metrics metrics;
  size_t attempted = 0, failed = 0;
  const auto start = Clock::now();
  auto elapsed_s = [&] { return MsBetween(start, Clock::now()) / 1e3; };

  std::vector<double> host_ms;
  size_t passes = 0;
  const size_t measure_probes_from = probe.count();
  if (!args.trace) {
    // Pass p runs with offset p % kDataVariants; its simulated accounting
    // must equal that of the first pass with the same offset.
    std::vector<SimCounters> refs;
    double host_total = 0;
    while (passes < min_passes || elapsed_s() < args.seconds) {
      const size_t probe_from = probe.count();
      probe.Run();
      const int offset = static_cast<int>(passes % kDataVariants);
      PassResult p = RunPass(*w, offset, nullptr, probe);
      std::printf("# pass %zu: probe median %.4f ms, request p50 %.4f ms\n",
                  passes, probe.MedianSince(probe_from),
                  Percentile(p.host_ms, 0.5));
      if (passes < kDataVariants) refs.push_back(p.sim);
      GuardSame(refs[offset], p.sim, "timed passes");
      host_ms.insert(host_ms.end(), p.host_ms.begin(), p.host_ms.end());
      host_total += p.host_total_ms;
      failed += p.failed;
      ++passes;
    }
    attempted = host_ms.size();
    const double probe_ms = probe.MedianSince(measure_probes_from);
    const double p50 = HarrellDavisQuantile(host_ms, 0.5);
    const double tail = HarrellDavisQuantile(host_ms, kTailPercentile);
    double sim_ms = 0;
    for (const SimCounters& r : refs) sim_ms += r.sim_ms / refs.size();
    Put(&metrics, "setup_s", Median(setup_s), "s");
    Put(&metrics, "setup_raw_s", Median(setup_raw_s), "s");
    Put(&metrics, "requests_per_s", attempted / (host_total / 1e3), "1/s");
    Put(&metrics, "host_ms_p50", p50, "ms");
    Put(&metrics, "host_ms_tail", tail, "ms");
    Put(&metrics, "host_norm_p50", p50 / probe_ms, "x");
    Put(&metrics, "host_norm_tail", tail / probe_ms, "x");
    Put(&metrics, "sim_ms_total", sim_ms, "ms");
    Put(&metrics, "ok_frac",
        static_cast<double>(attempted - failed) / attempted, "frac");
    Put(&metrics, "peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    metrics = ZeroLayerMetrics();
    SimCounters ref, traced_sim;
    double untraced_ms = 0, traced_ms = 0;
    std::unique_ptr<SpanRecorder> rec;
    do {
      PassResult u = RunPass(*w, 0, nullptr, probe);
      rec = std::make_unique<SpanRecorder>(Clock::now());
      PassResult t = RunPass(*w, 0, rec.get(), probe);
      if (passes == 0) ref = u.sim;
      GuardSame(ref, u.sim, "untraced passes");
      GuardSame(ref, t.sim, "traced vs untraced pass");
      untraced_ms += u.host_total_ms;
      traced_ms += rec->RequestMs();
      failed += u.failed + t.failed;
      attempted += 2 * L;
      traced_sim = t.sim;
      ++passes;
    } while (elapsed_s() < args.seconds);

    // The same traced pass on one worker: simulated accounting must not
    // move, and the host-time ratio is the worker speed-up.
    w->SetWorkers(1);
    SpanRecorder rec1(Clock::now());
    PassResult one = RunPass(*w, 0, &rec1, probe);
    w->SetWorkers(w->workers());
    GuardSame(ref, one.sim, "1 worker vs workload workers");
    failed += one.failed;
    attempted += L;

    const SimCounters& s = traced_sim;
    Put(&metrics, "simt.kernels", s.kernels, "count");
    Put(&metrics, "simt.blocks_launched", s.blocks_launched, "count");
    Put(&metrics, "simt.blocks_traced", s.blocks_traced, "count");
    Put(&metrics, "simt.warp_instructions", s.warp_instructions, "count");
    Put(&metrics, "simt.global_transactions", s.global_transactions, "count");
    Put(&metrics, "simt.bank_conflict_cycles", s.bank_conflict_cycles,
        "count");
    Put(&metrics, "simt.kernel_ms", s.kernel_ms, "ms");
    Put(&metrics, "simt.pcie_ms", s.pcie_ms, "ms");
    Put(&metrics, "simt.host_us_per_block",
        untraced_ms * 1e3 / passes / static_cast<double>(s.blocks_launched),
        "us");
    Put(&metrics, "simt.peak_alloc_mb",
        w->device().peak_allocated_bytes() / (1024.0 * 1024.0), "MiB");
    Put(&metrics, "simt.footprint_mb",
        w->device().footprint_bytes() / (1024.0 * 1024.0), "MiB");
    Put(&metrics, "simt.worker_speedup", rec1.RequestMs() / rec->RequestMs(),
        "x");
    Put(&metrics, "trace.overhead_frac", (traced_ms - untraced_ms) / untraced_ms,
        "frac");
    Put(&metrics, "planner.plan_host_ms", rec->MedianMs("planner", "PlanTopK"),
        "ms");
    for (const topk::TopKOperator* op : topk::Registry::Instance().All()) {
      Put(&metrics, "topk.host_ms." + MetricName(op->name()),
          rec->MedianMs("topk", op->name()), "ms");
    }
    w->LayerMetrics(s, *rec, &metrics);

    const std::string stem =
        args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
    if (Status st = rec->WriteChromeTrace(stem + ".trace.json"); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    ReportLayers(*rec, stem + ".layers.tsv", &metrics);
    std::printf("# chrome trace: %s.trace.json\n", stem.c_str());
  }
  correct = correct && failed == 0;

  // Run header: everything needed to tell two runs' conditions apart.
  std::printf("# workload=%s seed=%llu mode=%s seconds=%.0f passes=%zu "
              "pass_length=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "timed", args.seconds, passes, L);
  std::printf("# git_sha=%s source_digest=%s build_type=%s nproc=%u "
              "workers=%d trace_sample=%d\n",
              args.git_sha.c_str(), args.source_digest.c_str(),
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              w->workers(), w->trace_sample());
  std::printf("# reference probe (std::sort of 2^17 u32): median=%.4f ms "
              "q1=%.4f ms q3=%.4f ms samples=%zu (%zu while measuring: "
              "median %.4f ms)\n",
              probe.Quantile(0.5), probe.Quantile(0.25), probe.Quantile(0.75),
              probe.count(), probe.count() - measure_probes_from,
              probe.MedianSince(measure_probes_from));
  if (!args.trace) {
    std::printf("# tail = p%.0f: %.1f samples beyond it, of %zu requests\n",
                kTailPercentile * 100, (1 - kTailPercentile) * attempted,
                attempted);
  }
  for (const auto& [name, vu] : metrics) {
    std::printf("%-34s %16.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace mptopk::perfbench

int main(int argc, char** argv) {
  return mptopk::perfbench::Main(argc, argv);
}
