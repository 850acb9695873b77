#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace mptopk::perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(idx));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

namespace {

// Continued fraction of the regularized incomplete beta function
// (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  auto guard = [](double d) { return std::abs(d) < kTiny ? kTiny : d; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-14) break;
  }
  return h;
}

// I_x(a, b), the regularized incomplete beta function.
double RegularizedBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

}  // namespace

double HarrellDavisQuantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = p * (n + 1.0), b = (1.0 - p) * (n + 1.0);
  double sum = 0, prev = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const double cur = RegularizedBeta(a, b, (i + 1) / n);
    sum += (cur - prev) * v[i];
    prev = cur;
  }
  return sum;
}

void SimCounters::AddDevice(const simt::Device& dev) {
  pcie_ms += dev.pcie_ms();
  for (const simt::KernelStats& k : dev.kernel_log()) {
    kernel_ms += k.time.total_ms;
  }
  kernels += dev.kernel_log().size();
  const simt::KernelMetrics& m = dev.total_metrics();
  blocks_launched += m.blocks_launched;
  blocks_traced += m.blocks_traced;
  warp_instructions += m.warp_instructions;
  global_transactions += m.global_transactions;
  bank_conflict_cycles += m.bank_conflict_cycles;
}

#define PERFBENCH_SIM_FIELDS(X)                                              \
  X(sim_ms) X(kernel_ms) X(pcie_ms) X(kernels) X(blocks_launched)            \
  X(blocks_traced) X(warp_instructions) X(global_transactions)               \
  X(bank_conflict_cycles) X(attempts) X(retries) X(fallbacks)                \
  X(corruption_reruns) X(degraded) X(used_cpu) X(added_latency_ms)           \
  X(queries) X(engine_kernels) X(makespan_ms) X(serialized_ms)

SimCounters& SimCounters::operator+=(const SimCounters& o) {
#define PERFBENCH_ADD(f) f += o.f;
  PERFBENCH_SIM_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  return *this;
}

std::vector<std::string> SimCounters::Diff(const SimCounters& o) const {
  std::vector<std::string> out;
  // Exact comparison on purpose: simulated time is deterministic.
#define PERFBENCH_DIFF(f) \
  if (f != o.f) out.push_back(#f);
  PERFBENCH_SIM_FIELDS(PERFBENCH_DIFF)
#undef PERFBENCH_DIFF
  return out;
}

#undef PERFBENCH_SIM_FIELDS

int SpanRecorder::Begin(std::string layer, std::string name,
                        int64_t request) {
  Span s;
  s.layer = std::move(layer);
  s.name = std::move(name);
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
          .count();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  spans_[id].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
          .count();
  open_.pop_back();
}

std::map<std::string, double> SpanRecorder::SelfMsByLayer(
    bool under_requests) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    int root = static_cast<int>(i);
    while (spans_[root].parent >= 0) root = spans_[root].parent;
    if ((spans_[root].layer == "request") != under_requests) continue;
    const Span& s = spans_[i];
    out[s.layer] += (s.end_us - s.start_us - child_us[i]) / 1e3;
  }
  return out;
}

double SpanRecorder::RequestMs() const {
  double us = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.layer == "request") us += s.end_us - s.start_us;
  }
  return us / 1e3;
}

double SpanRecorder::MedianMs(const std::string& layer,
                              const std::string& prefix) const {
  std::vector<double> ms;
  for (const Span& s : spans_) {
    if (s.layer == layer && s.name.compare(0, prefix.size(), prefix) == 0) {
      ms.push_back((s.end_us - s.start_us) / 1e3);
    }
  }
  return Median(std::move(ms));
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return Status::Internal("cannot write " + path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"request\":"
                  "%lld,\"parent\":%d}}%s\n",
                  s.name.c_str(), s.layer.c_str(), s.start_us,
                  s.end_us - s.start_us, static_cast<long long>(s.request),
                  s.parent, i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
  return f ? Status::OK() : Status::Internal("short write to " + path);
}

std::string MetricName(const std::string& op_name) {
  std::string out = op_name;
  for (char& c : out) {
    if (c == ':') c = '-';
  }
  return out;
}

}  // namespace mptopk::perfbench
