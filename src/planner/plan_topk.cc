#include "planner/plan_topk.h"

#include <algorithm>

namespace mptopk::planner {

StatusOr<Plan> PlanTopK(const simt::DeviceSpec& spec,
                        const cost::Workload& w,
                        bool include_extensions) {
  if (w.n == 0 || w.k == 0 || w.k > w.n) {
    return Status::InvalidArgument("require 1 <= k <= n");
  }
  Plan plan;
  for (const topk::TopKOperator* op : topk::Registry::Instance().All()) {
    const topk::OperatorCaps& caps = op->caps();
    if (caps.cost_ms == nullptr) continue;  // not planner-rankable
    if (caps.extension && !include_extensions) continue;
    const bool on_gpu = caps.backend == topk::Backend::kGpuSim;
    // CPU backends have no device-resident entry point.
    if (!on_gpu && !w.host_resident) continue;
    if (!op->CheckShape(w.n, w.k).ok()) continue;
    double ms = op->CostMs(spec, w);
    if (ms < 0) continue;
    if (on_gpu && w.host_resident) ms += cost::PcieStagingMs(spec, w);
    plan.ranked.push_back({op, ms});
  }
  std::stable_sort(plan.ranked.begin(), plan.ranked.end(),
                   [](const OperatorEstimate& a, const OperatorEstimate& b) {
                     return a.predicted_ms < b.predicted_ms;
                   });
  if (plan.ranked.empty()) {
    return Status::Internal("no feasible top-k operator");
  }
  plan.best = plan.ranked.front().op;
  return plan;
}

}  // namespace mptopk::planner
