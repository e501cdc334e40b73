#include "engine/bounded.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/check.h"

namespace wavebatch {

Result<BoundedRunResult> RunWithBoundedWorkspace(
    const QueryBatch& batch, const LinearStrategy& strategy,
    const CoefficientStore& store, uint64_t max_workspace_coefficients,
    BuildParallelism parallelism) {
  WB_CHECK_GT(max_workspace_coefficients, 0u);
  BoundedRunResult out;
  out.results.resize(batch.size(), 0.0);

  const std::shared_ptr<const CoefficientStore> shared_store =
      UnownedStore(store);

  std::vector<SparseVec> group;       // materialized coefficient lists
  std::vector<size_t> group_members;  // their batch indices
  uint64_t group_coefficients = 0;

  auto flush = [&]() -> Status {
    if (group.empty()) return Status::OK();
    auto plan = EvalPlan::FromMasterList(
        std::make_shared<const MasterList>(
            MasterList::FromQueryVectors(group, parallelism)),
        /*penalty=*/nullptr, parallelism);
    EvalSession::Options opts;
    opts.order = ProgressionOrder::kKeyOrder;
    EvalSession session(plan, shared_store, opts);
    Status run = session.RunToExact();
    if (!run.ok()) return run;
    const std::vector<double>& estimates = session.Estimates();
    for (size_t g = 0; g < group_members.size(); ++g) {
      out.results[group_members[g]] = estimates[g];
    }
    out.io += session.io();
    out.peak_workspace = std::max(out.peak_workspace, group_coefficients);
    ++out.num_groups;
    group.clear();
    group_members.clear();
    group_coefficients = 0;
    return Status::OK();
  };

  for (size_t qi = 0; qi < batch.size(); ++qi) {
    Result<SparseVec> coeffs = strategy.TransformQuery(batch.query(qi));
    if (!coeffs.ok()) return coeffs.status();
    const uint64_t nnz = coeffs->size();
    if (!group.empty() &&
        group_coefficients + nnz > max_workspace_coefficients) {
      Status flushed = flush();
      if (!flushed.ok()) return flushed;
    }
    group_coefficients += nnz;
    group.push_back(std::move(coeffs).value());
    group_members.push_back(qi);
  }
  Status flushed = flush();
  if (!flushed.ok()) return flushed;
  return out;
}

}  // namespace wavebatch
