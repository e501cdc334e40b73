#ifndef WAVEBATCH_ENGINE_BOUNDED_H_
#define WAVEBATCH_ENGINE_BOUNDED_H_

#include <cstdint>
#include <vector>

#include "engine/eval_session.h"
#include "query/batch.h"
#include "strategy/linear_strategy.h"

namespace wavebatch {

/// Result of a workspace-bounded exact run through the engine.
struct BoundedRunResult {
  std::vector<double> results;
  /// I/O across all groups (retrievals between the fully-shared master-list
  /// size and the naive per-query total).
  IoStats io;
  /// Largest number of query coefficients materialized at any moment.
  uint64_t peak_workspace = 0;
  /// Number of query groups the batch was split into.
  size_t num_groups = 0;
};

/// Exact batch evaluation under a workspace budget, expressed in engine
/// terms: queries are greedily packed into groups whose materialized
/// coefficient lists fit `max_workspace_coefficients`; each group becomes a
/// penalty-free EvalPlan evaluated to exactness by a kKeyOrder EvalSession
/// and discarded before the next group starts. A single query over budget
/// gets its own group — exactness is never sacrificed. A budget of 1
/// puts every query in its own group: the naive per-query evaluation of
/// Section 2.2, one retrieval per query coefficient.
///
/// Fallible: a failed fetch (or query transform) surfaces as a non-OK
/// Status. Groups completed before the failure are discarded with the
/// partial result — the workspace-bounded run is all-or-nothing.
///
/// `parallelism` is forwarded to the per-group plan builds. Groups under a
/// tight budget are small and build serially regardless (the master-list
/// merge falls back below its parallel threshold), so the default costs
/// nothing there; generous budgets get the parallel merge.
Result<BoundedRunResult> RunWithBoundedWorkspace(
    const QueryBatch& batch, const LinearStrategy& strategy,
    const CoefficientStore& store, uint64_t max_workspace_coefficients,
    BuildParallelism parallelism = BuildParallelism::kParallel);

}  // namespace wavebatch

#endif  // WAVEBATCH_ENGINE_BOUNDED_H_
