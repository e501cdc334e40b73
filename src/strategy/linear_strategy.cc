#include "strategy/linear_strategy.h"

#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace wavebatch {

std::vector<Result<SparseVec>> LinearStrategy::TransformQueries(
    std::span<const RangeSumQuery> queries, ThreadPool* pool) const {
  // Each slot is written by exactly one chunk, so the fan-out is invisible
  // in the results.
  std::vector<Result<SparseVec>> out(queries.size(),
                                     Result<SparseVec>(SparseVec{}));
  ForRange(pool, queries.size(), /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) out[i] = TransformQuery(queries[i]);
  });
  return out;
}

Status LinearStrategy::InsertTuple(CoefficientStore& store, const Tuple& tuple,
                                   double count) const {
  Result<SparseVec> delta = TransformUpdate(tuple, count);
  if (!delta.ok()) return delta.status();
  for (const SparseEntry& e : *delta) store.Add(e.key, e.value);
  return Status::OK();
}

std::unique_ptr<CoefficientStore> LinearStrategy::BuildStoreFromRelation(
    const Relation& relation) const {
  WB_CHECK(relation.schema() == schema_);
  std::unique_ptr<CoefficientStore> store = MakeEmptyStore();
  for (const Tuple& t : relation.tuples()) {
    Status s = InsertTuple(*store, t, 1.0);
    WB_CHECK(s.ok()) << s;
  }
  return store;
}

}  // namespace wavebatch
