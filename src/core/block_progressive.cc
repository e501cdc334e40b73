#include "core/block_progressive.h"

#include <unordered_map>

#include "util/check.h"

namespace wavebatch {

BlockProgressiveEvaluator::BlockProgressiveEvaluator(
    const MasterList* list, const PenaltyFunction* penalty,
    const CoefficientStore* store,
    const std::function<uint64_t(uint64_t)>& block_of)
    : list_(list), store_(store) {
  WB_CHECK(list_ != nullptr);
  WB_CHECK(penalty != nullptr);
  WB_CHECK(store_ != nullptr);
  estimates_.assign(list_->num_queries(), 0.0);

  std::unordered_map<uint64_t, size_t> block_index;
  std::vector<double> column(list_->num_queries(), 0.0);
  for (size_t i = 0; i < list_->size(); ++i) {
    list_->ForEachUse(i, [&](uint32_t q, double c) { column[q] = c; });
    const double importance = penalty->Apply(column);
    list_->ForEachUse(i, [&](uint32_t q, double) { column[q] = 0.0; });

    const uint64_t block_id = block_of(list_->keys()[i]);
    auto [it, inserted] = block_index.try_emplace(block_id, blocks_.size());
    if (inserted) blocks_.push_back({block_id, 0.0, {}});
    Block& block = blocks_[it->second];
    block.importance += importance;
    block.entries.push_back(i);
  }
  for (size_t b = 0; b < blocks_.size(); ++b) {
    heap_.emplace(blocks_[b].importance, b);
  }
}

size_t BlockProgressiveEvaluator::StepBlock() {
  WB_CHECK(!Done()) << "StepBlock() after completion";
  const size_t b = heap_.top().second;
  heap_.pop();
  ++blocks_fetched_;
  const Block& block = blocks_[b];
  // One batched fetch per block — on a BlockStore backend this touches the
  // underlying block exactly once, matching the simulated cost model.
  std::vector<uint64_t> keys;
  keys.reserve(block.entries.size());
  for (size_t entry_idx : block.entries) {
    keys.push_back(list_->keys()[entry_idx]);
  }
  std::vector<double> values(keys.size());
  // Legacy evaluator: crash-on-error golden reference (see engine for the
  // fault-tolerant path).
  WB_CHECK_OK(store_->FetchBatch(keys, values, &io_));
  coefficients_fetched_ += block.entries.size();
  for (size_t i = 0; i < block.entries.size(); ++i) {
    if (values[i] == 0.0) continue;
    list_->ForEachUse(block.entries[i], [&](uint32_t q, double c) {
      estimates_[q] += c * values[i];
    });
  }
  return block.entries.size();
}

void BlockProgressiveEvaluator::StepToBlocks(uint64_t n) {
  while (!Done() && blocks_fetched_ < n) StepBlock();
}

double BlockProgressiveEvaluator::NextBlockImportance() const {
  if (Done()) return 0.0;
  return heap_.top().first;
}

}  // namespace wavebatch
