#include "core/exact.h"

#include <algorithm>
#include <span>
#include <vector>

namespace wavebatch {

namespace {
/// Batched fetches are issued in chunks so scratch buffers stay modest even
/// for million-entry master lists; within a chunk the store may coalesce,
/// group, or parallelize however it likes.
constexpr size_t kFetchChunk = 4096;
}  // namespace

ExactBatchResult EvaluateNaive(
    const std::vector<SparseVec>& query_coefficients,
    const CoefficientStore& store) {
  ExactBatchResult out;
  out.results.resize(query_coefficients.size(), 0.0);
  IoStats io;
  std::vector<uint64_t> keys;
  std::vector<double> values;
  for (size_t qi = 0; qi < query_coefficients.size(); ++qi) {
    const SparseVec& coeffs = query_coefficients[qi];
    double acc = 0.0;
    for (size_t begin = 0; begin < coeffs.size(); begin += kFetchChunk) {
      const size_t end = std::min(coeffs.size(), begin + kFetchChunk);
      keys.clear();
      for (size_t i = begin; i < end; ++i) keys.push_back(coeffs[i].key);
      values.assign(keys.size(), 0.0);
      // Legacy evaluators are the crash-on-error golden reference; fault
      // tolerance lives in the engine layer.
      WB_CHECK_OK(store.FetchBatch(keys, values, &io));
      for (size_t i = begin; i < end; ++i) {
        acc += coeffs[i].value * values[i - begin];
      }
    }
    out.results[qi] = acc;
  }
  out.retrievals = io.retrievals;
  return out;
}

ExactBatchResult EvaluateShared(const MasterList& list,
                                const CoefficientStore& store) {
  ExactBatchResult out;
  out.results.resize(list.num_queries(), 0.0);
  IoStats io;
  const std::span<const uint64_t> keys(list.keys());
  std::vector<double> values;
  for (size_t begin = 0; begin < keys.size(); begin += kFetchChunk) {
    const size_t end = std::min(keys.size(), begin + kFetchChunk);
    values.assign(end - begin, 0.0);
    WB_CHECK_OK(
        store.FetchBatch(keys.subspan(begin, end - begin), values, &io));
    // Entry order, like the scalar loop: identical accumulation sequence.
    for (size_t i = begin; i < end; ++i) {
      const double data = values[i - begin];
      if (data == 0.0) continue;
      list.ForEachUse(i, [&](uint32_t query, double coeff) {
        out.results[query] += coeff * data;
      });
    }
  }
  out.retrievals = io.retrievals;
  return out;
}

}  // namespace wavebatch
