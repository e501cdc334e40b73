#include "strategy/prefix_sum_strategy.h"

#include <algorithm>
#include <set>

#include "storage/dense_store.h"
#include "util/check.h"

namespace wavebatch {

PrefixSumStrategy::PrefixSumStrategy(
    Schema schema, std::vector<std::vector<uint32_t>> monomials)
    : LinearStrategy(std::move(schema)) {
  std::set<std::vector<uint32_t>> seen;
  for (auto& m : monomials) {
    WB_CHECK_EQ(m.size(), schema_.num_dims());
    if (seen.insert(m).second) monomials_.push_back(std::move(m));
  }
  WB_CHECK(!monomials_.empty()) << "prefix-sum view needs >= 1 monomial";
  // Slot bits must fit above the cell bits.
  WB_CHECK_LT(monomials_.size(),
              uint64_t{1} << (64 - schema_.total_bits()));
}

std::vector<std::vector<uint32_t>> PrefixSumStrategy::CollectMonomials(
    const QueryBatch& batch) {
  std::set<std::vector<uint32_t>> seen;
  for (const RangeSumQuery& q : batch.queries()) {
    for (const Monomial& m : q.poly().terms()) seen.insert(m.exponents);
  }
  return {seen.begin(), seen.end()};
}

Result<size_t> PrefixSumStrategy::MonomialSlot(
    const std::vector<uint32_t>& exponents) const {
  for (size_t t = 0; t < monomials_.size(); ++t) {
    if (monomials_[t] == exponents) return t;
  }
  return Status::NotFound(
      "prefix-sum view does not support this monomial; rebuild with it");
}

double PrefixSumStrategy::EvalMonomial(
    const std::vector<uint32_t>& exponents, const Tuple& t) {
  double v = 1.0;
  for (size_t i = 0; i < exponents.size(); ++i) {
    for (uint32_t e = 0; e < exponents[i]; ++e) {
      v *= static_cast<double>(t[i]);
    }
  }
  return v;
}

Result<SparseVec> PrefixSumStrategy::TransformQuery(
    const RangeSumQuery& query) const {
  const size_t d = schema_.num_dims();
  SparseAccumulator acc;
  for (const Monomial& term : query.poly().terms()) {
    Result<size_t> slot = MonomialSlot(term.exponents);
    if (!slot.ok()) return slot.status();
    const uint64_t slot_base = static_cast<uint64_t>(*slot)
                               << schema_.total_bits();
    // Inclusion-exclusion over the 2^d corners of R.
    for (uint64_t mask = 0; mask < (uint64_t{1} << d); ++mask) {
      bool vanishes = false;
      int lo_corners = 0;
      Tuple corner(d);
      for (size_t i = 0; i < d; ++i) {
        const Interval& iv = query.range().interval(i);
        if (mask & (uint64_t{1} << i)) {
          // Lower corner: P at lo-1, which is identically zero if lo == 0.
          if (iv.lo == 0) {
            vanishes = true;
            break;
          }
          corner[i] = iv.lo - 1;
          ++lo_corners;
        } else {
          corner[i] = iv.hi;
        }
      }
      if (vanishes) continue;
      const double sign = (lo_corners % 2 == 0) ? 1.0 : -1.0;
      acc.Add(slot_base | schema_.Pack(corner), sign * term.coeff);
    }
  }
  return acc.ToVec();
}

std::unique_ptr<CoefficientStore> PrefixSumStrategy::BuildStore(
    const DenseCube& delta) const {
  WB_CHECK(delta.schema() == schema_);
  const uint64_t cells = schema_.cell_count();
  const uint64_t size = cells * monomials_.size();
  auto values = std::make_unique<double[]>(size);
  for (size_t t = 0; t < monomials_.size(); ++t) {
    double* view = &values[t * cells];
    // Weighted copy: m_t(x) * Δ[x].
    for (uint64_t cell = 0; cell < cells; ++cell) {
      const double mass = delta[cell];
      if (mass != 0.0) {
        view[cell] = EvalMonomial(monomials_[t], schema_.Unpack(cell)) * mass;
      }
    }
    // Running prefix sums along each dimension in turn.
    for (size_t dim = 0; dim < schema_.num_dims(); ++dim) {
      const uint64_t n = schema_.dim(dim).size;
      uint64_t pre = 1, post = 1;
      for (size_t i = 0; i < dim; ++i) pre *= schema_.dim(i).size;
      for (size_t i = dim + 1; i < schema_.num_dims(); ++i) {
        post *= schema_.dim(i).size;
      }
      for (uint64_t p = 0; p < pre; ++p) {
        for (uint64_t q = 0; q < post; ++q) {
          const uint64_t base = p * n * post + q;
          for (uint64_t j = 1; j < n; ++j) {
            view[base + j * post] += view[base + (j - 1) * post];
          }
        }
      }
    }
  }
  // Note: keys are slot*cells' packed layout, i.e. slot << total_bits is
  // exactly slot * cells because cells == 1 << total_bits.
  return std::make_unique<DenseStore>(std::move(values), size);
}

Result<SparseVec> PrefixSumStrategy::TransformUpdate(const Tuple& tuple,
                                                     double count) const {
  if (!schema_.Contains(tuple)) {
    return Status::OutOfRange("tuple outside schema domain");
  }
  const size_t d = schema_.num_dims();
  std::vector<SparseEntry> entries;
  for (size_t t = 0; t < monomials_.size(); ++t) {
    const double delta = EvalMonomial(monomials_[t], tuple) * count;
    if (delta == 0.0) continue;
    const uint64_t slot_base = static_cast<uint64_t>(t)
                               << schema_.total_bits();
    // All cells y >= tuple componentwise receive the update.
    Tuple y = tuple;
    for (;;) {
      entries.push_back({slot_base | schema_.Pack(y), delta});
      size_t dim = d;
      bool done = true;
      while (dim-- > 0) {
        if (++y[dim] < schema_.dim(dim).size) {
          done = false;
          break;
        }
        y[dim] = tuple[dim];
      }
      if (done) break;
    }
  }
  return SparseVec::FromUnsorted(std::move(entries));
}

std::unique_ptr<CoefficientStore> PrefixSumStrategy::MakeEmptyStore() const {
  return std::make_unique<DenseStore>(schema_.cell_count() *
                                      monomials_.size());
}

}  // namespace wavebatch
