#include "engine/master_list.h"

#include <algorithm>
#include <utility>

#include "util/thread_pool.h"

namespace wavebatch {

namespace {

/// Below this many merged coefficients the queue + wake overhead of the
/// shared pool exceeds the merge itself (bounded-workspace groups, unit
/// tests); the build then runs the identical code path serially.
constexpr size_t kMinParallelCoefficients = size_t{1} << 14;

/// Target uses per key-range slice of the merge. Like the sample stride
/// below, a constant of the input's shape: the slices never depend on
/// thread count or on BuildParallelism.
constexpr size_t kSliceUses = 4096;

/// Every this-many-th key of every run is sampled to place the splitters.
constexpr size_t kSampleStride = 256;

/// One run's unread part within a slice.
struct RunCursor {
  const SparseEntry* head;
  const SparseEntry* end;
  uint32_t query;
};

/// A slice's entries, built in its own vectors: neighbouring slices' vector
/// headers share cache lines, so writing them in place would false-share.
struct SliceEntries {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> offsets;  // each entry's first use row
};

}  // namespace

Result<MasterList> MasterList::Build(const QueryBatch& batch,
                                     const LinearStrategy& strategy,
                                     BuildParallelism parallelism) {
  // The strategy rewrites the whole batch at once, so work its queries
  // share is done once; every slot equals the serial TransformQuery.
  ThreadPool* pool = parallelism == BuildParallelism::kParallel
                         ? &ThreadPool::Shared()
                         : nullptr;
  std::vector<Result<SparseVec>> transformed =
      strategy.TransformQueries(batch.queries(), pool);
  std::vector<SparseVec> query_coefficients;
  query_coefficients.reserve(batch.size());
  for (Result<SparseVec>& r : transformed) {
    if (!r.ok()) return r.status();
    query_coefficients.push_back(std::move(r).value());
  }
  return FromQueryVectors(query_coefficients, parallelism);
}

MasterList MasterList::FromQueryVectors(
    const std::vector<SparseVec>& query_coefficients,
    BuildParallelism parallelism) {
  MasterList list;
  list.num_queries_ = query_coefficients.size();
  const size_t num_queries = query_coefficients.size();

  size_t total = 0;
  list.per_query_coefficients_.resize(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    list.per_query_coefficients_[q] = query_coefficients[q].size();
    total += query_coefficients[q].size();
  }
  list.total_coefficients_ = total;

  ThreadPool* pool = (parallelism == BuildParallelism::kParallel &&
                      total >= kMinParallelCoefficients)
                         ? &ThreadPool::Shared()
                         : nullptr;

  // Merge by key range. Slice s holds the keys in [splitters[s - 1],
  // splitters[s]) (the first slice is open below, the last above), taken
  // from a sorted sample so that each slice gets about kSliceUses uses.
  const size_t num_slices = (total + kSliceUses - 1) / kSliceUses;
  std::vector<uint64_t> splitters;
  if (num_slices > 1) {
    std::vector<uint64_t> sample;
    sample.reserve(total / kSampleStride + num_queries);
    for (const SparseVec& v : query_coefficients) {
      for (size_t j = 0; j < v.size(); j += kSampleStride) {
        sample.push_back(v[j].key);
      }
    }
    std::sort(sample.begin(), sample.end());
    splitters.reserve(num_slices - 1);
    for (size_t s = 1; s < num_slices; ++s) {
      splitters.push_back(sample[s * sample.size() / num_slices]);
    }
  }

  // Each slice lower-bounds every run at its two splitters: the sum of the
  // bounds at its lower splitter is its first use row, so it needs no other
  // slice. It then merges its sub-runs on its own: the smallest head key is
  // the next entry, and the heads at that key, in query order, are its
  // uses. Rows come out ascending by (key, query), the unique order of the
  // CSR image, whatever the splitters or the thread that ran the slice.
  list.uses_query_.resize(total);
  list.uses_coeff_.resize(total);
  std::vector<SliceEntries> slices(num_slices);
  ForRange(pool, num_slices, /*grain=*/1, [&](size_t begin, size_t end) {
    const auto below = [](const SparseEntry& e, uint64_t key) {
      return e.key < key;
    };
    std::vector<RunCursor> runs;
    for (size_t s = begin; s < end; ++s) {
      runs.clear();
      size_t row = 0;
      size_t uses = 0;
      for (size_t q = 0; q < num_queries; ++q) {
        const SparseEntry* first = query_coefficients[q].entries().data();
        const SparseEntry* last = first + query_coefficients[q].size();
        const SparseEntry* lo =
            s == 0 ? first
                   : std::lower_bound(first, last, splitters[s - 1], below);
        const SparseEntry* hi =
            s + 1 == num_slices
                ? last
                : std::lower_bound(lo, last, splitters[s], below);
        row += static_cast<size_t>(lo - first);
        uses += static_cast<size_t>(hi - lo);
        if (lo != hi) runs.push_back({lo, hi, static_cast<uint32_t>(q)});
      }
      std::vector<uint64_t> keys;
      std::vector<uint64_t> offsets;
      keys.reserve(uses);
      offsets.reserve(uses);
      uint64_t next = ~uint64_t{0};
      for (const RunCursor& r : runs) next = std::min(next, r.head->key);
      while (!runs.empty()) {
        const uint64_t key = next;
        keys.push_back(key);
        offsets.push_back(row);
        next = ~uint64_t{0};
        bool exhausted = false;
        for (RunCursor& r : runs) {
          if (r.head->key == key) {
            list.uses_query_[row] = r.query;
            list.uses_coeff_[row] = r.head->value;
            ++row;
            if (++r.head == r.end) {
              exhausted = true;  // leaves the scan once the entry is done
              continue;
            }
          }
          next = std::min(next, r.head->key);
        }
        if (exhausted) {
          std::erase_if(runs,
                        [](const RunCursor& r) { return r.head == r.end; });
        }
      }
      slices[s].keys = std::move(keys);
      slices[s].offsets = std::move(offsets);
    }
  });

  // The slices are in key order, so appending them in turn places every
  // slice's entries after the entry counts of the slices below it.
  size_t num_entries = 0;
  for (const SliceEntries& slice : slices) num_entries += slice.keys.size();
  list.keys_.reserve(num_entries);
  list.uses_offsets_.reserve(num_entries + 1);
  for (const SliceEntries& slice : slices) {
    list.keys_.insert(list.keys_.end(), slice.keys.begin(), slice.keys.end());
    list.uses_offsets_.insert(list.uses_offsets_.end(), slice.offsets.begin(),
                              slice.offsets.end());
  }
  list.uses_offsets_.push_back(total);
  return list;
}

size_t MasterList::MaxSharing() const {
  size_t m = 0;
  for (size_t e = 0; e + 1 < uses_offsets_.size(); ++e) {
    m = std::max<size_t>(m, uses_offsets_[e + 1] - uses_offsets_[e]);
  }
  return m;
}

}  // namespace wavebatch
