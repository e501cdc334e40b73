#ifndef WAVEBATCH_ENGINE_PLAN_CACHE_H_
#define WAVEBATCH_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/eval_plan.h"

namespace wavebatch {

/// An LRU cache of EvalPlans keyed by (batch shape, strategy, penalty).
/// Planning cost — query rewriting, master-list merge, importance pass,
/// permutation sorts — is paid once per distinct batch; a dashboard
/// re-issuing the same batch every refresh gets its plan back in a hash
/// lookup (bench_micro measures the gap).
///
/// The penalty participates in the key by *content*, via
/// PenaltyFunction::Fingerprint(): two penalties that encode the same
/// parameters rank coefficients identically, so they share a plan — even
/// across distinct penalty objects, and (crucially) a freed-then-recycled
/// penalty address can never alias a live cache entry, which pointer-keyed
/// fingerprints were vulnerable to.
///
/// Thread-safe; plans are immutable so a cached hit may be shared across
/// concurrent sessions freely.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 64);

  /// Returns the cached plan for this (batch, strategy, penalty) or
  /// builds, caches, and returns a fresh one. Build failures are not
  /// cached.
  ///
  /// A plan depends only on the batch, strategy, and penalty — never on
  /// the coefficient plane's contents — so one cached plan serves every
  /// published epoch of a versioned store.
  Result<std::shared_ptr<const EvalPlan>> GetOrBuild(
      const QueryBatch& batch, const LinearStrategy& strategy,
      std::shared_ptr<const PenaltyFunction> penalty);

  uint64_t hits() const;
  uint64_t misses() const;
  /// Entries dropped off the LRU tail since construction (or last Clear()).
  uint64_t evictions() const;
  size_t size() const;
  void Clear();

  /// One cached plan, for live introspection (/statusz): the fingerprint
  /// identifies the entry (the full key is binary and long), plan_entries
  /// is the master-list size the plan would evaluate.
  struct EntryInfo {
    std::string fingerprint;  // 64-bit FNV-1a of the key, 16 lowercase hex
    size_t plan_entries = 0;
    size_t num_queries = 0;
  };
  /// Snapshot of the cached entries, most recently used first.
  std::vector<EntryInfo> Entries() const;

  /// The cache key: a byte-exact fingerprint of the batch's schema, every
  /// query's intervals and monomials, the strategy name, and the penalty's
  /// content fingerprint. Exposed for tests.
  static std::string Fingerprint(const QueryBatch& batch,
                                 const LinearStrategy& strategy,
                                 const PenaltyFunction* penalty);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const EvalPlan> plan;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  // LRU: most recent at front.
  std::list<Entry> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> by_key_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_ENGINE_PLAN_CACHE_H_
