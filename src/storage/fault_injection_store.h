#ifndef WAVEBATCH_STORAGE_FAULT_INJECTION_STORE_H_
#define WAVEBATCH_STORAGE_FAULT_INJECTION_STORE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "storage/coefficient_store.h"

namespace wavebatch {

/// Deterministic fault schedule for a FaultInjectionStore. All counts are
/// 1-based over *counted* fetches (each key of a batch, in batch order; a
/// Fetch is a one-key batch); 0 disables a rule.
struct FaultInjectionOptions {
  /// Fail every Nth counted fetch. The counter keeps advancing when a fault
  /// fires, so an immediate retry of the same key succeeds — this models a
  /// transient (retryable) fault.
  uint64_t fail_every_n = 0;
  /// Fail exactly the Nth counted fetch, then self-heal. Models a one-shot
  /// transient fault at a known point in a progression.
  uint64_t fail_at_fetch = 0;
  /// Injected latency per counted call (one-key or larger batch), applied on
  /// the calling thread before the read. Models slow media; useful for
  /// exercising timeout/retry behavior in benchmarks.
  std::chrono::microseconds latency{0};
};

/// Decorator that injects faults into another store's counted read path —
/// the test double behind the fault matrix (every backend × every fault
/// shape). Peek, Add, and the scan entry points pass through untouched:
/// faults only ever hit the paper's counted retrievals, which is exactly
/// the path the engine must survive.
///
/// Injected failures surface as Status::Unavailable, the code retry logic
/// treats as transient. Rules compose: a key failed via FailKey() stays
/// failed until Heal() (a permanent fault); the schedule-based rules in
/// FaultInjectionOptions are transient by construction. A faulted fetch
/// charges nothing (the wrapper only counts successes) and never reaches
/// the inner backend.
///
/// Thread-safe like any store: the fault state is guarded by a mutex, so
/// concurrent sessions see one global fetch ordinal (the schedule is
/// deterministic only under a single-threaded caller).
///
/// PinVersion() forwards: over a versioned inner store it returns a new
/// FaultInjectionStore wrapping the pinned inner snapshot, *sharing this
/// store's fault state* — the schedule keeps one global ordinal across the
/// original and every pinned view, and FailKey()/Heal() on the original
/// affect pinned views immediately (a fault models the medium, not the
/// epoch). Pinned views are read-only: Add() on one aborts.
class FaultInjectionStore : public CoefficientStore {
 public:
  /// Owning wrap.
  FaultInjectionStore(std::unique_ptr<CoefficientStore> inner,
                      FaultInjectionOptions options = FaultInjectionOptions());

  /// Non-owning wrap: `inner` must outlive this store. Handy for injecting
  /// faults into a store another component still holds.
  FaultInjectionStore(CoefficientStore* inner,
                      FaultInjectionOptions options = FaultInjectionOptions());

  /// Makes every fetch of `key` fail (permanent fault) until Heal().
  /// Visible to every pinned view sharing this store's fault state.
  void FailKey(uint64_t key);

  /// Clears all configured faults: failed keys, fail_every_n, and any
  /// pending fail_at_fetch. Latency is left in place (it is not a fault).
  /// Heals pinned views too (shared fault state).
  void Heal();

  /// Counted fetches seen so far (successful or faulted), across this store
  /// and every pinned view sharing its state.
  uint64_t fetch_count() const;

  /// Faults fired so far (same shared scope as fetch_count()).
  uint64_t injected_failures() const;

  double Peek(uint64_t key) const override { return inner_->Peek(key); }
  void Add(uint64_t key, double delta) override;
  uint64_t NumNonZero() const override { return inner_->NumNonZero(); }
  double SumAbs() const override { return inner_->SumAbs(); }
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override {
    inner_->ForEachNonZero(fn);
  }
  std::string name() const override { return "faulty(" + inner_->name() + ")"; }

  /// Forwards the inner store's partition: a faulty sharded plane routes
  /// exactly like a healthy one (faults hit the counted path, not routing).
  const KeyRouter* router() const override { return inner_->router(); }

  /// Lossiness is the inner store's property; faults don't change decoded
  /// values, only availability.
  double PeekErrorBound(uint64_t key) const override {
    return inner_->PeekErrorBound(key);
  }
  bool Lossy() const override { return inner_->Lossy(); }

  /// Pins the inner store's current epoch and returns a FaultInjectionStore
  /// over that snapshot, sharing this store's fault state (see class
  /// comment). Null when the inner store is its own snapshot — then this
  /// wrapper is stable too and callers use it directly.
  std::shared_ptr<const CoefficientStore> PinVersion() const override;

 protected:
  /// Evaluates the fault schedule per key in batch order; the first faulted
  /// key fails the whole batch (all-or-nothing, `out` unspecified) but the
  /// ordinals of the keys up to and including it are consumed — so a
  /// retried batch replays against fresh ordinals, and fail_every_n lets it
  /// through.
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;

  /// Same schedule, hints forwarded to the inner backend on the clean path.
  Status DoFetchBatchRouted(std::span<const uint64_t> keys,
                            std::span<const uint32_t> shards,
                            std::span<double> out, IoStats* io) const override;

 private:
  /// Fault schedule + ordinal counters, shared between a store and every
  /// pinned view it hands out so the schedule stays globally deterministic
  /// and Heal() reaches all of them.
  struct FaultState {
    mutable std::mutex mu;
    FaultInjectionOptions options;
    std::unordered_set<uint64_t> failed_keys;
    uint64_t fetch_count = 0;
    uint64_t injected_failures = 0;
  };

  /// Pinned-view constructor: wraps the pinned inner snapshot and shares
  /// the parent's fault state. Read-only (mutable_inner_ stays null).
  FaultInjectionStore(std::shared_ptr<const CoefficientStore> pinned,
                      std::shared_ptr<FaultState> state);

  /// Advances the fetch ordinal for `key` and returns the injected fault,
  /// if any fires. Caller must hold state_->mu.
  Status CheckOneLocked(uint64_t key) const;

  void InjectLatency() const;

  std::unique_ptr<CoefficientStore> owned_;
  /// Keeps a pinned inner snapshot alive for a pinned view.
  std::shared_ptr<const CoefficientStore> pinned_inner_;
  /// The store every read path delegates to; never null.
  const CoefficientStore* inner_;
  /// Non-const alias of inner_ for Add(); null for a pinned (read-only)
  /// view.
  CoefficientStore* mutable_inner_ = nullptr;

  std::shared_ptr<FaultState> state_;

  /// Process-wide telemetry twin of injected_failures, labeled by store
  /// name; bound in the constructor body (name() is virtual).
  telemetry::Counter* injected_faults_metric_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STORAGE_FAULT_INJECTION_STORE_H_
