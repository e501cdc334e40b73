#ifndef WAVEBATCH_STORAGE_COEFFICIENT_STORE_H_
#define WAVEBATCH_STORAGE_COEFFICIENT_STORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "telemetry/metrics.h"
#include "util/check.h"
#include "util/status.h"

namespace wavebatch {

class KeyRouter;

/// I/O accounting for the paper's cost model: every coefficient retrieved
/// from secondary storage costs one unit (Section 1.3 assumes array- or
/// hash-based storage with constant-time access to single values and no
/// block-sharing effects; BlockStore adds the block-granularity model the
/// paper lists as future work).
///
/// Accounting is per *call site*, not per store: callers that care about
/// cost pass their own IoStats sink to Fetch/FetchBatch and the store adds
/// into it. This is what makes one read-only store shareable by many
/// concurrent sessions — each session carries its own counters, and the
/// paper's cost model is counted per session (the right unit for
/// multi-tenant accounting) instead of smeared across whoever happens to
/// share the view.
///
/// Writes to one IoStats are caller-synchronized: a sink is owned by one
/// session (one thread) at a time. Concurrent sessions each write their own
/// sink and aggregate afterwards with operator+= under the caller's
/// synchronization — IoStats itself takes no locks and uses no atomics.
struct IoStats {
  /// Number of coefficient retrievals (the paper's headline cost metric).
  uint64_t retrievals = 0;
  /// Number of simulated disk-block reads (BlockStore only).
  uint64_t block_reads = 0;
  /// Block-cache hits (BlockStore only).
  uint64_t block_hits = 0;
  /// Backend bytes transferred by the simulated block reads (BlockStore
  /// only; cache hits transfer nothing). A plain BlockStore charges the
  /// full-width page (block_size × sizeof(double)) per read; in
  /// compressed-page mode it charges the page's encoded size — the
  /// quantity the codec exists to shrink, gated by tools/bench_compare.
  uint64_t bytes_fetched = 0;

  void Reset() { *this = IoStats{}; }

  IoStats& operator+=(const IoStats& other) {
    retrievals += other.retrievals;
    block_reads += other.block_reads;
    block_hits += other.block_hits;
    bytes_fetched += other.bytes_fetched;
    return *this;
  }

  friend bool operator==(const IoStats& a, const IoStats& b) {
    return a.retrievals == b.retrievals && a.block_reads == b.block_reads &&
           a.block_hits == b.block_hits && a.bytes_fetched == b.bytes_fetched;
  }
};

/// Per-store-name telemetry handles for the counted fetch path, distinct
/// from IoStats: IoStats is the paper's per-session cost model, these are
/// process-wide operational metrics. Bound lazily on the first instrumented
/// fetch (the virtual name() is not callable from the base constructor) and
/// interned by store name in a process-wide table, so same-named stores
/// share one time series and the handles outlive every store instance.
struct StoreFetchMetrics {
  telemetry::Counter* keys_fetched;
  telemetry::Counter* bytes_fetched;
  telemetry::Counter* errors_unavailable;
  telemetry::Counter* errors_out_of_range;
  telemetry::Counter* errors_other;
  telemetry::Histogram* batch_latency_ns;

  void CountError(StatusCode code) const {
    if (code == StatusCode::kUnavailable) {
      errors_unavailable->Add();
    } else if (code == StatusCode::kOutOfRange) {
      errors_out_of_range->Add();
    } else {
      errors_other->Add();
    }
  }
};

/// The materialized view Δ̂ (or any other linear transform of Δ): a map from
/// 64-bit coefficient keys to values with constant-time access. Fetch() and
/// FetchBatch() are the *counted* accesses used by evaluators; Peek() is
/// free and used by tests, bounds computation, and internal plumbing.
///
/// The read path is const and safe for concurrent readers: any number of
/// threads may Fetch/FetchBatch/Peek one store at the same time (each with
/// its own IoStats sink). Writes (Add) are not synchronized with reads —
/// load or maintain the view first, then share it read-only.
///
/// One read path: a backend implements one counted-read hook,
/// DoFetchBatch. Fetch and FetchBatch are non-virtual and both run it
/// through one accounting wrapper (Fetch is a one-key batch), so a backend
/// can never silently skip the retrieval count, and a decorator forwards
/// one hook. Backends coalesce, group, or parallelize a batch (FileStore
/// sorts keys into contiguous reads; BlockStore touches each distinct block
/// once), but every backend returns exactly the values one-key reads would,
/// and retrievals are counted per coefficient either way — batching changes
/// the speed, never the cost model.
///
/// Fetches are fallible: a backend reports short reads, I/O errors, and
/// out-of-capacity keys as a non-OK Status instead of aborting the process
/// (the engine turns such faults into resumable or degraded sessions; see
/// EvalSession). A failed fetch charges nothing to `io` — the paper's cost
/// model counts coefficients *retrieved*, and a failed attempt retrieved
/// none. Peek stays infallible-by-contract: it is the uncounted trusted
/// path (tests, bounds plumbing) and still aborts on backend corruption.
class CoefficientStore {
 public:
  virtual ~CoefficientStore() = default;

  /// Uncounted read of the coefficient at `key` (0 if absent).
  virtual double Peek(uint64_t key) const = 0;

  /// Counted retrieval: one unit of I/O in the paper's cost model, added to
  /// `io` (pass nullptr to read without accounting — e.g. internal
  /// plumbing that the caller already charges elsewhere). On error nothing
  /// is charged and the Status explains the failure. A one-key FetchBatch:
  /// same hook, same accounting, and — like every one-key read — counted
  /// but not timed (see CountedBatch).
  Result<double> Fetch(uint64_t key, IoStats* io = nullptr) const {
    double value = 0.0;
    Status status = FetchBatch(std::span<const uint64_t>(&key, 1),
                               std::span<double>(&value, 1), io);
    if (!status.ok()) return status;
    return value;
  }

  /// Counted vectorized retrieval: `out[i] = value at keys[i]` for every i,
  /// charging keys.size() retrievals to `io` (duplicates each count —
  /// identical accounting to a scalar Fetch loop). Requires
  /// keys.size() == out.size(). All-or-nothing: on a non-OK Status the
  /// contents of `out` are unspecified and nothing is charged to `io`.
  Status FetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                    IoStats* io = nullptr) const {
    WB_CHECK_EQ(keys.size(), out.size());
    return CountedBatch(keys.size(), io, [&] {
      return DoFetchBatch(keys, out, io);
    });
  }

  /// FetchBatch with precomputed routing hints: shards[i] is the shard that
  /// owns keys[i] under this store's router(). Identical contract and
  /// accounting to FetchBatch — a store without a router (or one that does
  /// not override DoFetchBatchRouted) ignores the hints entirely, so
  /// calling this on any store is always correct, never required. The
  /// hints exist so the engine can compute routing once per plan instead of
  /// once per batch (the shard of a key never changes for a live router).
  Status FetchBatchRouted(std::span<const uint64_t> keys,
                          std::span<const uint32_t> shards,
                          std::span<double> out, IoStats* io = nullptr) const {
    WB_CHECK_EQ(keys.size(), out.size());
    WB_CHECK_EQ(keys.size(), shards.size());
    return CountedBatch(keys.size(), io, [&] {
      return DoFetchBatchRouted(keys, shards, out, io);
    });
  }

  /// Adds `delta` to the coefficient at `key` (the tuple-insertion path).
  /// Not synchronized with concurrent reads.
  virtual void Add(uint64_t key, double delta) = 0;

  /// Number of stored nonzero coefficients.
  virtual uint64_t NumNonZero() const = 0;

  /// Σ|v| over stored coefficients — Theorem 1's constant K when the store
  /// holds Δ̂.
  virtual double SumAbs() const = 0;

  /// Invokes `fn(key, value)` for every stored nonzero coefficient
  /// (uncounted; used by compaction, compression baselines, and tests).
  virtual void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const = 0;

  virtual std::string name() const = 0;

  /// The key-space partition this store serves, or nullptr for the common
  /// single-plane case. A non-null router is a promise: FetchBatchRouted
  /// hints computed with it stay valid for the store's lifetime (routing is
  /// immutable; only tier placement behind a shard may change). Decorators
  /// forward the inner store's router so hints survive wrapping.
  virtual const KeyRouter* router() const { return nullptr; }

  /// Upper bound on |Peek(key) - exact coefficient at key| — nonzero only
  /// for lossy read paths (a BlockStore in quantized compressed-page mode).
  /// The engine charges this per retrieved coefficient into the Theorem-1
  /// bound so progressive guarantees stay sound over quantized storage;
  /// bounded.cc turns it into per-query error bounds for exact runs.
  /// Uncounted, like Peek. Decorators forward to their inner store (a
  /// sharded plane routes to the owning shard). The default — every exact
  /// backend — is 0.
  virtual double PeekErrorBound(uint64_t key) const {
    (void)key;
    return 0.0;
  }

  /// True when PeekErrorBound can be nonzero anywhere on this read path —
  /// the cheap gate that lets sessions skip per-key error lookups entirely
  /// on exact stores. Decorators forward; the default is false.
  virtual bool Lossy() const { return false; }

  /// Epoch-snapshot seam: a store whose *published contents advance in
  /// epochs* (VersionedStore) returns an immutable snapshot of the current
  /// epoch — a reader that pins once and serves an entire multi-call
  /// operation (a progressive session) from the pinned store sees one
  /// consistent version no matter how many ingests or merges land
  /// meanwhile. The default (null) means "this store is its own snapshot":
  /// its contents are stable for the reader's lifetime, so callers use the
  /// store directly. Decorators MUST forward this hook by *re-wrapping*:
  /// pin the inner store and, when it returns a snapshot, wrap that
  /// snapshot in a new read-only decorator sharing the original's mutable
  /// state (fault schedule, buffer pool), so the decorator stays on the
  /// pinned read path. Returning the naked inner snapshot would silently
  /// drop the decorator; returning null over a versioned inner store would
  /// leave sessions un-pinned and exposed to epochs advancing
  /// mid-evaluation.
  virtual std::shared_ptr<const CoefficientStore> PinVersion() const {
    return nullptr;
  }

 protected:
  /// The one backend read hook, behind both Fetch and FetchBatch: fill
  /// out[i] with the value at keys[i] for every i. Retrieval accounting is
  /// done by the wrapper (on success only); backends with sub-coefficient
  /// cost models (BlockStore) add their own counters to `io` when it is
  /// non-null. Must be safe to call from multiple threads at once, and must
  /// report failures as a Status rather than aborting: on the first failing
  /// key the hook returns its Status and `out` is unspecified. Every scalar
  /// Fetch arrives here as a one-key batch, so a backend with per-batch
  /// setup (sorting, run lists, distinct-block sets) skips it for one key.
  virtual Status DoFetchBatch(std::span<const uint64_t> keys,
                              std::span<double> out, IoStats* io) const = 0;

  /// A one-key DoFetchBatch, kept (with DelegateFetch) only because
  /// perfbench/probes.h's ProbeStore overrides and calls it: nothing in the
  /// library calls either, and Fetch never reaches them (ROADMAP item 1).
  virtual Result<double> DoFetch(uint64_t key, IoStats* io) const {
    double value = 0.0;
    Status status = DoFetchBatch(std::span<const uint64_t>(&key, 1),
                                 std::span<double>(&value, 1), io);
    if (!status.ok()) return status;
    return value;
  }

  /// Backend hook for a routed batch. The default discards the hints and
  /// runs the plain batch hook — correct for every unsharded backend.
  /// ShardedStore overrides this to skip its per-key routing pass;
  /// decorators override it to forward the hints to their inner store.
  virtual Status DoFetchBatchRouted(std::span<const uint64_t> keys,
                                    std::span<const uint32_t> shards,
                                    std::span<double> out, IoStats* io) const {
    (void)shards;
    return DoFetchBatch(keys, out, io);
  }

  /// Delegation helpers for decorator backends (BlockStore,
  /// FaultInjectionStore): invoke another store's hooks directly — an
  /// *uncounted* read that still propagates errors and the inner backend's
  /// sub-model counters. Going through the public Fetch/FetchBatch instead
  /// would double-charge retrievals (the outer wrapper already counts).
  static Result<double> DelegateFetch(const CoefficientStore& inner,
                                      uint64_t key, IoStats* io) {
    return inner.DoFetch(key, io);
  }
  static Status DelegateFetchBatch(const CoefficientStore& inner,
                                   std::span<const uint64_t> keys,
                                   std::span<double> out, IoStats* io) {
    return inner.DoFetchBatch(keys, out, io);
  }
  static Status DelegateFetchBatchRouted(const CoefficientStore& inner,
                                         std::span<const uint64_t> keys,
                                         std::span<const uint32_t> shards,
                                         std::span<double> out, IoStats* io) {
    return inner.DoFetchBatchRouted(keys, shards, out, io);
  }

 private:
  /// The wrapper every counted read goes through: `hook` runs the backend;
  /// the wrapper charges `n` retrievals on success only and records keys,
  /// bytes and errors by code. The one telemetry rule: a one-key read is
  /// counted but not timed — no clock read, span or latency observation —
  /// so a Fetch or Step() loop with telemetry on stays within its
  /// nanoseconds-per-key budget; larger batches amortize the clocks.
  template <typename Hook>
  Status CountedBatch(size_t n, IoStats* io, Hook&& hook) const {
    if (!telemetry::Enabled()) {
      Status status = hook();
      if (status.ok() && io != nullptr) io->retrievals += n;
      return status;
    }
    const bool timed = n != 1;
    std::chrono::steady_clock::time_point begin;
    if (timed) begin = std::chrono::steady_clock::now();
    Status status = hook();
    if (timed) {
      const auto end = std::chrono::steady_clock::now();
      FetchTelemetry().batch_latency_ns->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
              .count()));
      // The span inherits the thread's installed TraceContext, so a fetch
      // issued while serving a request quantum is attributable to that
      // request without any plumbing through the store API.
      telemetry::MetricsRegistry::Default().RecordSpan(
          "store_fetch_batch", begin, end,
          {telemetry::SpanAttr{"keys", static_cast<double>(n)}});
    }
    const StoreFetchMetrics& m = FetchTelemetry();
    if (status.ok()) {
      if (io != nullptr) io->retrievals += n;
      m.keys_fetched->Add(n);
      m.bytes_fetched->Add(n * sizeof(double));
    } else {
      m.CountError(status.code());
    }
    return status;
  }

  /// Fast path for the wrapper instrumentation: one acquire load once the
  /// handles are bound. The slow path (first instrumented fetch on this
  /// instance) interns the handles by name().
  const StoreFetchMetrics& FetchTelemetry() const {
    const StoreFetchMetrics* m =
        fetch_telemetry_.load(std::memory_order_acquire);
    return m != nullptr ? *m : BindFetchTelemetry();
  }
  const StoreFetchMetrics& BindFetchTelemetry() const;

  mutable std::atomic<const StoreFetchMetrics*> fetch_telemetry_{nullptr};
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STORAGE_COEFFICIENT_STORE_H_
