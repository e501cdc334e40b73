#ifndef WAVEBATCH_SERVER_QUERY_SERVICE_H_
#define WAVEBATCH_SERVER_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "engine/eval_session.h"
#include "engine/plan_cache.h"
#include "query/batch.h"
#include "storage/coefficient_store.h"
#include "strategy/linear_strategy.h"
#include "telemetry/metrics.h"
#include "telemetry/timeline.h"
#include "telemetry/trace.h"
#include "util/status.h"

namespace wavebatch::server {

/// One client request: a query batch plus how much progress it needs and by
/// when. Every budget is optional — with none set the request runs to
/// exactness.
struct QueryRequest {
  explicit QueryRequest(QueryBatch batch_in) : batch(std::move(batch_in)) {}

  QueryBatch batch;
  /// Drives the progression order and the Theorem-1 bound. Null = exact
  /// only (key order, no early stop on target_bound).
  std::shared_ptr<const PenaltyFunction> penalty;
  FaultPolicy fault_policy = FaultPolicy::kFail;
  /// Complete early once WorstCaseBound() <= target_bound (requires a
  /// penalty). 0 = run to exact.
  double target_bound = 0.0;
  /// Complete (possibly approximate, with valid progressive bounds) within
  /// this much time of admission. Zero = no deadline.
  std::chrono::microseconds deadline{0};
  /// Coefficients per scheduling quantum; 0 = service default.
  size_t quantum = 0;
};

struct QueryResponse {
  Status status = Status::OK();
  /// Progressive estimates at completion (exact when `exact`).
  std::vector<double> estimates;
  /// Theorem-1 worst-case penalty bound at completion (0 without penalty).
  double worst_case_bound = 0.0;
  uint64_t steps_taken = 0;
  uint64_t total_steps = 0;
  uint64_t skipped_coefficients = 0;
  /// Per-session I/O accounting — identical to an isolated run of the same
  /// batch.
  IoStats io;
  bool exact = false;
  bool deadline_expired = false;
  /// Pin generation this request was served at (bumps on RefreshEpoch).
  uint64_t generation = 0;
  /// Admission-to-completion wall time.
  std::chrono::microseconds latency{0};
  /// Trace identity minted at Submit (0 when the request was never
  /// admitted). Every span the service recorded for this request carries
  /// these ids; /tracez groups by trace_id.
  uint64_t request_id = 0;
  uint64_t trace_id = 0;
  /// Bound-convergence timeline: one point per scheduler quantum (stride-
  /// decimated, see telemetry::ConvergenceTimeline) plus a final point at
  /// completion — the request's error-vs-I/O curve. Empty when telemetry
  /// was disabled throughout.
  std::vector<telemetry::TimelinePoint> timeline;
};

/// Invoked exactly once per admitted request, outside the service lock (it
/// may re-enter Submit). Requests shed at admission never get a callback —
/// Submit's Status is the only signal.
using ResponseCallback = std::function<void(QueryResponse)>;

struct QueryServiceOptions {
  /// Admission queue bound: Submit sheds (kUnavailable) beyond this depth.
  size_t max_queue_depth = 256;
  /// Concurrently live (admitted, stepping) sessions.
  size_t max_live_sessions = 32;
  /// Default per-quantum coefficient count for requests with quantum == 0.
  size_t default_quantum = 256;
  /// Shed admissions while the process-wide thread-pool queue gauge
  /// (wavebatch_thread_pool_queue_depth) exceeds this. 0 = disabled. This
  /// is the cross-subsystem backpressure signal: merges and parallel plan
  /// builds share those pools, and a serving layer must not pile new work
  /// onto a machine that is already behind.
  double pool_queue_shed_threshold = 0.0;
  /// Plan cache to use; null = a private cache of this capacity.
  std::shared_ptr<PlanCache> plan_cache;
  size_t plan_cache_capacity = 64;
  /// Per-request convergence-timeline ring capacity (points retained after
  /// stride decimation).
  size_t timeline_capacity = 256;
  /// Completed-request timelines retained for /tracez (FIFO, bounded).
  size_t recent_timelines = 64;
};

/// The serving front end: accepts query batches from many clients into an
/// admission queue and runs each as a progressive EvalSession over the
/// current pinned snapshot. I/O is shared the paper's way, inside one batch
/// through its master list (Observation 1); every session reads the
/// snapshot directly, so a served request costs the backend exactly what
/// an isolated session costs.
///
/// Scheduling is progress-aware: the runnable session with the least
/// deadline slack goes first; among equals, the one whose next quantum buys
/// the largest Theorem-1 bound reduction per retrieval (NextImportance).
/// Requests complete when exact, when their target bound is reached, or
/// when their deadline expires (returning the current progressive estimates
/// and bound — the paper's contract is that partial answers are usable).
///
/// Backpressure: Submit sheds when the admission queue is full or the
/// process thread-pool queue gauge crosses the configured threshold.
///
/// Execution: either call RunUntilIdle() on your own thread (deterministic;
/// tests and single-tenant tools), or Start()/Stop() worker threads. Both
/// run the same scheduler loop.
/// Epochs: the service pins its store's current version at construction;
/// RefreshEpoch() re-pins — wire it to VersionedStoreOptions::on_publish so
/// new admissions serve fresh data while in-flight sessions finish on the
/// epoch they pinned.
///
/// Theorem 1's K is read once per pin generation: the generation's first
/// admission scans the pinned store's SumAbs(), and every later admission
/// of that generation reuses the value. A generation that admits nothing
/// never scans. Contract: a store that is not versioned and is mutated
/// through Add() after the service read its K needs RefreshEpoch() before
/// new admissions; until then the cached K may be stale and the reported
/// bounds unsound.
class QueryService {
 public:
  QueryService(std::shared_ptr<const CoefficientStore> store,
               std::shared_ptr<const LinearStrategy> strategy,
               QueryServiceOptions options = {});
  /// Stops workers and fails every queued and in-flight request with
  /// kUnavailable (their callbacks run, with progress so far).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admission: enqueues the request, or sheds it (kUnavailable, callback
  /// never invoked) under backpressure. `done` runs exactly once for every
  /// admitted request.
  Status Submit(QueryRequest request, ResponseCallback done);

  /// Drains the queue on the calling thread until no runnable work is left.
  /// Deterministic given a deterministic store; safe alongside workers
  /// (they just compete for quanta).
  void RunUntilIdle();

  /// Spawns `num_threads` worker threads (>= 1). No-op when running.
  void Start(size_t num_threads);
  /// Stops and joins workers. Queued/in-flight requests stay put and can be
  /// drained by RunUntilIdle() or a later Start().
  void Stop();

  /// Re-pins the store's current version and drops the cached K (the next
  /// admission re-reads it); later admissions read the fresh snapshot. Wire
  /// to VersionedStoreOptions::on_publish, and call it after mutating a
  /// plain store through Add().
  void RefreshEpoch();

  // Introspection (tests, ops).
  size_t queue_depth() const;
  size_t live_sessions() const;
  uint64_t generation() const;
  /// This instance's counts (the telemetry counters aggregate across all
  /// services in the process).
  uint64_t sheds() const;
  uint64_t completed() const;
  /// Always 0: sessions share no fetches across requests. Kept only because
  /// the repository benchmark (perfbench) still reads them for its
  /// server.shared_hit_ratio metric; they go when that metric does.
  uint64_t shared_hits() const { return 0; }
  uint64_t shared_misses() const { return 0; }

  /// Pinned epoch of the current snapshot (SnapshotStore::epoch(); 0 when
  /// the store is not versioned).
  uint64_t epoch() const;
  /// Theorem 1's K of the current snapshot; empty until the generation's
  /// first admission reads it.
  std::optional<double> k_sum_abs() const;
  const PlanCache& plan_cache() const { return *plan_cache_; }

  /// A completed request's bound-convergence record, for /tracez.
  struct TimelineRecord {
    uint64_t request_id = 0;
    uint64_t trace_id = 0;
    uint64_t generation = 0;
    bool ok = false;
    bool exact = false;
    bool deadline_expired = false;
    std::vector<telemetry::TimelinePoint> points;
  };
  /// The most recent completed-request timelines (FIFO, bounded by
  /// QueryServiceOptions::recent_timelines), oldest first.
  std::vector<TimelineRecord> RecentTimelines() const;

 private:
  struct Pending {
    QueryRequest request;
    ResponseCallback done;
    std::chrono::steady_clock::time_point admitted_at;
    telemetry::TraceContext trace;  // minted at Submit when telemetry is on
  };

  struct Active {
    Active(QueryRequest r, ResponseCallback d)
        : request(std::move(r)), done(std::move(d)) {}

    QueryRequest request;
    ResponseCallback done;
    std::chrono::steady_clock::time_point admitted_at;
    std::chrono::steady_clock::time_point deadline_at;  // max() = none
    std::unique_ptr<EvalSession> session;
    /// Theorem 1's K of the snapshot the session reads.
    double k_sum_abs = 0.0;
    uint64_t generation = 0;
    uint64_t epoch = 0;  // pinned SnapshotStore epoch, 0 if unversioned
    size_t quantum = 0;
    bool busy = false;      // a worker owns this session's next quantum
    Status failure;         // sticky non-OK fetch status under kFail
    bool failed = false;
    telemetry::TraceContext trace;
    telemetry::ConvergenceTimeline timeline;
  };

  /// The scheduler, shared by RunUntilIdle() and the workers: admit,
  /// finalize what is complete, pick one session and run its quantum
  /// outside the lock. With `until_idle` it returns once nothing is queued
  /// or live; otherwise it sleeps while no work can start and returns on
  /// Stop().
  void ServeLoop(bool until_idle);
  /// True when a waiting thread could start work: a queued request fits a
  /// free live slot, or some live session is not busy (it is runnable or
  /// complete). Must hold mu_.
  bool HasWorkLocked() const;
  /// Admits pending requests into live sessions while capacity allows.
  /// Must hold mu_. Completed-at-admission requests (empty plans, expired
  /// deadlines, failed plan builds) are finalized into *finished.
  void AdmitLocked(std::vector<std::function<void()>>* finished);
  /// Picks the runnable live session with (least deadline slack, highest
  /// marginal bound reduction). Null when none is runnable. Must hold mu_.
  Active* PickLocked(std::chrono::steady_clock::time_point now);
  /// Runs one quantum for `active` WITHOUT the lock: one StepBatch. When
  /// the request is traced, the quantum runs under its TraceContext (so
  /// backend fetch spans attribute to it), records a "request_quantum"
  /// span, and samples the convergence timeline.
  void StepQuantum(Active& active);
  /// Appends one convergence-timeline point from the session's current
  /// progress. `force` bypasses stride decimation (completion point).
  void SampleTimeline(Active& active, bool force) const;
  /// True when the request has a target bound and its Theorem-1 bound is
  /// at or under it.
  bool TargetMetLocked(const Active& active) const;
  /// True when the request is complete (exact, bound met, deadline, fault).
  bool IsFinishedLocked(const Active& active,
                        std::chrono::steady_clock::time_point now) const;
  /// Removes `active` from live_, builds its response, returns the callback
  /// invocation to run outside the lock. Must hold mu_.
  std::function<void()> FinalizeLocked(
      size_t live_index, Status status, bool deadline_expired,
      std::chrono::steady_clock::time_point now);
  /// Pins the store's current version and drops the cached K. Must hold
  /// mu_.
  void RepinLocked();

  const std::shared_ptr<const CoefficientStore> root_store_;
  const std::shared_ptr<const LinearStrategy> strategy_;
  const QueryServiceOptions options_;
  std::shared_ptr<PlanCache> plan_cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  std::vector<Pending> pending_;
  std::vector<std::unique_ptr<Active>> live_;
  std::shared_ptr<const CoefficientStore> pinned_;  // current epoch snapshot
  uint64_t generation_ = 1;
  uint64_t pinned_epoch_ = 0;  // SnapshotStore::epoch() of pinned_, else 0
  // Theorem 1's K of pinned_; empty until the generation's first admission.
  std::optional<double> pinned_k_;
  std::deque<TimelineRecord> recent_timelines_;
  uint64_t local_sheds_ = 0;
  uint64_t local_completed_ = 0;

  telemetry::Gauge* queue_depth_gauge_;
  telemetry::Gauge* live_sessions_gauge_;
  telemetry::Counter* requests_;
  telemetry::Counter* sheds_;
  telemetry::Counter* completed_;
  telemetry::Counter* deadline_expired_;
  telemetry::Counter* failed_;
  telemetry::Histogram* latency_us_;
};

}  // namespace wavebatch::server

#endif  // WAVEBATCH_SERVER_QUERY_SERVICE_H_
