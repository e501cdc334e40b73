#ifndef WAVEBATCH_SERVER_QUERY_SERVICE_H_
#define WAVEBATCH_SERVER_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
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
/// exactness. Every request steps by QueryServiceOptions::default_quantum.
///
/// A request with a penalty and a target_bound or a deadline is
/// *progressive*: it walks Batch-Biggest-B, so whenever it stops its answer
/// has the best Theorem-1 bound for the retrievals spent. Any other request
/// is *exact*: it can only finish exact, so it is served as the paper's
/// exact batch evaluation, in ascending key order. Progressive quality is
/// promised only to requests that ask for it: an exact request stopped by a
/// kFail fault returns key-order partial estimates, with a bound that is
/// sound but looser than biggest-B's would be.
struct QueryRequest {
  explicit QueryRequest(QueryBatch batch_in) : batch(std::move(batch_in)) {}

  QueryBatch batch;
  /// Ranks coefficients for progressive requests and defines the reported
  /// Theorem-1 bound. Null = no bound (and no early stop on target_bound);
  /// with a penalty but neither target nor deadline the request is exact
  /// and reads in key order all the same.
  std::shared_ptr<const PenaltyFunction> penalty;
  FaultPolicy fault_policy = FaultPolicy::kFail;
  /// Complete early once WorstCaseBound() <= target_bound (requires a
  /// penalty). 0 = run to exact.
  double target_bound = 0.0;
  /// Complete (possibly approximate, with valid progressive bounds) within
  /// this much time of Submit, queue wait included. Zero = no deadline.
  std::chrono::microseconds deadline{0};
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
  /// Published epoch this request was served at: the epoch() of the store
  /// version its session pinned at admission, through any decorators; 0
  /// when the store is not versioned or no session was built.
  uint64_t epoch = 0;
  /// Submit-to-completion wall time, queue wait included.
  std::chrono::microseconds latency{0};
  /// Request id minted at Submit (0 when telemetry was disabled then).
  /// Every span the service recorded for this request carries it, and
  /// /tracez groups spans by it.
  uint64_t request_id = 0;
  /// Bound-convergence timeline: one point per scheduler quantum (stride-
  /// decimated, see telemetry::ConvergenceTimeline) plus a final point at
  /// completion — the request's error-vs-I/O curve. Empty when telemetry
  /// was disabled throughout.
  std::vector<telemetry::TimelinePoint> timeline;
};

/// Invoked exactly once per request Submit accepted, outside the service
/// lock (it may re-enter Submit). Requests shed by Submit never get a
/// callback — Submit's Status is the only signal.
using ResponseCallback = std::function<void(QueryResponse)>;

struct QueryServiceOptions {
  /// Admission queue bound: Submit sheds (kUnavailable) beyond this depth.
  size_t max_queue_depth = 256;
  /// Concurrently live (admitted, stepping) sessions.
  size_t max_live_sessions = 32;
  /// Master-list entries per scheduling quantum (one StepBatch), for every
  /// request.
  size_t default_quantum = 256;
  /// Plan cache to use; null = a private PlanCache of default capacity.
  std::shared_ptr<PlanCache> plan_cache;
};

/// The serving front end: accepts query batches from many clients into an
/// admission queue and runs each as a progressive EvalSession over the
/// store's current version. I/O is shared the paper's way, inside one batch
/// through its master list (Observation 1); every session reads its
/// pinned version directly, so a served request costs the backend exactly
/// what an isolated session costs.
///
/// Scheduling is progress-aware: the runnable session with the least
/// deadline slack goes first; among equals, the one whose next quantum buys
/// the largest Theorem-1 bound reduction per retrieval (NextImportance).
/// Exact requests (see QueryRequest) answer only once every retrieval is
/// in, so they rank below every progressive request, each in key order.
/// Requests complete when exact, when their target bound is reached, or
/// when their deadline expires (returning the current progressive estimates
/// and bound — the paper's contract is that partial answers are usable).
///
/// Backpressure: Submit sheds when the admission queue is full.
///
/// Execution: either call RunUntilIdle() on your own thread (deterministic
/// answers; tests and single-tenant tools), or Start()/Stop() worker
/// threads. Both run the same scheduler loop. A progressive request (or an
/// exact one with a deadline) steps one quantum per pick. When the pick is
/// an exact request with no deadline, nothing that may stop early is
/// runnable: the scheduler claims every such runnable request as one
/// *round* and steps its members side by side on ThreadPool::Shared(), each
/// until it finishes or the round is preempted (Submit accepting a request
/// that may stop early, or Stop()); the scheduler thread then answers the
/// round oldest first, before it admits what arrived meanwhile. Every
/// session steps the same quanta as it would alone, so answers keep their
/// bits.
/// Epochs: each admitted request's EvalSession is built over the service's
/// store and pins its current version (CoefficientStore::PinVersion) at
/// construction, the one place an epoch is pinned. So an admission serves
/// the latest published epoch, an in-flight session finishes on the epoch
/// it pinned, and nothing needs wiring. To serve one frozen epoch, build
/// the service over a snapshot (VersionedStore::Snapshot()), which is its
/// own version.
///
/// Theorem 1's K is read from the session's pinned store at admission. The
/// store keeps K current as it is written (CoefficientStore::SumAbs), so
/// the read is O(1) and a plain store mutated through Add() reports sound
/// bounds from its next admission on.
class QueryService {
 public:
  QueryService(std::shared_ptr<const CoefficientStore> store,
               std::shared_ptr<const LinearStrategy> strategy,
               QueryServiceOptions options = {});
  /// Stops workers and answers every queued and in-flight request with
  /// kUnavailable (their callbacks run, with progress so far).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admission: enqueues the request, or sheds it (kUnavailable, callback
  /// never invoked) when the admission queue is full. `done` runs exactly
  /// once for every request accepted here.
  Status Submit(QueryRequest request, ResponseCallback done);

  /// Drains the queue until no runnable work is left. The scheduler and
  /// every callback run on the calling thread; an exact round's quanta run
  /// on the shared pool. Answers are deterministic given a deterministic
  /// store; safe alongside workers (they just compete for work).
  void RunUntilIdle();

  /// Spawns `num_threads` worker threads (>= 1). No-op when running.
  void Start(size_t num_threads);
  /// Stops and joins workers. Queued/in-flight requests stay put and can be
  /// drained by RunUntilIdle() or a later Start().
  void Stop();

  // Introspection (tests, ops).
  size_t queue_depth() const;
  size_t live_sessions() const;
  /// This instance's counts (the telemetry counters aggregate across all
  /// services in the process). Every answer is one completion.
  uint64_t sheds() const;
  uint64_t completed() const;
  /// Always 0: sessions share no fetches across requests. Kept only because
  /// the repository benchmark (perfbench) still reads them for its
  /// server.shared_hit_ratio metric; they go when that metric does.
  uint64_t shared_hits() const { return 0; }
  uint64_t shared_misses() const { return 0; }

  /// The epoch the next admission would pin: the store's epoch(), which a
  /// versioned store and its decorators report for the published version
  /// (0 when the store is not versioned). Reads the store, not the
  /// service, so it takes no service lock.
  uint64_t epoch() const;
  /// Theorem 1's K of the published version: the store's SumAbs(); no
  /// service lock either.
  double k_sum_abs() const;
  const PlanCache& plan_cache() const { return *plan_cache_; }

  /// A completed request's bound-convergence record, for /tracez.
  struct TimelineRecord {
    uint64_t request_id = 0;
    uint64_t epoch = 0;
    bool ok = false;
    bool exact = false;
    bool deadline_expired = false;
    std::vector<telemetry::TimelinePoint> points;
  };
  /// The most recent completed-request timelines (FIFO, the last 64),
  /// oldest first.
  std::vector<TimelineRecord> RecentTimelines() const;

 private:
  /// One request from Submit to its callback: queued in pending_, then
  /// live in live_ from admission until FinalizeLocked answers it.
  struct Record {
    /// Stamps the Submit time, derives the deadline and the served order,
    /// and mints the request id when telemetry is on.
    Record(QueryRequest r, ResponseCallback d);

    QueryRequest request;
    ResponseCallback done;
    std::chrono::steady_clock::time_point submitted_at;
    std::chrono::steady_clock::time_point deadline_at;  // max() = none
    /// Has a penalty and a target or a deadline, so it may stop early: it
    /// walks biggest-B and is scheduled by its next importance. Otherwise
    /// it is an exact request, served in key order behind every progressive
    /// one.
    bool progressive = false;
    /// Exact with no deadline, so it finishes only by reading its whole
    /// plan or by failing: it is stepped in rounds, not one quantum per
    /// pick.
    bool in_rounds = false;
    telemetry::TraceContext trace;
    telemetry::ConvergenceTimeline timeline;
    /// Built at admission over the store's current version; null while
    /// queued and after a failed plan build.
    std::unique_ptr<EvalSession> session;
    /// Theorem 1's K of the version the session pinned.
    double k_sum_abs = 0.0;
    /// A thread owns this request: it is building its session (a
    /// placeholder, session null), stepping its next quantum, or stepping
    /// it as a member of an exact round. Under mu_, nothing but `busy`
    /// may be read of a busy record.
    bool busy = false;
    /// The failed plan build's status, or the sticky non-OK fetch status
    /// under kFail; a non-OK failure finishes the request.
    Status failure;
  };

  /// The scheduler, shared by RunUntilIdle() and the workers: answer what
  /// is complete (oldest first), admit and build the admitted sessions
  /// outside the lock, pick a session and run its quantum, or its exact
  /// round, outside the lock. With `until_idle` it returns once nothing is
  /// queued or live; otherwise it sleeps while no work can start and
  /// returns on Stop().
  void ServeLoop(bool until_idle);
  /// True when a waiting thread could start work: a queued request fits a
  /// free live slot, or some live session is not busy (it is runnable or
  /// complete). Must hold mu_.
  bool HasWorkLocked() const;
  /// Moves pending records into live_ while live slots allow, each as a
  /// busy placeholder with no session yet, and returns them in admission
  /// order. Must hold mu_.
  std::vector<Record*> AdmitLocked();
  /// Looks up or builds each admitted request's plan and constructs its
  /// session; a failed plan build leaves the session null and its status
  /// in `failure`. Runs WITHOUT the lock: the placeholders are busy, so no
  /// other thread touches them.
  void PrepareAdmitted(const std::vector<Record*>& admitted);
  /// Picks the runnable live session with (least deadline slack, highest
  /// marginal bound reduction — 0 for an exact request), the earliest
  /// admitted among equals. Null when none is runnable. Must hold mu_.
  Record* PickLocked(std::chrono::steady_clock::time_point now);
  /// Marks every runnable `in_rounds` request busy and returns them in
  /// admission order: the round PickLocked's `in_rounds` pick heads. Must
  /// hold mu_.
  std::vector<Record*> ClaimRoundLocked(
      std::chrono::steady_clock::time_point now);
  /// Steps a round WITHOUT the lock, one member per ParallelFor chunk on
  /// the shared pool: each member runs StepQuantum until its session is
  /// done, a kFail fetch fails, or preempt_generation_ moves away from
  /// `generation`.
  void StepRound(const std::vector<Record*>& round, uint64_t generation);
  /// Runs one quantum for `record` WITHOUT the lock: one StepBatch. When
  /// the request is traced, the quantum runs under its TraceContext (so
  /// backend fetch spans attribute to it), records a "request_quantum"
  /// span, and samples the convergence timeline.
  void StepQuantum(Record& record);
  /// Appends one convergence-timeline point from the session's current
  /// progress. `force` bypasses stride decimation (completion point).
  void SampleTimeline(Record& record, bool force) const;
  /// True when the request has a target bound and its Theorem-1 bound is
  /// at or under it.
  bool TargetMetLocked(const Record& record) const;
  /// True when the request is complete (failed, exact, bound met, deadline).
  bool IsFinishedLocked(const Record& record,
                        std::chrono::steady_clock::time_point now) const;
  /// The one place a response is built and counted: removes the record at
  /// `live_index` from live_, answers it with `status` and its session's
  /// progress (if it has a session), counts it, and returns the callback
  /// invocation to run outside the lock. Must hold mu_.
  std::function<void()> FinalizeLocked(
      size_t live_index, Status status, bool deadline_expired,
      std::chrono::steady_clock::time_point now);

  const std::shared_ptr<const CoefficientStore> root_store_;
  const std::shared_ptr<const LinearStrategy> strategy_;
  const QueryServiceOptions options_;
  std::shared_ptr<PlanCache> plan_cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  /// The preemption generation. It moves (under mu_) when Submit accepts a
  /// request that is not `in_rounds` and when Stop() stops the workers; a
  /// round stops stepping once it moves, so progressive work overtakes
  /// exact work within one quantum and workers leave promptly.
  std::atomic<uint64_t> preempt_generation_{0};
  std::vector<std::thread> workers_;
  std::deque<std::unique_ptr<Record>> pending_;
  std::vector<std::unique_ptr<Record>> live_;
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
