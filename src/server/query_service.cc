#include "server/query_service.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "telemetry/span.h"
#include "util/check.h"

namespace wavebatch::server {

namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();
/// Convergence-timeline points kept per request after stride decimation.
constexpr size_t kTimelineCapacity = 256;
/// Completed-request timelines retained for /tracez (FIFO).
constexpr size_t kRecentTimelines = 64;

/// The store's current version: its PinVersion(), or the store itself when
/// it is its own snapshot.
std::shared_ptr<const CoefficientStore> CurrentVersion(
    const std::shared_ptr<const CoefficientStore>& store) {
  std::shared_ptr<const CoefficientStore> pinned = store->PinVersion();
  return pinned != nullptr ? pinned : store;
}

}  // namespace

QueryService::QueryService(std::shared_ptr<const CoefficientStore> store,
                           std::shared_ptr<const LinearStrategy> strategy,
                           QueryServiceOptions options)
    : root_store_(std::move(store)),
      strategy_(std::move(strategy)),
      options_(std::move(options)) {
  WB_CHECK(root_store_ != nullptr);
  WB_CHECK(strategy_ != nullptr);
  WB_CHECK_GT(options_.max_queue_depth, 0u);
  WB_CHECK_GT(options_.max_live_sessions, 0u);
  WB_CHECK_GT(options_.default_quantum, 0u);
  plan_cache_ = options_.plan_cache != nullptr
                    ? options_.plan_cache
                    : std::make_shared<PlanCache>();
  auto& registry = telemetry::MetricsRegistry::Default();
  queue_depth_gauge_ =
      registry.GetGauge("wavebatch_server_admission_queue_depth", {},
                       "Requests admitted but not yet live.");
  live_sessions_gauge_ =
      registry.GetGauge("wavebatch_server_live_sessions", {},
                       "Progressive sessions currently being served.");
  requests_ = registry.GetCounter("wavebatch_server_requests_total", {},
                                  "Requests offered to Submit().");
  sheds_ = registry.GetCounter("wavebatch_server_sheds_total", {},
                               "Requests shed by admission backpressure.");
  completed_ = registry.GetCounter("wavebatch_server_completed_total", {},
                                   "Requests completed (exact, bound met, "
                                   "or deadline-expired).");
  deadline_expired_ =
      registry.GetCounter("wavebatch_server_deadline_expired_total", {},
                          "Requests completed approximate at their deadline.");
  failed_ = registry.GetCounter("wavebatch_server_failed_total", {},
                                "Requests completed with a non-OK status.");
  latency_us_ =
      registry.GetHistogram("wavebatch_server_request_latency_us", {},
                            "Admission-to-completion latency, microseconds.");
}

QueryService::~QueryService() {
  Stop();
  // Fail everything still queued or live — every admitted request gets its
  // callback exactly once.
  std::vector<std::function<void()>> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (Pending& p : pending_) {
      QueryResponse response;
      response.status = Status::Unavailable("query service shut down");
      response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
          now - p.admitted_at);
      callbacks.push_back(
          [done = std::move(p.done), r = std::move(response)]() mutable {
            done(std::move(r));
          });
    }
    pending_.clear();
    queue_depth_gauge_->Set(0.0);
    while (!live_.empty()) {
      callbacks.push_back(FinalizeLocked(
          live_.size() - 1, Status::Unavailable("query service shut down"),
          /*deadline_expired=*/false, now));
    }
  }
  for (auto& cb : callbacks) cb();
}

uint64_t QueryService::epoch() const {
  return CurrentVersion(root_store_)->epoch();
}

double QueryService::k_sum_abs() const {
  return CurrentVersion(root_store_)->SumAbs();
}

std::vector<QueryService::TimelineRecord> QueryService::RecentTimelines()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {recent_timelines_.begin(), recent_timelines_.end()};
}

uint64_t QueryService::sheds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return local_sheds_;
}

uint64_t QueryService::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return local_completed_;
}

size_t QueryService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

size_t QueryService::live_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

Status QueryService::Submit(QueryRequest request, ResponseCallback done) {
  WB_CHECK(done != nullptr);
  requests_->Add();
  // Mint the trace identity before taking the lock: NewTraceId() is one
  // relaxed atomic increment, and shed requests simply never use theirs.
  telemetry::TraceContext trace;
  if (telemetry::Enabled()) {
    trace.trace_id = telemetry::NewTraceId();
    trace.request_id = trace.trace_id;
  }
  size_t depth_after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.size() >= options_.max_queue_depth) {
      sheds_->Add();
      ++local_sheds_;
      return Status::Unavailable("admission queue full");
    }
    pending_.push_back(Pending{std::move(request), std::move(done),
                               std::chrono::steady_clock::now(), trace});
    depth_after = pending_.size();
    queue_depth_gauge_->Set(static_cast<double>(depth_after));
  }
  if (trace.active()) {
    // The trace's root marker: a zero-duration span stamped with the fresh
    // ids, so /tracez shows when the request entered the queue and how deep
    // the queue was. Recorded outside mu_ (span_mu_ must never nest inside
    // the service lock's critical sections on the hot path).
    telemetry::ScopedTraceContext guard(trace);
    const auto now = std::chrono::steady_clock::now();
    telemetry::MetricsRegistry::Default().RecordSpan(
        "request_submit", now, now,
        {telemetry::SpanAttr{"queue_depth", static_cast<double>(depth_after)}});
  }
  cv_.notify_one();
  return Status::OK();
}

std::vector<QueryService::Active*> QueryService::AdmitLocked() {
  std::vector<Active*> admitted;
  while (!pending_.empty() && live_.size() < options_.max_live_sessions) {
    Pending pending = std::move(pending_.front());
    pending_.erase(pending_.begin());

    auto active = std::make_unique<Active>(std::move(pending.request),
                                           std::move(pending.done));
    active->admitted_at = pending.admitted_at;
    active->deadline_at =
        active->request.deadline.count() > 0
            ? pending.admitted_at + active->request.deadline
            : kNoDeadline;
    active->quantum = active->request.quantum > 0 ? active->request.quantum
                                                  : options_.default_quantum;
    // Only a request that can stop early (a target or a deadline) gains
    // from biggest-B; an exact request reads its master list in key order,
    // the paper's exact batch evaluation, which walks the plan's CSR image
    // and the store sequentially.
    active->progressive = active->request.penalty != nullptr &&
                          (active->request.target_bound > 0.0 ||
                           active->request.deadline.count() > 0);
    active->trace = pending.trace;
    active->timeline = telemetry::ConvergenceTimeline(kTimelineCapacity);
    // A placeholder until PrepareAdmitted gives it a session: it holds its
    // live slot, and busy keeps every other thread off it.
    active->busy = true;
    admitted.push_back(active.get());
    live_.push_back(std::move(active));
  }
  if (!admitted.empty()) {
    queue_depth_gauge_->Set(static_cast<double>(pending_.size()));
    live_sessions_gauge_->Set(static_cast<double>(live_.size()));
  }
  return admitted;
}

void QueryService::PrepareAdmitted(const std::vector<Active*>& admitted) {
  for (Active* active : admitted) {
    // Plans are store-free (a transform of the queries alone), so one
    // cached plan serves every epoch. The lookup (and any build it
    // triggers) runs under the request's trace so plan_build /
    // plan_cache_lookup spans attribute to it.
    std::optional<telemetry::ScopedTraceContext> trace_guard;
    if (active->trace.active()) trace_guard.emplace(active->trace);
    Result<std::shared_ptr<const EvalPlan>> plan = plan_cache_->GetOrBuild(
        active->request.batch, *strategy_, active->request.penalty);
    if (!plan.ok()) {
      active->failure = plan.status();
      continue;
    }
    EvalSession::Options session_options;
    session_options.order = active->progressive ? ProgressionOrder::kBiggestB
                                                : ProgressionOrder::kKeyOrder;
    session_options.fault_policy = active->request.fault_policy;
    active->session = std::make_unique<EvalSession>(
        std::move(plan).value(), root_store_, session_options);
    // The session pinned the store's current version; K and the epoch are
    // that version's.
    active->k_sum_abs = active->session->store().SumAbs();
    active->epoch = active->session->store().epoch();
  }
}

void QueryService::FinishAdmissionLocked(
    const std::vector<Active*>& admitted,
    std::vector<std::function<void()>>* finished) {
  const auto now = std::chrono::steady_clock::now();
  for (Active* active : admitted) {
    if (active->session != nullptr) {
      active->busy = false;
      continue;
    }
    // The plan build failed: the request completes here, with its status.
    auto it = std::find_if(live_.begin(), live_.end(), [active](const auto& a) {
      return a.get() == active;
    });
    WB_CHECK(it != live_.end());  // only this thread removes a placeholder
    std::unique_ptr<Active> failed = std::move(*it);
    live_.erase(it);
    QueryResponse response;
    response.status = failed->failure;
    response.request_id = failed->trace.request_id;
    response.trace_id = failed->trace.trace_id;
    response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
        now - failed->admitted_at);
    failed_->Add();
    finished->push_back(
        [done = std::move(failed->done), r = std::move(response)]() mutable {
          done(std::move(r));
        });
  }
  live_sessions_gauge_->Set(static_cast<double>(live_.size()));
}

bool QueryService::TargetMetLocked(const Active& active) const {
  return active.request.target_bound > 0.0 &&
         active.session->plan().HasImportance() &&
         active.session->WorstCaseBound(active.k_sum_abs) <=
             active.request.target_bound;
}

bool QueryService::IsFinishedLocked(
    const Active& active, std::chrono::steady_clock::time_point now) const {
  return active.failed || active.session->Done() ||
         now >= active.deadline_at || TargetMetLocked(active);
}

QueryService::Active* QueryService::PickLocked(
    std::chrono::steady_clock::time_point now) {
  // Least deadline slack first; among equals, the session whose next
  // quantum buys the most Theorem-1 bound reduction per retrieval (its next
  // coefficient's importance — the progression is importance-sorted, so
  // the head is the quantum's densest unit of progress). An exact request
  // answers only when it is done, so its marginal is 0: it ranks below
  // every progressive one, and exact requests run in admission order (ties
  // keep the first live session).
  Active* best = nullptr;
  double best_slack = 0.0;
  double best_marginal = 0.0;
  for (auto& active : live_) {
    if (active->busy || IsFinishedLocked(*active, now)) continue;
    const double slack =
        active->deadline_at == kNoDeadline
            ? std::numeric_limits<double>::infinity()
            : std::chrono::duration_cast<std::chrono::duration<double>>(
                  active->deadline_at - now)
                  .count();
    const double marginal =
        active->progressive ? active->session->NextImportance() : 0.0;
    if (best == nullptr || slack < best_slack ||
        (slack == best_slack && marginal > best_marginal)) {
      best = active.get();
      best_slack = slack;
      best_marginal = marginal;
    }
  }
  return best;
}

void QueryService::SampleTimeline(Active& active, bool force) const {
  telemetry::TimelinePoint point;
  point.steps = active.session->StepsTaken();
  point.retrievals = active.session->io().retrievals;
  const std::vector<double>& estimates = active.session->Estimates();
  point.estimate = estimates.empty() ? 0.0 : estimates[0];
  if (active.session->plan().HasImportance()) {
    point.bound = active.session->WorstCaseBound(active.k_sum_abs);
  }
  point.skipped_importance = active.session->SkippedImportance();
  point.elapsed_us =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - active.admitted_at)
          .count();
  if (force) {
    active.timeline.ForceSample(point);
  } else {
    active.timeline.Sample(point);
  }
}

void QueryService::StepQuantum(Active& active) {
  // The whole quantum runs under the request's TraceContext, so every
  // backend span it causes (store_fetch_batch) attributes to this request.
  const bool traced = active.trace.active() && telemetry::Enabled();
  std::optional<telemetry::ScopedTraceContext> trace_guard;
  std::optional<telemetry::ScopedSpan> quantum_span;
  if (traced) {
    trace_guard.emplace(active.trace);
    quantum_span.emplace("request_quantum");
    quantum_span->AddAttr("epoch", static_cast<double>(active.epoch));
  }
  Result<size_t> stepped = active.session->StepBatch(active.quantum);
  if (!stepped.ok()) {
    // kFail: the session is untouched and resumable, but the serving
    // contract is one answer per request — complete with the fault and the
    // progressive estimates gathered so far.
    active.failure = stepped.status();
    active.failed = true;
  }
  if (traced) SampleTimeline(active, /*force=*/false);
}

std::function<void()> QueryService::FinalizeLocked(
    size_t live_index, Status status, bool deadline_expired,
    std::chrono::steady_clock::time_point now) {
  std::unique_ptr<Active> active = std::move(live_[live_index]);
  live_.erase(live_.begin() + static_cast<ptrdiff_t>(live_index));
  live_sessions_gauge_->Set(static_cast<double>(live_.size()));

  // Close the convergence record with the request's final state — the
  // curve's last point is the answer actually returned.
  if (active->trace.active() && telemetry::Enabled()) {
    SampleTimeline(*active, /*force=*/true);
  }

  QueryResponse response;
  response.status = std::move(status);
  response.estimates = active->session->Estimates();
  response.steps_taken = active->session->StepsTaken();
  response.total_steps = active->session->TotalSteps();
  response.skipped_coefficients = active->session->SkippedCoefficients();
  response.io = active->session->io();
  response.exact = active->session->Done() &&
                   active->session->SkippedCoefficients() == 0;
  response.deadline_expired = deadline_expired;
  response.epoch = active->epoch;
  if (active->session->plan().HasImportance()) {
    response.worst_case_bound =
        active->session->WorstCaseBound(active->k_sum_abs);
  }
  response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
      now - active->admitted_at);
  response.request_id = active->trace.request_id;
  response.trace_id = active->trace.trace_id;

  if (!active->timeline.empty()) {
    TimelineRecord record;
    record.request_id = active->trace.request_id;
    record.trace_id = active->trace.trace_id;
    record.epoch = active->epoch;
    record.ok = response.status.ok();
    record.exact = response.exact;
    record.deadline_expired = deadline_expired;
    record.points = active->timeline.TakePoints();
    response.timeline = record.points;
    recent_timelines_.push_back(std::move(record));
    while (recent_timelines_.size() > kRecentTimelines) {
      recent_timelines_.pop_front();
    }
  }

  latency_us_->Observe(
      static_cast<uint64_t>(std::max<int64_t>(0, response.latency.count())));
  completed_->Add();
  ++local_completed_;
  if (deadline_expired) deadline_expired_->Add();
  if (!response.status.ok()) failed_->Add();

  return [done = std::move(active->done), r = std::move(response)]() mutable {
    done(std::move(r));
  };
}

bool QueryService::HasWorkLocked() const {
  return (!pending_.empty() && live_.size() < options_.max_live_sessions) ||
         std::any_of(live_.begin(), live_.end(),
                     [](const auto& a) { return !a->busy; });
}

void QueryService::RunUntilIdle() { ServeLoop(/*until_idle=*/true); }

void QueryService::ServeLoop(bool until_idle) {
  std::unique_lock<std::mutex> lock(mu_);
  while (until_idle || !stopping_) {
    std::vector<std::function<void()>> callbacks;
    // Admission fills the free live slots with placeholders; their plans
    // and sessions are built off the lock, so other workers keep stepping
    // and Submit keeps queueing meanwhile. A failed build frees its slot
    // for the next pending request.
    for (std::vector<Active*> admitted = AdmitLocked(); !admitted.empty();
         admitted = AdmitLocked()) {
      lock.unlock();
      PrepareAdmitted(admitted);
      lock.lock();
      FinishAdmissionLocked(admitted, &callbacks);
      cv_.notify_all();
    }
    const auto now = std::chrono::steady_clock::now();
    // Finalize everything already complete (a deadline may expire while a
    // session waits its turn; target bounds are met mid-stream).
    for (size_t i = live_.size(); i-- > 0;) {
      Active& active = *live_[i];
      if (active.busy || !IsFinishedLocked(active, now)) continue;
      // Finished for none of the other reasons: the deadline expired.
      const bool expired = !active.failed && !active.session->Done() &&
                           !TargetMetLocked(active);
      callbacks.push_back(FinalizeLocked(
          i, active.failed ? active.failure : Status::OK(), expired, now));
    }
    Active* picked = PickLocked(now);
    if (picked == nullptr && callbacks.empty()) {
      // Every live session is mid-quantum on another thread, and queued
      // requests (if any) wait for their slots. Wake only when work can
      // start: waking on a queue that has no free slot would spin here
      // holding mu_ and starve the threads that would free one.
      if (until_idle && pending_.empty() && live_.empty()) return;
      cv_.wait(lock, [this, until_idle] {
        return HasWorkLocked() ||
               (until_idle ? pending_.empty() && live_.empty() : stopping_);
      });
      continue;
    }
    if (picked != nullptr) picked->busy = true;
    lock.unlock();
    for (auto& cb : callbacks) cb();
    if (picked != nullptr) StepQuantum(*picked);
    lock.lock();
    if (picked != nullptr) picked->busy = false;
    cv_.notify_all();
  }
}

void QueryService::Start(size_t num_threads) {
  WB_CHECK_GT(num_threads, 0u);
  std::lock_guard<std::mutex> lock(mu_);
  if (!workers_.empty()) return;
  stopping_ = false;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { ServeLoop(/*until_idle=*/false); });
  }
}

void QueryService::Stop() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (workers_.empty()) return;
    stopping_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (std::thread& t : workers) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  stopping_ = false;
}

}  // namespace wavebatch::server
