#include "server/query_service.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "storage/versioned_store.h"
#include "telemetry/span.h"
#include "util/check.h"

namespace wavebatch::server {

namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

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
                    : std::make_shared<PlanCache>(options_.plan_cache_capacity);
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
  std::lock_guard<std::mutex> lock(mu_);
  RepinLocked();
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

void QueryService::RepinLocked() {
  std::shared_ptr<const CoefficientStore> pinned = root_store_->PinVersion();
  pinned_ = pinned != nullptr ? std::move(pinned) : root_store_;
  // Versioned planes pin SnapshotStores, which carry their published epoch;
  // static stores read as epoch 0. Spans and /statusz report this so a
  // trace shows which data version served each request.
  const auto* snapshot = dynamic_cast<const SnapshotStore*>(pinned_.get());
  pinned_epoch_ = snapshot != nullptr ? snapshot->epoch() : 0;
  // K of the new version is read by its first admission (AdmitLocked), so
  // a re-pin costs nothing on the publisher's thread.
  pinned_k_.reset();
}

uint64_t QueryService::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_epoch_;
}

std::optional<double> QueryService::k_sum_abs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_k_;
}

std::vector<QueryService::TimelineRecord> QueryService::RecentTimelines()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {recent_timelines_.begin(), recent_timelines_.end()};
}

void QueryService::RefreshEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  RepinLocked();
  ++generation_;
}

uint64_t QueryService::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
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
    if (options_.pool_queue_shed_threshold > 0.0) {
      // Cross-subsystem backpressure: the process thread pools (merges,
      // parallel plan builds) report queued work through this gauge; a
      // saturated pool means new sessions would only add to the backlog.
      telemetry::Gauge* pool_depth =
          telemetry::MetricsRegistry::Default().GetGauge(
              "wavebatch_thread_pool_queue_depth");
      if (pool_depth->Value() > options_.pool_queue_shed_threshold) {
        sheds_->Add();
        ++local_sheds_;
        return Status::Unavailable("thread pools saturated");
      }
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

void QueryService::AdmitLocked(std::vector<std::function<void()>>* finished) {
  const auto now = std::chrono::steady_clock::now();
  while (!pending_.empty() && live_.size() < options_.max_live_sessions) {
    Pending pending = std::move(pending_.front());
    pending_.erase(pending_.begin());
    queue_depth_gauge_->Set(static_cast<double>(pending_.size()));

    auto active = std::make_unique<Active>(std::move(pending.request),
                                           std::move(pending.done));
    active->admitted_at = pending.admitted_at;
    active->deadline_at =
        active->request.deadline.count() > 0
            ? pending.admitted_at + active->request.deadline
            : kNoDeadline;
    active->quantum = active->request.quantum > 0 ? active->request.quantum
                                                  : options_.default_quantum;
    active->generation = generation_;
    active->trace = pending.trace;
    active->timeline =
        telemetry::ConvergenceTimeline(options_.timeline_capacity);

    // Plans are store-free (a transform of the queries alone), so one
    // cached plan serves every generation. The lookup (and any build it
    // triggers) runs under the request's trace so plan_build /
    // plan_cache_lookup spans attribute to it.
    std::optional<telemetry::ScopedTraceContext> trace_guard;
    if (active->trace.active()) trace_guard.emplace(active->trace);
    Result<std::shared_ptr<const EvalPlan>> plan = plan_cache_->GetOrBuild(
        active->request.batch, *strategy_, active->request.penalty);
    trace_guard.reset();
    if (!plan.ok()) {
      QueryResponse response;
      response.status = plan.status();
      response.request_id = active->trace.request_id;
      response.trace_id = active->trace.trace_id;
      response.generation = generation_;
      response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
          now - active->admitted_at);
      failed_->Add();
      finished->push_back(
          [done = std::move(active->done), r = std::move(response)]() mutable {
            done(std::move(r));
          });
      continue;
    }

    // One full scan per pin generation, paid by its first admission; later
    // admissions of the generation reuse it.
    if (!pinned_k_.has_value()) pinned_k_ = pinned_->SumAbs();
    active->k_sum_abs = *pinned_k_;
    active->epoch = pinned_epoch_;
    EvalSession::Options session_options;
    session_options.order = active->request.penalty != nullptr
                                ? ProgressionOrder::kBiggestB
                                : ProgressionOrder::kKeyOrder;
    session_options.fault_policy = active->request.fault_policy;
    active->session = std::make_unique<EvalSession>(plan.value(), pinned_,
                                                    session_options);
    live_.push_back(std::move(active));
    live_sessions_gauge_->Set(static_cast<double>(live_.size()));
  }
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
  // the head is the quantum's densest unit of progress).
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
    const double marginal = active->session->plan().HasImportance()
                                ? active->session->NextImportance()
                                : 0.0;
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
  // backend span it causes (store_fetch_batch, shard_subbatch) attributes
  // to this request.
  const bool traced = active.trace.active() && telemetry::Enabled();
  std::optional<telemetry::ScopedTraceContext> trace_guard;
  std::optional<telemetry::ScopedSpan> quantum_span;
  if (traced) {
    trace_guard.emplace(active.trace);
    quantum_span.emplace("request_quantum");
    quantum_span->AddAttr("generation",
                          static_cast<double>(active.generation));
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
  response.generation = active->generation;
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
    record.generation = active->generation;
    record.ok = response.status.ok();
    record.exact = response.exact;
    record.deadline_expired = deadline_expired;
    record.points = active->timeline.TakePoints();
    response.timeline = record.points;
    recent_timelines_.push_back(std::move(record));
    while (recent_timelines_.size() > options_.recent_timelines) {
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
    AdmitLocked(&callbacks);
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
