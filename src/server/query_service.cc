#include "server/query_service.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "telemetry/span.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace wavebatch::server {

namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();
/// Convergence-timeline points kept per request after stride decimation.
constexpr size_t kTimelineCapacity = 256;
/// Completed-request timelines retained for /tracez (FIFO).
constexpr size_t kRecentTimelines = 64;

}  // namespace

QueryService::Record::Record(QueryRequest r, ResponseCallback d)
    : request(std::move(r)),
      done(std::move(d)),
      submitted_at(std::chrono::steady_clock::now()),
      deadline_at(request.deadline.count() > 0
                      ? submitted_at + request.deadline
                      : kNoDeadline),
      // Only a request that can stop early (a target or a deadline) gains
      // from biggest-B; an exact request reads its master list in key
      // order, the paper's exact batch evaluation, which walks the plan's
      // CSR image and the store sequentially.
      progressive(request.penalty != nullptr &&
                  (request.target_bound > 0.0 ||
                   request.deadline.count() > 0)),
      in_rounds(!progressive && deadline_at == kNoDeadline),
      timeline(kTimelineCapacity) {
  if (telemetry::Enabled()) trace.request_id = telemetry::NewRequestId();
}

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
                       "Requests accepted by Submit() and not yet admitted.");
  live_sessions_gauge_ =
      registry.GetGauge("wavebatch_server_live_sessions", {},
                       "Progressive sessions currently being served.");
  requests_ = registry.GetCounter("wavebatch_server_requests_total", {},
                                  "Requests offered to Submit().");
  sheds_ = registry.GetCounter("wavebatch_server_sheds_total", {},
                               "Requests shed by admission backpressure.");
  completed_ = registry.GetCounter(
      "wavebatch_server_completed_total", {},
      "Requests answered, one per request Submit accepted, whatever the "
      "status (exact, bound met, deadline-expired, failed, shut down).");
  deadline_expired_ =
      registry.GetCounter("wavebatch_server_deadline_expired_total", {},
                          "Requests completed approximate at their deadline.");
  failed_ = registry.GetCounter(
      "wavebatch_server_failed_total", {},
      "Answered requests whose status is not OK (each also counts as "
      "completed).");
  latency_us_ =
      registry.GetHistogram("wavebatch_server_request_latency_us", {},
                            "Submit-to-completion latency, microseconds.");
}

QueryService::~QueryService() {
  Stop();
  // Answer everything still live or queued — every request Submit accepted
  // gets its callback exactly once. A queued record joins live_ without a
  // session, so FinalizeLocked answers it like any other.
  std::vector<std::function<void()>> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (; !pending_.empty(); pending_.pop_front()) {
      live_.push_back(std::move(pending_.front()));
    }
    queue_depth_gauge_->Set(0.0);
    while (!live_.empty()) {
      callbacks.push_back(FinalizeLocked(
          0, Status::Unavailable("query service shut down"),
          /*deadline_expired=*/false, now));
    }
  }
  for (auto& cb : callbacks) cb();
}

uint64_t QueryService::epoch() const { return root_store_->epoch(); }

double QueryService::k_sum_abs() const { return root_store_->SumAbs(); }

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
  // Build the record before taking the lock: minting its request id is one
  // relaxed atomic increment, and a shed request simply drops its record.
  auto record = std::make_unique<Record>(std::move(request), std::move(done));
  const telemetry::TraceContext trace = record->trace;
  size_t depth_after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.size() >= options_.max_queue_depth) {
      sheds_->Add();
      ++local_sheds_;
      return Status::Unavailable("admission queue full");
    }
    // A request that may stop early must not wait behind a round.
    if (!record->in_rounds) preempt_generation_.fetch_add(1);
    pending_.push_back(std::move(record));
    depth_after = pending_.size();
    queue_depth_gauge_->Set(static_cast<double>(depth_after));
  }
  if (trace.active()) {
    // The request's root marker: a zero-duration span stamped with the
    // fresh request id, so /tracez shows when the request entered the queue
    // and how deep the queue was. Recorded outside mu_ (span_mu_ must never
    // nest inside the service lock's critical sections on the hot path).
    telemetry::ScopedTraceContext guard(trace);
    const auto now = std::chrono::steady_clock::now();
    telemetry::MetricsRegistry::Default().RecordSpan(
        "request_submit", now, now,
        {telemetry::SpanAttr{"queue_depth", static_cast<double>(depth_after)}});
  }
  cv_.notify_one();
  return Status::OK();
}

std::vector<QueryService::Record*> QueryService::AdmitLocked() {
  std::vector<Record*> admitted;
  while (!pending_.empty() && live_.size() < options_.max_live_sessions) {
    // A placeholder until PrepareAdmitted gives it a session: it holds its
    // live slot, and busy keeps every other thread off it.
    pending_.front()->busy = true;
    admitted.push_back(pending_.front().get());
    live_.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  if (!admitted.empty()) {
    queue_depth_gauge_->Set(static_cast<double>(pending_.size()));
    live_sessions_gauge_->Set(static_cast<double>(live_.size()));
  }
  return admitted;
}

void QueryService::PrepareAdmitted(const std::vector<Record*>& admitted) {
  for (Record* record : admitted) {
    // Plans are store-free (a transform of the queries alone), so one
    // cached plan serves every epoch. The lookup (and any build it
    // triggers) runs under the request's trace so plan_build /
    // plan_cache_lookup spans attribute to it.
    std::optional<telemetry::ScopedTraceContext> trace_guard;
    if (record->trace.active()) trace_guard.emplace(record->trace);
    Result<std::shared_ptr<const EvalPlan>> plan = plan_cache_->GetOrBuild(
        record->request.batch, *strategy_, record->request.penalty);
    if (!plan.ok()) {
      record->failure = plan.status();
      continue;
    }
    EvalSession::Options session_options;
    session_options.order = record->progressive ? ProgressionOrder::kBiggestB
                                                : ProgressionOrder::kKeyOrder;
    session_options.fault_policy = record->request.fault_policy;
    record->session = std::make_unique<EvalSession>(
        std::move(plan).value(), root_store_, session_options);
    // The session pinned the store's current version; K is that version's.
    record->k_sum_abs = record->session->store().SumAbs();
  }
}

bool QueryService::TargetMetLocked(const Record& record) const {
  return record.request.target_bound > 0.0 &&
         record.session->plan().HasImportance() &&
         record.session->WorstCaseBound(record.k_sum_abs) <=
             record.request.target_bound;
}

bool QueryService::IsFinishedLocked(
    const Record& record, std::chrono::steady_clock::time_point now) const {
  return !record.failure.ok() || record.session->Done() ||
         now >= record.deadline_at || TargetMetLocked(record);
}

QueryService::Record* QueryService::PickLocked(
    std::chrono::steady_clock::time_point now) {
  // Least deadline slack first; among equals, the session whose next
  // quantum buys the most Theorem-1 bound reduction per retrieval (its next
  // coefficient's importance — the progression is importance-sorted, so
  // the head is the quantum's densest unit of progress). An exact request
  // answers only when it is done, so its marginal is 0: it ranks below
  // every progressive one (ties keep the first live session).
  Record* best = nullptr;
  double best_slack = 0.0;
  double best_marginal = 0.0;
  for (auto& record : live_) {
    if (record->busy || IsFinishedLocked(*record, now)) continue;
    const double slack =
        record->deadline_at == kNoDeadline
            ? std::numeric_limits<double>::infinity()
            : std::chrono::duration_cast<std::chrono::duration<double>>(
                  record->deadline_at - now)
                  .count();
    const double marginal =
        record->progressive ? record->session->NextImportance() : 0.0;
    if (best == nullptr || slack < best_slack ||
        (slack == best_slack && marginal > best_marginal)) {
      best = record.get();
      best_slack = slack;
      best_marginal = marginal;
    }
  }
  return best;
}

std::vector<QueryService::Record*> QueryService::ClaimRoundLocked(
    std::chrono::steady_clock::time_point now) {
  std::vector<Record*> round;
  for (auto& record : live_) {
    if (record->busy || !record->in_rounds || IsFinishedLocked(*record, now)) {
      continue;
    }
    record->busy = true;
    round.push_back(record.get());
  }
  return round;
}

void QueryService::StepRound(const std::vector<Record*>& round,
                             uint64_t generation) {
  // One member per chunk: a lone member runs inline on the scheduler
  // thread, and a larger round shares the pool's workers with it. Members
  // are independent sessions, so each steps exactly the quanta it would
  // step alone, whichever thread runs it.
  ThreadPool::Shared().ParallelFor(
      round.size(), /*grain=*/1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          Record& record = *round[i];
          while (record.failure.ok() && !record.session->Done() &&
                 preempt_generation_.load() == generation) {
            StepQuantum(record);
          }
        }
      });
}

void QueryService::SampleTimeline(Record& record, bool force) const {
  const EvalSession& session = *record.session;
  telemetry::TimelinePoint point;
  point.steps = session.StepsTaken();
  point.retrievals = session.io().retrievals;
  const std::vector<double>& estimates = session.Estimates();
  point.estimate = estimates.empty() ? 0.0 : estimates[0];
  if (session.plan().HasImportance()) {
    point.bound = session.WorstCaseBound(record.k_sum_abs);
  }
  point.skipped_importance = session.SkippedImportance();
  point.elapsed_us =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - record.submitted_at)
          .count();
  if (force) {
    record.timeline.ForceSample(point);
  } else {
    record.timeline.Sample(point);
  }
}

void QueryService::StepQuantum(Record& record) {
  // The whole quantum runs under the request's TraceContext, so every
  // backend span it causes (store_fetch_batch) attributes to this request.
  const bool traced = record.trace.active() && telemetry::Enabled();
  std::optional<telemetry::ScopedTraceContext> trace_guard;
  std::optional<telemetry::ScopedSpan> quantum_span;
  if (traced) {
    trace_guard.emplace(record.trace);
    quantum_span.emplace("request_quantum");
    quantum_span->AddAttr(
        "epoch", static_cast<double>(record.session->store().epoch()));
  }
  Result<size_t> stepped = record.session->StepBatch(options_.default_quantum);
  if (!stepped.ok()) {
    // kFail: the session is untouched and resumable, but the serving
    // contract is one answer per request — complete with the fault and the
    // progressive estimates gathered so far.
    record.failure = stepped.status();
  }
  if (traced) SampleTimeline(record, /*force=*/false);
}

std::function<void()> QueryService::FinalizeLocked(
    size_t live_index, Status status, bool deadline_expired,
    std::chrono::steady_clock::time_point now) {
  std::unique_ptr<Record> record = std::move(live_[live_index]);
  live_.erase(live_.begin() + static_cast<ptrdiff_t>(live_index));
  live_sessions_gauge_->Set(static_cast<double>(live_.size()));

  QueryResponse response;
  response.status = std::move(status);
  response.deadline_expired = deadline_expired;
  response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
      now - record->submitted_at);
  response.request_id = record->trace.request_id;
  // A request queued at shutdown or whose plan build failed has no session
  // and answers with its status alone.
  if (const EvalSession* session = record->session.get()) {
    // Close the convergence record with the request's final state — the
    // curve's last point is the answer actually returned.
    if (record->trace.active() && telemetry::Enabled()) {
      SampleTimeline(*record, /*force=*/true);
    }
    response.estimates = session->Estimates();
    response.steps_taken = session->StepsTaken();
    response.total_steps = session->TotalSteps();
    response.skipped_coefficients = session->SkippedCoefficients();
    response.io = session->io();
    response.exact =
        session->Done() && session->SkippedCoefficients() == 0;
    response.epoch = session->store().epoch();
    if (session->plan().HasImportance()) {
      response.worst_case_bound = session->WorstCaseBound(record->k_sum_abs);
    }
  }

  if (!record->timeline.empty()) {
    TimelineRecord timeline;
    timeline.request_id = response.request_id;
    timeline.epoch = response.epoch;
    timeline.ok = response.status.ok();
    timeline.exact = response.exact;
    timeline.deadline_expired = deadline_expired;
    timeline.points = record->timeline.TakePoints();
    response.timeline = timeline.points;
    recent_timelines_.push_back(std::move(timeline));
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

  return [done = std::move(record->done), r = std::move(response)]() mutable {
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
    // Answer everything already complete (a failed plan build or fetch, a
    // deadline that expired while the session waited its turn, a target
    // bound met mid-stream, a round's members) before admitting more, so a
    // finished request never waits out the plan builds of requests that
    // arrived after it. Oldest first, so answers that finish together go
    // out in admission order.
    const auto finished_at = std::chrono::steady_clock::now();
    std::vector<std::function<void()>> callbacks;
    for (size_t i = 0; i < live_.size();) {
      const Record& record = *live_[i];
      if (record.busy || !IsFinishedLocked(record, finished_at)) {
        ++i;
        continue;
      }
      // Finished for none of the other reasons: the deadline expired.
      const bool expired = record.failure.ok() && !record.session->Done() &&
                           !TargetMetLocked(record);
      callbacks.push_back(
          FinalizeLocked(i, record.failure, expired, finished_at));
    }
    if (!callbacks.empty()) {
      lock.unlock();
      for (auto& cb : callbacks) cb();
      lock.lock();
      continue;
    }
    // Admission fills the free live slots with placeholders; their plans
    // and sessions are built off the lock, so other workers keep stepping
    // and Submit keeps queueing meanwhile. Once built, each is runnable,
    // or finished with its failed build's status.
    for (std::vector<Record*> admitted = AdmitLocked(); !admitted.empty();
         admitted = AdmitLocked()) {
      lock.unlock();
      PrepareAdmitted(admitted);
      lock.lock();
      for (Record* record : admitted) record->busy = false;
      cv_.notify_all();
    }
    const auto now = std::chrono::steady_clock::now();
    // A stopping worker starts no more work.
    Record* picked = (until_idle || !stopping_) ? PickLocked(now) : nullptr;
    if (picked == nullptr) {
      // Every live session is finished (answered next pass) or mid-quantum
      // on another thread, and queued requests (if any) wait for their
      // slots. Wake only when work can start: waking on a queue that has
      // no free slot would spin here holding mu_ and starve the threads
      // that would free one.
      if (until_idle && pending_.empty() && live_.empty()) return;
      cv_.wait(lock, [this, until_idle] {
        return HasWorkLocked() ||
               (until_idle ? pending_.empty() && live_.empty() : stopping_);
      });
      continue;
    }
    // A pick that may stop early steps one quantum. An `in_rounds` pick
    // means nothing that may stop early is runnable, so it heads a round.
    std::vector<Record*> round;
    if (picked->in_rounds) {
      round = ClaimRoundLocked(now);
    } else {
      picked->busy = true;
    }
    const uint64_t generation = preempt_generation_.load();
    lock.unlock();
    if (!round.empty()) {
      StepRound(round, generation);
    } else {
      StepQuantum(*picked);
    }
    lock.lock();
    picked->busy = false;
    for (Record* record : round) record->busy = false;
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
    preempt_generation_.fetch_add(1);
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (std::thread& t : workers) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  stopping_ = false;
}

}  // namespace wavebatch::server
