// The serving front end's contract: a request served through QueryService —
// admission queue, progress-aware scheduling, on the caller's thread or on
// worker threads — produces results bit-identical to an isolated
// EvalSession over the same plan and store, with identical per-session I/O
// accounting, across fault policies and store shapes (hash view, versioned
// plane). There is no hidden cache: the backend serves exactly the keys the
// sessions retrieve. Plus the serving-specific surface: deadline and
// target-bound completion, admission backpressure (queue depth and the
// thread-pool gauge), a writer publishing epochs under live traffic, the
// epoch a decorated versioned plane reports, more workers than live slots,
// one counted answer per accepted request even when its plan build fails
// or the service shuts down, answers that finish together going out in
// submission order, exact requests stepped together in rounds that
// progressive work and Stop() preempt, what /statusz reports, and how
// /tracez groups spans by request.

#include "server/query_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "server/introspection.h"
#include "storage/block_store.h"
#include "storage/fault_injection_store.h"
#include "storage/memory_store.h"
#include "storage/versioned_store.h"
#include "strategy/wavelet_strategy.h"
#include "telemetry/metrics.h"
#include "util/random.h"

namespace wavebatch {
namespace {

using server::QueryRequest;
using server::QueryResponse;
using server::QueryService;
using server::QueryServiceOptions;

/// The serving fixture: a 2×16 Haar cube from 600 tuples and a family of
/// small Count batches (distinct ranges per template id), SSE-ranked.
struct ServingFixture {
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy{schema, WaveletKind::kHaar};
  Relation rel;
  std::shared_ptr<const SsePenalty> sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const WaveletStrategy> shared_strategy;

  ServingFixture() : rel(MakeUniformRelation(schema, 600, 11)) {
    shared_strategy = std::make_shared<WaveletStrategy>(schema, WaveletKind::kHaar);
  }

  std::shared_ptr<const CoefficientStore> BuildView() const {
    return std::shared_ptr<const CoefficientStore>(
        strategy.BuildStore(rel.FrequencyDistribution()));
  }

  QueryBatch MakeBatch(uint64_t template_id, size_t queries = 6) const {
    QueryBatch batch(schema);
    Rng rng(1000 + template_id);
    for (size_t i = 0; i < queries; ++i) {
      uint32_t lo0 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi0 = lo0 + static_cast<uint32_t>(rng.UniformInt(16 - lo0));
      uint32_t lo1 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi1 = lo1 + static_cast<uint32_t>(rng.UniformInt(16 - lo1));
      batch.Add(RangeSumQuery::Count(
          Range::Create(schema, {{lo0, hi0}, {lo1, hi1}}).value()));
    }
    return batch;
  }
};

/// A versioned plane advanced past its base epoch, so sessions genuinely
/// pin a snapshot.
std::shared_ptr<const CoefficientStore> VersionedAtEpoch1(
    const ServingFixture& f) {
  auto versioned = std::make_shared<VersionedStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()));
  Relation stream = MakeUniformRelation(f.schema, 40, 91);
  for (const Tuple& t : stream.tuples()) {
    versioned->Ingest(f.strategy.TransformUpdate(t, 1.0).value());
  }
  EXPECT_EQ(versioned->Publish(), 1u);
  return versioned;
}

/// Forwards to an inner store and counts its full scans (ForEachNonZero
/// calls; SumAbs() is the inner store's O(1) read and is not one) and the
/// keys its counted read path serves.
class CountingStore : public CoefficientStore {
 public:
  explicit CountingStore(std::unique_ptr<CoefficientStore> inner)
      : inner_(std::move(inner)) {}

  double Peek(uint64_t key) const override { return inner_->Peek(key); }
  void Add(uint64_t key, double delta) override { inner_->Add(key, delta); }
  uint64_t NumNonZero() const override { return inner_->NumNonZero(); }
  double SumAbs() const override { return inner_->SumAbs(); }
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override {
    ++scans_;
    inner_->ForEachNonZero(fn);
  }
  std::string name() const override { return inner_->name(); }

  uint64_t scans() const { return scans_.load(); }
  uint64_t keys() const { return keys_.load(); }

 protected:
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override {
    keys_ += keys.size();
    return DelegateFetchBatch(*inner_, keys, out, io);
  }

 private:
  std::unique_ptr<CoefficientStore> inner_;
  mutable std::atomic<uint64_t> scans_{0};
  mutable std::atomic<uint64_t> keys_{0};
};

/// Forwards to an inner store and counts its DoFetchBatch calls (one per
/// quantum), except that the first call waits until the gate opens: on
/// Open(), or, with `open_on_another_thread`, when a call arrives from a
/// thread other than the waiting one. The wait gives up after 10 s, so a
/// service that never opens the gate fails a test instead of hanging it.
class GatedStore : public CoefficientStore {
 public:
  GatedStore(std::unique_ptr<CoefficientStore> inner,
             bool open_on_another_thread)
      : inner_(std::move(inner)),
        open_on_another_thread_(open_on_another_thread) {}

  double Peek(uint64_t key) const override { return inner_->Peek(key); }
  void Add(uint64_t key, double delta) override { inner_->Add(key, delta); }
  uint64_t NumNonZero() const override { return inner_->NumNonZero(); }
  double SumAbs() const override { return inner_->SumAbs(); }
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override {
    inner_->ForEachNonZero(fn);
  }
  std::string name() const override { return inner_->name(); }

  /// Blocks until the first call is waiting at the gate (at most 10 s).
  bool AwaitWaiting() const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return waiting_; });
  }
  void Open() const {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  /// True when the first call stopped waiting because 10 s passed.
  bool timed_out() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timed_out_;
  }
  uint64_t fetch_batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fetch_batches_;
  }

 protected:
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++fetch_batches_;
      const std::thread::id self = std::this_thread::get_id();
      if (fetch_batches_ == 1) {
        first_ = self;
        waiting_ = true;
        cv_.notify_all();
        timed_out_ = !cv_.wait_for(lock, std::chrono::seconds(10),
                                   [this] { return open_; });
        waiting_ = false;
      } else if (open_on_another_thread_ && self != first_) {
        open_ = true;
        cv_.notify_all();
      }
    }
    return DelegateFetchBatch(*inner_, keys, out, io);
  }

 private:
  std::unique_ptr<CoefficientStore> inner_;
  const bool open_on_another_thread_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable uint64_t fetch_batches_ = 0;
  mutable std::thread::id first_;
  mutable bool waiting_ = false;
  mutable bool open_ = false;
  mutable bool timed_out_ = false;
};

std::unique_ptr<HashStore> HashCopy(const CoefficientStore& source) {
  auto copy = std::make_unique<HashStore>();
  source.ForEachNonZero(
      [&copy](uint64_t key, double value) { copy->Add(key, value); });
  return copy;
}

/// Submits every request, then serves them: on this thread through
/// RunUntilIdle() when `workers` is 0, else on that many worker threads.
/// Responses land at the index of their request. Workers that do not answer
/// every request within 30 s fail the test and abort it: a hung service
/// cannot be torn down, since its destructor joins the workers.
std::vector<QueryResponse> Serve(QueryService& service,
                                 const std::vector<QueryRequest>& requests,
                                 size_t workers = 0) {
  std::vector<QueryResponse> responses(requests.size());
  std::mutex mu;
  std::condition_variable cv;
  size_t admitted = 0;
  size_t answered = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    Status status = service.Submit(requests[i], [&, i](QueryResponse r) {
      std::lock_guard<std::mutex> lock(mu);
      responses[i] = std::move(r);
      ++answered;
      cv.notify_all();
    });
    EXPECT_TRUE(status.ok()) << status;
    if (status.ok()) ++admitted;
  }
  if (workers == 0) {
    service.RunUntilIdle();
    return responses;
  }
  service.Start(workers);
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(30),
                     [&] { return answered == admitted; })) {
      ADD_FAILURE() << workers << " workers answered " << answered << " of "
                    << admitted << " requests within 30 s";
      std::fflush(stdout);
      std::abort();
    }
  }
  service.Stop();
  return responses;
}

/// The reference: the same request on a private session over the same
/// store, in the order the service serves it (biggest-B if and only if the
/// request has a penalty and a target or a deadline, else key order),
/// stepped by the same quantum, run to exactness.
QueryResponse Isolated(const QueryRequest& request,
                       std::shared_ptr<const CoefficientStore> store,
                       const LinearStrategy& strategy, size_t quantum) {
  auto plan =
      EvalPlan::Build(request.batch, strategy, request.penalty).value();
  const bool progressive =
      request.penalty != nullptr &&
      (request.target_bound > 0.0 || request.deadline.count() > 0);
  EvalSession::Options options;
  options.order = progressive ? ProgressionOrder::kBiggestB
                              : ProgressionOrder::kKeyOrder;
  options.fault_policy = request.fault_policy;
  EvalSession session(plan, std::move(store), options);
  while (!session.Done()) {
    Result<size_t> stepped = session.StepBatch(quantum);
    if (!stepped.ok()) break;  // kFail on a faulty store: stop like a server
  }
  QueryResponse response;
  response.estimates = session.Estimates();
  response.steps_taken = session.StepsTaken();
  response.total_steps = session.TotalSteps();
  response.skipped_coefficients = session.SkippedCoefficients();
  response.io = session.io();
  return response;
}

void ExpectBitIdentical(const QueryResponse& served,
                        const QueryResponse& isolated, const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(served.estimates.size(), isolated.estimates.size());
  for (size_t q = 0; q < served.estimates.size(); ++q) {
    EXPECT_EQ(served.estimates[q], isolated.estimates[q]) << "query " << q;
  }
  EXPECT_EQ(served.steps_taken, isolated.steps_taken);
  EXPECT_EQ(served.total_steps, isolated.total_steps);
  EXPECT_EQ(served.skipped_coefficients, isolated.skipped_coefficients);
  EXPECT_EQ(served.io, isolated.io);
}

/// The raw text of field `key` in a JSON rendering (up to the next ',' or
/// '}'), from its first occurrence; empty when absent.
std::string JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  return json.substr(begin, json.find_first_of(",}", begin) - begin);
}

/// N clients × both fault policies over one healthy store: bit-identical to
/// isolated evaluation, including io(), whether RunUntilIdle() (`workers`
/// 0) or that many worker threads serve them.
void GoldenAgainstIsolated(std::shared_ptr<const CoefficientStore> store,
                           const ServingFixture& f, const char* label,
                           size_t workers) {
  SCOPED_TRACE(label);
  constexpr size_t kQuantum = 16;
  QueryServiceOptions options;
  options.max_live_sessions = 16;
  options.default_quantum = kQuantum;
  QueryService service(store, f.shared_strategy, options);

  std::vector<QueryRequest> requests;
  for (uint64_t t = 0; t < 3; ++t) {
    for (FaultPolicy policy : {FaultPolicy::kFail, FaultPolicy::kSkip}) {
      QueryRequest request(f.MakeBatch(t));
      request.penalty = f.sse;
      request.fault_policy = policy;
      requests.push_back(std::move(request));
    }
  }
  std::vector<QueryResponse> responses = Serve(service, requests, workers);

  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(responses[i].status.ok()) << responses[i].status;
    EXPECT_TRUE(responses[i].exact);
    QueryResponse reference =
        Isolated(requests[i], store, f.strategy, kQuantum);
    ExpectBitIdentical(responses[i], reference,
                       ("request " + std::to_string(i)).c_str());
  }
}

TEST(QueryServiceGolden, MatchesIsolatedSessionsUnsharded) {
  ServingFixture f;
  GoldenAgainstIsolated(f.BuildView(), f, "unsharded hash view", 0);
}

TEST(QueryServiceGolden, MatchesIsolatedSessionsVersioned) {
  ServingFixture f;
  GoldenAgainstIsolated(VersionedAtEpoch1(f), f, "versioned plane at epoch 1",
                        0);
}

TEST(QueryServiceGolden, MatchesIsolatedSessionsUnshardedUnderWorkers) {
  ServingFixture f;
  GoldenAgainstIsolated(f.BuildView(), f, "unsharded hash view, 2 workers",
                        2);
}

TEST(QueryServiceGolden, MatchesIsolatedSessionsVersionedUnderWorkers) {
  ServingFixture f;
  GoldenAgainstIsolated(VersionedAtEpoch1(f), f,
                        "versioned plane at epoch 1, 2 workers", 2);
}

/// No hidden cache: 8 identical clients over one store are each
/// bit-identical to an isolated session, and the backend serves exactly
/// the keys the sessions retrieve — no request's fetch serves another.
TEST(QueryServiceGolden, MatchesIsolatedSessionsWithNoHiddenCache) {
  ServingFixture f;
  auto store = std::make_shared<CountingStore>(HashCopy(*f.BuildView()));
  constexpr size_t kClients = 8;
  constexpr size_t kQuantum = 16;
  QueryRequest request(f.MakeBatch(7));
  request.penalty = f.sse;
  const QueryResponse reference =
      Isolated(request, store, f.strategy, kQuantum);
  ASSERT_GT(reference.io.retrievals, 0u);
  const uint64_t isolated_keys = store->keys();

  QueryServiceOptions options;
  options.max_live_sessions = kClients;
  options.default_quantum = kQuantum;
  QueryService service(store, f.shared_strategy, options);
  std::vector<QueryResponse> responses =
      Serve(service, std::vector<QueryRequest>(kClients, request));
  uint64_t retrievals = 0;
  for (size_t i = 0; i < kClients; ++i) {
    EXPECT_TRUE(responses[i].status.ok()) << responses[i].status;
    ExpectBitIdentical(responses[i], reference,
                       ("client " + std::to_string(i)).c_str());
    retrievals += responses[i].io.retrievals;
  }
  EXPECT_EQ(store->keys() - isolated_keys, retrievals)
      << "the backend must serve exactly the keys the sessions retrieve";
}

/// A plan depends only on the batch, strategy and penalty, so the one plan
/// cached at the first epoch serves the next: after ingest + publish the
/// same batch is a cache hit, and its answer reflects the new tuples.
TEST(QueryServiceEpochs, OneCachedPlanServesEveryEpoch) {
  ServingFixture f;
  auto versioned = std::make_shared<VersionedStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()));
  QueryService service(versioned, f.shared_strategy);

  QueryRequest request(f.MakeBatch(0));
  request.penalty = f.sse;
  const QueryResponse before = Serve(service, {request})[0];
  ASSERT_TRUE(before.status.ok()) << before.status;

  Relation seen = f.rel;
  const Relation stream = MakeUniformRelation(f.schema, 40, 91);
  for (const Tuple& t : stream.tuples()) {
    versioned->Ingest(f.strategy.TransformUpdate(t, 1.0).value());
    seen.Add(t);
  }
  ASSERT_EQ(versioned->Publish(), 1u);
  const QueryResponse after = Serve(service, {request})[0];
  ASSERT_TRUE(after.status.ok()) << after.status;

  EXPECT_EQ(service.plan_cache().misses(), 1u);
  EXPECT_EQ(service.plan_cache().hits(), 1u);
  EXPECT_EQ(before.epoch, 0u);
  EXPECT_EQ(after.epoch, 1u);
  ASSERT_TRUE(after.exact);
  const std::vector<double> old_truth = request.batch.BruteForce(f.rel);
  const std::vector<double> truth = request.batch.BruteForce(seen);
  ASSERT_EQ(after.estimates.size(), truth.size());
  ASSERT_NE(truth, old_truth) << "the ingest must change some answer";
  for (size_t q = 0; q < truth.size(); ++q) {
    EXPECT_NEAR(after.estimates[q], truth[q], 1e-6) << "query " << q;
  }
}

/// The service keeps no pin of its own: each admission's session pins the
/// store's current version. So a service over a VersionedStore with
/// default options and nothing wired serves an epoch from the first
/// admission after its Publish(), while a service built over a snapshot
/// keeps serving that snapshot's epoch through later publishes.
TEST(QueryServiceEpochs, AdmissionsServeTheLatestPublishedEpoch) {
  ServingFixture f;
  auto versioned = std::make_shared<VersionedStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()));
  QueryService service(versioned, f.shared_strategy);
  QueryRequest request(f.MakeBatch(2));
  request.penalty = f.sse;
  auto expect_answers = [&request](const QueryResponse& response,
                                   const Relation& seen) {
    ASSERT_TRUE(response.status.ok()) << response.status;
    ASSERT_TRUE(response.exact);
    const std::vector<double> truth = request.batch.BruteForce(seen);
    ASSERT_EQ(response.estimates.size(), truth.size());
    for (size_t q = 0; q < truth.size(); ++q) {
      EXPECT_NEAR(response.estimates[q], truth[q], 1e-6) << "query " << q;
    }
  };
  const QueryResponse first = Serve(service, {request})[0];
  EXPECT_EQ(first.epoch, 0u);
  expect_answers(first, f.rel);

  Relation seen = f.rel;
  const Relation stream = MakeUniformRelation(f.schema, 80, 95);
  auto ingest = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Tuple& t = stream.tuples()[i];
      versioned->Ingest(f.strategy.TransformUpdate(t, 1.0).value());
      seen.Add(t);
    }
  };
  ingest(0, 40);
  ASSERT_NE(request.batch.BruteForce(seen), request.batch.BruteForce(f.rel))
      << "the ingest must change some answer";
  ASSERT_EQ(versioned->Publish(), 1u);
  const QueryResponse second = Serve(service, {request})[0];
  EXPECT_EQ(second.epoch, 1u);
  EXPECT_EQ(service.epoch(), 1u);
  expect_answers(second, seen);

  // A service over the epoch-1 snapshot: that snapshot is its own version.
  QueryService frozen(versioned->Snapshot(), f.shared_strategy);
  const Relation at_epoch1 = seen;
  ingest(40, 80);
  ASSERT_NE(request.batch.BruteForce(seen),
            request.batch.BruteForce(at_epoch1));
  ASSERT_EQ(versioned->Publish(), 2u);
  const QueryResponse pinned = Serve(frozen, {request})[0];
  EXPECT_EQ(pinned.epoch, 1u);
  EXPECT_EQ(frozen.epoch(), 1u);
  expect_answers(pinned, at_epoch1);
  const QueryResponse latest = Serve(service, {request})[0];
  EXPECT_EQ(latest.epoch, 2u);
  expect_answers(latest, seen);
}

/// The epoch travels with the pinned store. A FaultInjectionStore or a
/// BlockStore over a versioned plane pins by re-wrapping the published
/// snapshot and forwards its epoch(), so a request served through either
/// reports the published epoch 1 in its response, in service.epoch() and
/// on /statusz, and is answered like one served by the bare plane.
TEST(QueryServiceEpochs, DecoratedPlaneReportsItsEpoch) {
  ServingFixture f;
  const Relation stream = MakeUniformRelation(f.schema, 10, 97);
  auto publish_epoch1 = [&](VersionedStore& plane) {
    for (const Tuple& t : stream.tuples()) {
      plane.Ingest(f.strategy.TransformUpdate(t, 1.0).value());
    }
    ASSERT_EQ(plane.Publish(), 1u);
  };
  auto new_plane = [&f] {
    return std::make_unique<VersionedStore>(
        f.strategy.BuildStore(f.rel.FrequencyDistribution()));
  };
  QueryRequest request(f.MakeBatch(4));
  request.penalty = f.sse;

  std::shared_ptr<VersionedStore> bare = new_plane();
  publish_epoch1(*bare);
  QueryService bare_service(bare, f.shared_strategy);
  const QueryResponse reference = Serve(bare_service, {request})[0];
  ASSERT_TRUE(reference.status.ok()) << reference.status;
  ASSERT_TRUE(reference.exact);
  ASSERT_EQ(reference.epoch, 1u);

  auto expect_epoch1 = [&](std::shared_ptr<const CoefficientStore> store) {
    SCOPED_TRACE(store->name());
    QueryService service(std::move(store), f.shared_strategy);
    const QueryResponse response = Serve(service, {request})[0];
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(response.epoch, 1u);
    EXPECT_EQ(service.epoch(), 1u);
    const std::string json = server::StatuszJson(service);
    EXPECT_EQ(JsonField(json, "epoch"), "1") << json;
    EXPECT_EQ(response.estimates, reference.estimates);
  };

  expect_epoch1(std::make_shared<FaultInjectionStore>(bare.get()));

  // The BlockStore owns its plane: publish through a pointer kept to it.
  std::unique_ptr<VersionedStore> owned = new_plane();
  VersionedStore* block_plane = owned.get();
  auto block = std::make_shared<BlockStore>(std::move(owned),
                                            /*block_size=*/8,
                                            /*cache_blocks=*/0);
  publish_epoch1(*block_plane);
  expect_epoch1(block);
}

/// K is the store's own O(1) read: constructing the service, serving
/// requests and reading the current version's K and epoch perform no full
/// scan of the store, and every admission reads the store's K.
TEST(QueryServiceEpochs, KIsReadOncePerPinGeneration) {
  ServingFixture f;
  auto store = std::make_shared<CountingStore>(HashCopy(*f.BuildView()));
  QueryService service(store, f.shared_strategy);
  EXPECT_EQ(store->scans(), 0u) << "construction must not scan";

  auto serve_requests = [&](uint64_t requests) {
    for (uint64_t t = 0; t < requests; ++t) {
      QueryRequest request(f.MakeBatch(t));
      request.penalty = f.sse;
      const QueryResponse response = Serve(service, {request})[0];
      ASSERT_TRUE(response.status.ok()) << response.status;
      EXPECT_EQ(service.live_sessions(), 0u) << "the request completed";
    }
  };
  serve_requests(3);
  EXPECT_EQ(store->scans(), 0u) << "serving must not scan";

  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.k_sum_abs(), store->SumAbs());
  serve_requests(2);
  EXPECT_EQ(store->scans(), 0u) << "reading K and serving must not scan";
  EXPECT_EQ(service.k_sum_abs(), store->SumAbs());
}

/// Over a versioned plane, neither publishing nor serving scans the base:
/// each published snapshot derives its K from its overlay, and admissions
/// read it.
TEST(QueryServiceEpochs, PublishesDoNotScanAndEachServedEpochScansOnce) {
  ServingFixture f;
  auto counting = std::make_unique<CountingStore>(HashCopy(*f.BuildView()));
  const CountingStore* base = counting.get();
  auto versioned = std::make_shared<VersionedStore>(std::move(counting));
  QueryService service(versioned, f.shared_strategy);
  EXPECT_EQ(base->scans(), 0u);

  const Relation stream = MakeUniformRelation(f.schema, 40, 91);
  auto ingest_and_publish = [&](size_t p) {
    for (size_t i = 10 * p; i < 10 * (p + 1); ++i) {
      versioned->Ingest(
          f.strategy.TransformUpdate(stream.tuples()[i], 1.0).value());
    }
    EXPECT_EQ(versioned->Publish(), p + 1);
  };
  for (size_t p = 0; p < 3; ++p) ingest_and_publish(p);
  EXPECT_EQ(base->scans(), 0u) << "publishing must not scan";

  for (size_t round = 0; round < 2; ++round) {
    for (uint64_t t = 0; t < 3; ++t) {
      QueryRequest request(f.MakeBatch(t));
      request.penalty = f.sse;
      const QueryResponse response = Serve(service, {request})[0];
      ASSERT_TRUE(response.status.ok()) << response.status;
      EXPECT_EQ(service.epoch(), 3 + round);
    }
    EXPECT_EQ(base->scans(), 0u) << "serving must not scan";
    EXPECT_EQ(service.k_sum_abs(), versioned->Snapshot()->SumAbs());
    if (round == 0) ingest_and_publish(3);
  }
}

/// A plain store mutated through Add() keeps its K current, and the next
/// admission reads it. After the mutation, a target-bound request reports
/// the bound of the mutated store's K — the one an isolated session
/// computes at the same step — and its brute-force SSE stays within it.
TEST(QueryServiceEpochs, RefreshAfterAddServesTheMutatedStoresBound) {
  ServingFixture f;
  std::shared_ptr<HashStore> store = HashCopy(*f.BuildView());
  QueryServiceOptions options;
  options.default_quantum = 4;
  QueryService service(store, f.shared_strategy, options);
  {
    // Serve once over the unmutated store.
    QueryRequest request(f.MakeBatch(1));
    request.penalty = f.sse;
    ASSERT_TRUE(Serve(service, {request})[0].status.ok());
  }
  const double k_before = store->SumAbs();

  Relation seen = f.rel;
  const Relation extra = MakeUniformRelation(f.schema, 200, 93);
  for (const Tuple& t : extra.tuples()) {
    const SparseVec delta = f.strategy.TransformUpdate(t, 1.0).value();
    for (const SparseEntry& e : delta) store->Add(e.key, e.value);
    seen.Add(t);
  }

  const double k = store->SumAbs();
  ASSERT_NE(k, k_before) << "the mutation must change K";
  auto plan = EvalPlan::Build(f.MakeBatch(2), f.strategy, f.sse).value();
  EvalSession probe(plan, store);
  QueryRequest request(f.MakeBatch(2));
  request.penalty = f.sse;
  request.target_bound = probe.WorstCaseBound(k) / 2;
  const QueryResponse response = Serve(service, {request})[0];
  ASSERT_TRUE(response.status.ok()) << response.status;
  ASSERT_LT(response.steps_taken, response.total_steps);

  while (probe.StepsTaken() < response.steps_taken) {
    ASSERT_TRUE(probe.StepBatch(options.default_quantum).ok());
  }
  ASSERT_EQ(probe.StepsTaken(), response.steps_taken);
  EXPECT_EQ(response.worst_case_bound, probe.WorstCaseBound(k));

  const std::vector<double> truth = request.batch.BruteForce(seen);
  ASSERT_EQ(response.estimates.size(), truth.size());
  double sse = 0.0;
  for (size_t q = 0; q < truth.size(); ++q) {
    const double e = response.estimates[q] - truth[q];
    sse += e * e;
  }
  EXPECT_LE(sse, response.worst_case_bound);
}

TEST(QueryServiceFaults, SkipPolicyMatchesIsolatedOverFaultyStore) {
  ServingFixture f;
  auto faulty = std::make_shared<FaultInjectionStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()));
  // A permanent key fault is deterministic regardless of fetch interleaving
  // — the right fault shape for a golden comparison.
  auto probe_plan = EvalPlan::Build(f.MakeBatch(2), f.strategy, f.sse).value();
  ASSERT_GT(probe_plan->size(), 0u);
  const uint64_t bad_key = probe_plan->list().keys()[0];
  faulty->FailKey(bad_key);

  constexpr size_t kQuantum = 16;
  QueryServiceOptions options;
  options.default_quantum = kQuantum;
  QueryService service(faulty, f.shared_strategy, options);

  QueryRequest request(f.MakeBatch(2));
  request.penalty = f.sse;
  request.fault_policy = FaultPolicy::kSkip;
  std::vector<QueryRequest> requests(4, request);
  std::vector<QueryResponse> responses = Serve(service, requests);

  QueryResponse reference = Isolated(request, faulty, f.strategy, kQuantum);
  EXPECT_GE(reference.skipped_coefficients, 1u);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(responses[i].status.ok()) << responses[i].status;
    EXPECT_FALSE(responses[i].exact);
    ExpectBitIdentical(responses[i], reference,
                       ("client " + std::to_string(i)).c_str());
  }
}

/// An exact request stopped by a kFail fault returns its key-order partial
/// estimates with a bound that covers their true error. The failed key is
/// where that matters: the first entry of the first quantum whose starting
/// state has a true SSE above K^α times the next entry's importance, so a
/// bound read off the next entry, instead of Theorem 1's max over the
/// unread entries, would undershoot. The data are Zipf-skewed: on the
/// fixture's uniform relation the next entry happens to cover the error at
/// every step of this batch.
TEST(QueryServiceFaults, InterruptedExactRequestReportsASoundBound) {
  ServingFixture f;
  const Relation skewed = MakeZipfRelation(f.schema, 300, 1.1, 7);
  constexpr size_t kQuantum = 4;
  QueryRequest request(f.MakeBatch(32));
  request.penalty = f.sse;
  const std::vector<double> truth = request.batch.BruteForce(skewed);
  auto sse_of = [&truth](const std::vector<double>& estimates) {
    double sse = 0.0;
    for (size_t q = 0; q < truth.size(); ++q) {
      const double e = estimates[q] - truth[q];
      sse += e * e;
    }
    return sse;
  };

  auto faulty = std::make_shared<FaultInjectionStore>(
      f.strategy.BuildStore(skewed.FrequencyDistribution()));
  const double k_alpha =
      std::pow(faulty->SumAbs(), f.sse->HomogeneityDegree());
  auto plan = EvalPlan::Build(request.batch, f.strategy, f.sse).value();
  EvalSession::Options key_order;
  key_order.order = ProgressionOrder::kKeyOrder;
  EvalSession probe(plan, faulty, key_order);
  while (!probe.Done() &&
         sse_of(probe.Estimates()) <= k_alpha * probe.NextImportance()) {
    ASSERT_TRUE(probe.StepBatch(kQuantum).ok());
  }
  ASSERT_FALSE(probe.Done())
      << "no quantum boundary where the next entry's importance undershoots";
  const uint64_t stopped_at = probe.StepsTaken();
  faulty->FailKey(plan->list().keys()[stopped_at]);

  QueryServiceOptions options;
  options.default_quantum = kQuantum;
  QueryService service(faulty, f.shared_strategy, options);
  const QueryResponse response = Serve(service, {request})[0];

  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(response.exact);
  ASSERT_EQ(response.steps_taken, stopped_at);
  EXPECT_GT(sse_of(response.estimates), k_alpha * probe.NextImportance());
  EXPECT_LE(sse_of(response.estimates), response.worst_case_bound);
}

TEST(QueryServiceProgress, TargetBoundCompletesEarlyWithValidBound) {
  ServingFixture f;
  auto store = f.BuildView();
  QueryServiceOptions options;
  options.default_quantum = 4;
  QueryService service(store, f.shared_strategy, options);

  // A target midway between start and zero: reachable, but not at step 0.
  auto plan = EvalPlan::Build(f.MakeBatch(1), f.strategy, f.sse).value();
  EvalSession probe(plan, store);
  const double start_bound = probe.WorstCaseBound(store->SumAbs());
  ASSERT_GT(start_bound, 0.0);

  QueryRequest request(f.MakeBatch(1));
  request.penalty = f.sse;
  request.target_bound = start_bound / 2;
  std::vector<QueryResponse> responses = Serve(service, {request});

  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status;
  EXPECT_FALSE(responses[0].deadline_expired);
  EXPECT_LE(responses[0].worst_case_bound, request.target_bound);
  EXPECT_LT(responses[0].steps_taken, responses[0].total_steps)
      << "the target bound should be reached before exactness";
  EXPECT_GT(responses[0].steps_taken, 0u);
}

TEST(QueryServiceProgress, ExpiredDeadlineReturnsProgressiveAnswer) {
  ServingFixture f;
  QueryServiceOptions options;
  options.default_quantum = 4;
  QueryService service(f.BuildView(), f.shared_strategy, options);

  QueryRequest request(f.MakeBatch(3));
  request.penalty = f.sse;
  request.deadline = std::chrono::microseconds(1);  // expired on admission
  std::vector<QueryResponse> responses = Serve(service, {request});

  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status;
  EXPECT_TRUE(responses[0].deadline_expired);
  EXPECT_FALSE(responses[0].exact);
  EXPECT_LT(responses[0].steps_taken, responses[0].total_steps);
  EXPECT_GT(responses[0].worst_case_bound, 0.0)
      << "an approximate answer still carries its Theorem-1 bound";
  EXPECT_EQ(responses[0].estimates.size(), 6u);
}

/// Exact requests (a penalty, no target, no deadline) rank below every
/// progressive one and run first-in first-out: a deadline request and a
/// target request submitted behind 8 exact ones complete first, in that
/// order (least slack first, then the target request's positive marginal),
/// and the exact ones follow in admission order, each bit-identical to an
/// isolated key-order session.
TEST(QueryServiceScheduling, ProgressiveRequestsOvertakeQueuedExactOnes) {
  ServingFixture f;
  auto store = f.BuildView();
  constexpr size_t kQuantum = 8;
  QueryServiceOptions options;
  options.max_live_sessions = 16;
  options.default_quantum = kQuantum;
  QueryService service(store, f.shared_strategy, options);

  std::vector<QueryRequest> requests;
  for (uint64_t t = 0; t < 8; ++t) {
    QueryRequest request(f.MakeBatch(t));
    request.penalty = f.sse;
    requests.push_back(std::move(request));
  }
  QueryRequest deadline(f.MakeBatch(8));
  deadline.penalty = f.sse;
  deadline.deadline = std::chrono::seconds(10);
  requests.push_back(std::move(deadline));
  QueryRequest target(f.MakeBatch(9));
  target.penalty = f.sse;
  auto target_plan = EvalPlan::Build(target.batch, f.strategy, f.sse).value();
  target.target_bound =
      EvalSession(target_plan, store).WorstCaseBound(store->SumAbs()) / 2;
  requests.push_back(std::move(target));

  std::vector<size_t> completion_order;
  std::vector<QueryResponse> responses(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(service
                    .Submit(requests[i],
                            [&, i](QueryResponse r) {
                              completion_order.push_back(i);
                              responses[i] = std::move(r);
                            })
                    .ok());
  }
  service.RunUntilIdle();

  EXPECT_EQ(completion_order,
            (std::vector<size_t>{8, 9, 0, 1, 2, 3, 4, 5, 6, 7}));
  for (const QueryResponse& r : responses) {
    EXPECT_TRUE(r.status.ok()) << r.status;
  }
  EXPECT_TRUE(responses[8].exact) << "10 s is ample at this size";
  EXPECT_FALSE(responses[8].deadline_expired);
  EXPECT_LE(responses[9].worst_case_bound, requests[9].target_bound);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(responses[i].exact);
    ExpectBitIdentical(responses[i],
                       Isolated(requests[i], store, f.strategy, kQuantum),
                       ("exact request " + std::to_string(i)).c_str());
  }
}

/// Two exact requests (a penalty, no target, no deadline) over distinct
/// fixture batches.
std::vector<QueryRequest> TwoExactRequests(const ServingFixture& f) {
  std::vector<QueryRequest> requests;
  for (uint64_t t = 0; t < 2; ++t) {
    QueryRequest request(f.MakeBatch(t));
    request.penalty = f.sse;
    requests.push_back(std::move(request));
  }
  return requests;
}

/// The first `count` responses are OK, exact, and bit-identical to their
/// requests' isolated key-order sessions over `store`.
void ExpectExactAsIsolated(const std::vector<QueryResponse>& responses,
                           const std::vector<QueryRequest>& requests,
                           size_t count,
                           std::shared_ptr<const CoefficientStore> store,
                           const ServingFixture& f, size_t quantum) {
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(responses[i].status.ok()) << responses[i].status;
    EXPECT_TRUE(responses[i].exact);
    ExpectBitIdentical(responses[i],
                       Isolated(requests[i], store, f.strategy, quantum),
                       ("exact request " + std::to_string(i)).c_str());
  }
}

/// Exact requests waiting together are stepped together: the first fetch
/// waits for a fetch from another thread, which only a round stepped on
/// the shared pool supplies (a lone stepping thread would wait out the
/// gate's 10 s). ThreadPool::Shared() has at least one worker, so this
/// holds on one core too.
TEST(QueryServiceScheduling, ExactRequestsStepConcurrently) {
  ServingFixture f;
  auto store = std::make_shared<GatedStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()),
      /*open_on_another_thread=*/true);
  constexpr size_t kQuantum = 8;
  QueryServiceOptions options;
  options.default_quantum = kQuantum;
  QueryService service(store, f.shared_strategy, options);

  const std::vector<QueryRequest> requests = TwoExactRequests(f);
  const std::vector<QueryResponse> responses = Serve(service, requests);

  EXPECT_FALSE(store->timed_out())
      << "the first fetch waited 10 s for a second stepping thread";
  ExpectExactAsIsolated(responses, requests, 2, store, f, kQuantum);
}

/// A progressive request submitted while a round steps preempts it within
/// one quantum: exact request 0's round stops after its gated first
/// quantum, the progressive request is served, and then requests 0 and 1,
/// which arrived during the round, run as the next one.
TEST(QueryServiceScheduling, ProgressiveRequestPreemptsARound) {
  ServingFixture f;
  auto store = std::make_shared<GatedStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()),
      /*open_on_another_thread=*/false);
  constexpr size_t kQuantum = 4;
  QueryServiceOptions options;
  options.default_quantum = kQuantum;
  QueryService service(store, f.shared_strategy, options);

  std::vector<QueryRequest> requests = TwoExactRequests(f);
  QueryRequest target(f.MakeBatch(2));
  target.penalty = f.sse;
  auto target_plan = EvalPlan::Build(target.batch, f.strategy, f.sse).value();
  target.target_bound =
      EvalSession(target_plan, store).WorstCaseBound(store->SumAbs()) / 2;
  requests.push_back(std::move(target));

  std::mutex mu;
  std::vector<size_t> completion_order;
  std::vector<QueryResponse> responses(requests.size());
  auto submit = [&](size_t i) {
    ASSERT_TRUE(service
                    .Submit(requests[i],
                            [&, i](QueryResponse r) {
                              std::lock_guard<std::mutex> lock(mu);
                              completion_order.push_back(i);
                              responses[i] = std::move(r);
                            })
                    .ok());
  };
  submit(0);
  std::thread scheduler([&] { service.RunUntilIdle(); });
  ASSERT_TRUE(store->AwaitWaiting());
  submit(1);
  submit(2);
  store->Open();
  scheduler.join();

  EXPECT_FALSE(store->timed_out());
  EXPECT_EQ(completion_order, (std::vector<size_t>{2, 0, 1}));
  EXPECT_TRUE(responses[2].status.ok()) << responses[2].status;
  EXPECT_LE(responses[2].worst_case_bound, requests[2].target_bound);
  ExpectExactAsIsolated(responses, requests, 2, store, f, kQuantum);
}

/// Stop() preempts a round: the worker leaves after the round's gated
/// quantum instead of stepping its members to the end, and a later
/// RunUntilIdle() finishes both requests as if never interrupted.
TEST(QueryServiceScheduling, StopPreemptsARound) {
  ServingFixture f;
  auto store = std::make_shared<GatedStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()),
      /*open_on_another_thread=*/false);
  constexpr size_t kQuantum = 4;
  QueryServiceOptions options;
  options.default_quantum = kQuantum;
  QueryService service(store, f.shared_strategy, options);

  const std::vector<QueryRequest> requests = TwoExactRequests(f);
  for (const QueryRequest& request : requests) {
    ASSERT_GT(EvalPlan::Build(request.batch, f.strategy, f.sse).value()->size(),
              2 * kQuantum)
        << "the gated request must need several quanta";
  }
  std::mutex mu;
  size_t answered = 0;
  std::vector<QueryResponse> responses(requests.size());
  auto submit = [&](size_t i) {
    ASSERT_TRUE(service
                    .Submit(requests[i],
                            [&, i](QueryResponse r) {
                              std::lock_guard<std::mutex> lock(mu);
                              responses[i] = std::move(r);
                              ++answered;
                            })
                    .ok());
  };
  submit(0);
  service.Start(1);
  ASSERT_TRUE(store->AwaitWaiting());
  submit(1);  // exact: it waits for the next round
  std::atomic<bool> stopping{false};
  std::thread stopper([&] {
    stopping.store(true);
    service.Stop();
  });
  while (!stopping.load()) std::this_thread::yield();
  // Stop() moves the preemption generation as soon as it takes the
  // uncontended service lock; give it ample time before the gated quantum
  // returns.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  store->Open();
  stopper.join();

  EXPECT_FALSE(store->timed_out());
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(answered, 0u);
  }
  EXPECT_EQ(store->fetch_batches(), 1u)
      << "the round stepped on after Stop() moved the generation";

  service.RunUntilIdle();
  ASSERT_EQ(answered, requests.size());
  ExpectExactAsIsolated(responses, requests, 2, store, f, kQuantum);
}

TEST(QueryServiceBackpressure, AdmissionQueueShedsBeyondDepth) {
  ServingFixture f;
  QueryServiceOptions options;
  options.max_queue_depth = 2;
  QueryService service(f.BuildView(), f.shared_strategy, options);

  QueryRequest request(f.MakeBatch(0));
  request.penalty = f.sse;
  std::atomic<int> callbacks{0};
  auto count = [&callbacks](QueryResponse) { callbacks.fetch_add(1); };
  EXPECT_TRUE(service.Submit(request, count).ok());
  EXPECT_TRUE(service.Submit(request, count).ok());
  Status shed = service.Submit(request, count);
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.sheds(), 1u);
  EXPECT_EQ(service.queue_depth(), 2u);

  service.RunUntilIdle();
  EXPECT_EQ(callbacks.load(), 2) << "shed requests never get a callback";
  EXPECT_EQ(service.completed(), 2u);
}

TEST(QueryServiceLifecycle, DestructorFailsOutstandingRequests) {
  ServingFixture f;
  QueryResponse last;
  int calls = 0;
  {
    QueryService service(f.BuildView(), f.shared_strategy);
    QueryRequest request(f.MakeBatch(4));
    request.penalty = f.sse;
    ASSERT_TRUE(service
                    .Submit(request,
                            [&](QueryResponse r) {
                              last = std::move(r);
                              ++calls;
                            })
                    .ok());
  }
  EXPECT_EQ(calls, 1) << "every admitted request gets exactly one callback";
  EXPECT_EQ(last.status.code(), StatusCode::kUnavailable);
  // The queued request is answered with the ids Submit minted for it.
  EXPECT_NE(last.request_id, 0u);
}

/// A request whose plan build fails is answered like any other: with the
/// build's status and the ids Submit minted, counted as a completion, and
/// its live slot goes to the next request.
TEST(QueryServiceLifecycle, FailedPlanBuildIsAnsweredLikeAnyRequest) {
  ServingFixture f;
  QueryServiceOptions options;
  options.max_live_sessions = 1;
  QueryService service(f.BuildView(), f.shared_strategy, options);

  // A 3-d batch against the 2-d strategy: its rewrite is rejected.
  const Schema wrong = Schema::Uniform(3, 16);
  QueryBatch bad(wrong);
  bad.Add(RangeSumQuery::Count(
      Range::Create(wrong, {{0, 3}, {0, 3}, {0, 3}}).value()));
  QueryRequest failing(std::move(bad));
  failing.penalty = f.sse;
  QueryRequest valid(f.MakeBatch(2));
  valid.penalty = f.sse;

  const std::vector<QueryResponse> responses =
      Serve(service, {failing, valid});
  const QueryResponse& failed = responses[0];
  EXPECT_EQ(failed.status.code(), StatusCode::kInvalidArgument)
      << failed.status;
  EXPECT_TRUE(failed.estimates.empty());
  EXPECT_EQ(failed.steps_taken, 0u);
  EXPECT_FALSE(failed.exact);
  EXPECT_NE(failed.request_id, 0u);

  EXPECT_TRUE(responses[1].status.ok()) << responses[1].status;
  EXPECT_TRUE(responses[1].exact);

  EXPECT_EQ(service.live_sessions(), 0u);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.completed(), 2u) << "a failed build is an answer too";
}

/// Answers that finish in one finalize pass go out oldest first: three
/// batches whose plan builds all fail are answered in submission order.
TEST(QueryServiceLifecycle, SimultaneousAnswersKeepSubmissionOrder) {
  ServingFixture f;
  QueryService service(f.BuildView(), f.shared_strategy);
  const Schema wrong = Schema::Uniform(3, 16);
  std::vector<size_t> order;
  for (size_t i = 0; i < 3; ++i) {
    QueryBatch bad(wrong);
    bad.Add(RangeSumQuery::Count(
        Range::Create(wrong, {{0, 3}, {0, 3}, {0, 3}}).value()));
    QueryRequest request(std::move(bad));
    request.penalty = f.sse;
    ASSERT_TRUE(
        service
            .Submit(request, [&order, i](QueryResponse) { order.push_back(i); })
            .ok());
  }
  service.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));
}

/// TSan stress: two workers serving, two client threads submitting, one
/// writer ingesting and publishing epochs into the VersionedStore the
/// service reads — the full serving read-write surface under the race
/// detector. Each admission pins the epoch current at that moment.
TEST(QueryServiceConcurrency, ServesUnderEpochChurn) {
  ServingFixture f;
  auto versioned = std::make_shared<VersionedStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()));

  QueryServiceOptions options;
  options.default_quantum = 8;
  options.max_live_sessions = 8;
  QueryService service(versioned, f.shared_strategy, options);
  service.Start(2);

  constexpr int kRequestsPerClient = 10;
  std::mutex mu;
  std::condition_variable cv;
  int completed = 0;
  int ok = 0;
  uint64_t max_epoch = 0;
  auto on_done = [&](QueryResponse r) {
    std::lock_guard<std::mutex> lock(mu);
    ++completed;
    if (r.status.ok()) ++ok;
    max_epoch = std::max(max_epoch, r.epoch);
    cv.notify_all();
  };

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    Relation stream = MakeUniformRelation(f.schema, 200, 5);
    size_t i = 0;
    while (!stop_writer.load(std::memory_order_relaxed)) {
      versioned->Ingest(
          f.strategy.TransformUpdate(stream.tuples()[i % 200], 1.0).value());
      if (i % 4 == 3) versioned->Publish();
      ++i;
      std::this_thread::yield();
    }
  });

  int admitted = 0;
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        QueryRequest request(f.MakeBatch(static_cast<uint64_t>(c * 100 + i)));
        request.penalty = f.sse;
        while (!service.Submit(request, on_done).ok()) {
          std::this_thread::yield();  // shed under load: retry
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  admitted = 2 * kRequestsPerClient;

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == admitted; });
  }
  stop_writer.store(true);
  writer.join();
  service.Stop();

  EXPECT_EQ(ok, admitted) << "every admitted request completes cleanly";
  EXPECT_LE(max_epoch, versioned->epoch()) << "served only published epochs";
  EXPECT_EQ(service.epoch(), versioned->epoch());
}

/// More workers than live slots: while the one slot is held by the worker
/// stepping it and requests are still queued, the other worker must sleep,
/// not spin holding the service lock (which would block the stepping
/// worker, Submit and Stop forever; Serve aborts the test after 30 s).
TEST(QueryServiceConcurrency, MoreWorkersThanLiveSlotsDrainsTheQueue) {
  ServingFixture f;
  FaultInjectionOptions slow;
  slow.latency = std::chrono::milliseconds(2);
  auto store = std::make_shared<FaultInjectionStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()), slow);
  QueryServiceOptions options;
  options.max_live_sessions = 1;
  options.default_quantum = 16;
  QueryService service(store, f.shared_strategy, options);

  std::vector<QueryRequest> requests;
  for (uint64_t t = 0; t < 4; ++t) {
    QueryRequest request(f.MakeBatch(t));
    request.penalty = f.sse;
    requests.push_back(std::move(request));
  }
  for (const QueryResponse& r : Serve(service, requests, /*workers=*/2)) {
    EXPECT_TRUE(r.status.ok()) << r.status;
    EXPECT_TRUE(r.exact);
  }
}

/// Forwards to an inner strategy, except that TransformQuery blocks on a
/// query labelled "latched" until Release(). The wait times out after 3 s,
/// so a service that builds plans under its lock (where Submit waits for
/// the build) fails a test instead of hanging it.
class LatchedStrategy : public LinearStrategy {
 public:
  explicit LatchedStrategy(std::shared_ptr<const LinearStrategy> inner)
      : LinearStrategy(inner->schema()), inner_(std::move(inner)) {}

  Result<SparseVec> TransformQuery(const RangeSumQuery& query) const override {
    if (query.label() == "latched") {
      std::unique_lock<std::mutex> lock(mu_);
      waiting_ = true;
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::seconds(3), [this] { return released_; });
      waiting_ = false;
      finished_ = true;
    }
    return inner_->TransformQuery(query);
  }
  std::unique_ptr<CoefficientStore> BuildStore(
      const DenseCube& delta) const override {
    return inner_->BuildStore(delta);
  }
  Result<SparseVec> TransformUpdate(const Tuple& tuple,
                                    double count) const override {
    return inner_->TransformUpdate(tuple, count);
  }
  std::string name() const override { return inner_->name(); }

  /// Blocks until a latched TransformQuery is waiting (at most 10 s).
  bool AwaitWaiting() const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return waiting_; });
  }
  /// True while a latched TransformQuery has neither been released nor
  /// timed out.
  bool Waiting() const {
    std::lock_guard<std::mutex> lock(mu_);
    return waiting_;
  }
  void Release() const {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  /// True once a latched TransformQuery has returned.
  bool Finished() const {
    std::lock_guard<std::mutex> lock(mu_);
    return finished_;
  }

 protected:
  std::unique_ptr<CoefficientStore> MakeEmptyStore() const override {
    return inner_->BuildStoreFromRelation(Relation(schema()));
  }

 private:
  std::shared_ptr<const LinearStrategy> inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool waiting_ = false;
  mutable bool released_ = false;
  mutable bool finished_ = false;
};

/// A plan build runs off the service lock: while one worker builds an
/// uncached plan, Submit still queues and the other worker serves a request
/// whose plan is cached, to completion.
TEST(QueryServiceConcurrency, CachedRequestIsServedWhileAnotherPlanBuilds) {
  ServingFixture f;
  auto latched = std::make_shared<LatchedStrategy>(f.shared_strategy);
  QueryService service(f.BuildView(), latched);
  QueryRequest cached(f.MakeBatch(1));
  cached.penalty = f.sse;
  ASSERT_TRUE(Serve(service, {cached}).front().status.ok());  // warms the cache

  QueryBatch slow_batch(f.schema);
  slow_batch.Add(RangeSumQuery::Count(
      Range::Create(f.schema, {{0, 15}, {0, 15}}).value(), "latched"));
  QueryRequest slow(std::move(slow_batch));
  slow.penalty = f.sse;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<QueryResponse> responses;  // in completion order
  auto record = [&](QueryResponse r) {
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(std::move(r));
    cv.notify_all();
  };
  service.Start(2);
  ASSERT_TRUE(service.Submit(slow, record).ok());
  ASSERT_TRUE(latched->AwaitWaiting());
  ASSERT_TRUE(service.Submit(cached, record).ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return !responses.empty(); }));
  }
  EXPECT_TRUE(latched->Waiting())
      << "the cached request was served only after the plan build stopped "
         "waiting";
  latched->Release();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return responses.size() == 2; }));
  }
  service.Stop();
  EXPECT_EQ(service.plan_cache().hits(), 1u);
  for (const QueryResponse& r : responses) {
    EXPECT_TRUE(r.status.ok()) << r.status;
    EXPECT_TRUE(r.exact);
  }
  EXPECT_EQ(responses.front().total_steps,
            EvalPlan::Build(cached.batch, f.strategy, f.sse).value()->size());
}

/// A finished round is answered before the scheduler admits what arrived
/// while it ran: request 1 is submitted during request 0's round, and its
/// plan build blocks until released, so request 0's answer must not wait
/// for that build.
TEST(QueryServiceScheduling, FinishedRoundIsAnsweredBeforeLaterPlanBuilds) {
  ServingFixture f;
  auto latched = std::make_shared<LatchedStrategy>(f.shared_strategy);
  auto store = std::make_shared<GatedStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()),
      /*open_on_another_thread=*/false);
  QueryService service(store, latched);
  QueryRequest first(f.MakeBatch(1));
  first.penalty = f.sse;
  QueryBatch slow_batch(f.schema);
  slow_batch.Add(RangeSumQuery::Count(
      Range::Create(f.schema, {{0, 15}, {0, 15}}).value(), "latched"));
  QueryRequest slow(std::move(slow_batch));
  slow.penalty = f.sse;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<QueryResponse> responses;  // in completion order
  bool first_before_build = false;
  ASSERT_TRUE(service
                  .Submit(first,
                          [&](QueryResponse r) {
                            const bool building = !latched->Finished();
                            std::lock_guard<std::mutex> lock(mu);
                            first_before_build = building;
                            responses.push_back(std::move(r));
                            cv.notify_all();
                          })
                  .ok());
  service.Start(1);
  ASSERT_TRUE(store->AwaitWaiting());
  ASSERT_TRUE(service
                  .Submit(slow,
                          [&](QueryResponse r) {
                            std::lock_guard<std::mutex> lock(mu);
                            responses.push_back(std::move(r));
                            cv.notify_all();
                          })
                  .ok());
  store->Open();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return !responses.empty(); }));
  }
  latched->Release();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return responses.size() == 2; }));
  }
  service.Stop();
  EXPECT_TRUE(first_before_build)
      << "the finished request was answered only after a later request's "
         "plan build";
  for (const QueryResponse& r : responses) {
    EXPECT_TRUE(r.status.ok()) << r.status;
    EXPECT_TRUE(r.exact);
  }
}

// ---------------------------------------------------------------------------
// Request-scoped tracing: the propagation goldens. With tracing on, every
// backend fetch span recorded while serving must carry the request
// attribution of some admitted request — across the store shapes the
// serving stack composes (a hash view and a versioned plane's pinned
// snapshot).

/// Serves three traced requests over `store` and asserts the golden:
/// responses carry minted ids + non-empty timelines, and every
/// store_fetch_batch span attributes to one of the admitted requests.
void ExpectFetchSpansAttributed(std::shared_ptr<const CoefficientStore> store,
                                const ServingFixture& f, const char* label) {
  SCOPED_TRACE(label);
  telemetry::MetricsRegistry::Enable();
  auto& registry = telemetry::MetricsRegistry::Default();
  registry.ResetValues();

  QueryServiceOptions options;
  options.default_quantum = 16;
  options.max_live_sessions = 8;
  QueryService service(store, f.shared_strategy, options);

  std::vector<QueryRequest> requests;
  for (uint64_t t = 0; t < 3; ++t) {
    QueryRequest request(f.MakeBatch(t));
    request.penalty = f.sse;
    requests.push_back(std::move(request));
  }
  std::vector<QueryResponse> responses = Serve(service, requests);

  std::unordered_set<uint64_t> request_ids;
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_NE(r.request_id, 0u);
    EXPECT_FALSE(r.timeline.empty());
    request_ids.insert(r.request_id);
  }
  EXPECT_EQ(request_ids.size(), requests.size()) << "ids must be distinct";

  size_t fetch_spans = 0;
  for (const telemetry::SpanEvent& span : registry.Spans()) {
    if (std::string_view(span.name) != "store_fetch_batch") continue;
    ++fetch_spans;
    EXPECT_TRUE(request_ids.count(span.request_id) > 0)
        << "backend fetch span not attributable to any admitted request "
           "(request_id="
        << span.request_id << ")";
  }
  EXPECT_GT(fetch_spans, 0u);
}

TEST(QueryServiceTracing, FetchSpansAttributedUnsharded) {
  ServingFixture f;
  ExpectFetchSpansAttributed(f.BuildView(), f, "unsharded hash view");
}

TEST(QueryServiceTracing, FetchSpansAttributedVersioned) {
  ServingFixture f;
  ExpectFetchSpansAttributed(VersionedAtEpoch1(f), f,
                             "versioned plane at epoch 1");
}

TEST(QueryServiceTracing, ConvergenceTimelineIsMonotoneAndFinal) {
  ServingFixture f;
  telemetry::MetricsRegistry::Enable();
  telemetry::MetricsRegistry::Default().ResetValues();

  QueryServiceOptions options;
  options.default_quantum = 8;  // many quanta -> many timeline points
  QueryService service(f.BuildView(), f.shared_strategy, options);

  QueryRequest request(f.MakeBatch(2));
  request.penalty = f.sse;
  std::vector<QueryResponse> responses = Serve(service, {request});
  const QueryResponse& r = responses[0];
  ASSERT_TRUE(r.status.ok()) << r.status;
  ASSERT_GE(r.timeline.size(), 2u);

  for (size_t i = 1; i < r.timeline.size(); ++i) {
    EXPECT_GE(r.timeline[i].steps, r.timeline[i - 1].steps);
    EXPECT_GE(r.timeline[i].retrievals, r.timeline[i - 1].retrievals);
    EXPECT_GE(r.timeline[i].elapsed_us, r.timeline[i - 1].elapsed_us);
    // An exact request walks key order, and its Theorem-1 bound (the max
    // importance over the unread entries) still only tightens.
    EXPECT_LE(r.timeline[i].bound, r.timeline[i - 1].bound + 1e-9);
  }
  // The forced completion point is the answer actually returned.
  const telemetry::TimelinePoint& last = r.timeline.back();
  EXPECT_EQ(last.steps, r.steps_taken);
  EXPECT_EQ(last.retrievals, r.io.retrievals);
  EXPECT_DOUBLE_EQ(last.bound, r.worst_case_bound);

  // The completed request's record is retained for /tracez.
  std::vector<QueryService::TimelineRecord> recent =
      service.RecentTimelines();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].request_id, r.request_id);
  EXPECT_TRUE(recent[0].ok);
  EXPECT_EQ(recent[0].points.size(), r.timeline.size());
}

TEST(QueryServiceTracing, DisabledTelemetryMintsNoIdsAndNoTimeline) {
  ServingFixture f;
  telemetry::MetricsRegistry::Disable();
  QueryServiceOptions options;
  options.default_quantum = 16;
  QueryService service(f.BuildView(), f.shared_strategy, options);

  QueryRequest request(f.MakeBatch(1));
  request.penalty = f.sse;
  std::vector<QueryResponse> responses = Serve(service, {request});
  telemetry::MetricsRegistry::Enable();

  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status;
  EXPECT_EQ(responses[0].request_id, 0u);
  EXPECT_TRUE(responses[0].timeline.empty());
  EXPECT_TRUE(service.RecentTimelines().empty());
}

/// TSan stress: the epoch-churn serving test with tracing active — workers
/// installing trace contexts, timeline sampling, and /statusz renders, all
/// racing a writer publishing epochs.
TEST(QueryServiceConcurrency, TracedServingUnderEpochChurn) {
  ServingFixture f;
  telemetry::MetricsRegistry::Enable();
  telemetry::MetricsRegistry::Default().ResetValues();

  auto versioned = std::make_shared<VersionedStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()));

  QueryServiceOptions options;
  options.default_quantum = 8;
  options.max_live_sessions = 8;
  QueryService service(versioned, f.shared_strategy, options);
  service.Start(2);

  constexpr int kRequests = 12;
  std::mutex mu;
  std::condition_variable cv;
  int completed = 0;
  int with_ids = 0;
  auto on_done = [&](QueryResponse r) {
    std::lock_guard<std::mutex> lock(mu);
    ++completed;
    if (r.status.ok() && r.request_id != 0 && !r.timeline.empty()) ++with_ids;
    cv.notify_all();
  };

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    Relation stream = MakeUniformRelation(f.schema, 200, 5);
    size_t i = 0;
    while (!stop_writer.load(std::memory_order_relaxed)) {
      versioned->Ingest(
          f.strategy.TransformUpdate(stream.tuples()[i % 200], 1.0).value());
      if (i % 4 == 3) versioned->Publish();
      ++i;
      std::this_thread::yield();
    }
  });
  // Introspection under load: snapshot accessors race the serving threads.
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      (void)server::StatuszJson(service);
      (void)service.RecentTimelines();
      (void)service.epoch();
      std::this_thread::yield();
    }
  });

  for (int i = 0; i < kRequests; ++i) {
    QueryRequest request(f.MakeBatch(static_cast<uint64_t>(i)));
    request.penalty = f.sse;
    while (!service.Submit(request, on_done).ok()) {
      std::this_thread::yield();
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == kRequests; });
  }
  stop_writer.store(true);
  writer.join();
  stop_reader.store(true);
  reader.join();
  service.Stop();

  EXPECT_EQ(with_ids, kRequests)
      << "every traced request completes with ids and a timeline";
}

/// /statusz reports Theorem 1's K of the store's current version from
/// construction on: the store's SumAbs() before the first request, and the
/// mutated store's SumAbs() after an Add() and after a later request. It
/// reports the epoch (0 for an unversioned store) and no pin generation.
TEST(QueryServiceIntrospection, StatuszReportsKOfTheCurrentGeneration) {
  ServingFixture f;
  std::shared_ptr<HashStore> store = HashCopy(*f.BuildView());
  QueryService service(store, f.shared_strategy);
  auto expect_k = [&](const char* when) {
    SCOPED_TRACE(when);
    const std::string json = server::StatuszJson(service);
    char k[32];
    std::snprintf(k, sizeof(k), "%.17g", store->SumAbs());
    EXPECT_EQ(JsonField(json, "k_sum_abs"), k) << json;
    EXPECT_EQ(service.k_sum_abs(), store->SumAbs());
  };
  expect_k("before the first request");
  ASSERT_GT(service.k_sum_abs(), 0.0);

  QueryRequest request(f.MakeBatch(0));
  request.penalty = f.sse;
  ASSERT_TRUE(Serve(service, {request})[0].status.ok());
  EXPECT_EQ(JsonField(server::StatuszJson(service), "completed"), "1");
  expect_k("after a request");

  const double k_before = store->SumAbs();
  store->Add(3, 1000.0);
  ASSERT_NE(store->SumAbs(), k_before);
  expect_k("after the store changed");

  ASSERT_TRUE(Serve(service, {request})[0].status.ok());
  expect_k("after a request over the changed store");
  const std::string json = server::StatuszJson(service);
  EXPECT_EQ(JsonField(json, "epoch"), "0") << json;
  EXPECT_EQ(json.find("\"generation\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"groups\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"shared_fetch\""), std::string::npos) << json;
}

/// /tracez groups spans by request id: each served request heads exactly
/// one group, and that group holds the request's submit marker and its
/// quanta.
TEST(QueryServiceIntrospection, TracezGroupsSpansByRequest) {
  ServingFixture f;
  telemetry::MetricsRegistry::Enable();
  telemetry::MetricsRegistry::Default().ResetValues();
  QueryServiceOptions options;
  options.default_quantum = 16;
  QueryService service(f.BuildView(), f.shared_strategy, options);

  std::vector<QueryRequest> requests;
  for (uint64_t t = 0; t < 2; ++t) {
    QueryRequest request(f.MakeBatch(t));
    request.penalty = f.sse;
    requests.push_back(std::move(request));
  }
  const std::vector<QueryResponse> responses = Serve(service, requests);
  const std::string json = server::TracezJson(&service);

  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status;
    ASSERT_NE(r.request_id, 0u);
    const std::string head = "{\"request_id\":" +
                             std::to_string(r.request_id) + ",\"spans\":[";
    const size_t at = json.find(head);
    ASSERT_NE(at, std::string::npos) << head << " in " << json;
    EXPECT_EQ(json.find(head, at + 1), std::string::npos)
        << "request " << r.request_id << " heads more than one group";
    // No span renders a ']', so the group's span list ends at the first
    // "]}" after its head.
    const size_t end = json.find("]}", at);
    ASSERT_NE(end, std::string::npos) << json;
    const std::string group = json.substr(at, end - at);
    EXPECT_NE(group.find("\"name\":\"request_submit\""), std::string::npos)
        << group;
    EXPECT_NE(group.find("\"name\":\"request_quantum\""), std::string::npos)
        << group;
  }
}

}  // namespace
}  // namespace wavebatch
