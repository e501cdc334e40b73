// The serving front end's contract: a request served through QueryService —
// admission queue, progress-aware scheduling, on the caller's thread or on
// worker threads — produces results bit-identical to an isolated
// EvalSession over the same plan and store, with identical per-session I/O
// accounting, across fault policies and store shapes (unsharded, sharded
// S=4, versioned). There is no hidden cache: over a FileStore the backend
// serves exactly the keys the sessions retrieve. Plus the serving-specific
// surface: deadline and target-bound completion, admission backpressure
// (queue depth and the thread-pool gauge), a writer publishing epochs under
// live traffic, more workers than live slots, and what /statusz reports.

#include "server/query_service.h"

#include <atomic>
#include <chrono>
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
#include "storage/fault_injection_store.h"
#include "storage/file_store.h"
#include "storage/key_router.h"
#include "storage/memory_store.h"
#include "storage/sharded_store.h"
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

/// The same coefficients in a sharded S=4 plane (uniform key ranges).
std::shared_ptr<const CoefficientStore> ShardedS4Copy(
    const CoefficientStore& source) {
  uint64_t max_key = 0;
  source.ForEachNonZero(
      [&](uint64_t key, double) { max_key = std::max(max_key, key); });
  const KeyRouter router = KeyRouter::Uniform(max_key + 1, 4);
  std::vector<std::unique_ptr<CoefficientStore>> shards;
  for (size_t s = 0; s < router.num_shards(); ++s) {
    shards.push_back(std::make_unique<HashStore>());
  }
  source.ForEachNonZero([&](uint64_t key, double value) {
    shards[router.ShardOf(key)]->Add(key, value);
  });
  return std::make_shared<ShardedStore>(std::move(shards), router);
}

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

/// Forwards to an inner store and counts its full scans — SumAbs() and
/// ForEachNonZero(), which is how a Theorem-1 K read shows up — and the
/// keys its counted read path serves.
class CountingStore : public CoefficientStore {
 public:
  explicit CountingStore(std::unique_ptr<CoefficientStore> inner)
      : inner_(std::move(inner)) {}

  double Peek(uint64_t key) const override { return inner_->Peek(key); }
  void Add(uint64_t key, double delta) override { inner_->Add(key, delta); }
  uint64_t NumNonZero() const override { return inner_->NumNonZero(); }
  double SumAbs() const override {
    ++scans_;
    return inner_->SumAbs();
  }
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

std::unique_ptr<HashStore> HashCopy(const CoefficientStore& source) {
  auto copy = std::make_unique<HashStore>();
  source.ForEachNonZero(
      [&copy](uint64_t key, double value) { copy->Add(key, value); });
  return copy;
}

/// The same coefficients in a FileStore (dense 16×16 key space) at `path`.
std::unique_ptr<FileStore> FileCopy(const CoefficientStore& source,
                                    const std::string& path) {
  std::vector<double> values(16 * 16, 0.0);
  source.ForEachNonZero(
      [&](uint64_t key, double value) { values[key] = value; });
  return FileStore::Create(path, values).value();
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
/// store, stepped by the same quantum, run to exactness.
QueryResponse Isolated(const QueryRequest& request,
                       std::shared_ptr<const CoefficientStore> store,
                       const LinearStrategy& strategy, size_t quantum) {
  auto plan =
      EvalPlan::Build(request.batch, strategy, request.penalty).value();
  EvalSession::Options options;
  options.order = request.penalty != nullptr ? ProgressionOrder::kBiggestB
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

TEST(QueryServiceGolden, MatchesIsolatedSessionsShardedS4) {
  ServingFixture f;
  GoldenAgainstIsolated(ShardedS4Copy(*f.BuildView()), f, "sharded S=4 plane",
                        0);
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

TEST(QueryServiceGolden, MatchesIsolatedSessionsShardedS4UnderWorkers) {
  ServingFixture f;
  GoldenAgainstIsolated(ShardedS4Copy(*f.BuildView()), f,
                        "sharded S=4 plane, 2 workers", 2);
}

TEST(QueryServiceGolden, MatchesIsolatedSessionsVersionedUnderWorkers) {
  ServingFixture f;
  GoldenAgainstIsolated(VersionedAtEpoch1(f), f,
                        "versioned plane at epoch 1, 2 workers", 2);
}

/// No hidden cache: 8 identical clients over one FileStore are each
/// bit-identical to an isolated session, and the backend serves exactly
/// the keys the sessions retrieve — no request's fetch serves another.
TEST(QueryServiceGolden, MatchesIsolatedSessionsOnFileStore) {
  ServingFixture f;
  auto file = std::make_shared<CountingStore>(
      FileCopy(*f.BuildView(),
               ::testing::TempDir() + "/wavebatch_query_service_store.bin"));
  constexpr size_t kClients = 8;
  constexpr size_t kQuantum = 16;
  QueryRequest request(f.MakeBatch(7));
  request.penalty = f.sse;
  const QueryResponse reference =
      Isolated(request, file, f.strategy, kQuantum);
  ASSERT_GT(reference.io.retrievals, 0u);
  const uint64_t isolated_keys = file->keys();

  QueryServiceOptions options;
  options.max_live_sessions = kClients;
  options.default_quantum = kQuantum;
  QueryService service(file, f.shared_strategy, options);
  std::vector<QueryResponse> responses =
      Serve(service, std::vector<QueryRequest>(kClients, request));
  uint64_t retrievals = 0;
  for (size_t i = 0; i < kClients; ++i) {
    EXPECT_TRUE(responses[i].status.ok()) << responses[i].status;
    ExpectBitIdentical(responses[i], reference,
                       ("client " + std::to_string(i)).c_str());
    retrievals += responses[i].io.retrievals;
  }
  EXPECT_EQ(file->keys() - isolated_keys, retrievals)
      << "the backend must serve exactly the keys the sessions retrieve";
}

/// A plan depends only on the batch, strategy and penalty, so the one plan
/// cached at the first epoch serves the next: after ingest + publish (with
/// on_publish -> RefreshEpoch) the same batch is a cache hit, and its
/// answer reflects the new tuples.
TEST(QueryServiceEpochs, OneCachedPlanServesEveryEpoch) {
  ServingFixture f;
  QueryService* service_ptr = nullptr;
  VersionedStoreOptions store_options;
  store_options.on_publish = [&service_ptr](uint64_t) {
    if (service_ptr != nullptr) service_ptr->RefreshEpoch();
  };
  auto versioned = std::make_shared<VersionedStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()), store_options);
  QueryService service(versioned, f.shared_strategy);
  service_ptr = &service;

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
  EXPECT_GT(after.generation, before.generation);
  ASSERT_TRUE(after.exact);
  const std::vector<double> old_truth = request.batch.BruteForce(f.rel);
  const std::vector<double> truth = request.batch.BruteForce(seen);
  ASSERT_EQ(after.estimates.size(), truth.size());
  ASSERT_NE(truth, old_truth) << "the ingest must change some answer";
  for (size_t q = 0; q < truth.size(); ++q) {
    EXPECT_NEAR(after.estimates[q], truth[q], 1e-6) << "query " << q;
  }
}

/// K belongs to a pin generation: the generation's first admission scans
/// the static store once, later admissions of that generation (each after
/// the previous request completed) reuse the value, and a re-pin only drops
/// it, so a generation that admits nothing never scans.
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
  EXPECT_EQ(store->scans(), 1u)
      << "a later admission must not rescan the store";

  service.RefreshEpoch();
  service.RefreshEpoch();
  EXPECT_EQ(store->scans(), 1u) << "a re-pin must not scan";
  serve_requests(2);
  EXPECT_EQ(store->scans(), 2u);
}

/// Over a versioned plane wired on_publish -> RefreshEpoch, publishing
/// never scans (the publisher's thread only re-pins), and an epoch that
/// serves several requests scans its snapshot once.
TEST(QueryServiceEpochs, PublishesDoNotScanAndEachServedEpochScansOnce) {
  ServingFixture f;
  auto counting = std::make_unique<CountingStore>(HashCopy(*f.BuildView()));
  const CountingStore* base = counting.get();
  QueryService* service_ptr = nullptr;
  VersionedStoreOptions store_options;
  store_options.on_publish = [&service_ptr](uint64_t) {
    if (service_ptr != nullptr) service_ptr->RefreshEpoch();
  };
  auto versioned =
      std::make_shared<VersionedStore>(std::move(counting), store_options);
  QueryService service(versioned, f.shared_strategy);
  service_ptr = &service;
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
    EXPECT_EQ(base->scans(), round + 1)
        << "one snapshot scan per served epoch";
    if (round == 0) ingest_and_publish(3);
  }
}

/// The plain-store contract: a store mutated through Add() after the
/// service pinned it needs RefreshEpoch(). After the refresh, a
/// target-bound request reports the bound of the mutated store's K — the
/// one an isolated session computes at the same step — and its brute-force
/// SSE stays within it.
TEST(QueryServiceEpochs, RefreshAfterAddServesTheMutatedStoresBound) {
  ServingFixture f;
  std::shared_ptr<HashStore> store = HashCopy(*f.BuildView());
  QueryServiceOptions options;
  options.default_quantum = 4;
  QueryService service(store, f.shared_strategy, options);
  {
    // Cache the unmutated store's K in this generation.
    QueryRequest request(f.MakeBatch(1));
    request.penalty = f.sse;
    ASSERT_TRUE(Serve(service, {request})[0].status.ok());
  }

  Relation seen = f.rel;
  const Relation extra = MakeUniformRelation(f.schema, 200, 93);
  for (const Tuple& t : extra.tuples()) {
    const SparseVec delta = f.strategy.TransformUpdate(t, 1.0).value();
    for (const SparseEntry& e : delta) store->Add(e.key, e.value);
    seen.Add(t);
  }
  service.RefreshEpoch();

  const double k = store->SumAbs();
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
}

/// TSan stress: two workers serving, two client threads submitting, one
/// writer ingesting and publishing epochs into the VersionedStore the
/// service reads, with on_publish wired to RefreshEpoch — the full serving
/// read-write surface under the race detector.
TEST(QueryServiceConcurrency, ServesUnderEpochChurn) {
  ServingFixture f;
  QueryService* service_ptr = nullptr;
  VersionedStoreOptions store_options;
  store_options.on_publish = [&service_ptr](uint64_t) {
    if (service_ptr != nullptr) service_ptr->RefreshEpoch();
  };
  auto versioned = std::make_shared<VersionedStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()), store_options);

  QueryServiceOptions options;
  options.default_quantum = 8;
  options.max_live_sessions = 8;
  QueryService service(versioned, f.shared_strategy, options);
  service_ptr = &service;
  service.Start(2);

  constexpr int kRequestsPerClient = 10;
  std::mutex mu;
  std::condition_variable cv;
  int completed = 0;
  int ok = 0;
  auto on_done = [&](QueryResponse r) {
    std::lock_guard<std::mutex> lock(mu);
    ++completed;
    if (r.status.ok()) ++ok;
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
  EXPECT_GE(service.generation(), 1u);
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

// ---------------------------------------------------------------------------
// Request-scoped tracing: the propagation goldens. With tracing on, every
// backend fetch span recorded while serving must carry the request
// attribution of some admitted request — across every store shape the
// serving stack composes (unsharded view, sharded scatter-gather whose
// sub-batches hop worker pools, a versioned plane's pinned snapshot, and a
// FileStore).

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
    EXPECT_NE(r.trace_id, 0u);
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
    EXPECT_NE(span.trace_id, 0u);
  }
  EXPECT_GT(fetch_spans, 0u);
}

TEST(QueryServiceTracing, FetchSpansAttributedUnsharded) {
  ServingFixture f;
  ExpectFetchSpansAttributed(f.BuildView(), f, "unsharded hash view");
}

TEST(QueryServiceTracing, FetchSpansAttributedShardedS4) {
  ServingFixture f;
  ExpectFetchSpansAttributed(ShardedS4Copy(*f.BuildView()), f,
                             "sharded S=4 plane");

  // The scatter-gather legs crossed pool threads under the installed
  // context: shard sub-batch spans attribute too, with their shard ids.
  size_t subbatches = 0;
  for (const telemetry::SpanEvent& span :
       telemetry::MetricsRegistry::Default().Spans()) {
    if (std::string_view(span.name) != "shard_subbatch") continue;
    ++subbatches;
    EXPECT_NE(span.request_id, 0u);
    ASSERT_GE(span.num_attrs, 1u);
    EXPECT_EQ(std::string_view(span.attrs[0].key), "shard");
  }
  EXPECT_GT(subbatches, 0u);
}

TEST(QueryServiceTracing, FetchSpansAttributedVersioned) {
  ServingFixture f;
  ExpectFetchSpansAttributed(VersionedAtEpoch1(f), f,
                             "versioned plane at epoch 1");
}

TEST(QueryServiceTracing, FetchSpansAttributedFileStoreSharing) {
  ServingFixture f;
  ExpectFetchSpansAttributed(
      FileCopy(*f.BuildView(),
               ::testing::TempDir() + "/wavebatch_tracing_store.bin"),
      f, "file store");
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
    // Importance-ordered progression: the Theorem-1 bound only tightens.
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
  EXPECT_EQ(recent[0].trace_id, r.trace_id);
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
  EXPECT_EQ(responses[0].trace_id, 0u);
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

  QueryService* service_ptr = nullptr;
  VersionedStoreOptions store_options;
  store_options.on_publish = [&service_ptr](uint64_t) {
    if (service_ptr != nullptr) service_ptr->RefreshEpoch();
  };
  auto versioned = std::make_shared<VersionedStore>(
      f.strategy.BuildStore(f.rel.FrequencyDistribution()), store_options);

  QueryServiceOptions options;
  options.default_quantum = 8;
  options.max_live_sessions = 8;
  QueryService service(versioned, f.shared_strategy, options);
  service_ptr = &service;
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

/// The raw text of field `key` in a JSON rendering (up to the next ',' or
/// '}'), from its first occurrence; empty when absent.
std::string JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  return json.substr(begin, json.find_first_of(",}", begin) - begin);
}

/// /statusz reports Theorem 1's K of the current generation: null until the
/// generation's first admission reads it, the store's SumAbs() once a
/// request was served, and null again after a re-pin, which bumps the
/// generation.
TEST(QueryServiceIntrospection, StatuszReportsKOfTheCurrentGeneration) {
  ServingFixture f;
  auto store = f.BuildView();
  QueryService service(store, f.shared_strategy);
  const uint64_t generation = service.generation();
  std::string json = server::StatuszJson(service);
  EXPECT_EQ(JsonField(json, "k_sum_abs"), "null") << json;
  EXPECT_FALSE(service.k_sum_abs().has_value());

  QueryRequest request(f.MakeBatch(0));
  request.penalty = f.sse;
  ASSERT_TRUE(Serve(service, {request})[0].status.ok());
  json = server::StatuszJson(service);
  char k[32];
  std::snprintf(k, sizeof(k), "%.17g", store->SumAbs());
  EXPECT_EQ(JsonField(json, "k_sum_abs"), k) << json;
  EXPECT_EQ(JsonField(json, "completed"), "1") << json;
  EXPECT_EQ(service.k_sum_abs(), store->SumAbs());

  service.RefreshEpoch();
  json = server::StatuszJson(service);
  EXPECT_EQ(JsonField(json, "k_sum_abs"), "null") << json;
  EXPECT_EQ(JsonField(json, "generation"), std::to_string(generation + 1))
      << json;
  EXPECT_EQ(json.find("\"groups\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"shared_fetch\""), std::string::npos) << json;
}

}  // namespace
}  // namespace wavebatch
