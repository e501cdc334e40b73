// The versioned coefficient plane's contract: ingests are invisible until
// published, published epochs are immutable (a pinned snapshot is immune to
// every later ingest and merge), a merge is bitwise invisible to quiescent
// readers and never blocks them, and an interleaved insert/query schedule
// is bit-identical — estimates, bounds, I/O, and skip accounting — to a
// plane rebuilt by replaying the same event log to the pinned epoch, across
// all progression orders and both fault policies.

#include "storage/versioned_store.h"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "server/query_service.h"
#include "storage/dense_store.h"
#include "storage/fault_injection_store.h"
#include "storage/memory_store.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

/// Ingests consolidate per key into the active overlay, and a publish seals
/// an immutable copy of it: later writes do not leak into the seal, and a
/// merge drains the active overlay.
TEST(VersionedStoreTest, ConsolidatesPerKeyAndSealsImmutably) {
  VersionedStore store(std::make_unique<HashStore>());
  EXPECT_EQ(store.delta_entries(), 0u);
  EXPECT_EQ(store.Publish(), 1u);
  EXPECT_EQ(store.Snapshot()->overlay(), nullptr) << "nothing to seal";

  store.Ingest(SparseVec::FromSorted({{1, 0.5}, {2, 1.0}}));
  store.Ingest(SparseVec::FromSorted({{2, 0.25}, {7, -3.0}}));
  EXPECT_EQ(store.delta_entries(), 3u);

  EXPECT_EQ(store.Publish(), 2u);
  const std::shared_ptr<const SnapshotStore> sealed = store.Snapshot();
  ASSERT_NE(sealed->overlay(), nullptr);
  const DeltaOverlay& overlay = *sealed->overlay();
  EXPECT_EQ(overlay.size(), 3u);
  EXPECT_EQ(overlay.adds.at(1), 0.5);
  EXPECT_EQ(overlay.adds.at(2), 1.25);
  EXPECT_EQ(overlay.adds.at(7), -3.0);
  EXPECT_EQ(overlay.adds.count(99), 0u);

  // The seal is a snapshot: later writes don't leak into it.
  store.Add(1, 10.0);
  EXPECT_EQ(overlay.adds.at(1), 0.5);
  EXPECT_EQ(sealed->Peek(1), 0.5);

  store.Merge();
  EXPECT_EQ(store.delta_entries(), 0u);
  store.Publish();
  EXPECT_EQ(store.Snapshot()->overlay(), nullptr)
      << "the merge drained the active overlay";
}

/// A publish while a merge folds seals merging ⊕ active: per key, the
/// merging overlay's summed add first, then the active one's. It seals
/// even with an empty active overlay, since the merging overlay is part of
/// every published view until the merge swaps the base.
TEST(VersionedStoreTest, SealComposesOnTopOfAMergingOverlay) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool release = false;
  VersionedStoreOptions options;
  options.merge_fn = [&](const CoefficientStore& base,
                         const DeltaOverlay& overlay) {
    {
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return release; });
    }
    auto merged = std::make_unique<HashStore>();
    base.ForEachNonZero(
        [&](uint64_t key, double value) { merged->Add(key, value); });
    for (const auto& [key, value] : overlay.adds) merged->Add(key, value);
    return merged;
  };
  VersionedStore store(std::make_unique<HashStore>(), options);
  store.Ingest(SparseVec::FromSorted({{1, 1.0}, {2, 2.0}}));
  ThreadPool pool(1);
  ASSERT_TRUE(store.StartBackgroundMerge(&pool));

  // Both mid-merge snapshots are taken before the fold is released; the
  // checks run after it, so a failed check cannot leave the fold blocked.
  store.Publish();
  const std::shared_ptr<const SnapshotStore> carried = store.Snapshot();
  store.Ingest(SparseVec::FromSorted({{2, 0.5}, {3, 3.0}}));
  store.Publish();
  const std::shared_ptr<const SnapshotStore> composed = store.Snapshot();
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    release = true;
  }
  gate_cv.notify_all();
  store.WaitForMerge();

  ASSERT_NE(carried->overlay(), nullptr) << "an empty active still seals";
  EXPECT_EQ(carried->overlay()->adds.at(2), 2.0);
  ASSERT_NE(composed->overlay(), nullptr);
  EXPECT_EQ(composed->overlay()->adds.at(1), 1.0);
  EXPECT_EQ(composed->overlay()->adds.at(2), 2.5);
  EXPECT_EQ(composed->overlay()->adds.at(3), 3.0);
  // The post-merge epoch carries the ingest that landed during the fold.
  EXPECT_EQ(store.Snapshot()->Peek(2), 2.5);
}

/// A key whose adds cancel stays in the seal as an explicit zero.
TEST(VersionedStoreTest, CancelledKeysStaySealedAsExplicitZeros) {
  VersionedStore store(std::make_unique<HashStore>());
  store.Add(5, 1.5);
  store.Add(5, -1.5);
  EXPECT_EQ(store.delta_entries(), 1u);
  store.Publish();
  const std::shared_ptr<const SnapshotStore> sealed = store.Snapshot();
  ASSERT_NE(sealed->overlay(), nullptr);
  EXPECT_EQ(sealed->overlay()->size(), 1u);
  EXPECT_EQ(sealed->overlay()->adds.at(5), 0.0);
}

/// The shared evaluation fixture: a 2×16 Haar cube loaded from 500 tuples,
/// 12 Count queries, an SSE-ranked plan — plus a 120-tuple ingest stream
/// with its per-tuple sparse deltas precomputed through the strategy.
struct StreamFixture {
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy{schema, WaveletKind::kHaar};
  Relation rel;
  Relation stream_rel;
  QueryBatch batch;
  std::shared_ptr<const MasterList> list;
  std::shared_ptr<const SsePenalty> sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan;
  std::vector<SparseVec> deltas;  // TransformUpdate of each stream tuple

  StreamFixture()
      : rel(MakeUniformRelation(schema, 500, 3)),
        stream_rel(MakeUniformRelation(schema, 120, 77)),
        batch(schema) {
    Rng rng(9);
    for (int i = 0; i < 12; ++i) {
      uint32_t lo0 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi0 = lo0 + static_cast<uint32_t>(rng.UniformInt(16 - lo0));
      uint32_t lo1 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi1 = lo1 + static_cast<uint32_t>(rng.UniformInt(16 - lo1));
      batch.Add(RangeSumQuery::Count(
          Range::Create(schema, {{lo0, hi0}, {lo1, hi1}}).value()));
    }
    list = std::make_shared<const MasterList>(
        MasterList::Build(batch, strategy).value());
    plan = EvalPlan::FromMasterList(list, sse);
    for (const Tuple& t : stream_rel.tuples()) {
      deltas.push_back(strategy.TransformUpdate(t, 1.0).value());
    }
  }

  std::unique_ptr<CoefficientStore> BuildBase() const {
    return strategy.BuildStore(rel.FrequencyDistribution());
  }
};

TEST(VersionedStoreTest, IngestsAreInvisibleUntilPublished) {
  StreamFixture f;
  VersionedStore store(f.BuildBase());
  EXPECT_EQ(store.epoch(), 0u);

  auto pristine = store.Snapshot();
  ASSERT_NE(pristine, nullptr);
  EXPECT_EQ(pristine->epoch(), 0u);
  EXPECT_EQ(pristine->overlay(), nullptr) << "epoch 0 is the naked base";

  store.Ingest(f.deltas[0]);
  // Counted reads and aggregates still serve epoch 0.
  const uint64_t key = f.deltas[0].entries().front().key;
  const double base_value = pristine->Peek(key);
  IoStats io;
  EXPECT_EQ(store.Fetch(key, &io).value(), base_value);
  EXPECT_EQ(store.epoch(), 0u);
  // ...but the authoritative Peek sees the unpublished ingest.
  EXPECT_EQ(store.Peek(key),
            base_value + f.deltas[0].entries().front().value);

  EXPECT_EQ(store.Publish(), 1u);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.Fetch(key, &io).value(),
            base_value + f.deltas[0].entries().front().value);
  // The pre-publish pin is immune.
  EXPECT_EQ(pristine->Peek(key), base_value);
}

/// epoch() never runs ahead of PinVersion(): a reader that sees epoch e
/// pins a snapshot of epoch e or later. Each publish here seals a 60,000-key
/// overlay, which keeps the snapshot build — the window in which a publish
/// that bumps the epoch first would show an epoch no pin serves — wide.
TEST(VersionedStoreTest, EpochNeverRunsAheadOfThePinnedSnapshot) {
  VersionedStore store(std::make_unique<HashStore>());
  std::vector<SparseEntry> entries;
  for (uint64_t key = 0; key < 60000; ++key) entries.push_back({key, 1.0});
  store.Ingest(SparseVec::FromSorted(std::move(entries)));

  constexpr uint64_t kPublishes = 20;
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  uint64_t reads = 0;
  uint64_t ahead = 0;
  std::thread reader([&] {
    started.store(true);
    while (!done.load()) {
      const uint64_t seen = store.epoch();
      const uint64_t pinned = store.PinVersion()->epoch();
      ++reads;
      ahead += seen > pinned;
    }
  });
  while (!started.load()) std::this_thread::yield();
  for (uint64_t i = 0; i < kPublishes; ++i) store.Publish();
  done.store(true);
  reader.join();
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(ahead, 0u) << "epoch() ran ahead of PinVersion() in " << ahead
                       << " of " << reads << " reads";
  EXPECT_EQ(store.epoch(), kPublishes);
  EXPECT_EQ(store.PinVersion()->epoch(), kPublishes);
}

TEST(VersionedStoreTest, PinnedEpochIsImmuneToLaterIngestsAndMerges) {
  StreamFixture f;
  VersionedStore store(f.BuildBase());
  for (size_t i = 0; i < 10; ++i) store.Ingest(f.deltas[i]);
  store.Publish();

  auto pinned = store.Snapshot();
  std::vector<std::pair<uint64_t, double>> frozen;
  pinned->ForEachNonZero([&](uint64_t key, double value) {
    frozen.push_back({key, value});
  });
  ASSERT_FALSE(frozen.empty());

  for (size_t i = 10; i < f.deltas.size(); ++i) store.Ingest(f.deltas[i]);
  store.Publish();
  store.Merge();
  for (size_t i = 0; i < 10; ++i) store.Ingest(f.deltas[i]);
  store.Merge();

  IoStats io;
  for (const auto& [key, value] : frozen) {
    EXPECT_EQ(pinned->Peek(key), value);
    EXPECT_EQ(pinned->Fetch(key, &io).value(), value);
  }
}

TEST(VersionedStoreTest, MergeIsBitwiseInvisibleToQuiescentReaders) {
  // Db4 coefficients are irrational, so any associativity slip in the
  // merge would show up as a last-bit difference here.
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy(schema, WaveletKind::kDb4);
  Relation rel = MakeUniformRelation(schema, 300, 5);
  Relation extra = MakeUniformRelation(schema, 50, 21);
  VersionedStore store(strategy.BuildStore(rel.FrequencyDistribution()));
  for (const Tuple& t : extra.tuples()) {
    store.Ingest(strategy.TransformUpdate(t, 1.0).value());
  }
  store.Publish();

  std::vector<uint64_t> keys;
  std::vector<double> before;
  store.ForEachNonZero([&](uint64_t key, double value) {
    keys.push_back(key);
    before.push_back(value);
  });
  const uint64_t nnz_before = store.NumNonZero();
  const double sum_abs_before = store.SumAbs();

  const uint64_t pre_merge_epoch = store.epoch();
  EXPECT_GT(store.Merge(), pre_merge_epoch);
  auto merged = store.Snapshot();
  EXPECT_EQ(merged->overlay(), nullptr) << "everything folded into the base";

  std::vector<double> after(keys.size());
  IoStats io;
  ASSERT_TRUE(store.FetchBatch(keys, after, &io).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "key " << keys[i];
  }
  EXPECT_EQ(store.NumNonZero(), nnz_before);
  // The new base keeps its own K, accumulated as the merge writes it, so
  // only the per-key reads above are bitwise-stable across a merge; K is
  // equal up to summation-order rounding.
  EXPECT_NEAR(store.SumAbs(), sum_abs_before, 1e-9 * (1.0 + sum_abs_before));
}

TEST(VersionedStoreTest, SnapshotAnswersMatchBruteForceOverAllIngested) {
  StreamFixture f;
  VersionedStore store(f.BuildBase());
  for (const SparseVec& delta : f.deltas) store.Ingest(delta);
  store.Publish();

  Relation all(f.schema);
  for (const Tuple& t : f.rel.tuples()) all.Add(t);
  for (const Tuple& t : f.stream_rel.tuples()) all.Add(t);

  EvalSession session(f.plan, store.PinVersion());
  ASSERT_TRUE(session.RunToExact().ok());
  for (size_t q = 0; q < f.batch.size(); ++q) {
    const double expected = f.batch.queries()[q].BruteForce(all);
    EXPECT_NEAR(session.Estimates()[q], expected,
                1e-6 * (1.0 + std::abs(expected)))
        << "query " << q;
  }
}

/// The fixture's cube (16×16 cells) in a DenseStore, with the overlay
/// folded in by one addition per key: a merge whose new base takes its K
/// from the bulk pass instead of from Add.
std::unique_ptr<CoefficientStore> DenseMerge(const CoefficientStore& base,
                                             const DeltaOverlay& overlay) {
  std::vector<double> values(16 * 16, 0.0);
  base.ForEachNonZero([&values](uint64_t key, double v) { values[key] = v; });
  for (const auto& [key, delta] : overlay.adds) values[key] += delta;
  return std::make_unique<DenseStore>(std::move(values));
}

// Theorem 1's K per published epoch, as the service reads it (the pinned
// snapshot's SumAbs(), derived from its overlay). Over a seeded log of
// ingests, publishes, synchronous merges and background merges (quiet, or
// racing ingests), on a hash base merged by the default HashMerge and on a
// dense base merged into a new DenseStore, a target-bound request served
// through QueryService at every epoch (its admission pins the epoch just
// published) must report the bound an isolated session over that snapshot
// computes with its K at the same step; that K must match a fresh scan of
// the snapshot, and the request's brute-force SSE must stay within the
// bound.
TEST(VersionedStoreTest, ServedBoundIsSoundAtEveryPublishedEpoch) {
  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense ? "dense base, dense merge" : "hash base, HashMerge");
    StreamFixture f;
    std::unique_ptr<CoefficientStore> base = f.BuildBase();
    if (!dense) {
      auto hash = std::make_unique<HashStore>();
      base->ForEachNonZero(
          [&hash](uint64_t key, double value) { hash->Add(key, value); });
      base = std::move(hash);
    }
    VersionedStoreOptions options;
    if (dense) options.merge_fn = DenseMerge;
    auto plane = std::make_shared<VersionedStore>(std::move(base), options);
    server::QueryServiceOptions service_options;
    service_options.default_quantum = 4;
    server::QueryService service(
        plane, std::make_shared<WaveletStrategy>(f.schema, WaveletKind::kHaar),
        service_options);

    const std::shared_ptr<const SnapshotStore> first = plane->Snapshot();
    const double target_bound =
        EvalSession(f.plan, first).WorstCaseBound(first->SumAbs()) / 2;
    Relation seen = f.rel;
    size_t ingested = 0;
    auto ingest = [&](uint64_t count) {
      for (; count > 0 && ingested < f.deltas.size(); --count, ++ingested) {
        plane->Ingest(f.deltas[ingested]);
        seen.Add(f.stream_rel.tuples()[ingested]);
      }
    };
    // Called only when every ingested tuple is published.
    auto check_epoch = [&](const char* event) {
      const std::shared_ptr<const SnapshotStore> snapshot = plane->Snapshot();
      SCOPED_TRACE(std::string(event) + " at epoch " +
                   std::to_string(snapshot->epoch()));
      EXPECT_EQ(service.epoch(), snapshot->epoch());
      double fresh = 0.0;
      snapshot->ForEachNonZero(
          [&fresh](uint64_t, double v) { fresh += std::abs(v); });
      EXPECT_NEAR(snapshot->SumAbs(), fresh, 1e-12 * (1.0 + fresh));

      server::QueryRequest request(f.batch);
      request.penalty = f.sse;
      request.target_bound = target_bound;
      server::QueryResponse response;
      ASSERT_TRUE(service
                      .Submit(request,
                              [&response](server::QueryResponse r) {
                                response = std::move(r);
                              })
                      .ok());
      service.RunUntilIdle();
      ASSERT_TRUE(response.status.ok()) << response.status;
      EXPECT_LT(response.steps_taken, response.total_steps)
          << "the target should stop the request before exactness";
      EvalSession probe(f.plan, snapshot);
      while (probe.StepsTaken() < response.steps_taken) {
        ASSERT_TRUE(probe.StepBatch(service_options.default_quantum).ok());
      }
      ASSERT_EQ(probe.StepsTaken(), response.steps_taken);
      EXPECT_EQ(response.worst_case_bound,
                probe.WorstCaseBound(snapshot->SumAbs()));
      const std::vector<double> truth = f.batch.BruteForce(seen);
      ASSERT_EQ(response.estimates.size(), truth.size());
      double sse = 0.0;
      for (size_t q = 0; q < truth.size(); ++q) {
        const double e = response.estimates[q] - truth[q];
        sse += e * e;
      }
      EXPECT_LE(sse, response.worst_case_bound);
    };

    check_epoch("construction");
    Rng rng(41);
    std::vector<size_t> events(6, 0);
    while (ingested < f.deltas.size()) {
      const uint64_t event = rng.UniformInt(events.size());
      ++events[event];
      switch (event) {
        case 0:
        case 1:
          ingest(1 + rng.UniformInt(6));
          break;
        case 2:
          ingest(1 + rng.UniformInt(6));
          plane->Publish();
          check_epoch("publish");
          break;
        case 3:
          plane->Merge();
          check_epoch("merge");
          break;
        case 4:
          plane->StartBackgroundMerge();
          plane->WaitForMerge();
          check_epoch("quiet background merge");
          break;
        case 5:
          plane->StartBackgroundMerge();
          ingest(1 + rng.UniformInt(4));  // races the fold
          plane->WaitForMerge();
          plane->Publish();
          check_epoch("background merge racing ingests");
          break;
      }
    }
    for (size_t e = 0; e < events.size(); ++e) {
      EXPECT_GT(events[e], 0u) << "the log never drew event kind " << e;
    }
  }
}

TEST(VersionedStoreTest, SessionPinsItsEpochAtConstruction) {
  StreamFixture f;
  auto store = std::make_shared<VersionedStore>(f.BuildBase());
  for (size_t i = 0; i < 30; ++i) store->Ingest(f.deltas[i]);
  store->Publish();

  // Reference: a full run over the pinned epoch, untouched by writes.
  EvalSession reference(f.plan, store->PinVersion());
  ASSERT_TRUE(reference.RunToExact().ok());

  // Probe: starts at the same epoch, then ingests + merges land mid-run.
  EvalSession probe(f.plan, store);
  ASSERT_GT(probe.TotalSteps(), 20u);
  ASSERT_TRUE(probe.StepBatch(probe.TotalSteps() / 2).ok());
  for (size_t i = 30; i < f.deltas.size(); ++i) store->Ingest(f.deltas[i]);
  store->Publish();
  store->Merge();
  ASSERT_TRUE(probe.RunToExact().ok());

  for (size_t q = 0; q < f.batch.size(); ++q) {
    EXPECT_EQ(probe.Estimates()[q], reference.Estimates()[q])
        << "mid-session writes leaked into query " << q;
  }
  EXPECT_EQ(probe.io(), reference.io());
}

// ---------------------------------------------------------------------------
// Golden interleaved schedules: the plane is a deterministic function of
// its event log. Sessions pinned mid-stream — and then run AFTER the rest
// of the log (more ingests, publishes, merges) has landed — must be
// bit-identical to sessions over a plane rebuilt by replaying the log
// prefix up to the pin. With fault injection on both sides, the identity
// extends to retries (kFail) and skip accounting (kSkip).

enum class EventKind { kIngest, kPublish, kMerge };
struct Event {
  EventKind kind;
  size_t tuple = 0;
};

std::vector<Event> MakeEventLog(size_t num_tuples) {
  std::vector<Event> log;
  for (size_t i = 0; i < num_tuples; ++i) {
    log.push_back({EventKind::kIngest, i});
    if ((i + 1) % 5 == 0) log.push_back({EventKind::kPublish});
    if (i == 40 || i == 90) log.push_back({EventKind::kMerge});
  }
  log.push_back({EventKind::kPublish});
  return log;
}

void ApplyEvent(VersionedStore& store, const StreamFixture& f,
                const Event& event) {
  switch (event.kind) {
    case EventKind::kIngest:
      store.Ingest(f.deltas[event.tuple]);
      break;
    case EventKind::kPublish:
      store.Publish();
      break;
    case EventKind::kMerge:
      store.Merge();
      break;
  }
}

class GoldenScheduleTest
    : public ::testing::TestWithParam<
          std::tuple<ProgressionOrder, FaultPolicy>> {};

TEST_P(GoldenScheduleTest, PinnedSessionsMatchEventLogReplay) {
  const auto [order, policy] = GetParam();
  StreamFixture f;

  auto make_plane = [&] {
    return std::make_unique<VersionedStore>(f.BuildBase());
  };

  const std::vector<Event> log = MakeEventLog(f.deltas.size());
  const std::vector<size_t> checkpoints = {log.size() / 3, 2 * log.size() / 3,
                                           log.size()};

  // Live pass: pin a snapshot at each checkpoint, keep streaming.
  auto live = make_plane();
  std::vector<std::shared_ptr<const SnapshotStore>> pins;
  size_t next_checkpoint = 0;
  for (size_t i = 0; i <= log.size(); ++i) {
    if (next_checkpoint < checkpoints.size() &&
        i == checkpoints[next_checkpoint]) {
      pins.push_back(live->Snapshot());
      ++next_checkpoint;
    }
    if (i < log.size()) ApplyEvent(*live, f, log[i]);
  }
  ASSERT_EQ(pins.size(), checkpoints.size());

  for (size_t c = 0; c < checkpoints.size(); ++c) {
    // Rebuild: replay the log prefix on a fresh plane.
    auto rebuilt = make_plane();
    for (size_t i = 0; i < checkpoints[c]; ++i) {
      ApplyEvent(*rebuilt, f, log[i]);
    }
    auto rebuilt_pin = rebuilt->Snapshot();
    ASSERT_EQ(pins[c]->epoch(), rebuilt_pin->epoch()) << "checkpoint " << c;

    // Identical deterministic fault schedules on both sides. The pinned
    // snapshots are immutable, so the const_cast never enables a write —
    // the decorator's pass-through Add is simply never called. The fault
    // period interacts with the 9-key lockstep batch in opposite ways per
    // policy. Under kFail the period must exceed the batch size: a faulted
    // batch is retried over the next 9 ordinals, and with period <= 9 every
    // window of 9 consecutive ordinals contains a fault, so the session
    // could never progress. Under kSkip the period must be <= the batch
    // size: a faulted batch at ordinal k (k % period == 0) falls back to 9
    // scalar fetches at ordinals k+1..k+9, and with period 13 that window
    // never reaches the next fault — the fallback would always succeed and
    // degraded mode would go unexercised. Progress is not a concern for
    // kSkip because the scalar fallback always advances.
    FaultInjectionOptions fault_options;
    fault_options.fail_every_n = policy == FaultPolicy::kSkip ? 7 : 13;
    FaultInjectionStore live_faulty(
        const_cast<CoefficientStore*>(
            static_cast<const CoefficientStore*>(pins[c].get())),
        fault_options);
    FaultInjectionStore rebuilt_faulty(
        const_cast<CoefficientStore*>(
            static_cast<const CoefficientStore*>(rebuilt_pin.get())),
        fault_options);

    EvalSession::Options options;
    options.order = order;
    options.seed = 17;
    options.fault_policy = policy;
    EvalSession live_session(f.plan, UnownedStore(live_faulty), options);
    EvalSession rebuilt_session(f.plan, UnownedStore(rebuilt_faulty), options);

    // Lockstep batches; under kFail a faulted batch leaves both sessions
    // unchanged and both fault ordinals advanced, so retries stay aligned.
    while (!live_session.Done()) {
      Result<size_t> a = live_session.StepBatch(9);
      Result<size_t> b = rebuilt_session.StepBatch(9);
      ASSERT_EQ(a.ok(), b.ok()) << "checkpoint " << c;
      if (a.ok()) {
        ASSERT_EQ(*a, *b);
      }
    }
    ASSERT_TRUE(rebuilt_session.Done());

    const double k = pins[c]->SumAbs();
    EXPECT_EQ(k, rebuilt_pin->SumAbs());
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(live_session.Estimates()[q], rebuilt_session.Estimates()[q])
          << "checkpoint " << c << " query " << q;
    }
    EXPECT_EQ(live_session.WorstCaseBound(k),
              rebuilt_session.WorstCaseBound(k));
    EXPECT_EQ(live_session.ExpectedPenalty(f.schema.cell_count()),
              rebuilt_session.ExpectedPenalty(f.schema.cell_count()));
    EXPECT_EQ(live_session.io(), rebuilt_session.io());
    EXPECT_EQ(live_session.SkippedCoefficients(),
              rebuilt_session.SkippedCoefficients());
    EXPECT_EQ(live_session.SkippedImportance(),
              rebuilt_session.SkippedImportance());
    if (policy == FaultPolicy::kSkip) {
      EXPECT_GT(live_session.SkippedCoefficients(), 0u)
          << "the fault schedule must actually exercise degraded mode";
    }
  }
}

// The instantiation keeps its earlier name so the test ids stay stable;
// every plane here is unsharded.
INSTANTIATE_TEST_SUITE_P(
    OrdersPoliciesSharding, GoldenScheduleTest,
    ::testing::Combine(::testing::Values(ProgressionOrder::kBiggestB,
                                         ProgressionOrder::kRoundRobin,
                                         ProgressionOrder::kKeyOrder,
                                         ProgressionOrder::kRandom),
                       ::testing::Values(FaultPolicy::kFail,
                                         FaultPolicy::kSkip)));

// ---------------------------------------------------------------------------
// Concurrency

TEST(VersionedStoreConcurrencyTest, BackgroundMergeNeverBlocksReadersOrWrites) {
  StreamFixture f;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool release = false;
  std::atomic<bool> folding{false};

  VersionedStoreOptions options;
  options.merge_fn = [&](const CoefficientStore& base,
                         const DeltaOverlay& overlay) {
    folding.store(true);
    {
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return release; });
    }
    auto merged = std::make_unique<HashStore>();
    base.ForEachNonZero(
        [&](uint64_t key, double value) { merged->Add(key, value); });
    for (const auto& [key, value] : overlay.adds) merged->Add(key, value);
    return merged;
  };
  VersionedStore store(f.BuildBase(), options);

  for (size_t i = 0; i < 20; ++i) store.Ingest(f.deltas[i]);
  const uint64_t published = store.Publish();
  auto pre_merge = store.Snapshot();

  ThreadPool pool(1);
  ASSERT_TRUE(store.StartBackgroundMerge(&pool));
  while (!folding.load()) std::this_thread::yield();
  EXPECT_FALSE(store.StartBackgroundMerge(&pool))
      << "one merge in flight at a time";

  // With the fold gated wide open, every reader and writer path must
  // still complete: counted reads, aggregate scans, ingests, publishes.
  IoStats io;
  std::vector<uint64_t> keys;
  pre_merge->ForEachNonZero([&](uint64_t key, double) {
    if (keys.size() < 16) keys.push_back(key);
  });
  std::vector<double> out(keys.size());
  ASSERT_TRUE(store.FetchBatch(keys, out, &io).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], pre_merge->Peek(keys[i]));
  }
  for (size_t i = 20; i < 40; ++i) store.Ingest(f.deltas[i]);
  const uint64_t mid_merge_epoch = store.Publish();
  EXPECT_GT(mid_merge_epoch, published);
  // The mid-merge publish still carries the merging overlay, and with the
  // active delta just drained into it, the authoritative view and the
  // published snapshot agree on every key.
  auto mid = store.Snapshot();
  ASSERT_NE(mid->overlay(), nullptr);
  for (uint64_t key : keys) {
    EXPECT_EQ(store.Peek(key), mid->Peek(key)) << "key " << key;
  }

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    release = true;
  }
  gate_cv.notify_all();
  store.WaitForMerge();
  EXPECT_GT(store.epoch(), mid_merge_epoch);

  // Ingests that landed during the fold survived into the post-merge view.
  Relation all(f.schema);
  for (const Tuple& t : f.rel.tuples()) all.Add(t);
  for (size_t i = 0; i < 40; ++i) all.Add(f.stream_rel.tuples()[i]);
  EvalSession session(f.plan, store.PinVersion());
  ASSERT_TRUE(session.RunToExact().ok());
  for (size_t q = 0; q < f.batch.size(); ++q) {
    const double expected = f.batch.queries()[q].BruteForce(all);
    EXPECT_NEAR(session.Estimates()[q], expected,
                1e-6 * (1.0 + std::abs(expected)));
  }
}

TEST(VersionedStoreConcurrencyTest, OneWriterManyPinnedReadersUnderTsan) {
  // The TSan race surface: one writer ingesting, publishing, and
  // background-merging while ≥4 readers pin epochs and run full
  // progressive sessions. Each reader's estimates must match a serial
  // re-run over the very snapshot it pinned — pinned epochs are stable
  // under every interleaving.
  StreamFixture f;
  auto store = std::make_shared<VersionedStore>(f.BuildBase());
  ThreadPool merge_pool(1);

  struct PinnedRun {
    std::shared_ptr<const SnapshotStore> snap;
    std::vector<double> estimates;
    IoStats io;
  };
  std::atomic<bool> stop{false};
  std::mutex runs_mu;
  std::vector<PinnedRun> runs;

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      // Each reader runs at least one session: on a loaded host the writer
      // can finish before any reader is scheduled, and `runs` must not be
      // left empty by that alone.
      do {
        auto snap = store->Snapshot();
        EvalSession session(f.plan, snap);
        if (!session.RunToExact().ok()) continue;
        std::lock_guard<std::mutex> lock(runs_mu);
        if (runs.size() < 64) {
          runs.push_back({snap, session.Estimates(), session.io()});
        }
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  for (size_t i = 0; i < f.deltas.size(); ++i) {
    store->Ingest(f.deltas[i]);
    if ((i + 1) % 10 == 0) store->Publish();
    if ((i + 1) % 25 == 0) store->StartBackgroundMerge(&merge_pool);
  }
  store->Publish();
  store->WaitForMerge();
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  ASSERT_FALSE(runs.empty());
  for (const PinnedRun& run : runs) {
    EvalSession replay(f.plan, run.snap);
    ASSERT_TRUE(replay.RunToExact().ok());
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(run.estimates[q], replay.Estimates()[q])
          << "epoch " << run.snap->epoch() << " query " << q;
    }
    EXPECT_EQ(run.io, replay.io());
  }
}

}  // namespace
}  // namespace wavebatch
