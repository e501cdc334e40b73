#include "storage/fault_injection_store.h"

#include <string>
#include <thread>
#include <utility>

#include "util/check.h"

namespace wavebatch {

namespace {

telemetry::Counter* InjectedFaultsCounter(const std::string& store) {
  return telemetry::MetricsRegistry::Default().GetCounter(
      "wavebatch_injected_faults_total", {{"store", store}},
      "Faults fired by a FaultInjectionStore schedule.");
}

}  // namespace

FaultInjectionStore::FaultInjectionStore(
    std::unique_ptr<CoefficientStore> inner, FaultInjectionOptions options)
    : owned_(std::move(inner)),
      inner_(owned_.get()),
      mutable_inner_(owned_.get()),
      state_(std::make_shared<FaultState>()) {
  WB_CHECK(inner_ != nullptr);
  state_->options = options;
  injected_faults_metric_ = InjectedFaultsCounter(name());
}

FaultInjectionStore::FaultInjectionStore(CoefficientStore* inner,
                                         FaultInjectionOptions options)
    : inner_(inner),
      mutable_inner_(inner),
      state_(std::make_shared<FaultState>()) {
  WB_CHECK(inner_ != nullptr);
  state_->options = options;
  injected_faults_metric_ = InjectedFaultsCounter(name());
}

FaultInjectionStore::FaultInjectionStore(
    std::shared_ptr<const CoefficientStore> pinned,
    std::shared_ptr<FaultState> state)
    : pinned_inner_(std::move(pinned)),
      inner_(pinned_inner_.get()),
      state_(std::move(state)) {
  WB_CHECK(inner_ != nullptr);
  injected_faults_metric_ = InjectedFaultsCounter(name());
}

void FaultInjectionStore::Add(uint64_t key, double delta) {
  WB_CHECK(mutable_inner_ != nullptr)
      << "Add() on a pinned FaultInjectionStore view (epoch snapshots are "
         "read-only)";
  mutable_inner_->Add(key, delta);
}

std::shared_ptr<const CoefficientStore> FaultInjectionStore::PinVersion()
    const {
  std::shared_ptr<const CoefficientStore> pinned = inner_->PinVersion();
  if (pinned == nullptr) return nullptr;  // inner is its own snapshot
  // Private constructor: callers go through PinVersion(), so the shared
  // fault state always comes from an existing wrapper.
  return std::shared_ptr<const CoefficientStore>(
      new FaultInjectionStore(std::move(pinned), state_));
}

void FaultInjectionStore::FailKey(uint64_t key) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->failed_keys.insert(key);
}

void FaultInjectionStore::Heal() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->failed_keys.clear();
  state_->options.fail_every_n = 0;
  state_->options.fail_at_fetch = 0;
}

uint64_t FaultInjectionStore::fetch_count() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->fetch_count;
}

uint64_t FaultInjectionStore::injected_failures() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->injected_failures;
}

Status FaultInjectionStore::CheckOneLocked(uint64_t key) const {
  const uint64_t ordinal = ++state_->fetch_count;
  if (state_->failed_keys.count(key) != 0) {
    ++state_->injected_failures;
    injected_faults_metric_->Add();
    return Status::Unavailable("injected fault: key " + std::to_string(key) +
                               " is failed until Heal()");
  }
  if (state_->options.fail_at_fetch != 0 &&
      ordinal == state_->options.fail_at_fetch) {
    state_->options.fail_at_fetch = 0;  // one-shot: self-heals after firing
    ++state_->injected_failures;
    injected_faults_metric_->Add();
    return Status::Unavailable("injected fault: one-shot fault at fetch " +
                               std::to_string(ordinal));
  }
  if (state_->options.fail_every_n != 0 &&
      ordinal % state_->options.fail_every_n == 0) {
    ++state_->injected_failures;
    injected_faults_metric_->Add();
    return Status::Unavailable(
        "injected fault: fetch " + std::to_string(ordinal) + " (every " +
        std::to_string(state_->options.fail_every_n) + "th)");
  }
  return Status::OK();
}

void FaultInjectionStore::InjectLatency() const {
  std::chrono::microseconds latency{0};
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    latency = state_->options.latency;
  }
  if (latency.count() > 0) {
    std::this_thread::sleep_for(latency);
  }
}

Status FaultInjectionStore::DoFetchBatch(std::span<const uint64_t> keys,
                                         std::span<double> out,
                                         IoStats* io) const {
  InjectLatency();
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    for (uint64_t key : keys) {
      Status status = CheckOneLocked(key);
      if (!status.ok()) return status;
    }
  }
  return DelegateFetchBatch(*inner_, keys, out, io);
}

Status FaultInjectionStore::DoFetchBatchRouted(std::span<const uint64_t> keys,
                                               std::span<const uint32_t> shards,
                                               std::span<double> out,
                                               IoStats* io) const {
  InjectLatency();
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    for (uint64_t key : keys) {
      Status status = CheckOneLocked(key);
      if (!status.ok()) return status;
    }
  }
  return DelegateFetchBatchRouted(*inner_, keys, shards, out, io);
}

}  // namespace wavebatch
