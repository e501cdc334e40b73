#include "storage/coefficient_store.h"

#include <map>
#include <mutex>

namespace wavebatch {

const StoreFetchMetrics& CoefficientStore::BindFetchTelemetry() const {
  // Handles are interned per store *name*: two stores reporting the same
  // name() share one set of time series (e.g. the HashStores every epoch's
  // merge builds), and the leaked table keeps every handle alive for the
  // process lifetime, so a store destroyed mid-export never dangles.
  static std::mutex mu;
  static auto* table = new std::map<std::string, StoreFetchMetrics>();
  const std::string store = name();
  std::lock_guard<std::mutex> lock(mu);
  auto it = table->find(store);
  if (it == table->end()) {
    auto& registry = telemetry::MetricsRegistry::Default();
    StoreFetchMetrics m;
    m.keys_fetched = registry.GetCounter(
        "wavebatch_store_keys_fetched_total", {{"store", store}},
        "Coefficient keys successfully fetched via Fetch/FetchBatch.");
    const std::string errors_help = "Failed fetches by status code.";
    m.errors_unavailable = registry.GetCounter(
        "wavebatch_store_fetch_errors_total",
        {{"store", store}, {"code", "unavailable"}}, errors_help);
    m.errors_out_of_range = registry.GetCounter(
        "wavebatch_store_fetch_errors_total",
        {{"store", store}, {"code", "out_of_range"}}, errors_help);
    m.errors_other = registry.GetCounter(
        "wavebatch_store_fetch_errors_total",
        {{"store", store}, {"code", "other"}}, errors_help);
    m.batch_latency_ns = registry.GetHistogram(
        "wavebatch_store_fetch_batch_latency_ns", {{"store", store}},
        "FetchBatch wall-clock latency in nanoseconds.");
    it = table->emplace(store, m).first;
  }
  fetch_telemetry_.store(&it->second, std::memory_order_release);
  return it->second;
}

}  // namespace wavebatch
