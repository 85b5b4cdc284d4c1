#include "util/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <tuple>
#include <utility>

namespace nexus::metrics {

void InstrumentValue::MergeFrom(const InstrumentValue& other) {
  value += other.value;
  count += other.count;
  sum += other.sum;
  if (!other.buckets.empty()) {
    if (buckets.size() < other.buckets.size()) {
      buckets.resize(other.buckets.size(), 0);
    }
    for (size_t i = 0; i < other.buckets.size(); ++i) {
      buckets[i] += other.buckets[i];
    }
  }
}

uint64_t InstrumentValue::ApproxQuantile(double q) const {
  if (count == 0 || buckets.empty()) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank >= count) {
    rank = count - 1;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank) {
      // Bucket i holds samples with bit_width == i: upper bound 2^i - 1.
      return i == 0 ? 0 : (i >= 64 ? ~0ULL : (1ULL << i) - 1);
    }
  }
  return ~0ULL;
}

Registry& Registry::Global() {
  // Leaked: instruments are touched from thread_local destructors and
  // process-exit dump hooks, so the registry must outlive static teardown.
  static Registry* global = new Registry();
  return *global;
}

void Registry::Register(MetricGroup* group) {
  std::lock_guard<std::mutex> lock(mu_);
  groups_.insert(group);
}

void Registry::Unregister(MetricGroup* group) {
  std::lock_guard<std::mutex> lock(mu_);
  groups_.erase(group);
  // Retire the final values: process-lifetime totals survive the component.
  group->CollectInto(&retired_);
}

Snapshot Registry::TakeSnapshot(std::string_view prefix) const {
  Snapshot merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    merged = retired_;
    for (const MetricGroup* group : groups_) {
      group->CollectInto(&merged);
    }
  }
  if (prefix.empty()) {
    return merged;
  }
  Snapshot filtered;
  for (auto& [name, value] : merged) {
    if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
        name[prefix.size()] == '.') {
      filtered.emplace(name, std::move(value));
    }
  }
  return filtered;
}

std::string Registry::RenderText(std::string_view prefix) const {
  Snapshot snapshot = TakeSnapshot(prefix);
  std::string out;
  for (const auto& [name, v] : snapshot) {
    out += name;
    if (v.kind == InstrumentValue::Kind::kHistogram) {
      out += " count=" + std::to_string(v.count) + " sum=" + std::to_string(v.sum) +
             " p50=" + std::to_string(v.ApproxQuantile(0.5)) +
             " p99=" + std::to_string(v.ApproxQuantile(0.99));
    } else {
      out += " " + std::to_string(v.value);
    }
    out += '\n';
  }
  return out;
}

std::string Registry::RenderJson() const {
  Snapshot snapshot = TakeSnapshot();
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : snapshot) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n  \"" + name + "\": ";  // Instrument names are identifier-safe.
    if (v.kind == InstrumentValue::Kind::kHistogram) {
      out += "{\"count\": " + std::to_string(v.count) + ", \"sum\": " + std::to_string(v.sum) +
             ", \"p50\": " + std::to_string(v.ApproxQuantile(0.5)) +
             ", \"p99\": " + std::to_string(v.ApproxQuantile(0.99)) + "}";
    } else {
      out += std::to_string(v.value);
    }
  }
  out += "\n}\n";
  return out;
}

MetricGroup::MetricGroup(Registry* registry, std::string prefix)
    : registry_(registry), prefix_(std::move(prefix)) {
  registry_->Register(this);
}

MetricGroup::~MetricGroup() { registry_->Unregister(this); }

// Instruments hold atomics (immovable), so the pairs are built in place.
Counter* MetricGroup::NewCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &counters_
              .emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                            std::forward_as_tuple())
              .second;
}

Gauge* MetricGroup::NewGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &gauges_
              .emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                            std::forward_as_tuple())
              .second;
}

Histogram* MetricGroup::NewHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &histograms_
              .emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                            std::forward_as_tuple())
              .second;
}

Result<uint64_t> MetricGroup::Value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  bool found = false;
  for (const auto& [counter_name, counter] : counters_) {
    if (counter_name == name) {
      total += counter.Value();
      found = true;
    }
  }
  if (!found) {
    return NotFound("no counter " + prefix_ + "." + std::string(name));
  }
  return total;
}

void MetricGroup::CollectInto(Snapshot* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    InstrumentValue v;
    v.kind = InstrumentValue::Kind::kCounter;
    v.value = static_cast<int64_t>(counter.Value());
    (*out)[prefix_ + "." + name].MergeFrom(v);
    (*out)[prefix_ + "." + name].kind = InstrumentValue::Kind::kCounter;
  }
  for (const auto& [name, gauge] : gauges_) {
    InstrumentValue v;
    v.kind = InstrumentValue::Kind::kGauge;
    v.value = gauge.Value();
    (*out)[prefix_ + "." + name].MergeFrom(v);
    (*out)[prefix_ + "." + name].kind = InstrumentValue::Kind::kGauge;
  }
  for (const auto& [name, histogram] : histograms_) {
    InstrumentValue v;
    v.kind = InstrumentValue::Kind::kHistogram;
    v.count = histogram.Count();
    v.sum = histogram.Sum();
    v.buckets.resize(Histogram::kNumBuckets);
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      v.buckets[i] = histogram.BucketCount(i);
    }
    InstrumentValue& slot = (*out)[prefix_ + "." + name];
    slot.MergeFrom(v);
    slot.kind = InstrumentValue::Kind::kHistogram;
  }
}

void DumpRegistryToEnvPath() {
  const char* path = std::getenv("NEXUS_METRICS_OUT");
  if (path == nullptr || path[0] == '\0') {
    return;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    return;
  }
  std::string json = Registry::Global().RenderJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

}  // namespace nexus::metrics
