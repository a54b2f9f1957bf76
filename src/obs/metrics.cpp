#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json_cursor.hpp"
#include "util/durable_io.hpp"

namespace railcorr::obs {
namespace {

/// A metric name: a non-empty quoted string over a closed charset, so
/// no escape can appear in an accepted one.
bool parse_name(JsonCursor& sc, std::string& out) {
  if (!sc.parse_string(out) || out.empty()) return false;
  return std::all_of(out.begin(), out.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

template <typename T>
bool sorted_unique_names(const std::vector<std::pair<std::string, T>>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (!(v[i - 1].first < v[i].first)) return false;
  }
  return true;
}

}  // namespace

// ------------------------------------------------------------ histogram --

void Histogram::record(std::uint64_t value) {
  const std::size_t bucket = static_cast<std::size_t>(std::bit_width(value));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const {
  const std::uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0 : m;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ------------------------------------------------------------- registry --

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl impl;
  return impl;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.counters.find(name);
  if (it == s.counters.end()) {
    it = s.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.gauges.find(name);
  if (it == s.gauges.end()) {
    it = s.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.histograms.find(name);
  if (it == s.histograms.end()) {
    it = s.histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  MetricsSnapshot snap;
  snap.ok = true;
  for (const auto& [name, counter] : s.counters) {
    snap.counters.emplace_back(name, counter->value());
  }
  for (const auto& [name, gauge] : s.gauges) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  for (const auto& [name, hist] : s.histograms) {
    MetricsSnapshot::Hist h;
    h.count = hist->count();
    h.sum = hist->sum();
    h.min = hist->min();
    h.max = hist->max();
    for (std::size_t k = 0; k < Histogram::kBuckets; ++k) {
      const std::uint64_t c = hist->bucket(k);
      if (c != 0) h.buckets.emplace_back(static_cast<std::uint32_t>(k), c);
    }
    snap.histograms.emplace_back(name, std::move(h));
  }
  return snap;
}

std::string MetricsRegistry::snapshot_json() const {
  return render_metrics_json(snapshot());
}

void MetricsRegistry::reset_values() {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& [name, counter] : s.counters) counter->reset();
  for (auto& [name, gauge] : s.gauges) gauge->reset();
  for (auto& [name, hist] : s.histograms) hist->reset();
}

std::uint64_t usec_now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --------------------------------------------------- render/parse/merge --

std::string render_metrics_json(const MetricsSnapshot& snap) {
  std::string out = "{\"railcorrMetrics\":1,\"sources\":";
  out += std::to_string(snap.sources);
  out += ",\n\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"" + snap.counters[i].first +
           "\":" + std::to_string(snap.counters[i].second);
  }
  out += "},\n\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"" + snap.gauges[i].first +
           "\":" + std::to_string(snap.gauges[i].second);
  }
  out += "},\n\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, h] = snap.histograms[i];
    if (i != 0) out += ",";
    out += "\n\"" + name + "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) +
           ",\"min\":" + std::to_string(h.min) +
           ",\"max\":" + std::to_string(h.max) + ",\"buckets\":[";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b != 0) out += ",";
      out += "[";
      out += std::to_string(h.buckets[b].first);
      out += ",";
      out += std::to_string(h.buckets[b].second);
      out += "]";
    }
    out += "]}";
  }
  out += "}}\n";
  return out;
}

MetricsSnapshot parse_metrics_json(std::string_view document) {
  MetricsSnapshot out;
  const auto check = util::check_integrity_trailer(document);
  if (check.status == util::TrailerStatus::kCorrupt) {
    out.error = "corrupt integrity trailer";
    return out;
  }
  // The renderer breaks sections across lines, so whitespace may
  // separate tokens.
  JsonCursor sc(check.body, /*skip_space=*/true);
  if (!sc.eat_lit("{\"railcorrMetrics\":1") || !sc.eat(',')) {
    out.error = "malformed metrics header";
    return out;
  }
  if (!sc.eat_lit("\"sources\":") || !sc.parse_int(out.sources) ||
      !sc.eat(',')) {
    out.error = "malformed \"sources\" entry";
    return out;
  }
  if (!sc.eat_lit("\"counters\":") || !sc.eat('{')) {
    out.error = "malformed \"counters\" section";
    return out;
  }
  if (!sc.eat('}')) {
    do {
      std::string name;
      std::uint64_t value = 0;
      if (!parse_name(sc, name) || !sc.eat(':') || !sc.parse_int(value)) {
        out.error = "malformed counter entry";
        return out;
      }
      out.counters.emplace_back(std::move(name), value);
    } while (sc.eat(','));
    if (!sc.eat('}')) {
      out.error = "unterminated \"counters\" section";
      return out;
    }
  }
  if (!sc.eat(',') || !sc.eat_lit("\"gauges\":") || !sc.eat('{')) {
    out.error = "malformed \"gauges\" section";
    return out;
  }
  if (!sc.eat('}')) {
    do {
      std::string name;
      std::int64_t value = 0;
      if (!parse_name(sc, name) || !sc.eat(':') || !sc.parse_int(value)) {
        out.error = "malformed gauge entry";
        return out;
      }
      out.gauges.emplace_back(std::move(name), value);
    } while (sc.eat(','));
    if (!sc.eat('}')) {
      out.error = "unterminated \"gauges\" section";
      return out;
    }
  }
  if (!sc.eat(',') || !sc.eat_lit("\"histograms\":") || !sc.eat('{')) {
    out.error = "malformed \"histograms\" section";
    return out;
  }
  if (!sc.eat('}')) {
    do {
      std::string name;
      MetricsSnapshot::Hist h;
      if (!parse_name(sc, name) || !sc.eat(':') || !sc.eat('{') ||
          !sc.eat_lit("\"count\":") || !sc.parse_int(h.count) ||
          !sc.eat(',') || !sc.eat_lit("\"sum\":") || !sc.parse_int(h.sum) ||
          !sc.eat(',') || !sc.eat_lit("\"min\":") || !sc.parse_int(h.min) ||
          !sc.eat(',') || !sc.eat_lit("\"max\":") || !sc.parse_int(h.max) ||
          !sc.eat(',') || !sc.eat_lit("\"buckets\":") || !sc.eat('[')) {
        out.error = "malformed histogram entry";
        return out;
      }
      if (!sc.eat(']')) {
        do {
          std::uint64_t bucket = 0;
          std::uint64_t count = 0;
          if (!sc.eat('[') || !sc.parse_int(bucket) || !sc.eat(',') ||
              !sc.parse_int(count) || !sc.eat(']') ||
              bucket >= Histogram::kBuckets) {
            out.error = "malformed histogram bucket";
            return out;
          }
          h.buckets.emplace_back(static_cast<std::uint32_t>(bucket), count);
        } while (sc.eat(','));
        if (!sc.eat(']')) {
          out.error = "unterminated bucket list";
          return out;
        }
      }
      if (!sc.eat('}')) {
        out.error = "unterminated histogram entry";
        return out;
      }
      out.histograms.emplace_back(std::move(name), std::move(h));
    } while (sc.eat(','));
    if (!sc.eat('}')) {
      out.error = "unterminated \"histograms\" section";
      return out;
    }
  }
  if (!sc.eat('}') || !sc.done()) {
    out.error = "trailing bytes after metrics document";
    return out;
  }
  if (!sorted_unique_names(out.counters) || !sorted_unique_names(out.gauges) ||
      !sorted_unique_names(out.histograms)) {
    out.error = "metric names must be sorted and unique";
    return out;
  }
  out.ok = true;
  return out;
}

MetricsSnapshot merge_metrics(const std::vector<MetricsSnapshot>& inputs) {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  struct HistAcc {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = UINT64_MAX;
    std::uint64_t max = 0;
    std::map<std::uint32_t, std::uint64_t> buckets;
  };
  std::map<std::string, HistAcc> histograms;

  MetricsSnapshot out;
  out.ok = true;
  out.sources = 0;
  for (const auto& input : inputs) {
    out.sources += input.sources;
    for (const auto& [name, value] : input.counters) {
      counters[name] += value;
    }
    for (const auto& [name, value] : input.gauges) {
      auto [it, inserted] = gauges.emplace(name, value);
      if (!inserted) it->second = std::max(it->second, value);
    }
    for (const auto& [name, h] : input.histograms) {
      HistAcc& acc = histograms[name];
      acc.count += h.count;
      acc.sum += h.sum;
      if (h.count != 0) {
        acc.min = std::min(acc.min, h.min);
        acc.max = std::max(acc.max, h.max);
      }
      for (const auto& [bucket, count] : h.buckets) {
        acc.buckets[bucket] += count;
      }
    }
  }
  for (auto& [name, value] : counters) out.counters.emplace_back(name, value);
  for (auto& [name, value] : gauges) out.gauges.emplace_back(name, value);
  for (auto& [name, acc] : histograms) {
    MetricsSnapshot::Hist h;
    h.count = acc.count;
    h.sum = acc.sum;
    h.min = acc.min == UINT64_MAX ? 0 : acc.min;
    h.max = acc.max;
    for (const auto& [bucket, count] : acc.buckets) {
      h.buckets.emplace_back(bucket, count);
    }
    out.histograms.emplace_back(name, std::move(h));
  }
  return out;
}

}  // namespace railcorr::obs
