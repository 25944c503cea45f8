#include "obs/metrics.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/journal.h"

namespace trajpattern::obs {
namespace {

/// Shortest round-trippable decimal for JSON; never NaN/Inf (callers
/// filter those first).
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Shortest round-tripping string, by length rather than precision —
  // "%.1g" renders 10 as "1e+01", but "%.2g" gives the nicer "10".
  std::string best = buf;
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    double back;
    std::sscanf(shorter, "%lf", &back);
    if (back == v && std::string(shorter).size() < best.size()) best = shorter;
  }
  return best;
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter());
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge());
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot.reset(new Histogram(bounds));
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.bounds = h->bounds();
    data.counts.reserve(data.bounds.size() + 1);
    for (size_t i = 0; i <= data.bounds.size(); ++i) {
      data.counts.push_back(h->counts_[i].load(std::memory_order_relaxed));
    }
    data.count = h->Count();
    data.sum = h->Sum();
    snap.histograms[name] = std::move(data);
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->v_.store(0, std::memory_order_relaxed);
  for (auto& [name, g] : gauges_) g->v_.store(0.0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) {
    for (size_t i = 0; i <= h->bounds_.size(); ++i) {
      h->counts_[i].store(0, std::memory_order_relaxed);
    }
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0.0, std::memory_order_relaxed);
  }
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snapshot.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(name, &out);
    out += ": " + std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snapshot.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(name, &out);
    out += ": ";
    out += std::isfinite(v) ? FormatDouble(v) : "null";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(name, &out);
    out += ": {\"bounds\": [";
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::isfinite(h.bounds[i]) ? FormatDouble(h.bounds[i]) : "null";
    }
    out += "], \"counts\": [";
    for (size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.counts[i]);
    }
    out += "], \"count\": " + std::to_string(h.count);
    out += ", \"sum\": ";
    out += std::isfinite(h.sum) ? FormatDouble(h.sum) : "null";
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string Sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string PromDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return FormatDouble(v);
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, v] : snapshot.counters) {
    const std::string n = Sanitize(name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : snapshot.gauges) {
    const std::string n = Sanitize(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + PromDouble(v) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string n = Sanitize(name);
    out += "# TYPE " + n + " histogram\n";
    int64_t cumulative = 0;
    for (size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      const std::string le =
          i < h.bounds.size() ? PromDouble(h.bounds[i]) : "+Inf";
      out += n + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) +
             "\n";
    }
    out += n + "_sum " + PromDouble(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

bool WriteFileAtomicish(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = std::fclose(f) == 0 && written == content.size();
  return ok;
}

bool WriteMetricsJsonFile(const MetricsSnapshot& snapshot,
                          const std::string& path) {
  return WriteFileAtomicish(path, ToJson(snapshot));
}

bool WriteMetricsPrometheusFile(const MetricsSnapshot& snapshot,
                                const std::string& path) {
  return WriteFileAtomicish(path, ToPrometheusText(snapshot));
}

}  // namespace trajpattern::obs
