// In-memory span tracer for the traced benchmark run.
//
// A span is (name, start, end, parent, request id), opened and closed
// around one call into a layer of the library. Spans nest strictly (the
// benchmark is single-threaded), so the parent is the innermost open span
// and a span's self time is its duration minus the durations of its
// direct children. Counts are recorded beside the spans, at the same call
// boundaries. Nothing is written until the run ends.
//
// A disabled tracer makes every span a no-op, so the untraced run pays one
// predictable branch per call site.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ftcbench {

using Clock = std::chrono::steady_clock;

inline double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Quantile q in [0, 1] of an unsorted sample, interpolating linearly
// between the two nearest ranks of the sorted copy; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

class Tracer {
 public:
  // Spans kept for the trace file; beyond this many, spans are still
  // timed and folded into the per-name summaries but not stored.
  static constexpr std::size_t kMaxStoredSpans = 200000;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Spans opened while disabled are not recorded; counts are still kept.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  class Span {
   public:
    Span(Tracer* tracer, const char* name, std::uint64_t request)
        : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->open(name, request);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->close();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  // Opens a span that closes when the returned object is destroyed.
  Span span(const char* name, std::uint64_t request = 0) {
    return Span(enabled_ ? this : nullptr, name, request);
  }

  // Counts keep the first value recorded under a name: the seeded,
  // repeatable sample.
  void set_once(const std::string& name, double value) { counts_.emplace(name, value); }
  double count(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }

  // Durations (microseconds) of every closed span with this name.
  const std::vector<double>& durations(const std::string& name) const {
    static const std::vector<double> kEmpty;
    for (const auto& [n, s] : summary_) {
      if (name == n) return s.durations_us;
    }
    return kEmpty;
  }
  double median_us(const std::string& name) const {
    return quantile(durations(name), 0.5);
  }
  // Spans whose direct children summed to more than the span itself.
  std::size_t nesting_violations() const { return nesting_violations_; }

  // Writes spans, per-name summaries (count, total, self) and counts as
  // one JSON document. `extra` is a JSON object spliced in verbatim.
  void write_json(const std::string& path, const std::string& extra) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
    std::fprintf(f, "{\"run\": %s,\n\"summary\": {", extra.c_str());
    bool first = true;
    for (const auto& [name, s] : summary_) {
      double total = 0;
      for (double d : s.durations_us) total += d;
      std::fprintf(f, "%s\n  \"%s\": {\"count\": %zu, \"total_us\": %.3f, "
                   "\"self_us\": %.3f, \"p50_us\": %.3f}",
                   first ? "" : ",", name, s.durations_us.size(), total,
                   s.self_us, quantile(s.durations_us, 0.5));
      first = false;
    }
    std::fprintf(f, "},\n\"counts\": {");
    first = true;
    for (const auto& [name, v] : counts_) {
      std::fprintf(f, "%s\n  \"%s\": %.17g", first ? "" : ",", name.c_str(), v);
      first = false;
    }
    std::fprintf(f, "},\n\"spans_dropped\": %zu,\n\"spans\": [", dropped_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f, "%s\n  {\"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %lld, \"request\": %llu}",
                   i == 0 ? "" : ",", s.name, s.start_us, s.end_us,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }

 private:
  struct Stored {
    const char* name;
    double start_us;
    double end_us;
    std::int64_t parent;  // index into spans_, -1 for a root (or unstored parent)
    std::uint64_t request;
  };
  struct Open {
    const char* name;
    Clock::time_point start;
    double children_us;
    std::int64_t stored;  // index into spans_, -1 when not stored
  };
  struct Summary {
    std::vector<double> durations_us;
    double self_us = 0;
  };

  void open(const char* name, std::uint64_t request) {
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().stored;
    std::int64_t stored = -1;
    const auto now = Clock::now();
    if (spans_.size() < kMaxStoredSpans) {
      stored = static_cast<std::int64_t>(spans_.size());
      spans_.push_back({name, micros(now - origin_), 0.0, parent, request});
    } else {
      ++dropped_;
    }
    stack_.push_back({name, now, 0.0, stored});
  }

  void close() {
    const auto now = Clock::now();
    const Open top = stack_.back();
    stack_.pop_back();
    const double dur = micros(now - top.start);
    // Strict nesting: the children closed inside this span cannot cover
    // more than the span itself. Checked by the caller after the run
    // (closing happens in destructors, which must not throw).
    if (top.children_us > dur) ++nesting_violations_;
    if (top.stored >= 0) spans_[top.stored].end_us = micros(now - origin_);
    auto& s = summary(top.name);
    s.durations_us.push_back(dur);
    s.self_us += dur - top.children_us;
    if (!stack_.empty()) stack_.back().children_us += dur;
  }

  // Span names are string literals: look them up by pointer first (the
  // hot path), by content only when a new pointer shows up.
  Summary& summary(const char* name) {
    for (auto& [n, s] : summary_) {
      if (n == name) return s;
    }
    for (auto& [n, s] : summary_) {
      if (std::strcmp(n, name) == 0) return s;
    }
    return summary_.emplace_back(name, Summary{}).second;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Open> stack_;
  std::vector<Stored> spans_;
  std::size_t dropped_ = 0;
  std::size_t nesting_violations_ = 0;
  std::vector<std::pair<const char*, Summary>> summary_;  // first-seen order
  std::map<std::string, double> counts_;
};

}  // namespace ftcbench
