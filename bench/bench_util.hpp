// Shared helpers for the benchmark harness: the measurement loop
// (warm-up, median, p99, sample count), ground-truth checks with one
// exit rule, aligned table printing (the benches emit paper-style
// tables), and fault/query workload generation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"

namespace ftc::bench {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double millis() const { return seconds() * 1e3; }
  double micros() const { return seconds() * 1e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

// ------------------------------------------------------------ the loop

// Latency samples of one metric, in microseconds.
struct Series {
  std::vector<double> us;

  void add(const Timer& t, bool keep) {
    if (keep) us.push_back(t.micros());
  }
  // Nearest-rank quantile.
  double at(double q) const {
    if (us.empty()) return 0.0;
    std::vector<double> sorted = us;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
  }
};

// The measurement loop: round(i, keep) runs for the warm-up rounds with
// keep == false, then for `samples` rounds with keep == true. A round
// times its own phases and hands each Timer to Series::add, which drops
// warm-up timings; checks run after the clock stops.
template <typename Round>
void rounds(std::size_t samples, Round&& round) {
  const std::size_t warmup = std::max<std::size_t>(1, samples / 8);
  for (std::size_t i = 0; i < warmup + samples; ++i) round(i, i >= warmup);
}

// The exit rule: every failed check prints one `FAILED:` line on stderr
// and counts in g_failures; a bench exits 1 when g_failures != 0.
inline std::size_t g_checked = 0;
inline std::size_t g_failures = 0;

inline void fail(const std::string& what) {
  ++g_failures;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

// One checked answer that has no BFS truth (a net property, a distance
// bound): fails with `what` when !ok.
inline void expect(bool ok, const std::string& what) {
  ++g_checked;
  if (!ok) fail(what);
}

// One connectivity answer against its ground truth.
inline void check(bool got, bool truth, const std::string& where,
                  const char* what) {
  ++g_checked;
  if (got != truth) {
    fail(where + " " + what + ": answered " +
         (got ? "connected" : "disconnected") + ", BFS disagrees");
  }
}

// Minimal aligned-column table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    std::vector<std::size_t> width(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c) {
      width[c] = header_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    const auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (std::size_t c = 0; c < header_.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(width[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    std::printf("|");
    for (std::size_t c = 0; c < header_.size(); ++c) {
      std::printf("%s|", std::string(width[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, const char* spec = "%.3g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

inline std::string fmt_bits(std::size_t bits) {
  if (bits < 8192) return std::to_string(bits) + " b";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f KiB", static_cast<double>(bits) / 8192);
  return buf;
}

// A timed cell: median, p99 and sample count, in ms or us.
inline std::string fmt_series(const Series& s, const char* unit) {
  const double scale = std::string(unit) == "ms" ? 1e-3 : 1.0;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.1f %s (p99 %.1f, n=%zu)",
                s.at(0.5) * scale, unit, s.at(0.99) * scale, s.us.size());
  return buf;
}

// Machine-readable bench output: a flat array of records, each a JSON
// object of scalar fields. Benches print tables for humans and call
// print("tag") to emit one `tag [{...},...]` line for scripts.
class JsonRecords {
 public:
  void add() { records_.emplace_back(); }

  void field(const std::string& key, const std::string& value) {
    record().push_back(quote(key) + ":" + quote(value));
  }
  void field(const std::string& key, const char* value) {
    field(key, std::string(value));
  }
  void field(const std::string& key, double value) {
    record().push_back(quote(key) + ":" + fmt(value, "%.6g"));
  }
  void field(const std::string& key, bool value) {
    record().push_back(quote(key) + (value ? ":true" : ":false"));
  }
  template <typename Int>
    requires std::is_integral_v<Int>
  void field(const std::string& key, Int value) {
    record().push_back(quote(key) + ":" + std::to_string(value));
  }

  std::string dump() const {
    std::string out = "[";
    for (std::size_t r = 0; r < records_.size(); ++r) {
      if (r != 0) out += ",";
      out += "{";
      for (std::size_t i = 0; i < records_[r].size(); ++i) {
        if (i != 0) out += ",";
        out += records_[r][i];
      }
      out += "}";
    }
    return out + "]";
  }

  void print(const char* tag) const {
    std::printf("%s %s\n", tag, dump().c_str());
  }

 private:
  std::vector<std::string>& record() {
    FTC_REQUIRE(!records_.empty(), "JsonRecords::field before add()");
    return records_.back();
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        default:
          out += c;
      }
    }
    return out + "\"";
  }

  std::vector<std::vector<std::string>> records_;
};

inline void put(JsonRecords& json, const std::string& key, const Series& s) {
  json.field(key + "_p50", s.at(0.5));
  json.field(key + "_p99", s.at(0.99));
  json.field(key + "_n", s.us.size());
}

// A fault set plus a query endpoint pair with its ground-truth answer.
struct QueryCase {
  std::vector<graph::EdgeId> faults;
  graph::VertexId s = 0;
  graph::VertexId t = 0;
  bool expected = false;
};

// The first `count` edges a BFS from `centre` reaches: a regional
// failure, as ftcbench's `outage` workload draws them.
inline std::vector<graph::EdgeId> ball_edges(const graph::Graph& g,
                                             graph::VertexId centre,
                                             unsigned count) {
  std::vector<graph::EdgeId> edges;
  std::vector<char> taken(g.num_edges(), 0);
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<graph::VertexId> queue{centre};
  seen[centre] = 1;
  for (std::size_t head = 0; head < queue.size() && edges.size() < count;
       ++head) {
    const graph::VertexId v = queue[head];
    for (const graph::EdgeId e : g.incident_edges(v)) {
      if (edges.size() == count) break;
      if (taken[e]) continue;
      taken[e] = 1;
      edges.push_back(e);
      const graph::VertexId u = g.other_endpoint(e, v);
      if (!seen[u]) {
        seen[u] = 1;
        queue.push_back(u);
      }
    }
  }
  return edges;
}

// `count` query cases of `num_faults` faults each, t uniform. Uniform
// faults and s by default; with `ball`, the faults are a BFS ball around
// a uniform centre and s is an endpoint of a failed edge, so the queries
// start next to the cuts that are hardest to decode.
inline std::vector<QueryCase> make_query_cases(const graph::Graph& g,
                                               unsigned num_faults,
                                               int count, std::uint64_t seed,
                                               bool ball = false) {
  SplitMix64 rng(seed);
  std::vector<QueryCase> cases;
  cases.reserve(count);
  for (int i = 0; i < count; ++i) {
    QueryCase qc;
    if (ball) {
      const auto centre =
          static_cast<graph::VertexId>(rng.next_below(g.num_vertices()));
      qc.faults = ball_edges(g, centre, num_faults);
      const graph::Edge& ed =
          g.edge(qc.faults[rng.next_below(qc.faults.size())]);
      qc.s = rng.next_below(2) == 0 ? ed.u : ed.v;
    } else {
      for (unsigned j = 0; j < num_faults; ++j) {
        qc.faults.push_back(
            static_cast<graph::EdgeId>(rng.next_below(g.num_edges())));
      }
      qc.s = static_cast<graph::VertexId>(rng.next_below(g.num_vertices()));
    }
    qc.t = static_cast<graph::VertexId>(rng.next_below(g.num_vertices()));
    qc.expected = graph::connected_avoiding(g, qc.s, qc.t, qc.faults);
    cases.push_back(std::move(qc));
  }
  return cases;
}

// Log-log least-squares slope: how measured scales with the driver.
inline double loglog_slope(const std::vector<double>& x,
                           const std::vector<double>& y) {
  FTC_REQUIRE(x.size() == y.size() && x.size() >= 2, "need >= 2 samples");
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double lx = std::log2(x[i]);
    const double ly = std::log2(std::max(y[i], 1e-12));
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

}  // namespace ftc::bench
