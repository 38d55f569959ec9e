// ftcbench: the repository's end-to-end benchmark of the core-ftc
// pipeline, driven only through the library's public API:
//
//   make_scheme -> save / save_sharded -> load_scheme + prefetch ->
//   BatchQueryEngine::reset_faults / run_sequential / swap_store,
//   plus DeletionJournal::append and save_sharded_delta.
//
// Usage (normally through run.py, which builds this program first):
//
//   ftcbench --workload outage|steady --seed N --seconds S
//            --trace 0|1 --work-dir DIR --trace-file PATH
//
// Everything runs on one thread (build_threads = 1, run_sequential,
// prefetch(1), writes interleaved on the query thread). The seed fixes the
// graph, every fault set, every query pair and every deleted edge; the
// library only ever sees those generated inputs. Every answer is checked
// against component labels of G - F - (journaled deletions) computed
// before the fault set is timed; a wrong answer makes the run fail.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// (from spans recorded around each library call, trace.hpp) with --trace 1.
// The line before it ("detail {...}") carries sample counts and the host
// parallelism probe.
#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/ftc_query.hpp"
#include "core/ftc_scheme.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"
#include "graph/generators.hpp"
#include "trace.hpp"

namespace ftcbench {
namespace {

namespace core = ftc::core;
namespace fs = std::filesystem;
using ftc::graph::EdgeId;
using ftc::graph::Graph;
using ftc::graph::VertexId;
using Query = core::BatchQueryEngine::Query;

constexpr std::size_t kPairsPerRequest = 64;
// Deletions between two republishes in a write cycle.
constexpr unsigned kDeletesPerCycle = 4;
// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
// Fault sets (first request of each) whose decoder counts are recorded.
constexpr std::size_t kDecoderSampleRounds = 16;

enum class Serving { kMemory, kFlat, kSharded };

struct Workload {
  const char* name;
  VertexId n;
  EdgeId m;
  unsigned f;
  unsigned faults;  // |F| per fault set
  // F is the first `faults` edges reached by a BFS from a random centre,
  // and s is drawn from the failed ball; otherwise F and s are uniform.
  bool ball;
  unsigned requests_per_set;
  Serving serving;
  unsigned shards;
  // Fault sets generated before timing and run in passes (see make_pool);
  // a multiple of group_sets.
  std::size_t pool;
  std::size_t group_sets;  // fault sets per group (see Bench::serve)
  // Write cycles (see Bench::write_cycle), one after every cycle_every
  // passes of the timed phase.
  int write_cycles;
  int cycle_every;
  // The network under test is fixed per workload; --seed draws the
  // fault sets, query pairs and deleted edges on it.
  std::uint64_t graph_seed;
};

const Workload kWorkloads[] = {
    // outage: pool = n centres; steady: pool * faults = m edges.
    {"outage", 2048, 8192, 16, 16, true, 1, Serving::kFlat, 1, 2048, 64, 2, 1, 1},
    {"steady", 8192, 32768, 4, 4, false, 16, Serving::kMemory, 1, 8192, 256, 6, 4, 2},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double micros_since(Clock::time_point t0) { return micros(Clock::now() - t0); }

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "ftcbench: %s\n", what.c_str());
  std::exit(2);
}

// ------------------------------------------------------------ ground truth

// Connected components of g minus the removed edges, by union-find.
class Components {
 public:
  Components(const Graph& g, std::span<const EdgeId> removed_a,
             std::span<const EdgeId> removed_b = {})
      : parent_(g.num_vertices()) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) parent_[v] = v;
    std::vector<char> gone(g.num_edges(), 0);
    for (EdgeId e : removed_a) gone[e] = 1;
    for (EdgeId e : removed_b) gone[e] = 1;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (gone[e]) continue;
      const auto& ed = g.edge(e);
      const VertexId a = find(ed.u), b = find(ed.v);
      if (a != b) parent_[a] = b;
    }
  }
  bool connected(VertexId s, VertexId t) { return find(s) == find(t); }

 private:
  VertexId find(VertexId v) {
    while (parent_[v] != v) v = parent_[v] = parent_[parent_[v]];
    return v;
  }
  std::vector<VertexId> parent_;
};

bool contains(std::span<const EdgeId> set, EdgeId e) {
  return std::find(set.begin(), set.end(), e) != set.end();
}

// g with the removed edges dropped; surviving edges keep their order, so
// edge IDs are renumbered exactly as a rebuild from the edge list would.
Graph without(const Graph& g, std::span<const EdgeId> removed) {
  Graph out(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!contains(removed, e)) out.add_edge(g.edge(e).u, g.edge(e).v);
  }
  return out;
}

// A uniform edge whose removal (with the already deleted ones) keeps the
// graph connected, as make_scheme requires for the next generation.
EdgeId pick_nonbridge(const Graph& g, std::span<const EdgeId> deleted,
                      ftc::SplitMix64& rng) {
  for (;;) {
    const auto e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    if (contains(deleted, e)) continue;
    Components c(g, deleted, std::span<const EdgeId>(&e, 1));
    if (c.connected(g.edge(e).u, g.edge(e).v)) return e;
  }
}

// One fault set and the requests asked under it, with expected answers.
struct Round {
  core::FaultSpec spec;
  std::vector<EdgeId> fault_edges;
  std::vector<Query> pairs;  // requests_per_set * kPairsPerRequest
  std::vector<std::uint8_t> expect;
};

// The first `count` edges reached by a BFS from `centre`.
std::vector<EdgeId> ball_edges(const Graph& g, VertexId centre, unsigned count) {
  std::vector<EdgeId> edges;
  std::vector<char> taken(g.num_edges(), 0);
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<VertexId> queue{centre};
  seen[centre] = 1;
  for (std::size_t head = 0; head < queue.size() && edges.size() < count; ++head) {
    const VertexId v = queue[head];
    for (EdgeId e : g.incident_edges(v)) {
      if (taken[e]) continue;
      taken[e] = 1;
      edges.push_back(e);
      const VertexId u = g.other_endpoint(e, v);
      if (!seen[u]) {
        seen[u] = 1;
        queue.push_back(u);
      }
      if (edges.size() == count) break;
    }
  }
  return edges;
}

// The requests asked under one fault set, with expected answers: s from the
// failed ball on a ball workload (uniform otherwise), t uniform.
Round make_round(const Workload& w, const Graph& g, std::vector<EdgeId> fault_edges,
                 ftc::SplitMix64& rng) {
  Round r;
  r.fault_edges = std::move(fault_edges);
  std::vector<VertexId> ball;
  for (EdgeId e : r.fault_edges) {
    ball.push_back(g.edge(e).u);
    ball.push_back(g.edge(e).v);
  }
  std::sort(ball.begin(), ball.end());
  ball.erase(std::unique(ball.begin(), ball.end()), ball.end());
  r.spec = core::FaultSpec::edges(r.fault_edges);
  Components truth(g, r.fault_edges);
  const std::size_t pairs = std::size_t{w.requests_per_set} * kPairsPerRequest;
  r.pairs.reserve(pairs);
  r.expect.reserve(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto s = w.ball ? ball[rng.next_below(ball.size())]
                          : static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    r.pairs.push_back({s, t});
    r.expect.push_back(truth.connected(s, t) ? 1 : 0);
  }
  return r;
}

// Fault sets are drawn without replacement from a seeded permutation: of
// the vertices as ball centres, or of the edges in runs of w.faults. With
// the pool sized to cover it, every region (outage) or every edge (steady)
// fails exactly once per pass, and the seed sets the order, the grouping
// and the query pairs. The few regions or edges whose queries are very
// heavy are then in every run, not a seed-dependent handful that would
// sway query_qps and request_p99_us.
std::vector<Round> make_pool(const Workload& w, const Graph& g, ftc::SplitMix64& rng) {
  const std::size_t units = w.ball ? g.num_vertices() : g.num_edges();
  const std::size_t per_round = w.ball ? 1 : w.faults;
  if (w.pool % w.group_sets != 0 || w.pool * per_round > units) {
    die("pool must be a multiple of group_sets and fit in one permutation");
  }
  std::vector<std::uint32_t> perm(units);
  std::iota(perm.begin(), perm.end(), std::uint32_t{0});
  for (std::size_t i = units; i > 1; --i) std::swap(perm[i - 1], perm[rng.next_below(i)]);
  std::vector<Round> pool;
  for (std::size_t i = 0; i < w.pool; ++i) {
    auto faults = w.ball ? ball_edges(g, perm[i], w.faults)
                         : std::vector<EdgeId>(perm.begin() + i * w.faults,
                                               perm.begin() + (i + 1) * w.faults);
    pool.push_back(make_round(w, g, std::move(faults), rng));
  }
  return pool;
}

// Runs fn; returns true when the library refused it with one of its typed
// errors (counted as a failed operation, never a crash or a wrong answer).
template <typename Fn>
bool refused(Fn&& fn) {
  try {
    fn();
    return false;
  } catch (const core::FtcCapacityError& e) {
    std::fprintf(stderr, "ftcbench: refused: %s\n", e.what());
  } catch (const core::CapacityError& e) {
    std::fprintf(stderr, "ftcbench: refused: %s\n", e.what());
  } catch (const core::StoreError& e) {
    std::fprintf(stderr, "ftcbench: refused: %s\n", e.what());
  }
  return true;
}

// ------------------------------------------------------------------ server

// The system under test on one workload's serving path: an in-memory
// scheme, a flat mmap store, or a sharded store, behind one engine.
class Server {
 public:
  Server(const Workload& w, const fs::path& dir, Tracer& tracer)
      : w_(w), tracer_(tracer) {
    cfg_.backend = core::BackendKind::kCoreFtc;
    cfg_.set_f(w.f);
    cfg_.ftc.k_mode = core::KMode::kPractical;
    cfg_.ftc.k_scale = 2.0;
    cfg_.set_build_threads(1);
    const char* ext = w.serving == Serving::kSharded ? ".ftcm" : ".ftcs";
    path_ = (dir / (std::string(w.name) + ext)).string();
    journal_ = core::journal_path_for(path_);
  }

  const core::SchemeConfig& config() const { return cfg_; }

  // Every library call before serving: build, and for stores save, open
  // (with checksum verification) and prefetch. Returns its wall time.
  double setup(const Graph& g) {
    engine_.reset();
    fs::remove(journal_);
    const auto t0 = Clock::now();
    {
      auto root = tracer_.span("setup");
      std::unique_ptr<core::ConnectivityScheme> scheme;
      {
        auto s = tracer_.span("build.make_scheme");
        scheme = core::make_scheme(g, cfg_);
      }
      label_bytes_ = scheme->total_label_bits() / 8;
      if (w_.serving == Serving::kMemory) {
        engine_ = std::make_unique<core::BatchQueryEngine>(std::move(scheme),
                                                           core::FaultSpec{});
      } else {
        {
          auto s = tracer_.span("store.save");
          if (w_.serving == Serving::kFlat) {
            scheme->save(path_);
          } else {
            core::save_sharded(*scheme, path_, w_.shards);
          }
        }
        scheme.reset();
        std::unique_ptr<core::ConnectivityScheme> loaded;
        {
          auto s = tracer_.span("store.open");
          loaded = core::load_scheme(path_);
        }
        {
          auto s = tracer_.span("store.prefetch");
          const auto stats = loaded->store_view()->prefetch(1);
          tracer_.set_once("store.shards_opened", static_cast<double>(stats.shards_opened));
        }
        store_bytes_ = loaded->store_view()->info().file_bytes;
        engine_ = std::make_unique<core::BatchQueryEngine>(std::move(loaded),
                                                           core::FaultSpec{});
      }
    }
    const double secs = seconds_since(t0);
    if (w_.serving == Serving::kMemory) {
      // The bytes this scheme's container would take, from one
      // serialization pass with no file I/O (not part of set-up).
      store_bytes_ = core::store::digest_container(engine_->scheme(), 0, g.num_vertices(),
                                                   0, g.num_edges(), true)
                         .file_bytes;
    }
    spec_ = core::FaultSpec{};
    deleted_.clear();
    return secs;
  }

  void reset_faults(const core::FaultSpec& spec) {
    engine_->reset_faults(spec);
    spec_ = spec;
    deleted_.clear();
  }
  std::vector<bool> run(std::span<const Query> pairs) {
    return engine_->run_sequential(pairs);
  }
  const core::ConnectivityScheme& scheme() const { return engine_->scheme(); }

  // Deletes one edge without a rebuild. A store journals it and swaps to
  // the journaled store; the in-memory path has nothing durable to write,
  // so it folds the edge into the served fault set as a permanent fault.
  void remove_edge(EdgeId e) {
    auto root = tracer_.span("delete");
    deleted_.push_back(e);
    if (w_.serving == Serving::kMemory) {
      std::vector<EdgeId> faults(spec_.edge_faults().begin(), spec_.edge_faults().end());
      faults.insert(faults.end(), deleted_.begin(), deleted_.end());
      auto s = tracer_.span("engine.reset_faults");
      engine_->reset_faults(core::FaultSpec::edges(faults));
      return;
    }
    {
      auto s = tracer_.span("journal.append");
      core::DeletionJournal::append(journal_, scheme().store_view()->info().payload_checksum,
                                    w_.f, std::span<const EdgeId>(&e, 1));
    }
    {
      auto s = tracer_.span("engine.swap_store");
      engine_->swap_store(path_);
    }
    tracer_.set_once("store.shards_adopted",
                     static_cast<double>(engine_->generation_stats().shards_adopted));
  }

  // Rebuilds from g2 (G minus the journaled edges, renumbered), publishes
  // it (flat: full save; sharded: delta push over the serving manifest;
  // in-memory: nothing to write) and swaps it in with the journal cleared.
  void republish(const Graph& g2) {
    auto root = tracer_.span("republish");
    if (w_.serving != Serving::kMemory) {
      tracer_.set_once("journal.occupancy", static_cast<double>(deleted_.size()));
    }
    std::unique_ptr<core::ConnectivityScheme> scheme;
    {
      auto s = tracer_.span("build.make_scheme");
      scheme = core::make_scheme(g2, cfg_);
    }
    {
      // Edge IDs are renumbered, so no old fault set stays meaningful.
      auto s = tracer_.span("engine.reset_faults");
      reset_faults(core::FaultSpec{});
    }
    if (w_.serving == Serving::kMemory) {
      auto s = tracer_.span("engine.swap_store");
      engine_->swap_store(std::move(scheme));
    } else {
      {
        auto s = tracer_.span("store.push");
        if (w_.serving == Serving::kFlat) {
          scheme->save(path_);
          tracer_.set_once("store.push.bytes_written",
                           static_cast<double>(fs::file_size(path_)));
          tracer_.set_once("store.push.shards_reused", 0);
        } else {
          const auto st = core::save_sharded_delta(*scheme, path_, path_);
          tracer_.set_once("store.push.bytes_written", static_cast<double>(st.bytes_written));
          tracer_.set_once("store.push.shards_reused", static_cast<double>(st.shards_reused));
        }
      }
      scheme.reset();
      fs::remove(journal_);
      auto s = tracer_.span("engine.swap_store");
      engine_->swap_store(path_);
    }
  }

  std::size_t label_bytes() const { return label_bytes_; }
  std::size_t store_bytes() const { return store_bytes_; }

 private:
  const Workload& w_;
  Tracer& tracer_;
  core::SchemeConfig cfg_;
  std::string path_;
  std::string journal_;
  std::unique_ptr<core::BatchQueryEngine> engine_;
  core::FaultSpec spec_;
  std::vector<EdgeId> deleted_;  // since the last republish
  std::size_t label_bytes_ = 0;
  std::size_t store_bytes_ = 0;
};

// ------------------------------------------------------------------- bench

constexpr double kNever = std::numeric_limits<double>::infinity();

// Pins the calling thread to the allowed CPU that runs a short
// register-only loop fastest right now. On a shared VM each vCPU's
// physical core is also used by other tenants: at one moment some vCPUs
// run at full speed while others run up to 2x slower, and the guest
// scheduler, which cannot see this, leaves the benchmark on one vCPU
// through a slow spell that can outlast a run. Called before each group,
// set-up and write cycle, outside their timing.
class CpuPicker {
 public:
  CpuPicker() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  void pick() {
    if (cpus_.size() < 2) return;
    double best = kNever;
    int best_cpu = cpus_[0];
    for (int c : cpus_) {
      pin(c);
      const auto t0 = Clock::now();
      for (int i = 0; i < 200'000; ++i) {
        sink_ ^= sink_ << 13;
        sink_ ^= sink_ >> 7;
        sink_ ^= sink_ << 17;
      }
      const double us = micros_since(t0);
      if (us < best) {
        best = us;
        best_cpu = c;
      }
    }
    pin(best_cpu);
  }

 private:
  static void pin(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
  }

  std::vector<int> cpus_;
  std::uint64_t sink_ = 1;
};

struct Samples {
  double qps = 0;  // pairs answered / wall time, over each group's fastest pass
  int passes = 0;  // passes started over the pool
  // Per request and per fault set of the pool: the fastest of its passes
  // (refused ones dropped).
  std::vector<double> request_us;
  std::vector<double> prepare_us;
  std::vector<double> delete_ms;
  std::vector<double> republish_s;
  std::uint64_t pairs = 0;  // answered in each group's fastest pass
  double busy_s = 0;        // timed-phase wall time
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, const fs::path& dir, Tracer& tracer)
      : w_(w),
        rng_(seed),
        graph_(ftc::graph::random_connected(w.n, w.m, w.graph_seed)),
        tracer_(tracer),
        server_(w, dir, tracer) {}

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return wrong_ == 0; }
  const Server& server() const { return server_; }
  std::vector<double>& setup_s() { return setup_s_; }
  std::vector<double>& request_overhead_us() { return request_overhead_us_; }

  void setup(int reps) {
    for (int i = 0; i < reps; ++i) {
      cpu_.pick();
      setup_s_.push_back(server_.setup(graph_));
      if (i == 0) {
        label_bytes_ = server_.label_bytes();
        store_bytes_ = server_.store_bytes();
      } else if (label_bytes_ != server_.label_bytes() ||
                 store_bytes_ != server_.store_bytes()) {
        die("label or store bytes differ between identical set-ups");
      }
    }
    pool_ = make_pool(w_, graph_, rng_);
  }

  // Decoder counts for the first fault sets of the plan, from
  // FtcDecoder::connected on an in-memory FtcScheme of the same graph and
  // config; also FtcScheme::build's own phase split. Traced runs only.
  void decoder_sample() {
    auto root = tracer_.span("decoder.sample");
    const auto scheme = core::FtcScheme::build(graph_, server_.config().ftc);
    const auto& bs = scheme.build_stats();
    if (bs.hierarchy_seconds + bs.sketch_seconds > bs.total_seconds) {
      die("build phase split exceeds the build total");
    }
    tracer_.set_once("build.hierarchy_ms", bs.hierarchy_seconds * 1e3);
    tracer_.set_once("build.sketch_ms", bs.sketch_seconds * 1e3);
    tracer_.set_once("build.k", bs.k);
    tracer_.set_once("build.levels", bs.num_levels);
    tracer_.set_once("build.hierarchy_edges", static_cast<double>(bs.hierarchy_edges));
    core::DecoderWorkspace ws;
    core::QueryStats total;
    std::size_t queries = 0;
    const std::size_t rounds = std::min(kDecoderSampleRounds, pool_.size());
    for (std::size_t r = 0; r < rounds; ++r) {
      const Round& round = pool_[r];
      std::vector<core::EdgeLabel> labels;
      for (EdgeId e : round.fault_edges) labels.push_back(scheme.edge_label(e));
      const auto prepared = core::PreparedFaults::prepare(labels, scheme.level_populations());
      for (std::size_t i = 0; i < kPairsPerRequest; ++i) {
        const Query q = round.pairs[i];
        core::QueryStats st;
        bool ans = false;
        if (refused([&] {
              ans = core::FtcDecoder::connected(scheme.vertex_label(q.s), scheme.vertex_label(q.t),
                                                prepared, ws, {}, &st);
            })) {
          continue;
        }
        check(ans, round.expect[i], "decoder");
        total.fragments += st.fragments;
        total.outdetect_calls += st.outdetect_calls;
        total.merges += st.merges;
        total.levels_scanned += st.levels_scanned;
        ++queries;
      }
    }
    tracer_.set_once("decoder.queries", static_cast<double>(queries));
    tracer_.set_once("decoder.fragments", total.fragments);
    tracer_.set_once("decoder.outdetect_calls", total.outdetect_calls);
    tracer_.set_once("decoder.merges", total.merges);
    tracer_.set_once("decoder.levels_scanned", total.levels_scanned);
  }

  // The timed phase: closed loop, one caller. The pool runs in passes, in
  // the same order each pass, until `seconds` have elapsed (the first pass
  // always completes). Every prepare and request is timed once per pass and
  // keeps its fastest time; a group (w.group_sets consecutive fault sets, a
  // fraction of a second of work) keeps its fastest wall time, and
  // query_qps sums those. The host alternates, for seconds at a time,
  // between two speeds about 1.6x apart (other tenants on shared cores);
  // timing the same work several times and keeping the fastest strips that
  // interference. direct_calls (traced runs) adds, per fault set, a direct
  // prepare_faults and one direct scheme.query per pair of the first
  // request, for the scheme.* and engine.request_overhead_us metrics.
  // `cycles` write cycles run after every w.cycle_every passes, so their
  // republishes fall in different stretches of the run; any left when the
  // time is up run after the last pass.
  void serve(double seconds, bool direct_calls, int cycles, Samples& out) {
    const std::size_t groups = pool_.size() / w_.group_sets;
    out.request_us.assign(pool_.size() * w_.requests_per_set, kNever);
    out.prepare_us.assign(pool_.size(), kNever);
    std::vector<double> group_s(groups, kNever);
    std::vector<std::uint64_t> group_pairs(groups, 0);
    const auto start = Clock::now();
    bool done = false;
    for (out.passes = 0; !done; ++out.passes) {
      for (std::size_t g = 0; g < groups && !done; ++g) {
        cpu_.pick();
        std::uint64_t pairs = 0;
        const auto t0 = Clock::now();
        for (std::size_t i = g * w_.group_sets; i < (g + 1) * w_.group_sets; ++i) {
          pairs += serve_round(i, direct_calls, out);
        }
        const double secs = seconds_since(t0);
        if (secs < group_s[g]) {
          group_s[g] = secs;
          group_pairs[g] = pairs;
        }
        done = wrong_ != 0 || (out.passes > 0 && seconds_since(start) >= seconds);
      }
      if (!done && cycles > 0 && (out.passes + 1) % w_.cycle_every == 0) {
        write_cycle(out);
        --cycles;
      }
    }
    for (; cycles > 0 && wrong_ == 0; --cycles) write_cycle(out);
    out.busy_s = seconds_since(start);
    std::erase(out.request_us, kNever);
    std::erase(out.prepare_us, kNever);
    out.pairs = std::accumulate(group_pairs.begin(), group_pairs.end(), std::uint64_t{0});
    out.qps = static_cast<double>(out.pairs) /
              std::accumulate(group_s.begin(), group_s.end(), 0.0);
  }

  // One write cycle on this workload's serving path, with an empty query
  // fault set: kDeletesPerCycle deletes of random non-bridge edges, a
  // republish of G minus them, then a republish of G itself, so the pool's
  // fault sets (edge IDs of G) stay valid for the passes after it. Both
  // republishes are timed.
  void write_cycle(Samples& out) {
    cpu_.pick();
    server_.reset_faults(core::FaultSpec{});
    const Graph base = graph_;
    std::vector<EdgeId> deleted;
    bool ok = true;
    for (unsigned d = 0; ok && d < kDeletesPerCycle; ++d) {
      deleted.push_back(pick_nonbridge(graph_, deleted, rng_));
      ++attempted_;
      const auto t0 = Clock::now();
      ok = !refused([&] { server_.remove_edge(deleted.back()); });
      if (!ok) {
        ++failed_;
        break;
      }
      out.delete_ms.push_back(micros_since(t0) / 1e3);
      check_random_request(deleted);
    }
    if (ok) publish(without(graph_, deleted), out);
    publish(base, out);
  }

 private:
  // Republishes g (built, published, swapped in) and serves it from then on.
  void publish(Graph g, Samples& out) {
    ++attempted_;
    const auto t0 = Clock::now();
    if (refused([&] { server_.republish(g); })) {
      ++failed_;
      return;
    }
    out.republish_s.push_back(seconds_since(t0));
    graph_ = std::move(g);
    check_random_request({});
  }

  // Pool entry i: reset_faults, then its requests, every answer checked;
  // lowers the entry's latencies in `out` and returns the pairs answered.
  std::uint64_t serve_round(std::size_t i, bool direct_calls, Samples& out) {
    const Round& r = pool_[i];
    ++attempted_;
    auto t0 = Clock::now();
    if (refused([&] {
          auto s = tracer_.span("engine.reset_faults");
          server_.reset_faults(r.spec);
        })) {
      ++failed_;
      return 0;
    }
    out.prepare_us[i] = std::min(out.prepare_us[i], micros_since(t0));
    std::uint64_t answered = 0;
    double first_request_us = 0;
    for (unsigned q = 0; q < w_.requests_per_set; ++q) {
      const auto pairs = std::span<const Query>(r.pairs).subspan(q * kPairsPerRequest,
                                                                  kPairsPerRequest);
      ++attempted_;
      std::vector<bool> answers;
      t0 = Clock::now();
      if (refused([&] {
            auto s = tracer_.span("engine.run_sequential", request_id_ + q);
            answers = server_.run(pairs);
          })) {
        ++failed_;
        continue;
      }
      const double us = micros_since(t0);
      if (q == 0) first_request_us = us;
      double& best = out.request_us[i * w_.requests_per_set + q];
      best = std::min(best, us);
      answered += pairs.size();
      for (std::size_t i = 0; i < answers.size(); ++i) {
        check(answers[i], r.expect[q * kPairsPerRequest + i], "engine");
      }
    }
    if (direct_calls) direct(r, first_request_us);
    request_id_ += w_.requests_per_set;
    return answered;
  }

  void check(bool got, std::uint8_t want, const char* path) {
    if (got == (want != 0)) return;
    if (wrong_++ == 0) {
      std::fprintf(stderr, "ftcbench: WRONG ANSWER on the %s path (expected %d)\n", path,
                   static_cast<int>(want));
    }
  }

  void direct(const Round& r, double first_request_us) {
    const auto& scheme = server_.scheme();
    std::unique_ptr<core::ConnectivityScheme::FaultSet> faults;
    if (refused([&] {
          auto s = tracer_.span("scheme.prepare_faults", request_id_);
          faults = scheme.prepare_faults(r.spec);
        })) {
      return;
    }
    auto ws = scheme.make_workspace();
    // The first request's pairs straight through scheme.query: once as
    // one timed block (the engine's per-request overhead is the request
    // minus this), then one span per query for the latency distribution.
    std::vector<bool> answers(kPairsPerRequest);
    double block_us = 0;
    if (refused([&] {
          auto s = tracer_.span("scheme.query_block", request_id_);
          const auto t0 = Clock::now();
          for (std::size_t i = 0; i < kPairsPerRequest; ++i) {
            answers[i] = scheme.query(r.pairs[i].s, r.pairs[i].t, *faults, *ws);
          }
          block_us = micros_since(t0);
        })) {
      return;
    }
    request_overhead_us_.push_back(first_request_us - block_us);
    for (std::size_t i = 0; i < kPairsPerRequest; ++i) {
      if (refused([&] {
            auto s = tracer_.span("scheme.query", request_id_);
            answers[i] = scheme.query(r.pairs[i].s, r.pairs[i].t, *faults, *ws);
          })) {
        return;
      }
      check(answers[i], r.expect[i], "scheme");
    }
  }

  // One request of uniform pairs against G minus `deleted`, checked.
  void check_random_request(std::span<const EdgeId> deleted) {
    Components truth(graph_, deleted);
    std::vector<Query> pairs;
    for (std::size_t i = 0; i < kPairsPerRequest; ++i) {
      pairs.push_back({static_cast<VertexId>(rng_.next_below(graph_.num_vertices())),
                       static_cast<VertexId>(rng_.next_below(graph_.num_vertices()))});
    }
    ++attempted_;
    std::vector<bool> answers;
    if (refused([&] { answers = server_.run(pairs); })) {
      ++failed_;
      return;
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      check(answers[i], truth.connected(pairs[i].s, pairs[i].t) ? 1 : 0, "write-probe");
    }
  }

  const Workload& w_;
  ftc::SplitMix64 rng_;
  Graph graph_;
  Tracer& tracer_;
  Server server_;
  std::vector<Round> pool_;
  CpuPicker cpu_;
  std::uint64_t request_id_ = 1;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t wrong_ = 0;
  std::size_t label_bytes_ = 0;
  std::size_t store_bytes_ = 0;
  std::vector<double> setup_s_;
  std::vector<double> request_overhead_us_;
};

// ------------------------------------------------------------------ output

// Effective parallelism: wall time of two threads each doing a fixed
// amount of work, against one thread doing it alone (2.0 = two real
// cores; about 1.0 = one core's worth shared between the threads).
double parallelism_probe() {
  std::atomic<std::uint64_t> sink{0};
  const auto work = [&sink](std::uint64_t x) {
    for (int i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink += x;
  };
  auto t0 = Clock::now();
  work(1);
  const double one = seconds_since(t0);
  t0 = Clock::now();
  std::thread a(work, 2), b(work, 3);
  a.join();
  b.join();
  const double two = seconds_since(t0);
  return 2.0 * one / two;
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

class MetricsJson {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_file;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-file") a.trace_file = v;
    else die("unknown argument " + k);
  }
  if (a.work_dir.empty() || a.trace_file.empty() || !(a.seconds > 0)) {
    die("usage: ftcbench --workload W --seed N --seconds S --trace 0|1 "
        "--work-dir DIR --trace-file PATH");
  }
  return a;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) die("unknown workload '" + args.workload + "'");
  fs::create_directories(args.work_dir);
  const double parallelism = parallelism_probe();

  Tracer tracer(args.trace);
  Bench bench(*w, args.seed, args.work_dir, tracer);
  bench.setup(kSetupReps);
  Samples samples;
  double overhead_pct = 0;
  if (args.trace) {
    bench.decoder_sample();
    // Half untraced, half traced: the difference in request p50 is the
    // tracing overhead.
    tracer.set_enabled(false);
    Samples plain;
    bench.serve(args.seconds / 2, false, 0, plain);
    tracer.set_enabled(true);
    bench.serve(args.seconds / 2, true, w->write_cycles, samples);
    const double base = quantile(plain.request_us, 0.5);
    overhead_pct = 100.0 * (quantile(samples.request_us, 0.5) - base) / base;
  } else {
    bench.serve(args.seconds, false, w->write_cycles, samples);
  }
  bool correct = bench.correct();
  if (args.trace && w->serving == Serving::kMemory) {
    // The store layers are off this workload's path; one sharded
    // set-up and write cycle on the same graph gives their per-layer
    // numbers.
    Workload stored = *w;
    stored.serving = Serving::kSharded;
    stored.shards = 8;
    Bench sweep(stored, args.seed, fs::path(args.work_dir) / "sweep", tracer);
    fs::create_directories(fs::path(args.work_dir) / "sweep");
    sweep.setup(1);
    Samples ignored;
    sweep.write_cycle(ignored);
    correct = correct && sweep.correct();
  }

  const std::uint64_t attempted = bench.attempted();
  const std::uint64_t failed = bench.failed();
  MetricsJson m;
  if (!args.trace) {
    m.add("setup_s", quantile(bench.setup_s(), 0.5), "s");
    m.add("query_qps", samples.qps, "1/s");
    m.add("request_p50_us", quantile(samples.request_us, 0.5), "us");
    m.add("request_p99_us", quantile(samples.request_us, 0.99), "us");
    m.add("prepare_p50_us", quantile(samples.prepare_us, 0.5), "us");
    m.add("republish_min_s", quantile(samples.republish_s, 0.0), "s");
    m.add("label_bytes", static_cast<double>(bench.server().label_bytes()), "bytes");
    m.add("store_bytes", static_cast<double>(bench.server().store_bytes()), "bytes");
    m.add("rss_peak_mb", rss_peak_mb(), "MB");
    m.add("answered_frac",
          1.0 - static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  } else {
    if (tracer.nesting_violations() != 0) die("child spans exceeded their parent");
    const auto ms = [&](const char* span) { return tracer.median_us(span) / 1e3; };
    m.add("build.make_scheme_ms", ms("build.make_scheme"), "ms");
    m.add("build.hierarchy_ms", tracer.count("build.hierarchy_ms"), "ms");
    m.add("build.sketch_ms", tracer.count("build.sketch_ms"), "ms");
    for (const char* c : {"build.k", "build.levels", "build.hierarchy_edges"}) {
      m.add(c, tracer.count(c), "count");
    }
    m.add("store.save_ms", ms("store.save"), "ms");
    m.add("store.open_ms", ms("store.open"), "ms");
    m.add("store.prefetch_ms", ms("store.prefetch"), "ms");
    m.add("store.push_ms", ms("store.push"), "ms");
    for (const char* c : {"store.push.bytes_written", "store.push.shards_reused",
                          "store.shards_opened", "store.shards_adopted"}) {
      m.add(c, tracer.count(c), "count");
    }
    m.add("journal.append_ms", ms("journal.append"), "ms");
    m.add("journal.occupancy", tracer.count("journal.occupancy"), "count");
    m.add("engine.reset_faults_us", tracer.median_us("engine.reset_faults"), "us");
    m.add("engine.swap_ms", ms("engine.swap_store"), "ms");
    m.add("engine.request_overhead_us", quantile(bench.request_overhead_us(), 0.5), "us");
    const auto& prep = tracer.durations("scheme.prepare_faults");
    const auto& query = tracer.durations("scheme.query");
    m.add("scheme.prepare_faults_us.p50", quantile(prep, 0.5), "us");
    m.add("scheme.prepare_faults_us.p99", quantile(prep, 0.99), "us");
    m.add("scheme.query_us.p50", quantile(query, 0.5), "us");
    m.add("scheme.query_us.p99", quantile(query, 0.99), "us");
    for (const char* c : {"decoder.queries", "decoder.fragments", "decoder.outdetect_calls",
                          "decoder.merges", "decoder.levels_scanned"}) {
      m.add(c, tracer.count(c), "count");
    }
    m.add("trace.overhead_pct", overhead_pct, "%");
  }

  char detail[512];
  std::snprintf(detail, sizeof detail,
                "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"effective_parallelism\": %.4f, \"requests\": %zu, \"prepares\": %zu, "
                "\"deletes\": %zu, \"republishes\": %zu, \"pairs\": %llu, "
                "\"passes\": %d, \"timed_s\": %.4f, \"setup_reps\": %d}",
                w->name, static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                parallelism, samples.request_us.size(), samples.prepare_us.size(),
                samples.delete_ms.size(), samples.republish_s.size(),
                static_cast<unsigned long long>(samples.pairs), samples.passes, samples.busy_s,
                kSetupReps);
  if (args.trace) tracer.write_json(args.trace_file, detail);
  std::printf("detail %s\n", detail);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ftcbench

int main(int argc, char** argv) {
  try {
    return ftcbench::run(ftcbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftcbench: %s\n", e.what());
    return 2;
  }
}
