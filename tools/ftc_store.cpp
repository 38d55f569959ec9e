// ftc_store: build, inspect and query persistent label stores.
//
//   ftc_store build   --out labels.ftcs [--backend core-ftc] [--f 3]
//                     [--family random|gnp|grid|barbell|cliques|pa|
//                      hypercube|cycle|complete] [--n N] [--m M] [--p P]
//                     [--rows R] [--cols C] [--k K] [--len L] [--deg D]
//                     [--dim D] [--seed S] [--threads T]
//       generates the graph, builds the selected backend's labels and
//       writes them as one container file. --threads T fans the build
//       across T >= 1 workers (0 is rejected); the output bytes are
//       identical for every T.
//
//   ftc_store inspect labels.ftcs [--verbose]
//       prints the parsed header: backend, dimensions, per-section and
//       per-label sizes, checksum. --verbose additionally maps +
//       digest-verifies every shard of a sharded store and prints what
//       each one costs.
//
//   ftc_store query   labels.ftcs --faults 3,17,40 --vertex-faults 5,9
//                     --pairs 0:9,4:7 [--threads T] [--prefetch[=P]]
//       spins up a BatchQueryEngine session directly from the store file
//       (no graph, no rebuild) and answers the queries. --vertex-faults
//       deletes whole vertices (every incident edge) via the adjacency
//       side-table; format-v1 stores carry none and fail with a
//       capability error. The file may be a container or a manifest.
//       --prefetch maps + digest-verifies all shards up front (P worker
//       threads; bare = auto) and prints the timing on stderr — answers
//       on stdout are byte-identical with and without it.
//
//   ftc_store shard   labels.ftcs --out labels.ftcm [--shards K]
//       splits an existing store into K shard containers plus a
//       manifest (written next to the manifest path); build also takes
//       --shards to emit a sharded store directly.
//
//   ftc_store merge   labels.ftcm --out labels.ftcs
//       folds a sharded store back into one container file.
//
//   ftc_store push    labels.ftcm --out next.ftcm [--parent prev.ftcm]
//                     [--shards K]
//       content-addressed delta push: republishes the store as a new
//       manifest generation, hard-linking shards that are byte-identical
//       to the parent's instead of rewriting them, and chaining the new
//       manifest to the parent (epoch + 1, parent digest). --parent
//       defaults to --out when a manifest already exists there; with no
//       parent at all this is a plain full sharded save.
//
//   ftc_store fsck    labels.ftcm
//       offline health check: validates the manifest (or container)
//       structurally and by checksum, then opens and fully verifies
//       every shard individually — a damaged shard is reported with its
//       exact unservable vertex/edge ranges instead of aborting the
//       scan, and the "<path>.jrnl" sidecar (if any) is validated
//       against the store. Exit 0 when clean, 2 when anything is
//       damaged. The incident-response companion of degraded serving:
//       what fsck flags is exactly what a live session quarantines.
//
//   ftc_store journal append labels.ftcs --edges 3,17 [--budget F]
//       appends edge deletions to the store's "<path>.jrnl" sidecar (the
//       zero-rebuild churn path: journaled deletions fold into every
//       query's fault set at load until the labels are rebuilt). The
//       first append fixes the journal's fault budget via --budget;
//       later appends inherit it.
//
//   ftc_store swap-demo [--f K] [--n N] [--m M] [--queries Q] [--swaps S]
//                       [--seed S] [--threads T] [--prefetch[=P]] [--delta]
//       end-to-end zero-downtime swap demonstration: builds two label
//       generations, serves batches from one BatchQueryEngine session
//       while another thread swap_store()s between them, and verifies
//       every answer against the BFS ground truth of the epoch it was
//       served from. --delta runs the delta-push variant instead: serve
//       a sharded store, push a new manifest generation against it, swap
//       by path, and report how many shard mmaps the new generation
//       adopted versus newly mapped (a no-op delta must adopt all K).
//
// build/inspect/query/shard/merge accept both single containers and
// sharded manifests anywhere a store path is expected (the magic
// dispatch in open_store_view / load_scheme decides).
//
// Exit codes: 0 ok, 1 usage error, 2 store/build/capability error.
#include <pthread.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"
#include "core/shard_server.hpp"
#include "core/sharded_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"
#include "util/env.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace ftc;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s build --out FILE [--backend B] [--f K] [--family F] "
               "[generator flags] [--seed S] [--shards K] [--threads T]\n"
               "       %s inspect FILE [--verbose]\n"
               "       %s query FILE --faults a,b,c --vertex-faults u,v "
               "--pairs s:t,s:t [--threads T] [--prefetch[=P]]\n"
               "       %s shard FILE --out MANIFEST [--shards K]\n"
               "       %s merge MANIFEST --out FILE\n"
               "       %s push FILE --out MANIFEST [--parent MANIFEST] "
               "[--shards K]\n"
               "       %s fsck FILE\n"
               "       %s journal append FILE --edges a,b,c [--budget F]\n"
               "       %s swap-demo [--f K] [--n N] [--m M] [--queries Q] "
               "[--swaps S] [--seed S] [--threads T] [--prefetch[=P]] "
               "[--delta]\n"
               "       %s serve DIR [--port P]\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
               argv0);
  std::exit(1);
}

// Flat --key value / --key=value argument list -> map. Flags in
// `allowed` must carry a value; flags in `optional_value` may appear
// bare ("--prefetch") or with an ATTACHED value ("--prefetch=8") — they
// never consume the next token, so "--prefetch FILE" keeps FILE
// positional. Unknown keys are a usage error — a typo'd flag must not
// silently fall back to the default.
std::map<std::string, std::string> parse_flags(
    int argc, char** argv, int begin, std::string* positional,
    std::initializer_list<const char*> allowed,
    std::initializer_list<const char*> optional_value = {}) {
  std::map<std::string, std::string> flags;
  for (int i = begin; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string key = arg.substr(2);
      std::string value;
      bool has_value = false;
      const std::size_t eq = key.find('=');
      if (eq != std::string::npos) {
        value = key.substr(eq + 1);
        key = key.substr(0, eq);
        has_value = true;
      }
      bool known = false;
      for (const char* a : allowed) known = known || key == a;
      bool optional = false;
      for (const char* a : optional_value) optional = optional || key == a;
      if (!known && !optional) {
        std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
        std::exit(1);
      }
      if (!has_value && !optional) {
        // A following "--flag" token is a missing value, not a value.
        if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
          std::fprintf(stderr, "missing value for %s\n", arg.c_str());
          std::exit(1);
        }
        value = argv[++i];
      }
      flags[key] = value;
    } else if (positional != nullptr && positional->empty()) {
      *positional = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(1);
    }
  }
  return flags;
}

// Strict numeric parsing with usage-error (exit 1) semantics: malformed
// or out-of-range values must not surface as exit-2 "store errors".
std::uint64_t parse_u64_or_die(const std::string& s) {
  const auto v = util::parse_decimal_u64(s.c_str());
  if (!v) {
    std::fprintf(stderr, "bad numeric value: %s\n", s.c_str());
    std::exit(1);
  }
  return *v;
}

double parse_double_or_die(const std::string& s) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    std::fprintf(stderr, "bad numeric value: %s\n", s.c_str());
    std::exit(1);
  }
}

std::string flag_or(const std::map<std::string, std::string>& flags,
                    const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// --prefetch[=THREADS]: absent -> no prefetch (negative sentinel); bare
// -> 0 (the view picks its fan-out); =N -> N threads.
long prefetch_threads(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("prefetch");
  if (it == flags.end()) return -1;
  if (it->second.empty()) return 0;
  return static_cast<long>(parse_u64_or_die(it->second));
}

// Runs view->prefetch and reports the timing on STDERR — query answers
// on stdout must stay byte-identical with and without --prefetch.
void run_prefetch(const core::StoreView& view, long threads) {
  const auto stats = view.prefetch(static_cast<unsigned>(threads));
  std::fprintf(stderr,
               "prefetch: %zu shard(s) newly mapped in %.1f us (%u threads)\n",
               stats.shards_opened, stats.total_us, stats.threads);
}

std::uint64_t flag_u64(const std::map<std::string, std::string>& flags,
                       const std::string& key, std::uint64_t fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : parse_u64_or_die(it->second);
}

graph::Graph make_graph(const std::map<std::string, std::string>& flags) {
  const std::string family = flag_or(flags, "family", "random");
  const auto n = static_cast<graph::VertexId>(flag_u64(flags, "n", 256));
  const std::uint64_t seed = flag_u64(flags, "seed", 1);
  if (family == "random") {
    const auto m = static_cast<graph::EdgeId>(flag_u64(flags, "m", 3 * n));
    return graph::random_connected(n, m, seed);
  }
  if (family == "gnp") {
    const double p = parse_double_or_die(flag_or(flags, "p", "0.1"));
    return graph::gnp(n, p, seed);
  }
  if (family == "grid") {
    return graph::grid(static_cast<graph::VertexId>(flag_u64(flags, "rows", 16)),
                       static_cast<graph::VertexId>(flag_u64(flags, "cols", 16)));
  }
  if (family == "barbell") {
    return graph::barbell(static_cast<graph::VertexId>(flag_u64(flags, "k", 12)),
                          static_cast<graph::VertexId>(flag_u64(flags, "len", 4)));
  }
  if (family == "cliques") {
    return graph::path_of_cliques(
        static_cast<graph::VertexId>(flag_u64(flags, "n", 8)),
        static_cast<graph::VertexId>(flag_u64(flags, "k", 8)));
  }
  if (family == "pa") {
    return graph::preferential_attachment(
        n, static_cast<unsigned>(flag_u64(flags, "deg", 3)), seed);
  }
  if (family == "hypercube") {
    return graph::hypercube(static_cast<unsigned>(flag_u64(flags, "dim", 8)));
  }
  if (family == "cycle") return graph::cycle(n);
  if (family == "complete") return graph::complete(n);
  std::fprintf(stderr, "unknown --family %s\n", family.c_str());
  std::exit(1);
}

// 32-bit range check on top of the strict parse, so an oversized CLI ID
// or journal budget errors out instead of silently wrapping to a
// different (valid) value.
std::uint32_t parse_u32_or_die(const std::string& s) {
  const std::uint64_t v = parse_u64_or_die(s);
  if (v > UINT32_MAX) {
    std::fprintf(stderr, "value out of 32-bit range: %s\n", s.c_str());
    std::exit(1);
  }
  return static_cast<std::uint32_t>(v);
}

// "3,17,40" -> {3, 17, 40}; empty string -> {}.
std::vector<graph::EdgeId> parse_id_list(const std::string& s) {
  std::vector<graph::EdgeId> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    out.push_back(parse_u32_or_die(s.substr(pos, next - pos)));
    pos = next + 1;
  }
  return out;
}

// "0:9,4:7" -> {(0,9), (4,7)}.
std::vector<core::BatchQueryEngine::Query> parse_pairs(const std::string& s) {
  std::vector<core::BatchQueryEngine::Query> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    const std::string pair = s.substr(pos, next - pos);
    const std::size_t colon = pair.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "bad pair (want s:t): %s\n", pair.c_str());
      std::exit(1);
    }
    out.push_back({parse_u32_or_die(pair.substr(0, colon)),
                   parse_u32_or_die(pair.substr(colon + 1))});
    pos = next + 1;
  }
  return out;
}

int cmd_build(int argc, char** argv) {
  const auto flags = parse_flags(
      argc, argv, 2, nullptr,
      {"out", "backend", "f", "scheme-seed", "family", "n", "m", "p", "rows",
       "cols", "k", "len", "deg", "dim", "seed", "shards", "threads"});
  const auto out_it = flags.find("out");
  if (out_it == flags.end()) {
    std::fprintf(stderr, "build: --out FILE is required\n");
    return 1;
  }
  core::SchemeConfig config;
  config.backend = core::parse_backend(flag_or(flags, "backend", "core-ftc"));
  config.set_f(static_cast<unsigned>(flag_u64(flags, "f", 3)));
  config.set_seed(flag_u64(flags, "scheme-seed", 1));
  // Build worker threads, at least 1 (0 is rejected). The store bytes
  // are identical for any value — only the wall-clock changes.
  config.set_build_threads(
      static_cast<unsigned>(flag_u64(flags, "threads", 1)));
  const auto shards = static_cast<unsigned>(flag_u64(flags, "shards", 0));

  const graph::Graph g = make_graph(flags);
  std::printf("graph: n=%u m=%u; building %s labels (f=%u)...\n",
              g.num_vertices(), g.num_edges(),
              core::backend_name(config.backend), config.f());
  const auto scheme = core::make_scheme(g, config);
  if (shards > 0) {
    core::save_sharded(*scheme, out_it->second, shards);
  } else {
    scheme->save(out_it->second);
  }
  const auto view = core::open_store_view(out_it->second);
  std::printf(
      "wrote %s: %zu bytes, %u shard(s) (%.2f bits/edge label, checksum "
      "%016llx)\n",
      out_it->second.c_str(), view->info().file_bytes,
      view->info().num_shards > 0 ? view->info().num_shards : 1,
      static_cast<double>(view->info().edge_label_bits),
      static_cast<unsigned long long>(view->info().payload_checksum));
  return 0;
}

std::string join_widths(const core::store::CoreEdgeLayout& layout) {
  std::string out;
  for (unsigned lev = 0; lev < layout.num_levels; ++lev) {
    if (lev > 0) out += '/';
    out += std::to_string(layout.width(lev));
  }
  return out;
}

// A core-ftc store's stored syndromes per level and, for a store of an
// older format, what saving it again would drop: format v4 keeps only
// each level's first min(k, bound) syndromes (label_store.hpp).
void print_core_widths(const core::StoreView& view) {
  const core::StoreInfo& info = view.info();
  core::store::ByteReader r(view.params_blob());
  std::vector<std::uint32_t> bounds;
  const core::LabelParams p =
      core::store::decode_core_params(r, info.format_version, &bounds);
  const auto stored =
      core::store::core_edge_layout(p, bounds, info.format_version);
  std::printf("level widths       %s of k=%u\n", join_widths(stored).c_str(),
              p.k);
  if (info.format_version < core::store::kFormatVersion) {
    const auto saved = core::store::core_edge_layout(p, bounds);
    std::printf("re-save drops      %zu bytes (v%u widths %s)\n",
                static_cast<std::size_t>(info.num_edges) *
                    (stored.blob_bytes() - saved.blob_bytes()),
                static_cast<unsigned>(core::store::kFormatVersion),
                join_widths(saved).c_str());
  }
}

int cmd_inspect(int argc, char** argv) {
  std::string path;
  const auto flags = parse_flags(argc, argv, 2, &path, {}, {"verbose"});
  const bool verbose = flags.count("verbose") != 0;
  if (path.empty()) {
    std::fprintf(stderr, "inspect: FILE is required\n");
    return 1;
  }
  const auto view = core::open_store_view(path);
  const core::StoreInfo& info = view->info();
  const auto* sharded =
      dynamic_cast<const core::ShardedStoreView*>(view.get());
  std::printf("label store        %s%s\n", path.c_str(),
              sharded != nullptr ? " (sharded manifest)" : "");
  std::printf("format version     %u\n", info.format_version);
  std::printf("backend            %s\n", core::backend_name(info.backend));
  std::printf("vertices           %u\n", info.num_vertices);
  std::printf("edges              %u\n", info.num_edges);
  std::printf("file bytes         %zu\n", info.file_bytes);
  std::printf("  params blob      %zu\n", info.params_bytes);
  std::printf("  vertex section   %zu\n", info.vertex_section_bytes);
  std::printf("  edge index       %zu\n", info.edge_index_bytes);
  std::printf("  edge blobs       %zu\n", info.edge_blob_bytes);
  std::printf("  adjacency        %zu\n", info.adjacency_bytes);
  std::printf("vertex faults      %s\n",
              info.has_adjacency ? "supported (adjacency side-table)"
                                 : "unsupported (no adjacency; format v1?)");
  std::printf("vertex label bits  %zu\n", info.vertex_label_bits);
  std::printf("edge label bits    %zu\n", info.edge_label_bits);
  if (info.backend == core::BackendKind::kCoreFtc) print_core_widths(*view);
  std::printf("payload checksum   %016llx\n",
              static_cast<unsigned long long>(info.payload_checksum));
  // A manifest's own payload is always FNV-1a; each shard container
  // carries the digest of its own format version.
  std::printf("payload digest     %s\n",
              sharded != nullptr
                  ? "fnv1a (manifest)"
                  : core::store::payload_digest_name(info.format_version));
  // Deletion-journal sidecar occupancy (the churn budget): report it
  // even when the journal itself is unusable, so operators can see WHY
  // (over capacity, digest mismatch after a push, corruption).
  const std::string jpath = core::journal_path_for(path);
  if (core::DeletionJournal::exists(jpath)) {
    try {
      const auto j = core::DeletionJournal::open(jpath);
      j->validate_against(info, path);
      std::printf("journal            epoch %llu: %zu/%u deletions "
                  "(%zu query-fault slots remain; %zu bytes)\n",
                  static_cast<unsigned long long>(j->epoch()), j->occupancy(),
                  j->fault_budget(), j->remaining(), j->file_bytes());
    } catch (const std::exception& e) {
      std::printf("journal            UNSERVABLE: %s\n", e.what());
    }
  }
  if (sharded != nullptr) {
    std::printf("manifest epoch     %llu\n",
                static_cast<unsigned long long>(info.manifest_epoch));
    std::printf("parent digest      %016llx%s\n",
                static_cast<unsigned long long>(info.parent_digest),
                info.parent_digest == 0 ? " (full save, no parent)" : "");
  }
  if (sharded != nullptr) {
    // --verbose: sequentially map + digest-verify every shard and report
    // what each one costs (the per-shard share of a cold first query or
    // of a prefetch pass).
    core::store::PrefetchStats stats;
    if (verbose) stats = sharded->prefetch(1);
    std::printf("shards             %u\n", info.num_shards);
    std::size_t k = 0;
    for (const core::store::ShardRecord& rec : sharded->shards()) {
      std::printf(
          "  %-28s vertices [%llu, %llu) edges [%llu, %llu) %llu bytes "
          "digest %016llx",
          rec.name.c_str(),
          static_cast<unsigned long long>(rec.vertex_begin),
          static_cast<unsigned long long>(rec.vertex_end),
          static_cast<unsigned long long>(rec.edge_begin),
          static_cast<unsigned long long>(rec.edge_end),
          static_cast<unsigned long long>(rec.file_bytes),
          static_cast<unsigned long long>(rec.payload_digest));
      if (verbose) std::printf(" map+digest %.1f us", stats.shard_us[k]);
      std::printf("\n");
      ++k;
    }
    if (verbose) {
      std::printf("prefetch           %.1f us total, shards open %zu/%u\n",
                  stats.total_us, sharded->shards_open(), info.num_shards);
    }
  }
  return 0;
}

int cmd_shard(int argc, char** argv) {
  std::string path;
  const auto flags = parse_flags(argc, argv, 2, &path, {"out", "shards"});
  const auto out_it = flags.find("out");
  if (path.empty() || out_it == flags.end()) {
    std::fprintf(stderr, "shard: FILE and --out MANIFEST are required\n");
    return 1;
  }
  const auto shards = static_cast<unsigned>(flag_u64(flags, "shards", 4));
  if (shards == 0) {
    std::fprintf(stderr, "shard: --shards must be >= 1\n");
    return 1;
  }
  const auto scheme = core::load_scheme(path);
  core::save_sharded(*scheme, out_it->second, shards);
  const auto view = core::open_store_view(out_it->second);
  std::printf("sharded %s -> %s: %u shards, %zu bytes total\n", path.c_str(),
              out_it->second.c_str(), view->info().num_shards,
              view->info().file_bytes);
  return 0;
}

int cmd_push(int argc, char** argv) {
  std::string path;
  const auto flags =
      parse_flags(argc, argv, 2, &path, {"out", "parent", "shards"});
  const auto out_it = flags.find("out");
  if (path.empty() || out_it == flags.end()) {
    std::fprintf(stderr, "push: FILE and --out MANIFEST are required\n");
    return 1;
  }
  // The pushed labels are the store's own (replay_journal=false: a
  // journal is query-side state, not label content — pushing does not
  // bake journaled deletions into the labels).
  core::LoadOptions options;
  options.replay_journal = false;
  const auto scheme = core::load_scheme(path, options);
  std::string parent = flag_or(flags, "parent", "");
  if (parent.empty()) {
    // Re-pushing over an existing manifest chains to it by default.
    struct stat st{};
    if (::stat(out_it->second.c_str(), &st) == 0) parent = out_it->second;
  }
  const auto shards = static_cast<unsigned>(flag_u64(flags, "shards", 0));
  if (parent.empty()) {
    core::save_sharded(*scheme, out_it->second, shards > 0 ? shards : 4);
    const auto view = core::open_store_view(out_it->second);
    std::printf("full push %s -> %s: epoch 1, %u shards, %zu bytes\n",
                path.c_str(), out_it->second.c_str(), view->info().num_shards,
                view->info().file_bytes);
    return 0;
  }
  const core::DeltaPushStats stats =
      core::save_sharded_delta(*scheme, out_it->second, parent, shards);
  std::printf(
      "delta push %s -> %s (parent %s)\n"
      "  epoch %llu: %zu/%zu shards reused, %zu written\n"
      "  bytes written %llu (+%llu manifest), bytes reused %llu\n",
      path.c_str(), out_it->second.c_str(), parent.c_str(),
      static_cast<unsigned long long>(stats.epoch), stats.shards_reused,
      stats.shards_total, stats.shards_written,
      static_cast<unsigned long long>(stats.bytes_written),
      static_cast<unsigned long long>(stats.manifest_bytes),
      static_cast<unsigned long long>(stats.bytes_reused));
  if (stats.shards_link_fallback != 0) {
    std::printf(
        "  hard-link reuse unavailable for %zu shards (written in full)\n",
        stats.shards_link_fallback);
  }
  return 0;
}

int cmd_fsck(int argc, char** argv) {
  std::string path;
  const auto flags = parse_flags(argc, argv, 2, &path, {});
  (void)flags;
  if (path.empty()) {
    std::fprintf(stderr, "fsck: FILE is required\n");
    return 1;
  }

  std::size_t damaged = 0;
  std::shared_ptr<const core::StoreView> view;
  // Sniff the magic first: open_store_view's sharded open is the STRICT
  // one, which aborts on the first damaged shard file (exactly what fsck
  // must not do), so a manifest goes through open_degraded and one dead
  // shard leaves the others scannable.
  try {
    if (core::store::read_magic(path) != core::store::kManifestMagic) {
      // Flat container: the verifying open IS the full check.
      view = core::open_store_view(path, /*verify_checksum=*/true);
      std::printf("fsck %s: container ok (%zu bytes)\n", path.c_str(),
                  view->info().file_bytes);
    } else {
      const auto deg = core::ShardedStoreView::open_degraded(
          path, /*verify_checksum=*/true);
      view = deg;
      const auto shards = deg->shards();
      std::printf("fsck %s: manifest ok (epoch %llu, %u shards)\n",
                  path.c_str(),
                  static_cast<unsigned long long>(
                      deg->info().manifest_epoch),
                  deg->info().num_shards);
      for (std::size_t k = 0; k < shards.size(); ++k) {
        const auto& rec = shards[k];
        try {
          deg->verify_shard(k);
          std::printf("  shard %zu %s: ok\n", k, rec.name.c_str());
        } catch (const core::StoreError& e) {
          ++damaged;
          std::printf("  shard %zu %s: FAILED (vertices [%llu, %llu), "
                      "edges [%llu, %llu) unservable): %s\n",
                      k, rec.name.c_str(),
                      static_cast<unsigned long long>(rec.vertex_begin),
                      static_cast<unsigned long long>(rec.vertex_end),
                      static_cast<unsigned long long>(rec.edge_begin),
                      static_cast<unsigned long long>(rec.edge_end),
                      e.what());
        }
      }
    }
  } catch (const core::StoreError& e) {
    std::printf("fsck %s: FAILED: %s\n", path.c_str(), e.what());
    return 2;
  }

  const std::string jpath = core::journal_path_for(path);
  if (core::DeletionJournal::exists(jpath)) {
    try {
      const auto j = core::DeletionJournal::open(jpath);
      j->validate_against(view->info(), path);
      std::printf("  journal %s: ok (%zu deletions, epoch %llu)\n",
                  jpath.c_str(), j->occupancy(),
                  static_cast<unsigned long long>(j->epoch()));
    } catch (const std::exception& e) {
      ++damaged;
      std::printf("  journal %s: FAILED: %s\n", jpath.c_str(), e.what());
    }
  }

  if (damaged != 0) {
    std::printf("fsck %s: %zu damaged\n", path.c_str(), damaged);
    return 2;
  }
  std::printf("fsck %s: clean\n", path.c_str());
  return 0;
}

int cmd_journal(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "journal: append subcommand required\n");
    return 1;
  }
  const std::string sub = argv[2];
  std::string path;
  if (sub == "append") {
    const auto flags = parse_flags(argc, argv, 3, &path, {"edges", "budget"});
    const auto edges_it = flags.find("edges");
    if (path.empty() || edges_it == flags.end()) {
      std::fprintf(stderr,
                   "journal append: FILE and --edges a,b,c are required\n");
      return 1;
    }
    const auto edges = parse_id_list(edges_it->second);
    if (edges.empty()) {
      std::fprintf(stderr, "journal append: --edges must name an edge\n");
      return 1;
    }
    // Bind to the store: digest for the chain, num_edges for ID hygiene
    // (a typo'd edge ID must fail here, not at some later load).
    const auto view = core::open_store_view(path, /*verify_checksum=*/false);
    for (const graph::EdgeId e : edges) {
      if (e >= view->info().num_edges) {
        std::fprintf(stderr, "journal append: edge %u out of range (m=%u)\n",
                     e, view->info().num_edges);
        return 1;
      }
    }
    const std::string jpath = core::journal_path_for(path);
    // 0 keeps an existing journal's budget.
    std::uint32_t budget = 0;
    if (flags.count("budget") != 0) {
      budget = parse_u32_or_die(flags.at("budget"));
    } else if (!core::DeletionJournal::exists(jpath)) {
      std::fprintf(stderr,
                   "journal append: --budget F is required for the first "
                   "append (stores do not record their fault budget)\n");
      return 1;
    }
    core::DeletionJournal::append(jpath, view->info().payload_checksum,
                                  budget, edges);
    const auto j = core::DeletionJournal::open(jpath);
    std::printf("journal %s: epoch %llu, %zu/%u deletions journaled "
                "(%zu query-fault slots remain)\n",
                jpath.c_str(), static_cast<unsigned long long>(j->epoch()),
                j->occupancy(), j->fault_budget(), j->remaining());
    return 0;
  }
  std::fprintf(stderr, "journal: unknown subcommand %s\n", sub.c_str());
  return 1;
}

int cmd_merge(int argc, char** argv) {
  std::string path;
  const auto flags = parse_flags(argc, argv, 2, &path, {"out"});
  const auto out_it = flags.find("out");
  if (path.empty() || out_it == flags.end()) {
    std::fprintf(stderr, "merge: MANIFEST and --out FILE are required\n");
    return 1;
  }
  const auto scheme = core::load_scheme(path);
  scheme->save(out_it->second);
  const auto view = core::open_store_view(out_it->second);
  std::printf("merged %s -> %s: %zu bytes\n", path.c_str(),
              out_it->second.c_str(), view->info().file_bytes);
  return 0;
}

// swap-demo --delta: one serving session, a zero-delta push from the
// serving manifest to a child manifest, then swap_store(path). Every
// shard is byte-identical to its parent, so the swap must adopt all of
// them (no new mmaps) and answers must not change.
int run_delta_swap_demo(const std::map<std::string, std::string>& flags) {
  const auto n = static_cast<graph::VertexId>(flag_u64(flags, "n", 96));
  const auto m = static_cast<graph::EdgeId>(flag_u64(flags, "m", 3 * n));
  const auto f = static_cast<unsigned>(flag_u64(flags, "f", 4));
  const auto queries_per_batch = flag_u64(flags, "queries", 256);
  const std::uint64_t seed = flag_u64(flags, "seed", 1);
  core::SchemeConfig config;
  config.backend = core::parse_backend(flag_or(flags, "backend", "core-ftc"));
  config.set_f(f).set_seed(seed);

  const graph::Graph g = graph::random_connected(n, m, seed);
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string dir = tmpdir != nullptr ? tmpdir : "/tmp";
  const std::string store_a =
      dir + "/ftc_delta_demo_a_" + std::to_string(::getpid()) + ".ftcm";
  const std::string store_b =
      dir + "/ftc_delta_demo_b_" + std::to_string(::getpid()) + ".ftcm";
  constexpr unsigned kShards = 4;
  const auto scheme = core::make_scheme(g, config);
  core::save_sharded(*scheme, store_a, kShards);

  SplitMix64 rng(seed);
  std::vector<graph::EdgeId> faults;
  for (unsigned i = 0; i < f; ++i) {
    faults.push_back(static_cast<graph::EdgeId>(rng.next_below(m)));
  }
  std::vector<core::BatchQueryEngine::Query> batch;
  for (std::uint64_t i = 0; i < queries_per_batch; ++i) {
    batch.push_back({static_cast<graph::VertexId>(rng.next_below(n)),
                     static_cast<graph::VertexId>(rng.next_below(n))});
  }

  core::BatchQueryEngine session(core::load_scheme(store_a),
                                 core::FaultSpec::edges(faults));
  const auto before = session.run_sequential(batch);

  const core::DeltaPushStats stats =
      core::save_sharded_delta(*scheme, store_b, store_a);
  std::printf("delta push: epoch %llu, %zu/%zu shards reused, %zu written\n",
              static_cast<unsigned long long>(stats.epoch),
              stats.shards_reused, stats.shards_total, stats.shards_written);
  const auto epoch = session.swap_store(store_b);
  const auto view = std::dynamic_pointer_cast<const core::ShardedStoreView>(
      session.scheme().store_view());
  const std::size_t adopted = view != nullptr ? view->shards_adopted() : 0;
  std::printf("swap to %s (engine epoch %llu): %zu/%u shards adopted, "
              "%zu newly mapped\n",
              store_b.c_str(), static_cast<unsigned long long>(epoch),
              adopted, kShards, kShards - adopted);
  const auto after = session.run_sequential(batch);
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    mismatches += before[i] != after[i];
  }
  std::printf("%zu queries re-run after swap, %llu answers changed\n",
              batch.size(), static_cast<unsigned long long>(mismatches));

  for (const auto& path : {store_b, store_a}) {
    const auto manifest = core::ShardedStoreView::open(path, false);
    for (const auto& rec : manifest->shards()) {
      std::remove((dir + "/" + rec.name).c_str());
    }
    std::remove(path.c_str());
  }
  if (stats.shards_reused != kShards || adopted != kShards ||
      mismatches != 0) {
    std::fprintf(stderr,
                 "delta swap-demo: expected a zero-delta push to reuse and "
                 "adopt all %u shards with unchanged answers\n",
                 kShards);
    return 2;
  }
  return 0;
}

// Live-swap demonstration: one serving session, two label generations,
// concurrent swap_store calls, every answer checked against the BFS
// ground truth of the epoch it was served from.
int cmd_swap_demo(int argc, char** argv) {
  const auto flags = parse_flags(
      argc, argv, 2, nullptr,
      {"f", "n", "m", "queries", "swaps", "seed", "threads", "backend"},
      {"prefetch", "delta"});
  if (flags.count("delta") != 0) return run_delta_swap_demo(flags);
  const auto n = static_cast<graph::VertexId>(flag_u64(flags, "n", 96));
  const auto m = static_cast<graph::EdgeId>(flag_u64(flags, "m", 3 * n));
  const auto f = static_cast<unsigned>(flag_u64(flags, "f", 4));
  const auto queries_per_batch = flag_u64(flags, "queries", 256);
  const auto swaps = flag_u64(flags, "swaps", 8);
  const std::uint64_t seed = flag_u64(flags, "seed", 1);
  const auto threads = static_cast<unsigned>(flag_u64(flags, "threads", 2));
  core::SchemeConfig config;
  config.backend = core::parse_backend(flag_or(flags, "backend", "core-ftc"));
  config.set_f(f).set_seed(seed);

  // Two label generations over two graphs with identical ID spaces, so
  // the same queries and fault IDs stay valid across the swap.
  const graph::Graph g_a = graph::random_connected(n, m, seed);
  const graph::Graph g_b = graph::random_connected(n, m, seed + 17);
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string dir = tmpdir != nullptr ? tmpdir : "/tmp";
  const std::string store_a =
      dir + "/ftc_swap_demo_a_" + std::to_string(::getpid()) + ".ftcs";
  const std::string store_b =
      dir + "/ftc_swap_demo_b_" + std::to_string(::getpid()) + ".ftcm";
  core::make_scheme(g_a, config)->save(store_a);
  // Generation B served from a sharded store, to show the two artifact
  // layouts are interchangeable on the serving path.
  core::save_sharded(*core::make_scheme(g_b, config), store_b, 4);
  std::printf("generation A: %s\ngeneration B: %s (4 shards)\n",
              store_a.c_str(), store_b.c_str());

  SplitMix64 rng(seed);
  std::vector<graph::EdgeId> faults;
  for (unsigned i = 0; i < f; ++i) {
    faults.push_back(static_cast<graph::EdgeId>(rng.next_below(m)));
  }
  std::vector<core::BatchQueryEngine::Query> batch;
  for (std::uint64_t i = 0; i < queries_per_batch; ++i) {
    batch.push_back({static_cast<graph::VertexId>(rng.next_below(n)),
                     static_cast<graph::VertexId>(rng.next_below(n))});
  }
  std::vector<bool> truth_a;
  std::vector<bool> truth_b;
  for (const auto& q : batch) {
    truth_a.push_back(graph::connected_avoiding(g_a, q.s, q.t, faults));
    truth_b.push_back(graph::connected_avoiding(g_b, q.s, q.t, faults));
  }

  // --prefetch: warm each generation's labels explicitly before handing
  // it to the session (swap_store prefetches on its own; the flag makes
  // the warm-up visible and timed). Diagnostics go to stderr.
  const long pf = prefetch_threads(flags);
  auto load_generation = [&](const std::string& path) {
    auto scheme = core::load_scheme(path);
    if (pf >= 0) {
      const auto t0 = std::chrono::steady_clock::now();
      scheme->prefetch(static_cast<unsigned>(pf));
      std::fprintf(stderr, "prefetch %s: %.1f us\n", path.c_str(),
                   std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    }
    return scheme;
  };

  core::BatchQueryEngine session(load_generation(store_a),
                                 core::FaultSpec::edges(faults));
  // Epoch 1 = A; the swapper alternates B, A, B, ... so odd epochs serve
  // A and even epochs serve B.
  std::atomic<bool> done{false};
  std::thread swapper([&] {
    for (std::uint64_t i = 0; i < swaps && !done.load(); ++i) {
      const bool to_b = i % 2 == 0;
      const auto epoch =
          session.swap_store(load_generation(to_b ? store_b : store_a));
      std::printf("swap #%llu -> generation %s now serving (epoch %llu)\n",
                  static_cast<unsigned long long>(i + 1), to_b ? "B" : "A",
                  static_cast<unsigned long long>(epoch));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true);
  });

  std::uint64_t total = 0;
  std::uint64_t mismatches = 0;
  std::map<std::uint64_t, std::uint64_t> per_epoch;
  while (!done.load()) {
    const auto results = threads > 1 ? session.run_parallel(batch, threads)
                                     : session.run_sequential(batch);
    const std::uint64_t epoch = session.last_run_epoch();
    const std::vector<bool>& truth = epoch % 2 == 1 ? truth_a : truth_b;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      mismatches += results[i] != truth[i];
    }
    total += batch.size();
    per_epoch[epoch] += batch.size();
  }
  swapper.join();
  std::remove(store_a.c_str());
  const auto manifest = core::ShardedStoreView::open(store_b);
  for (const auto& rec : manifest->shards()) {
    std::remove((dir + "/" + rec.name).c_str());
  }
  std::remove(store_b.c_str());

  for (const auto& [epoch, count] : per_epoch) {
    std::printf("epoch %llu answered %llu queries (generation %s)\n",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(count),
                epoch % 2 == 1 ? "A" : "B");
  }
  std::printf("%llu queries across %zu epochs, %llu inconsistent answers\n",
              static_cast<unsigned long long>(total), per_epoch.size(),
              static_cast<unsigned long long>(mismatches));
  if (mismatches != 0) {
    std::fprintf(stderr, "swap-demo: answers disagreed with their epoch\n");
    return 2;
  }
  return 0;
}

int cmd_query(int argc, char** argv) {
  std::string path;
  const auto flags =
      parse_flags(argc, argv, 2, &path,
                  {"faults", "vertex-faults", "pairs", "threads"},
                  {"prefetch", "ignore-journal"});
  if (path.empty()) {
    std::fprintf(stderr, "query: FILE is required\n");
    return 1;
  }
  const auto faults = parse_id_list(flag_or(flags, "faults", ""));
  const auto vertex_faults =
      parse_id_list(flag_or(flags, "vertex-faults", ""));
  const auto pairs = parse_pairs(flag_or(flags, "pairs", ""));
  if (pairs.empty()) {
    std::fprintf(stderr, "query: --pairs s:t[,s:t...] is required\n");
    return 1;
  }
  const auto threads = static_cast<unsigned>(flag_u64(flags, "threads", 1));

  const core::FaultSpec spec = core::FaultSpec::of(faults, vertex_faults);
  const auto view = core::open_store_view(path);
  const long pf = prefetch_threads(flags);
  if (pf >= 0) run_prefetch(*view, pf);
  auto scheme = core::load_scheme(view);
  // The view-based load skips sidecar discovery; attach the deletion
  // journal here so the CLI answers match load_scheme(path) semantics.
  if (flags.count("ignore-journal") == 0) {
    core::attach_journal_sidecar(*scheme, path, /*replay=*/true);
  }
  core::BatchQueryEngine session(std::move(scheme), spec);
  const auto results = threads > 1 ? session.run_parallel(pairs, threads)
                                   : session.run_sequential(pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    std::printf("%u %u %s\n", pairs[i].s, pairs[i].t,
                results[i] ? "connected" : "disconnected");
  }
  return 0;
}

// serve: a loopback static shard origin ("ftc_store serve DIR --port P")
// so demos and e2e tests can exercise the remote tier with no external
// server. Prints the base URL on stdout (machine-parseable: scripts
// read it to learn the ephemeral port), then blocks until SIGINT or
// SIGTERM and shuts down cleanly — exit 0 with every thread joined, so
// sanitizer legs can assert a leak-free lifecycle.
int cmd_serve(int argc, char** argv) {
  std::string dir;
  const auto flags = parse_flags(argc, argv, 2, &dir, {"port"});
  if (dir.empty()) usage(argv[0]);
  const std::uint64_t port = flag_u64(flags, "port", 0);
  if (port > 65535) {
    std::fprintf(stderr, "bad port: %llu\n",
                 static_cast<unsigned long long>(port));
    return 1;
  }

  // Block the shutdown signals BEFORE the server spawns threads so
  // every thread inherits the mask and sigwait below is the only
  // consumer.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  ::pthread_sigmask(SIG_BLOCK, &set, nullptr);

  core::ShardHttpServer server(dir, static_cast<std::uint16_t>(port));
  server.start();
  std::printf("serving %s on %s (pid %ld)\n", dir.c_str(),
              server.base_url().c_str(), static_cast<long>(::getpid()));
  std::fflush(stdout);

  int sig = 0;
  while (::sigwait(&set, &sig) != 0) {
  }
  server.stop();
  const auto stats = server.stats();
  std::fprintf(stderr,
               "serve: stopped on signal %d after %llu request(s) "
               "(%llu not found, %llu bytes sent)\n",
               sig, static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.not_found),
               static_cast<unsigned long long>(stats.bytes_sent));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  // Fault-injection drills: FTC_FAILPOINTS="name=spec;..." arms the
  // named failpoints for this invocation (also loaded by the library's
  // own static initializer; the explicit call makes a malformed spec
  // fail loudly here instead of silently depending on link order).
  ftc::failpoint::load_env();
  const std::string cmd = argv[1];
  try {
    if (cmd == "build") return cmd_build(argc, argv);
    if (cmd == "inspect") return cmd_inspect(argc, argv);
    if (cmd == "query") return cmd_query(argc, argv);
    if (cmd == "shard") return cmd_shard(argc, argv);
    if (cmd == "push") return cmd_push(argc, argv);
    if (cmd == "fsck") return cmd_fsck(argc, argv);
    if (cmd == "journal") return cmd_journal(argc, argv);
    if (cmd == "merge") return cmd_merge(argc, argv);
    if (cmd == "swap-demo") return cmd_swap_demo(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage(argv[0]);
}
