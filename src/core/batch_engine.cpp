#include "core/batch_engine.hpp"

#include "core/journal.hpp"
#include "util/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <utility>

namespace ftc::core {

namespace {

// Workers claim queries in chunks to keep contention on the shared work
// index negligible while still load-balancing uneven query costs.
constexpr std::size_t kChunk = 16;

std::shared_ptr<const ConnectivityScheme> require_scheme(
    std::unique_ptr<ConnectivityScheme> scheme) {
  FTC_REQUIRE(scheme != nullptr, "null scheme");
  return std::shared_ptr<const ConnectivityScheme>(std::move(scheme));
}

}  // namespace

BatchQueryEngine::BatchQueryEngine(
    std::shared_ptr<const ConnectivityScheme> scheme, const FaultSpec& spec,
    const QueryOptions& options)
    : spec_(spec), options_(options) {
  auto gen = std::make_shared<Generation>();
  gen->epoch = next_epoch_++;
  gen->scheme = std::move(scheme);
  gen->faults = gen->scheme->prepare_faults(spec_);
  gen_ = std::move(gen);
}

BatchQueryEngine::BatchQueryEngine(const ConnectivityScheme& scheme,
                                   const FaultSpec& spec,
                                   const QueryOptions& options)
    // Non-owning: the caller guarantees the scheme outlives the engine.
    : BatchQueryEngine(std::shared_ptr<const ConnectivityScheme>(
                           &scheme, [](const ConnectivityScheme*) {}),
                       spec, options) {}

BatchQueryEngine::BatchQueryEngine(std::unique_ptr<ConnectivityScheme> scheme,
                                   const FaultSpec& spec,
                                   const QueryOptions& options)
    : BatchQueryEngine(require_scheme(std::move(scheme)), spec, options) {}

BatchQueryEngine::~BatchQueryEngine() = default;

std::shared_ptr<BatchQueryEngine::Generation> BatchQueryEngine::snapshot()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return gen_;
}

std::uint64_t BatchQueryEngine::epoch() const { return snapshot()->epoch; }

std::size_t BatchQueryEngine::num_faults() const {
  return snapshot()->faults->num_faults();
}

const ConnectivityScheme& BatchQueryEngine::scheme() const {
  return *snapshot()->scheme;
}

BatchQueryEngine::GenerationStats BatchQueryEngine::generation_stats() const {
  const std::shared_ptr<Generation> gen = snapshot();
  GenerationStats stats;
  stats.epoch = gen->epoch;
  const auto sharded = std::dynamic_pointer_cast<const ShardedStoreView>(
      gen->scheme->store_view());
  if (sharded == nullptr) {
    // Built or single-container generation: no shards to degrade.
    stats.num_shards = 1;
    stats.shards_open = 1;
    return stats;
  }
  stats.num_shards = sharded->info().num_shards;
  stats.shards_open = sharded->shards_open();
  stats.shards_adopted = sharded->shards_adopted();
  stats.quarantine = sharded->quarantine_report();
  stats.shards_quarantined = stats.quarantine.size();
  stats.degraded = stats.shards_quarantined != 0;
  return stats;
}

std::uint64_t BatchQueryEngine::install(
    std::shared_ptr<const ConnectivityScheme> scheme) {
  // Warm the incoming labels OUTSIDE the lock before anything is
  // published: a sharded store maps + digest-verifies every shard here,
  // in parallel — so the first queries on the new epoch never hit a cold
  // lazy open (the swap-under-load collapse) and a corrupt shard fails
  // the swap while the old generation keeps serving.
  scheme->prefetch();
  // Prepare the incoming generation outside the lock too (fault-label
  // decoding is the expensive part of a swap), then publish it only if
  // the fault spec did not change underneath; a concurrent reset_faults
  // wins and the preparation is redone against the fresh spec.
  for (;;) {
    FaultSpec spec;
    std::uint64_t spec_version;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      spec = spec_;
      spec_version = spec_version_;
    }
    auto gen = std::make_shared<Generation>();
    gen->scheme = scheme;
    gen->faults = scheme->prepare_faults(spec);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (spec_version_ != spec_version) continue;
    gen->epoch = next_epoch_++;
    gen_ = std::move(gen);
    return gen_->epoch;
  }
}

std::uint64_t BatchQueryEngine::swap_store(
    std::unique_ptr<ConnectivityScheme> scheme) {
  return install(require_scheme(std::move(scheme)));
}

std::uint64_t BatchQueryEngine::swap_store(const std::string& path,
                                           const LoadOptions& options) {
  // Open the incoming artifact with the CURRENT generation's view as
  // the reuse source: shards whose manifest digests match stay on their
  // existing mmaps (delta-push cut-over), so the prefetch in install()
  // maps only the changed ones.
  const std::shared_ptr<const StoreView> current =
      snapshot()->scheme->store_view();
  auto scheme =
      load_scheme(open_store_view(path, /*verify_checksum=*/true, current));
  attach_journal_sidecar(*scheme, path, options.replay_journal);
  return install(require_scheme(std::move(scheme)));
}

void BatchQueryEngine::reset_faults(const FaultSpec& spec) {
  // Query-thread only, so no query is in flight on the current
  // generation; the new fault set is published as a sibling generation
  // (same scheme, same epoch) instead of mutated in place, because a
  // concurrent swap_store may still hold a reference to the old one.
  // Preparation happens before the spec commits, so a spec the scheme
  // rejects leaves the session fully unchanged. If a swap publishes a
  // new generation between our snapshot and our install, that
  // generation carries the OLD spec — loop and re-prepare against it
  // (mirroring install()'s spec_version_ retry in the other direction),
  // so the session never keeps serving a spec reset_faults replaced.
  for (;;) {
    const std::shared_ptr<Generation> cur = snapshot();
    auto gen = std::make_shared<Generation>();
    gen->epoch = cur->epoch;
    gen->scheme = cur->scheme;
    gen->faults = cur->scheme->prepare_faults(spec);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (gen_ != cur) continue;
    spec_ = spec;
    ++spec_version_;
    gen->workspaces = std::move(cur->workspaces);
    gen_ = std::move(gen);
    return;
  }
}

ConnectivityScheme::Workspace& BatchQueryEngine::workspace(Generation& gen,
                                                           std::size_t i) {
  while (gen.workspaces.size() <= i) {
    gen.workspaces.push_back(gen.scheme->make_workspace());
  }
  return *gen.workspaces[i];
}

bool BatchQueryEngine::connected(graph::VertexId s, graph::VertexId t) {
  const auto gen = snapshot();
  last_run_epoch_ = gen->epoch;
  return gen->scheme->query(s, t, *gen->faults, workspace(*gen, 0), options_);
}

std::vector<bool> BatchQueryEngine::run_sequential(
    std::span<const Query> queries) {
  const auto gen = snapshot();
  last_run_epoch_ = gen->epoch;
  std::vector<bool> out;
  out.reserve(queries.size());
  ConnectivityScheme::Workspace& ws = workspace(*gen, 0);
  for (const Query& q : queries) {
    out.push_back(gen->scheme->query(q.s, q.t, *gen->faults, ws, options_));
  }
  return out;
}

std::vector<bool> BatchQueryEngine::run_parallel(
    std::span<const Query> queries, unsigned num_threads) {
  FTC_REQUIRE(num_threads >= 1, "run_parallel needs at least one thread");
  const std::size_t max_useful = (queries.size() + kChunk - 1) / kChunk;
  num_threads = static_cast<unsigned>(
      std::min<std::size_t>(num_threads, std::max<std::size_t>(max_useful, 1)));
  if (num_threads <= 1) return run_sequential(queries);

  // The whole batch pins ONE generation: every result comes from the
  // same label epoch even if swap_store lands mid-batch.
  const auto gen = snapshot();
  last_run_epoch_ = gen->epoch;

  // vector<bool> is not safe for concurrent writes; use one byte per
  // result and convert at the end.
  std::vector<std::uint8_t> results(queries.size(), 0);
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;

  // Pre-create every workspace on this thread: workspace() grows the
  // arena and must not race.
  for (unsigned i = 0; i < num_threads; ++i) workspace(*gen, i);

  const std::function<void(unsigned)> worker = [&](unsigned id) {
    ConnectivityScheme::Workspace& ws = workspace(*gen, id);
    try {
      for (;;) {
        const std::size_t begin = next.fetch_add(kChunk);
        if (begin >= queries.size()) break;
        const std::size_t end = std::min(begin + kChunk, queries.size());
        for (std::size_t i = begin; i < end; ++i) {
          results[i] = gen->scheme->query(queries[i].s, queries[i].t,
                                          *gen->faults, ws, options_)
                           ? 1
                           : 0;
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };

  if (pool_ == nullptr) pool_ = std::make_unique<util::WorkerPool>();
  pool_->run(num_threads, worker);
  if (error) std::rethrow_exception(error);

  return std::vector<bool>(results.begin(), results.end());
}

}  // namespace ftc::core
