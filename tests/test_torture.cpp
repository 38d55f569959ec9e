// Crash-consistency torture sweep: abort save_sharded, delta pushes,
// and journal appends at EVERY syscall boundary the write paths cross
// (open / write / fsync / close / rename / link / publish), one
// boundary at a time, and require that the prior generation reopens
// fully servable after each injected abort.
//
// The sweep is failpoint-driven: a "count"-mode observer first runs the
// operation cleanly to enumerate how many times each boundary is
// crossed, then the operation is replayed once per boundary with
// "nth:N:EIO" armed. Every replay must either succeed (sites like
// store.shard.link tolerate injected errors by falling back) or throw a
// typed StoreError — never crash — and must leave the parent store
// answering queries exactly as before.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "store_fixture.hpp"
#include "util/common.hpp"
#include "util/failpoint.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using test_support::TempStore;
using test_support::test_config;

// Every failpoint the atomic-write / shard-stage machinery crosses.
constexpr const char* kWriteSites[] = {
    "store.write.open", "store.write.write", "store.write.fsync",
    "store.write.close", "store.write.rename",
};
constexpr const char* kShardSites[] = {
    "store.shard.link",
    "store.shard.publish",
};
constexpr const char* kJournalSites[] = {
    "journal.flock",
    "journal.read",
};

struct TortureResult {
  std::uint64_t boundaries = 0;  // distinct (site, nth) pairs swept
  std::uint64_t aborted = 0;     // replays that threw a typed StoreError
};

// Enumerate-then-replay over one site list. `op` is the operation under
// torture, `verify` must prove the prior generation still serves, and
// `cleanup` removes whatever artifacts `op` produced (run after the
// count pass and after every replay, successful or aborted).
void torture_sites(std::span<const char* const> sites,
                   const std::function<void()>& op,
                   const std::function<void()>& verify,
                   const std::function<void()>& cleanup,
                   TortureResult* res) {
  for (const char* site : sites) {
    std::uint64_t hits = 0;
    {
      failpoint::Scoped counter(site, "count");
      ASSERT_NO_THROW(op()) << "clean enumeration run failed at " << site;
      hits = counter.hits();
    }
    cleanup();
    res->boundaries += hits;
    for (std::uint64_t nth = 1; nth <= hits; ++nth) {
      {
        failpoint::Scoped fp(site,
                             "nth:" + std::to_string(nth) + ":EIO");
        try {
          op();  // tolerated fault (e.g. link fallback) or typed abort
        } catch (const StoreError&) {
          ++res->aborted;
        }
        // Anything else (SIGBUS, std::terminate, untyped exception)
        // escapes and fails the test — that is the point of the sweep.
      }
      verify();
      cleanup();
    }
  }
}

// Proves a sharded generation is FULLY servable: strict digest-verified
// reopen, every shard mapped, and a query sample answered exactly.
void expect_servable(const std::string& path, const Graph& g,
                     const std::vector<EdgeId>& faults,
                     std::span<const BatchQueryEngine::Query> sample) {
  const auto view = ShardedStoreView::open(path);
  (void)view->prefetch();
  ASSERT_EQ(view->shards_quarantined(), 0u);
  BatchQueryEngine session(load_scheme(path), FaultSpec::edges(faults));
  for (const auto& q : sample) {
    ASSERT_EQ(session.connected(q.s, q.t),
              graph::connected_avoiding(g, q.s, q.t, faults))
        << "prior generation answered wrong after an injected abort";
  }
}

std::vector<BatchQueryEngine::Query> sample_queries(VertexId n,
                                                    std::uint64_t seed,
                                                    int count) {
  SplitMix64 rng(seed);
  std::vector<BatchQueryEngine::Query> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(
        BatchQueryEngine::Query{static_cast<VertexId>(rng.next_below(n)),
                                static_cast<VertexId>(rng.next_below(n))});
  }
  return out;
}

// ------------------------------------------------------------------
// Full save to a fresh path: an abort at any boundary must leave the
// serving generation untouched and the aborted target free of shard
// litter (save_sharded's failure hygiene unlinks what it created).

TEST(Torture, FullSaveAbortsLeaveServingGenerationAndNoLitter) {
  TempStore parent("fullsave_parent", ".ftcm");
  TempStore child("fullsave_child", ".ftcm");
  const VertexId n = 64;
  const Graph g = graph::random_connected(n, 160, 5);
  const Graph g2 = graph::random_connected(n, 160, 6);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  const auto scheme2 = make_scheme(g2, test_config(BackendKind::kCoreFtc, 2));
  save_sharded(*scheme, parent.path(), 4);

  const std::vector<EdgeId> faults = {1, 33};
  const auto sample = sample_queries(n, 123, 24);

  const auto op = [&] { save_sharded(*scheme2, child.path(), 4); };
  const auto verify = [&] {
    expect_servable(parent.path(), g, faults, sample);
    // The child either completed (valid manifest) or aborted; aborted
    // saves must not leave orphan shard files behind.
    std::FILE* f = std::fopen(child.path().c_str(), "rb");
    if (f != nullptr) {
      std::fclose(f);
    } else {
      for (unsigned k = 0; k < 4; ++k) {
        std::FILE* s = std::fopen(child.shard_path(k).c_str(), "rb");
        EXPECT_EQ(s, nullptr) << "aborted save left shard litter: "
                              << child.shard_path(k);
        if (s != nullptr) std::fclose(s);
      }
    }
  };
  const auto cleanup = [&] { child.cleanup(); };

  TortureResult res;
  torture_sites(kWriteSites, op, verify, cleanup, &res);
  // 4 shards + manifest each cross every write boundary at least once.
  EXPECT_GE(res.boundaries, 5u * 5u);
  EXPECT_GT(res.aborted, 0u);

  TortureResult shard_res;
  torture_sites(std::span<const char* const>(&kShardSites[1], 1), op, verify,
                cleanup, &shard_res);
  EXPECT_GE(shard_res.boundaries, 4u);  // one publish rename per shard
  EXPECT_GT(shard_res.aborted, 0u);
}

// ------------------------------------------------------------------
// Delta push onto the parent's OWN path: unchanged shards are kept in
// place, only the manifest is rewritten — an abort at any manifest
// boundary must leave the store serving (possibly at the old epoch).

TEST(Torture, SamePathDeltaPushAbortsKeepStoreServable) {
  TempStore manifest("samepath", ".ftcm");
  const VertexId n = 64;
  const Graph g = graph::random_connected(n, 160, 7);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  save_sharded(*scheme, manifest.path(), 4);

  const std::vector<EdgeId> faults = {2, 50};
  const auto sample = sample_queries(n, 321, 24);

  const auto op = [&] {
    (void)save_sharded_delta(*scheme, manifest.path(), manifest.path());
  };
  const auto verify = [&] {
    expect_servable(manifest.path(), g, faults, sample);
  };

  TortureResult res;
  torture_sites(kWriteSites, op, verify, [] {}, &res);
  EXPECT_GE(res.boundaries, 5u);  // at least the manifest's own write
  EXPECT_GT(res.aborted, 0u);
}

// ------------------------------------------------------------------
// Delta push to a child path, both flavors: byte-identical shards
// (hard-link staging: link + publish boundaries) and rebuilt shards
// (full write boundaries). The parent must survive every abort — a
// delta push only ever reads or links the parent's files.

TEST(Torture, ChildDeltaPushAbortsLeaveParentIntact) {
  TempStore parent("delta_parent", ".ftcm");
  TempStore child("delta_child", ".ftcm");
  const VertexId n = 64;
  const Graph g = graph::random_connected(n, 160, 9);
  const Graph g2 = graph::random_connected(n, 160, 10);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 2));
  const auto scheme2 = make_scheme(g2, test_config(BackendKind::kCoreFtc, 2));
  save_sharded(*scheme, parent.path(), 4);

  const std::vector<EdgeId> faults = {4, 71};
  const auto sample = sample_queries(n, 555, 24);
  const auto verify = [&] {
    expect_servable(parent.path(), g, faults, sample);
  };
  const auto cleanup = [&] { child.cleanup(); };

  // Byte-identical push: every shard stages via hard link.
  const auto link_op = [&] {
    (void)save_sharded_delta(*scheme, child.path(), parent.path());
  };
  TortureResult link_res;
  torture_sites(kShardSites, link_op, verify, cleanup, &link_res);
  EXPECT_GE(link_res.boundaries, 8u);  // 4 links + 4 publish renames

  // Rebuilt push: every shard differs, so the full write path runs.
  const auto write_op = [&] {
    (void)save_sharded_delta(*scheme2, child.path(), parent.path());
  };
  TortureResult write_res;
  torture_sites(kWriteSites, write_op, verify, cleanup, &write_res);
  EXPECT_GE(write_res.boundaries, 5u * 5u);
  EXPECT_GT(write_res.aborted, 0u);
}

// ------------------------------------------------------------------
// Journal appends: the read-modify-write under the flock must either
// complete or leave the previous journal bytes in place — the store and
// its replayed deletions stay loadable after every injected abort.

TEST(Torture, JournalAppendAbortsKeepJournalValid) {
  TempStore store("journal", ".ftcs");
  const Graph g = graph::random_connected(48, 200, 13);
  const auto scheme = make_scheme(g, test_config(BackendKind::kCoreFtc, 8));
  scheme->save(store.path());
  const auto view = LabelStoreView::open(store.path());
  const std::uint64_t digest = view->info().payload_checksum;
  const std::string jpath = journal_path_for(store.path());

  // Baseline frame, so an aborted append always has prior bytes to
  // preserve.
  const std::vector<EdgeId> baseline{0};
  ASSERT_EQ(DeletionJournal::append(jpath, digest, 64, baseline), 1u);

  EdgeId next_edge = 100;
  const auto op = [&] {
    const std::vector<EdgeId> one{next_edge++};
    (void)DeletionJournal::append(jpath, digest, 64, one);
  };
  const auto verify = [&] {
    const auto j = DeletionJournal::open(jpath);
    ASSERT_GE(j->deleted_edges().size(), 1u);
    // Always one frame: 40 bytes of framing + the IDs padded to 8.
    ASSERT_EQ(j->file_bytes(), 40 + 8 * ((j->occupancy() + 1) / 2));
    // The store still loads with the journal replayed into the fault
    // set.
    const auto served = load_scheme(store.path());
    ASSERT_NE(served, nullptr);
  };

  TortureResult res;
  torture_sites(kJournalSites, op, verify, [] {}, &res);
  torture_sites(kWriteSites, op, verify, [] {}, &res);
  EXPECT_GE(res.boundaries, 7u);
  EXPECT_GT(res.aborted, 0u);
}

}  // namespace
}  // namespace ftc::core
