// Golden bytes: every backend's saved artifacts are pinned to constants.
//
// For each backend, on two fixed small inputs (both carrying the
// adjacency side-table), save() must produce a container of a recorded
// size and payload checksum, and save_sharded() with K = 4 a manifest of
// a recorded size and whole-file digest (the manifest records every
// shard's payload digest, so it pins the shard bytes too). The payload
// checksum is CRC-64/XZ (container formats v3 and v4). Any change to
// how labels are built, held in memory or serialized that moves a single
// byte on disk fails here.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"
#include "graph/generators.hpp"
#include "store_fixture.hpp"

namespace ftc::core {
namespace {

namespace fs = std::filesystem;
using test_support::ScratchDir;
using test_support::read_file;

struct Golden {
  BackendKind backend;
  const char* input;
  std::uint64_t file_bytes;
  std::uint64_t payload_checksum;
  std::uint64_t manifest_bytes;
  std::uint64_t manifest_digest;
};

graph::Graph golden_input(const std::string& name) {
  if (name == "random") return graph::random_connected(48, 120, 11);
  return graph::grid(5, 7);
}

SchemeConfig golden_config(BackendKind backend) {
  SchemeConfig cfg;
  cfg.backend = backend;
  cfg.set_f(3);
  cfg.set_seed(5);
  cfg.set_build_threads(1);
  return cfg;
}

// Recorded at the commit that introduced this test; a deliberate format
// change must update them together with the format version. The payload
// checksums and manifest digests were re-recorded for container format
// v3 (payload checksum CRC-64/XZ instead of FNV-1a); file and manifest
// sizes did not move, since v3 keeps the v2 layout. They were
// re-recorded again for container format v4 and manifest format v3:
// core-ftc edge blobs store min(k, bound_l) syndromes per level, so the
// core files shrink and their checksums move, and every manifest digest
// moves with the manifest version byte (the dp21 containers are
// unchanged). A portable (non-PCLMUL) build must reproduce these same
// values.
constexpr Golden kGolden[] = {
    {BackendKind::kCoreFtc, "random", 74792, 0x8fae8658e7306636ULL, 1792,
     0x761e5881a6de567cULL},
    {BackendKind::kCoreFtc, "grid", 13656, 0x11b166ddba2c2571ULL, 1192,
     0x638d7874ccabe430ULL},
    {BackendKind::kDp21CycleSpace, "random", 6136, 0x367dd0be237231c0ULL, 1776,
     0x0b93f0cb1ea5a74cULL},
    {BackendKind::kDp21CycleSpace, "grid", 3200, 0xaef56c62ebc7892bULL, 1176,
     0xc6f9115ac09c0944ULL},
    {BackendKind::kDp21Agm, "random", 1294952, 0x1dcc1c9994262bbcULL, 1792,
     0x1ed27d5b7bbf2c6bULL},
    {BackendKind::kDp21Agm, "grid", 470232, 0x25d8d2e55444d119ULL, 1192,
     0x63de4e06e28a421eULL},
};

TEST(GoldenBytes, SavesAreByteIdenticalToRecordedConstants) {
  for (const Golden& want : kGolden) {
    const std::string tag =
        std::string(backend_name(want.backend)) + "/" + want.input;
    SCOPED_TRACE(tag);
    // A fresh directory per case: shard file names derive from the
    // manifest file name, which is part of the manifest bytes.
    const ScratchDir dir(std::string(backend_name(want.backend)) + "_" +
                         want.input);
    const auto scheme =
        make_scheme(golden_input(want.input), golden_config(want.backend));
    ASSERT_TRUE(scheme->has_adjacency());

    const std::string flat = dir.file("golden.ftcs");
    scheme->save(flat);
    const auto view = LabelStoreView::open(flat);
    EXPECT_TRUE(view->info().has_adjacency);

    const std::string manifest = dir.file("golden.ftcm");
    save_sharded(*scheme, manifest, 4);
    const std::vector<std::uint8_t> mbytes = read_file(manifest);

    EXPECT_EQ(fs::file_size(flat), want.file_bytes);
    EXPECT_EQ(view->info().payload_checksum, want.payload_checksum);
    EXPECT_EQ(mbytes.size(), want.manifest_bytes);
    EXPECT_EQ(store::fnv1a(mbytes), want.manifest_digest);
  }
}

}  // namespace
}  // namespace ftc::core
