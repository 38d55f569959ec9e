// Golden bytes: every backend's saved artifacts are pinned to constants.
//
// For each backend, on two fixed small inputs (both carrying the
// adjacency side-table), save() must produce a container of a recorded
// size and payload checksum, and save_sharded() with K = 4 a manifest of
// a recorded size and whole-file digest (the manifest records every
// shard's payload digest, so it pins the shard bytes too). The payload
// checksum is CRC-64/XZ (container format v3). Any change to
// how labels are built, held in memory or serialized that moves a single
// byte on disk fails here.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"
#include "graph/generators.hpp"

namespace ftc::core {
namespace {

namespace fs = std::filesystem;

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

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

// A fresh directory per case: shard file names derive from the manifest
// file name, which is part of the manifest bytes.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::path(::testing::TempDir()) /
              ("ftc_golden_" + name + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string file(const char* name) const { return (path_ / name).string(); }

 private:
  fs::path path_;
};

// Recorded at the commit that introduced this test; a deliberate format
// change must update them together with the format version. The payload
// checksums and manifest digests were re-recorded for container format
// v3 (payload checksum CRC-64/XZ instead of FNV-1a); file and manifest
// sizes did not move, since v3 keeps the v2 layout. A portable
// (non-PCLMUL) build must reproduce these same values.
constexpr Golden kGolden[] = {
    {BackendKind::kCoreFtc, "random", 112232, 0x594246094b7e8ac5ULL, 1792,
     0x4cec7523f37f6efeULL},
    {BackendKind::kCoreFtc, "grid", 47064, 0x874dde3b122510adULL, 1192,
     0xadea0aadf7cf9681ULL},
    {BackendKind::kDp21CycleSpace, "random", 6136, 0x367dd0be237231c0ULL, 1776,
     0xa4d7c5b1a7e46c26ULL},
    {BackendKind::kDp21CycleSpace, "grid", 3200, 0xaef56c62ebc7892bULL, 1176,
     0x8bd213d58f81e4b4ULL},
    {BackendKind::kDp21Agm, "random", 1294952, 0x1dcc1c9994262bbcULL, 1792,
     0x4f534a93c17ca516ULL},
    {BackendKind::kDp21Agm, "grid", 470232, 0x25d8d2e55444d119ULL, 1192,
     0xf46c888c726dc883ULL},
};

TEST(GoldenBytes, SavesAreByteIdenticalToRecordedConstants) {
  for (const Golden& want : kGolden) {
    const std::string tag =
        std::string(backend_name(want.backend)) + "/" + want.input;
    SCOPED_TRACE(tag);
    const ScratchDir dir(std::string(backend_name(want.backend)) + "_" +
                         want.input);
    const auto scheme =
        make_scheme(golden_input(want.input), golden_config(want.backend));
    ASSERT_NE(scheme->adjacency(), nullptr);

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
