// Payload digest: CRC-64/XZ kernels and the container checksum they guard.
//
// The carry-less fold (PCLMUL builds) and the slice-by-8 table loop must
// both equal a bit-at-a-time CRC-64/XZ, give the same value however the
// input is chunked, and start anywhere in memory. The container tests
// then check what the checksum is for: on a tiny store of every backend,
// every single-bit flip and every truncation makes a verifying open throw
// the typed StoreError, and store::payload_digest picks FNV-1a for v1/v2
// containers and CRC-64 for v3.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/label_store.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"
#include "util/digest.hpp"
#include "util/scoped_fd.hpp"

namespace ftc {
namespace {

using Bytes = std::vector<std::uint8_t>;

// Reference: one bit per step, straight from the CRC-64/XZ definition.
std::uint64_t crc64_bitwise(std::span<const std::uint8_t> bytes,
                            std::uint64_t prev = 0) {
  std::uint64_t crc = ~prev;
  for (const std::uint8_t b : bytes) {
    crc ^= b;
    for (int i = 0; i < 8; ++i) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0xC96C5795D7870F42ULL : 0);
    }
  }
  return ~crc;
}

Bytes random_bytes(SplitMix64& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

TEST(Crc64, CheckValue) {
  const std::string check = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  EXPECT_EQ(util::crc64(bytes), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(util::crc64_portable(bytes), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(crc64_bitwise(bytes), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(util::crc64({}), 0u);
}

// Every length 0..4096 at an unaligned start: the fold and the table
// loop agree with each other, the short ones (and every 61st) also with
// the bitwise reference, and any chunking streams to the one-shot value.
TEST(Crc64, StreamedEqualsOneShotAcrossChunkingsAndOffsets) {
  SplitMix64 rng(2024);
  const Bytes pool = random_bytes(rng, 4096 + 64);
  for (std::size_t len = 0; len <= 4096; ++len) {
    const std::size_t start = rng.next_below(64);
    const std::span<const std::uint8_t> msg(pool.data() + start, len);
    const std::uint64_t one_shot = util::crc64(msg);
    ASSERT_EQ(util::crc64_portable(msg), one_shot) << "len " << len;
    if (len <= 256 || len % 61 == 0) {
      ASSERT_EQ(crc64_bitwise(msg), one_shot) << "len " << len;
    }
    std::uint64_t streamed = 0;
    std::uint64_t streamed_portable = 0;
    for (std::size_t off = 0; off < len;) {
      const std::size_t take = std::min<std::size_t>(
          len - off, rng.next_below(rng.next_below(2) == 0 ? 24 : 700) + 1);
      streamed = util::crc64(msg.subspan(off, take), streamed);
      streamed_portable =
          util::crc64_portable(msg.subspan(off, take), streamed_portable);
      off += take;
    }
    ASSERT_EQ(streamed, one_shot) << "len " << len;
    ASSERT_EQ(streamed_portable, one_shot) << "len " << len;
  }
}

TEST(Crc64, FoldMatchesPortableOnLargeAndSeededInputs) {
  SplitMix64 rng(7);
  for (int it = 0; it < 40; ++it) {
    const Bytes b = random_bytes(rng, 1 + rng.next_below(1 << 17));
    const std::uint64_t seed = rng.next();
    ASSERT_EQ(util::crc64(b, seed), util::crc64_portable(b, seed));
  }
  // Runs of zero and all-ones bytes exercise the fold's carries.
  for (const std::uint8_t fill : {std::uint8_t{0}, std::uint8_t{0xff}}) {
    const Bytes b(100003, fill);
    EXPECT_EQ(util::crc64(b), util::crc64_portable(b));
    EXPECT_EQ(util::crc64(b), crc64_bitwise(b));
  }
}

TEST(PayloadDigest, PicksTheDigestByContainerVersion) {
  SplitMix64 rng(3);
  const Bytes b = random_bytes(rng, 777);
  const std::span<const std::uint8_t> head(b.data(), 300);
  const std::span<const std::uint8_t> tail(b.data() + 300, b.size() - 300);
  for (const std::uint32_t v : {1u, 2u}) {
    EXPECT_EQ(core::store::payload_digest(v, b), util::fnv1a(b));
    EXPECT_EQ(core::store::payload_digest(
                  v, tail, core::store::payload_digest(v, head)),
              util::fnv1a(b));
    EXPECT_STREQ(core::store::payload_digest_name(v), "fnv1a");
  }
  EXPECT_EQ(core::store::kFormatVersion, 3u);
  EXPECT_EQ(core::store::payload_digest(3, b), util::crc64(b));
  EXPECT_EQ(core::store::payload_digest(
                3, tail, core::store::payload_digest(3, head)),
            util::crc64(b));
  EXPECT_STREQ(core::store::payload_digest_name(3), "crc64");
}

// ------------------------------------------------------------------
// Every single-bit flip and every truncation of a small container is
// caught by a verifying open.

class StoreFile {
 public:
  explicit StoreFile(const std::string& name)
      : path_(::testing::TempDir() + "ftc_digest_" + name + "_" +
              std::to_string(::getpid()) + ".ftcs") {
    std::remove(path_.c_str());
  }
  ~StoreFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const std::uint8_t> b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Writes `bytes` to `path`, then flips every bit in turn (one pwrite
// each, restored after the open) and returns how many flipped files
// still opened with verification on. With every_bit false it flips one
// bit per byte (bit pos % 8), an eighth of the opens.
std::size_t accepted_bit_flips(const std::string& path, const Bytes& bytes,
                               bool every_bit = true) {
  write_file(path, bytes);
  const util::ScopedFd fd(::open(path.c_str(), O_WRONLY | O_CLOEXEC));
  EXPECT_TRUE(fd) << path;
  std::size_t accepted = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      if (!every_bit && bit != static_cast<int>(pos % 8)) continue;
      const auto off = static_cast<off_t>(pos);
      const auto flipped = static_cast<std::uint8_t>(bytes[pos] ^ (1u << bit));
      EXPECT_EQ(::pwrite(fd.get(), &flipped, 1, off), 1);
      try {
        (void)core::LabelStoreView::open(path, true);
        ++accepted;
        ADD_FAILURE() << "bit " << bit << " of byte " << pos << " undetected";
      } catch (const core::StoreError&) {
      }
      EXPECT_EQ(::pwrite(fd.get(), &bytes[pos], 1, off), 1);
    }
  }
  return accepted;
}

// Truncates `path` (holding `bytes`) to every shorter length, longest
// first, and returns how many prefixes still opened.
std::size_t accepted_truncations(const std::string& path, const Bytes& bytes) {
  write_file(path, bytes);
  std::size_t accepted = 0;
  for (std::size_t cut = bytes.size(); cut-- > 0;) {
    EXPECT_EQ(::truncate(path.c_str(), static_cast<off_t>(cut)), 0);
    try {
      (void)core::LabelStoreView::open(path, true);
      ++accepted;
      ADD_FAILURE() << "truncation to " << cut << " bytes undetected";
    } catch (const core::StoreError&) {
    }
  }
  return accepted;
}

class ContainerCorruption
    : public ::testing::TestWithParam<core::BackendKind> {};

TEST_P(ContainerCorruption, EveryBitFlipAndTruncationIsRejected) {
  core::SchemeConfig cfg;
  cfg.backend = GetParam();
  cfg.set_f(1).set_seed(3);
  cfg.agm.reps_override = 2;  // a few hundred bytes per AGM edge blob
  const auto scheme = core::make_scheme(graph::cycle(5), cfg);
  StoreFile file(std::string("flip_") + core::backend_name(GetParam()));
  scheme->save(file.path());
  const Bytes bytes = read_file(file.path());
  ASSERT_EQ(core::LabelStoreView::open(file.path())->info().format_version,
            core::store::kFormatVersion);
  ASSERT_LT(bytes.size(), 64u * 1024) << "keep the flip sweep small";
  EXPECT_EQ(accepted_bit_flips(file.path(), bytes), 0u);
  EXPECT_EQ(accepted_truncations(file.path(), bytes), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ContainerCorruption,
                         ::testing::ValuesIn(core::kAllBackends),
                         [](const auto& info) {
                           std::string name = core::backend_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The checked-in v2 fixtures verify through the FNV-1a path, and that
// path catches flipped bits in every byte.
TEST(ContainerCorruption, V2FixturesRejectBitFlipsInEveryByte) {
  for (const char* name : {"v2_core_ftc.ftcs", "v2_dp21_cycle.ftcs"}) {
    SCOPED_TRACE(name);
    const Bytes bytes =
        read_file(std::string(FTC_TEST_DATA_DIR) + "/" + name);
    StoreFile file(std::string("v2flip_") + name);
    write_file(file.path(), bytes);
    ASSERT_EQ(core::LabelStoreView::open(file.path())->info().format_version,
              2u);
    EXPECT_EQ(accepted_bit_flips(file.path(), bytes, false), 0u);
  }
}

}  // namespace
}  // namespace ftc
