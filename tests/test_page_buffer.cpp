// util::PageBuffer, the kernel-zeroed mapping that holds every builder's
// edge-blob section (core/label_store.hpp): sizes across the page and
// huge-page boundaries read back zero, huge buffers are 2 MiB-aligned, a
// move hands the region over and it is unmapped exactly once, a
// re-assigned label section is zero again, and under ASan a write one
// byte past the end is reported.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "core/label_store.hpp"
#include "util/page_buffer.hpp"

namespace ftc::util {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

bool all_zero(const std::uint8_t* p, std::size_t n) {
  static const std::uint8_t zeros[4096] = {};
  for (std::size_t i = 0; i < n; i += sizeof zeros) {
    const std::size_t len = std::min(sizeof zeros, n - i);
    if (std::memcmp(p + i, zeros, len) != 0) return false;
  }
  return true;
}

// Whether the page-aligned range [p, p + n) is mapped: msync reports
// ENOMEM for a range that is not.
bool mapped(const void* p, std::size_t n) {
  return ::msync(const_cast<void*>(p), n, MS_ASYNC) == 0;
}

TEST(PageBuffer, SizesReadBackZero) {
  for (const std::size_t bytes :
       {std::size_t{0}, std::size_t{1}, std::size_t{4095},
        PageBuffer::kHugePage - 1, PageBuffer::kHugePage + 1, 64 * kMiB}) {
    SCOPED_TRACE(bytes);
    const PageBuffer buf(bytes);
    EXPECT_EQ(buf.size(), bytes);
    EXPECT_EQ(buf.data() == nullptr, bytes == 0);
    EXPECT_TRUE(all_zero(buf.data(), bytes));
  }
}

TEST(PageBuffer, HugeBuffersAre2MiBAligned) {
  for (const std::size_t bytes :
       {PageBuffer::kHugePage, PageBuffer::kHugePage + 1, 5 * kMiB + 3}) {
    SCOPED_TRACE(bytes);
    const PageBuffer buf(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                  PageBuffer::kHugePage,
              0u);
  }
}

TEST(PageBuffer, MoveHandsOverTheRegionAndUnmapsItOnce) {
  const std::size_t bytes = 3 * kMiB;
  const std::uint8_t* region = nullptr;
  {
    PageBuffer a(bytes);
    a.data()[bytes - 1] = 7;
    region = a.data();
    PageBuffer b(std::move(a));
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(b.data(), region);
    EXPECT_EQ(b.size(), bytes);
    a.reset();  // the moved-from source owns nothing to unmap
    EXPECT_TRUE(mapped(region, bytes));
    EXPECT_EQ(b.data()[bytes - 1], 7);

    // Move assignment unmaps the target's old region first.
    PageBuffer c(4096);
    const std::uint8_t* old = c.data();
    c = std::move(b);
    EXPECT_FALSE(mapped(old, 4096));
    EXPECT_EQ(b.data(), nullptr);
    EXPECT_EQ(c.data(), region);
    EXPECT_TRUE(mapped(region, bytes));
  }
  EXPECT_FALSE(mapped(region, bytes));
}

TEST(PageBuffer, ReassignedLabelSectionIsZeroAgain) {
  core::store::ResidentLabels labels;
  for (const std::size_t blob_bytes : {std::size_t{20}, std::size_t{1000}}) {
    for (int round = 0; round < 2; ++round) {
      const std::size_t m = 3001;
      labels.assign_edge_blobs(m, blob_bytes);
      ASSERT_EQ(labels.edge_section.size(), m * blob_bytes);
      EXPECT_TRUE(all_zero(labels.edge_blobs(), m * blob_bytes));
      std::memset(labels.edge_blobs(), 0xff, m * blob_bytes);
      EXPECT_EQ(labels.edge_blob(m - 1)[blob_bytes - 1], 0xff);
    }
  }
}

#ifdef __SANITIZE_ADDRESS__
TEST(PageBufferDeathTest, WritePastTheEndIsReported) {
  for (const std::size_t bytes :
       {std::size_t{1}, std::size_t{4095}, PageBuffer::kHugePage + 1}) {
    SCOPED_TRACE(bytes);
    EXPECT_DEATH(
        {
          PageBuffer buf(bytes);
          volatile std::uint8_t* p = buf.data();
          p[bytes] = 1;
        },
        "AddressSanitizer");
  }
  // One byte past the last blob of a label section.
  EXPECT_DEATH(
      {
        core::store::ResidentLabels labels;
        labels.assign_edge_blobs(7, 20);
        volatile std::uint8_t* p = labels.edge_blob(6);
        p[20] = 1;
      },
      "AddressSanitizer");
}
#endif

}  // namespace
}  // namespace ftc::util
