// A move-only byte buffer held in one private anonymous mapping. Fresh
// anonymous pages are zero, so a label builder that sizes its edge-blob
// section here (core/label_store.hpp) writes no zeros of its own and
// pays only the faults of the pages it touches. A buffer of at least
// 2 MiB is 2 MiB-aligned, rounded up to whole 2 MiB and advised
// MADV_HUGEPAGE: with transparent huge pages in madvise or always mode
// it faults in 2 MiB pages, with never in 4 KiB ones; the bytes are the
// same either way. Under ASan the slack past size() is poisoned, so an
// overrun past the last byte is reported as it was with a std::vector.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

namespace ftc::util {

class PageBuffer {
 public:
  static constexpr std::size_t kHugePage = std::size_t{1} << 21;

  PageBuffer() = default;
  // size() zero bytes; throws std::bad_alloc if the kernel refuses.
  explicit PageBuffer(std::size_t bytes) : size_(bytes) {
    if (bytes == 0) return;
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t align = bytes >= kHugePage ? kHugePage : page;
    map_bytes_ = round_up(bytes, align);
    // Over-map by align - page, then trim to the aligned window.
    const std::size_t span = map_bytes_ + align - page;
    void* p = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    auto* base = static_cast<std::uint8_t*>(p);
    const auto addr = reinterpret_cast<std::uintptr_t>(base);
    const std::size_t head = round_up(addr, align) - addr;
    data_ = base + head;
    if (head != 0) ::munmap(base, head);
    if (span - head != map_bytes_) {
      ::munmap(data_ + map_bytes_, span - head - map_bytes_);
    }
#ifdef MADV_HUGEPAGE
    if (align == kHugePage) ::madvise(data_, map_bytes_, MADV_HUGEPAGE);
#endif
#ifdef __SANITIZE_ADDRESS__
    ASAN_POISON_MEMORY_REGION(data_ + size_, map_bytes_ - size_);
#endif
  }
  ~PageBuffer() { reset(); }

  PageBuffer(PageBuffer&& other) noexcept { swap(other); }
  PageBuffer& operator=(PageBuffer&& other) noexcept {
    PageBuffer(std::move(other)).swap(*this);
    return *this;
  }
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

  // Unmaps the region (if any) and leaves the buffer empty.
  void reset() noexcept {
    if (data_ == nullptr) return;
#ifdef __SANITIZE_ADDRESS__
    ASAN_UNPOISON_MEMORY_REGION(data_, map_bytes_);
#endif
    ::munmap(data_, map_bytes_);
    data_ = nullptr;
    size_ = map_bytes_ = 0;
  }

 private:
  static std::size_t round_up(std::size_t x, std::size_t a) {
    return (x + a - 1) / a * a;
  }
  void swap(PageBuffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(map_bytes_, other.map_bytes_);
  }

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t map_bytes_ = 0;
};

}  // namespace ftc::util
