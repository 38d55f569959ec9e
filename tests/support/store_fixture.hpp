// Fixtures shared by the test suites: the scheme config most suites
// build with, the backend sweep's parameter names, a random fault-set
// draw, guards for temp stores and scratch directories, file and byte
// helpers, the header-checksum fixers and a scoped retry policy. Tests only: it
// includes gtest.
#pragma once

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"
#include "graph/graph.hpp"
#include "util/common.hpp"
#include "util/digest.hpp"

namespace ftc::test_support {

// Headroom so practical-k / whp parameters never run out of capacity on
// the adversarial random workloads of the suites.
inline core::SchemeConfig test_config(core::BackendKind backend, unsigned f) {
  core::SchemeConfig cfg;
  cfg.backend = backend;
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  return cfg;
}

// gtest parameter names for a sweep over kAllBackends: the backend's name
// with '_' for '-'.
inline std::string backend_param_name(
    const ::testing::TestParamInfo<core::BackendKind>& info) {
  std::string name = core::backend_name(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

// |F| uniform in [0, max_faults], each ID uniform over g's edges
// (repeats allowed; a fault set is a set).
inline std::vector<graph::EdgeId> random_faults(SplitMix64& rng,
                                                const graph::Graph& g,
                                                unsigned max_faults) {
  const auto count = rng.next_below(max_faults + 1);
  std::vector<graph::EdgeId> faults;
  for (unsigned i = 0; i < count; ++i) {
    faults.push_back(
        static_cast<graph::EdgeId>(rng.next_below(g.num_edges())));
  }
  return faults;
}

// A path under gtest's temp dir, unique to this test binary (the suite),
// `name` and this process.
inline std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ftc_" + program_invocation_short_name +
         "_" + name + "_" + std::to_string(::getpid());
}

// A store path (`ext` is ".ftcs" or ".ftcm") under the temp dir, removed
// on construction and teardown together with everything the store layer
// writes beside it: the deletion journal, its lock and a manifest's
// shard files.
class TempStore {
 public:
  TempStore(const std::string& name, const char* ext)
      : path_(temp_path(name) + ext) {
    cleanup();
  }
  ~TempStore() { cleanup(); }
  TempStore(const TempStore&) = delete;
  TempStore& operator=(const TempStore&) = delete;

  const std::string& path() const { return path_; }
  std::string journal() const { return core::journal_path_for(path_); }
  std::string shard_path(unsigned k) const {
    return path_ + ".shard" + std::to_string(k) + ".ftcs";
  }
  void cleanup() const {
    std::remove(path_.c_str());
    std::remove(journal().c_str());
    std::remove((journal() + ".lock").c_str());
    for (unsigned k = 0; k < 64; ++k) std::remove(shard_path(k).c_str());
  }

 private:
  std::string path_;
};

// A fresh directory under the temp dir, removed with its contents on
// teardown.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) : path_(temp_path(name)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

inline bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

inline bool spans_equal(std::span<const std::uint8_t> a,
                        std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

inline std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

inline void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

inline void write_file(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  write_file(path,
             std::string_view(reinterpret_cast<const char*>(bytes.data()),
                              bytes.size()));
}

// After editing header fields, restore the header checksum (the FNV-1a
// of the header before it, in its last 8 bytes) so the edit, not the
// checksum guard, is what open() trips over.
inline void fix_checksum_of_header(std::vector<std::uint8_t>& bytes,
                                   std::size_t header_bytes) {
  ASSERT_GE(bytes.size(), header_bytes);
  const std::size_t at = header_bytes - 8;
  const std::uint64_t sum =
      util::fnv1a(std::span<const std::uint8_t>(bytes.data(), at));
  for (int i = 0; i < 8; ++i) bytes[at + i] = (sum >> (8 * i)) & 0xff;
}

inline void fix_header_checksum(std::vector<std::uint8_t>& bytes) {
  fix_checksum_of_header(bytes, core::store::kHeaderBytes);
}

inline void fix_manifest_header_checksum(std::vector<std::uint8_t>& bytes) {
  fix_checksum_of_header(bytes, core::store::kManifestHeaderBytes);
}

// Swaps in a fast retry schedule, so always-failing drills do not sleep
// through real backoff, and restores the process-wide policy on exit.
class ScopedRetryPolicy {
 public:
  ScopedRetryPolicy(unsigned attempts, std::chrono::microseconds backoff)
      : prior_(core::default_retry_policy()) {
    core::default_retry_policy().max_attempts = attempts;
    core::default_retry_policy().initial_backoff = backoff;
  }
  ~ScopedRetryPolicy() { core::default_retry_policy() = prior_; }
  ScopedRetryPolicy(const ScopedRetryPolicy&) = delete;
  ScopedRetryPolicy& operator=(const ScopedRetryPolicy&) = delete;

 private:
  core::RetryPolicy prior_;
};

}  // namespace ftc::test_support
