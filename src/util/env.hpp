// Numeric environment knobs (FTC_CACHE_BYTES, FTC_RETRY_*) and the one
// strict decimal parser behind them, which the HTTP shard client (status
// code, Content-Length, URL port) and ftc_store's numeric flags use too,
// so every untrusted number is refused the same way: strtoull alone
// would accept a sign or leading spaces and turn "-1" into 2^64 - 1,
// and a hand-rolled digit loop wraps silently past 2^64.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>

namespace ftc::util {

// `text` as an unsigned decimal: one or more digits and nothing else
// (no sign, spaces or base prefix), within u64 range. nullopt for null,
// empty or anything else.
inline std::optional<std::uint64_t> parse_decimal_u64(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  std::uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

// The environment variable `name` through parse_decimal_u64: nullopt
// when it is unset or malformed, so callers keep their default.
inline std::optional<std::uint64_t> env_u64(const char* name) {
  return parse_decimal_u64(std::getenv(name));
}

}  // namespace ftc::util
