// Command-line argument parsing shared by the tools (icnode, tracq).
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace icc::cli {

/// Parses the whole of `text` as a T. Anything else — an empty value, a
/// trailing "x", a sign on an unsigned type, an out-of-range number — is a
/// usage error: prints `<tool>: <what> needs a number, got '<text>'` and
/// exits 2, never falls back to a numeric prefix.
template <typename T>
T parse_number(const char* tool, std::string_view what, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) {
    std::fprintf(stderr, "%s: %.*s needs a number, got '%s'\n", tool,
                 static_cast<int>(what.size()), what.data(), text);
    std::exit(2);
  }
  return value;
}

}  // namespace icc::cli
