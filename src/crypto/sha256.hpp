// SHA-256 (FIPS 180-4). Self-contained; used for message digests, HMAC, and
// hashing into the RSA group for threshold signatures.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace icc::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  /// The eight chaining words between blocks (a midstate).
  using State = std::array<std::uint32_t, 8>;
  /// FIPS 180-4's initial hash value H(0): the state before any block.
  static constexpr State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s) {
    update(std::span{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(std::string_view s);

 private:
  State state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_len_{0};
  std::size_t buffer_len_{0};
};

/// Render a digest as lowercase hex (tracing / tests).
std::string to_hex(const Digest& d);

}  // namespace icc::crypto
