// HMAC-SHA256 (RFC 2104). Used for authenticated STS beacons, session-key
// MACs after the NS-Lowe handshake, and the simulation-grade signature
// scheme's share tags.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "crypto/sha256.hpp"

namespace icc::crypto {

/// A key's HMAC-SHA256 schedule: the SHA-256 midstates after absorbing the
/// key's ipad block and its opad block. A MAC resumes from them and costs
/// the message's blocks plus its padding plus one outer block, and nothing
/// else; build one per long-lived key.
class HmacKey {
 public:
  /// Hashes nothing; mac() on it is no HMAC. Assign a keyed schedule first.
  HmacKey() = default;
  explicit HmacKey(std::span<const std::uint8_t> key);

  /// HMAC-SHA256 of `msg` under this key.
  [[nodiscard]] Digest mac(std::span<const std::uint8_t> msg) const { return mac({}, msg); }
  /// HMAC-SHA256 of `prefix` followed by `msg`, without joining them.
  [[nodiscard]] Digest mac(std::span<const std::uint8_t> prefix,
                           std::span<const std::uint8_t> msg) const;

 private:
  Sha256::State inner_{};
  Sha256::State outer_{};
};

/// HMAC-SHA256 of `msg` under `key`: HmacKey{key}.mac(msg).
Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> msg);

/// Convenience for digest-sized keys and string messages.
Digest hmac_sha256(const Digest& key, std::string_view msg);
Digest hmac_sha256(const Digest& key, std::span<const std::uint8_t> msg);

/// The model dealers' root key: SHA-256 of `seed`'s 8 little-endian bytes.
/// ModelThresholdScheme derives its level keys K_L and ModelPki its node
/// keys from it by HMAC.
Digest dealer_seed_key(std::uint64_t seed);

/// Constant-time-style digest comparison (simulation does not need the
/// timing guarantee, but the idiom is kept for fidelity).
bool digest_equal(const Digest& a, const Digest& b) noexcept;

}  // namespace icc::crypto
