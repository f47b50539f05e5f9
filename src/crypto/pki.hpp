// Individual (non-threshold) node signatures.
//
// Statistical voting forwards each participant's value message inside the
// propose message, and verifiers must check those value messages really came
// from the claimed senders (Fig 3b, "p verifies that the included signatures
// are valid"). That needs ordinary per-node signatures; this header provides
// the abstraction plus a simulation-grade implementation (per-node HMAC keys
// held by a dealer oracle — same modeling rationale as ModelThresholdScheme)
// and a real-RSA implementation for tests.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"

namespace icc::crypto {

/// A node's private signing capability.
class NodeSigner {
 public:
  virtual ~NodeSigner() = default;
  [[nodiscard]] virtual std::uint32_t id() const = 0;
  [[nodiscard]] virtual std::vector<std::uint8_t> sign(
      std::span<const std::uint8_t> msg) const = 0;
};

/// Public verification side + dealer.
class Pki {
 public:
  virtual ~Pki() = default;
  [[nodiscard]] virtual std::unique_ptr<NodeSigner> issue_signer(std::uint32_t id) = 0;
  [[nodiscard]] virtual bool verify(std::uint32_t id, std::span<const std::uint8_t> msg,
                                    std::span<const std::uint8_t> sig) const = 0;
  [[nodiscard]] virtual std::size_t signature_bytes() const = 0;
};

/// Simulation-grade PKI: per-node HMAC keys derived from a dealer seed. A
/// node's key schedule is built once, when the dealer issues its signer.
class ModelPki final : public Pki {
 public:
  /// `key_bits` only scales the modeled on-air signature size.
  ModelPki(std::uint64_t seed, int key_bits);

  [[nodiscard]] std::unique_ptr<NodeSigner> issue_signer(std::uint32_t id) override;
  [[nodiscard]] bool verify(std::uint32_t id, std::span<const std::uint8_t> msg,
                            std::span<const std::uint8_t> sig) const override;
  [[nodiscard]] std::size_t signature_bytes() const override { return sig_bytes_; }

 private:
  [[nodiscard]] HmacKey derive_key(std::uint32_t id) const;

  Digest seed_key_{};
  std::size_t sig_bytes_;
  /// Key schedules of every issued signer, by id; empty for an id never
  /// issued, whose key verify() derives per call.
  std::vector<std::optional<HmacKey>> issued_;
};

/// Real RSA PKI over per-node keypairs.
class RsaPki final : public Pki {
 public:
  RsaPki(int key_bits, std::uint32_t num_nodes, WordSource words);

  [[nodiscard]] std::unique_ptr<NodeSigner> issue_signer(std::uint32_t id) override;
  [[nodiscard]] bool verify(std::uint32_t id, std::span<const std::uint8_t> msg,
                            std::span<const std::uint8_t> sig) const override;
  [[nodiscard]] std::size_t signature_bytes() const override;

 private:
  std::vector<RsaKeyPair> keys_;
};

}  // namespace icc::crypto
