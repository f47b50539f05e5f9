// Simulation-grade threshold signature scheme.
//
// The dealer derives master key K_L = HMAC(seed, L) per level and node
// shares S_{L,i} = HMAC(K_L, i). A partial signature is HMAC(S_{L,i}, msg);
// the combine/verify operations recompute tags with the dealer's keys. Each
// key's HMAC schedule is built once per run: the master keys' at
// construction, a node's shares' when the dealer issues its signer. In a
// simulation the ModelThresholdScheme instance *is* the mathematics: a node
// can only produce the partial tag for ids whose ThresholdSigner it holds,
// so the protocol-visible guarantees match real threshold RSA — forging a
// level-L signature requires L+1 distinct compromised signers.
//
// Reported on-air sizes follow the configured RSA key length so that
// bandwidth and energy accounting match a real deployment (paper uses
// 1024-bit keys for AODV, 512-bit for the sensor study).
#pragma once

#include <string>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/scheme.hpp"

namespace icc::crypto {

class ModelThresholdScheme final : public ThresholdScheme {
 public:
  /// `key_bits` only affects the reported on-air signature sizes.
  ModelThresholdScheme(std::uint64_t seed, int max_level, int key_bits);

  [[nodiscard]] int max_level() const override { return max_level_; }
  [[nodiscard]] std::unique_ptr<ThresholdSigner> issue_signer(std::uint32_t id) override;
  [[nodiscard]] bool verify_partial(std::span<const std::uint8_t> msg,
                                    const PartialSig& ps) const override;
  [[nodiscard]] std::optional<ThresholdSignature> combine(
      int level, std::span<const std::uint8_t> msg,
      std::span<const PartialSig> partials) const override;
  [[nodiscard]] bool verify(std::span<const std::uint8_t> msg,
                            const ThresholdSignature& sig) const override;
  [[nodiscard]] std::size_t partial_sig_bytes() const override { return sig_bytes_; }
  [[nodiscard]] std::size_t signature_bytes() const override { return sig_bytes_; }

 private:
  /// The schedule of S_{level,id}: the issued one, or for an id never
  /// issued, one derived for this call only.
  [[nodiscard]] HmacKey share_schedule(int level, std::uint32_t id) const;
  [[nodiscard]] HmacKey derive_share(int level, std::uint32_t id) const;

  int max_level_;
  std::size_t sig_bytes_;
  std::vector<HmacKey> masters_;  ///< K_L's schedule, index L-1
  /// Share schedules of every issued signer, [id][L-1]; empty for an id
  /// never issued.
  std::vector<std::vector<HmacKey>> issued_;
};

}  // namespace icc::crypto
