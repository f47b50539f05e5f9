#include "crypto/pki.hpp"

#include <algorithm>
#include <cstring>
#include <string>

namespace icc::crypto {

namespace {

class ModelNodeSigner final : public NodeSigner {
 public:
  ModelNodeSigner(std::uint32_t id, const HmacKey& key, std::size_t sig_bytes)
      : id_{id}, key_{key}, sig_bytes_{sig_bytes} {}
  [[nodiscard]] std::uint32_t id() const override { return id_; }
  [[nodiscard]] std::vector<std::uint8_t> sign(
      std::span<const std::uint8_t> msg) const override {
    const Digest tag = key_.mac(msg);
    std::vector<std::uint8_t> out(sig_bytes_, 0);  // the modeled on-air size
    std::copy_n(tag.begin(), std::min(tag.size(), out.size()), out.begin());
    return out;
  }

 private:
  std::uint32_t id_;
  HmacKey key_;
  std::size_t sig_bytes_;
};

class RsaNodeSigner final : public NodeSigner {
 public:
  RsaNodeSigner(std::uint32_t id, const RsaKeyPair& key) : id_{id}, key_{key} {}
  [[nodiscard]] std::uint32_t id() const override { return id_; }
  [[nodiscard]] std::vector<std::uint8_t> sign(
      std::span<const std::uint8_t> msg) const override {
    return rsa_sign(key_, msg).to_bytes(key_.pub.modulus_bytes());
  }

 private:
  std::uint32_t id_;
  const RsaKeyPair& key_;
};

}  // namespace

ModelPki::ModelPki(std::uint64_t seed, int key_bits)
    : seed_key_{dealer_seed_key(seed)}, sig_bytes_{static_cast<std::size_t>(key_bits) / 8} {}

HmacKey ModelPki::derive_key(std::uint32_t id) const {
  return HmacKey{hmac_sha256(seed_key_, "pki:" + std::to_string(id))};
}

std::unique_ptr<NodeSigner> ModelPki::issue_signer(std::uint32_t id) {
  if (id >= issued_.size()) issued_.resize(static_cast<std::size_t>(id) + 1);
  const HmacKey& key = issued_[id].emplace(derive_key(id));
  return std::make_unique<ModelNodeSigner>(id, key, sig_bytes_);
}

bool ModelPki::verify(std::uint32_t id, std::span<const std::uint8_t> msg,
                      std::span<const std::uint8_t> sig) const {
  if (sig.size() < 32) return false;
  const std::optional<HmacKey> never_issued;
  const std::optional<HmacKey>& key = id < issued_.size() ? issued_[id] : never_issued;
  const Digest expected = key.has_value() ? key->mac(msg) : derive_key(id).mac(msg);
  Digest got{};
  std::memcpy(got.data(), sig.data(), got.size());
  return digest_equal(expected, got);
}

RsaPki::RsaPki(int key_bits, std::uint32_t num_nodes, WordSource words) {
  keys_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) keys_.push_back(rsa_generate(key_bits, words));
}

std::unique_ptr<NodeSigner> RsaPki::issue_signer(std::uint32_t id) {
  return std::make_unique<RsaNodeSigner>(id, keys_.at(id));
}

bool RsaPki::verify(std::uint32_t id, std::span<const std::uint8_t> msg,
                    std::span<const std::uint8_t> sig) const {
  if (id >= keys_.size()) return false;
  const RsaPublicKey& pub = keys_[id].pub;
  if (sig.size() != pub.modulus_bytes()) return false;
  return rsa_verify(pub, msg, Bignum::from_bytes(sig));
}

std::size_t RsaPki::signature_bytes() const {
  return keys_.empty() ? 0 : keys_.front().pub.modulus_bytes();
}

}  // namespace icc::crypto
