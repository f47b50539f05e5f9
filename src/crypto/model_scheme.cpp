#include "crypto/model_scheme.hpp"

#include <cstring>
#include <unordered_set>

namespace icc::crypto {

namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

Digest tag_for(const HmacKey& key, int level, std::span<const std::uint8_t> msg) {
  // Domain-separate the level so a level-1 tag never verifies at level 2.
  std::array<std::uint8_t, 4> prefix{};
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    prefix[i] = static_cast<std::uint8_t>(level >> (8 * i));
  }
  return key.mac(prefix, msg);
}

class ModelSigner final : public ThresholdSigner {
 public:
  ModelSigner(std::uint32_t id, int max_level, std::vector<HmacKey> shares,
              std::size_t sig_bytes)
      : id_{id}, max_level_{max_level}, shares_{std::move(shares)}, sig_bytes_{sig_bytes} {}

  [[nodiscard]] std::uint32_t id() const override { return id_; }

  [[nodiscard]] PartialSig partial_sign(int level,
                                        std::span<const std::uint8_t> msg) const override {
    PartialSig ps;
    ps.signer = id_;
    ps.level = level;
    if (level < 1 || level > max_level_) return ps;  // empty data: never verifies
    const Digest tag = tag_for(shares_[static_cast<std::size_t>(level - 1)], level, msg);
    ps.data.assign(tag.begin(), tag.end());
    ps.data.resize(sig_bytes_, 0);  // pad to modeled on-air size
    return ps;
  }

 private:
  std::uint32_t id_;
  int max_level_;
  std::vector<HmacKey> shares_;  ///< one share schedule per level, index level-1
  std::size_t sig_bytes_;
};

}  // namespace

ModelThresholdScheme::ModelThresholdScheme(std::uint64_t seed, int max_level, int key_bits)
    : max_level_{max_level}, sig_bytes_{static_cast<std::size_t>(key_bits) / 8} {
  const Digest root = dealer_seed_key(seed);
  for (int level = 1; level <= max_level; ++level) {
    masters_.emplace_back(hmac_sha256(root, "K_L:" + std::to_string(level)));
  }
}

HmacKey ModelThresholdScheme::derive_share(int level, std::uint32_t id) const {
  return HmacKey{masters_[static_cast<std::size_t>(level - 1)].mac(
      as_bytes("share:" + std::to_string(id)))};
}

HmacKey ModelThresholdScheme::share_schedule(int level, std::uint32_t id) const {
  if (id < issued_.size() && !issued_[id].empty()) {
    return issued_[id][static_cast<std::size_t>(level - 1)];
  }
  return derive_share(level, id);
}

std::unique_ptr<ThresholdSigner> ModelThresholdScheme::issue_signer(std::uint32_t id) {
  std::vector<HmacKey> shares;
  shares.reserve(static_cast<std::size_t>(max_level_));
  for (int level = 1; level <= max_level_; ++level) shares.push_back(derive_share(level, id));
  if (id >= issued_.size()) issued_.resize(static_cast<std::size_t>(id) + 1);
  issued_[id] = shares;
  return std::make_unique<ModelSigner>(id, max_level_, std::move(shares), sig_bytes_);
}

bool ModelThresholdScheme::verify_partial(std::span<const std::uint8_t> msg,
                                          const PartialSig& ps) const {
  if (ps.level < 1 || ps.level > max_level_) return false;
  if (ps.data.size() < 32) return false;
  const Digest expected = tag_for(share_schedule(ps.level, ps.signer), ps.level, msg);
  Digest got{};
  std::memcpy(got.data(), ps.data.data(), got.size());
  return digest_equal(expected, got);
}

std::optional<ThresholdSignature> ModelThresholdScheme::combine(
    int level, std::span<const std::uint8_t> msg,
    std::span<const PartialSig> partials) const {
  if (level < 1 || level > max_level_) return std::nullopt;
  std::unordered_set<std::uint32_t> distinct_valid;
  for (const PartialSig& ps : partials) {
    if (ps.level != level) continue;
    if (!verify_partial(msg, ps)) continue;
    distinct_valid.insert(ps.signer);
  }
  if (distinct_valid.size() < static_cast<std::size_t>(level) + 1) return std::nullopt;

  ThresholdSignature sig;
  sig.level = level;
  const Digest tag = tag_for(masters_[static_cast<std::size_t>(level - 1)], level, msg);
  sig.data.assign(tag.begin(), tag.end());
  sig.data.resize(sig_bytes_, 0);
  return sig;
}

bool ModelThresholdScheme::verify(std::span<const std::uint8_t> msg,
                                  const ThresholdSignature& sig) const {
  if (sig.level < 1 || sig.level > max_level_) return false;
  if (sig.data.size() < 32) return false;
  const Digest expected =
      tag_for(masters_[static_cast<std::size_t>(sig.level - 1)], sig.level, msg);
  Digest got{};
  std::memcpy(got.data(), sig.data.data(), got.size());
  return digest_equal(expected, got);
}

}  // namespace icc::crypto
