#include "crypto/hmac.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <initializer_list>

#include "crypto/sha256_kernels.hpp"

namespace icc::crypto {

namespace {

// Big-endian stores as one byte swap and one store each; assembled byte by
// byte, GCC vectorises the digest loops into shuffles that cost more than
// the padding they serve.
void store_be32(std::uint8_t* out, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap32(v);
  std::memcpy(out, &v, sizeof v);
}

void store_be64(std::uint8_t* out, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  std::memcpy(out, &v, sizeof v);
}

}  // namespace

HmacKey::HmacKey(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {
    const Digest kd = Sha256::hash(key);
    std::memcpy(block.data(), kd.data(), kd.size());
  } else if (!key.empty()) {  // data() may be null, which memcpy must not see
    std::memcpy(block.data(), key.data(), key.size());
  }

  for (std::uint8_t& b : block) b ^= 0x36;
  inner_ = Sha256::kInitialState;
  detail::sha256_compress(inner_, block.data());

  for (std::uint8_t& b : block) b ^= 0x36 ^ 0x5c;
  outer_ = Sha256::kInitialState;
  detail::sha256_compress(outer_, block.data());
}

Digest HmacKey::mac(std::span<const std::uint8_t> prefix,
                    std::span<const std::uint8_t> msg) const {
  // Inner hash H((K ^ ipad) || prefix || msg), resumed after its key block.
  // Whole blocks of the caller's bytes are compressed where they lie; only
  // the bytes left over (and a block straddling prefix and msg) are copied,
  // into the one local block that also takes the padding. Bytes of `block`
  // from `fill` on are always zero.
  Sha256::State inner = inner_;
  std::array<std::uint8_t, 64> block{};
  std::size_t fill = 0;
  for (const std::span<const std::uint8_t> part : {prefix, msg}) {
    std::size_t off = 0;
    if (fill > 0 && !part.empty()) {
      off = std::min(part.size(), block.size() - fill);
      std::memcpy(block.data() + fill, part.data(), off);
      fill += off;
      if (fill == block.size()) {
        detail::sha256_compress(inner, block.data());
        block.fill(0);
        fill = 0;
      }
    }
    for (; off + block.size() <= part.size(); off += block.size()) {
      detail::sha256_compress(inner, part.data() + off);
    }
    if (off < part.size()) {
      std::memcpy(block.data() + fill, part.data() + off, part.size() - off);
      fill += part.size() - off;
    }
  }
  // Padding: 0x80, zeros, and the bit length of the key block plus the
  // message in the last 8 bytes, spilling into a second block when fewer
  // than 9 bytes are free.
  block[fill] = 0x80;
  if (fill >= 56) {
    detail::sha256_compress(inner, block.data());
    block.fill(0);
  }
  store_be64(block.data() + 56, 8 * (64 + prefix.size() + msg.size()));
  detail::sha256_compress(inner, block.data());

  // Outer hash H((K ^ opad) || inner digest): one block of fixed layout,
  // the 32 digest bytes, 0x80, zeros, and the bit length 768.
  for (std::size_t i = 0; i < inner.size(); ++i) store_be32(block.data() + 4 * i, inner[i]);
  block[32] = 0x80;
  std::fill(block.begin() + 33, block.begin() + 56, 0);
  store_be64(block.data() + 56, 8 * (64 + 32));
  Sha256::State outer = outer_;
  detail::sha256_compress(outer, block.data());

  Digest out{};
  for (std::size_t i = 0; i < outer.size(); ++i) store_be32(out.data() + 4 * i, outer[i]);
  return out;
}

Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> msg) {
  return HmacKey{key}.mac(msg);
}

Digest hmac_sha256(const Digest& key, std::string_view msg) {
  return hmac_sha256(std::span<const std::uint8_t>{key},
                     std::span{reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()});
}

Digest hmac_sha256(const Digest& key, std::span<const std::uint8_t> msg) {
  return hmac_sha256(std::span<const std::uint8_t>{key}, msg);
}

bool digest_equal(const Digest& a, const Digest& b) noexcept {
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= static_cast<unsigned>(a[i] ^ b[i]);
  return diff == 0;
}

}  // namespace icc::crypto
