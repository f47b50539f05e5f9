#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>

#include "crypto/sha256_kernels.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace icc::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

}  // namespace

namespace detail {

void sha256_compress_portable(Sha256::State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) | (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) | std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)

// Intel's SHA extensions run two rounds per sha256rnds2 on the state split
// into ABEF and CDGH halves; sha256msg1/msg2 extend the message schedule
// four words at a time.
__attribute__((target("sha,sse4.1"))) void sha256_compress_shani(Sha256::State& state,
                                                                 const std::uint8_t* block) {
  // Byte-swaps each 32-bit lane: the block's words are big-endian.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // state[0..7] = A..H  ->  abef = [F E B A], cdgh = [H G D C] (lanes from 0).
  const __m128i badc =  // [B A D C]
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xB1);
  const __m128i hgfe =  // [H G F E]
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1B);
  __m128i abef = _mm_alignr_epi8(badc, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, badc, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // w[q % 4] holds message words 4q..4q+3 of quad-round q.
  __m128i w[4]{};
  for (int q = 0; q < 16; ++q) {
    __m128i& wq = w[q % 4];
    if (q < 4) {
      wq = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * q)),
                            bswap);
    } else {
      // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16]; wq still holds
      // words 4q-16..4q-13.
      const __m128i& w1 = w[(q + 1) % 4];  // 4q-12..4q-9
      const __m128i& w2 = w[(q + 2) % 4];  // 4q-8..4q-5
      const __m128i& w3 = w[(q + 3) % 4];  // 4q-4..4q-1
      const __m128i partial =
          _mm_add_epi32(_mm_sha256msg1_epu32(wq, w1), _mm_alignr_epi8(w3, w2, 4));
      wq = _mm_sha256msg2_epu32(partial, w3);
    }
    const __m128i wk =
        _mm_add_epi32(wq, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * q])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
  }
  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);

  // Back to A..H order.
  const __m128i ab_ef = _mm_shuffle_epi32(abef, 0x1B);  // [A B E F]
  const __m128i gh_cd = _mm_shuffle_epi32(cdgh, 0xB1);  // [G H C D]
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(ab_ef, gh_cd, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(gh_cd, ab_ef, 8));
}

bool sha256_shani_supported() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sse41 && sha;
}

#else

void sha256_compress_shani(Sha256::State& /*state*/, const std::uint8_t* /*block*/) {
  std::abort();  // unreachable: sha256_shani_supported() is false here
}

bool sha256_shani_supported() { return false; }

#endif

}  // namespace detail

namespace {

// Picked once, during static initialisation. Zero-initialised before its
// initialiser runs, so a hash taken earlier runs the portable kernel.
const bool kUseShani = detail::sha256_shani_supported();

}  // namespace

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::process_block(const std::uint8_t* block) {
  if (kUseShani) {
    detail::sha256_compress_shani(state_, block);
  } else {
    detail::sha256_compress_portable(state_, block);
  }
}

void Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;  // data() may be null, which memcpy must not see
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off = take;
    if (buffer_len_ == 64) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    process_block(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

Digest Sha256::finish() {
  // Pad in place: 0x80, zeros, then the 64-bit bit length in the last 8
  // bytes, spilling into a second block when fewer than 9 bytes are free.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_), buffer_.end(), 0);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_), buffer_.begin() + 56, 0);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  process_block(buffer_.data());
  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  reset();
  return out;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Digest Sha256::hash(std::string_view s) {
  Sha256 ctx;
  ctx.update(s);
  return ctx.finish();
}

std::string to_hex(const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace icc::crypto
