// Tests for SHA-256 / HMAC, prime generation, RSA, Shamir sharing, Shoup
// threshold RSA, the two ThresholdScheme implementations, the model PKI, and
// NS-Lowe.
#include <gtest/gtest.h>

#include <cstring>
#include <iostream>
#include <random>

#include "crypto/hmac.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/ns_lowe.hpp"
#include "crypto/pki.hpp"
#include "crypto/prime.hpp"
#include "crypto/rsa.hpp"
#include "crypto/shamir.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"
#include "crypto/shoup_scheme.hpp"
#include "crypto/threshold_rsa.hpp"

namespace icc::crypto {
namespace {

WordSource words_from(std::mt19937_64& eng) {
  return [&eng] { return eng(); };
}

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, Fips180KnownVectors) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'x');
  Sha256 ctx;
  for (std::size_t i = 0; i < msg.size(); i += 37) {
    ctx.update(std::string_view{msg}.substr(i, 37));
  }
  EXPECT_EQ(ctx.finish(), Sha256::hash(msg));
}

TEST(Sha256, LongMessagePaddingBoundaries) {
  // 'a' x len straddling the 55/56/64-byte padding boundaries: the 0x80
  // byte and the length share a block up to 55 bytes and spill into a
  // second one from 56. Expected digests from Python's hashlib.
  const std::pair<std::size_t, std::string_view> cases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [len, hex] : cases) {
    const std::string m(len, 'a');
    Sha256 a;
    a.update(m);
    EXPECT_EQ(to_hex(a.finish()), hex) << len;
    EXPECT_EQ(to_hex(Sha256::hash(m)), hex) << len;
  }
}

TEST(Sha256, Fips180MillionAs) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, EmptyUpdateAfterPartialBlock) {
  // An empty span may carry a null data(); after a partial block the
  // update used to hand it to memcpy.
  Sha256 ctx;
  ctx.update("a");
  ctx.update(std::span<const std::uint8_t>{});
  ctx.update("b");
  EXPECT_EQ(to_hex(ctx.finish()),
            "fb8e20fc2e4c3f248c60c39bd652f3c1347298bb977b8b4d5903b85055620603");
}

TEST(Sha256Kernels, ShaNiMatchesPortable) {
  if (!detail::sha256_shani_supported()) {
    GTEST_SKIP() << "CPU lacks SHA extensions: only the portable kernel runs here";
  }
  std::mt19937_64 eng{180};
  constexpr int kPairs = 10000;
  for (int n = 0; n < kPairs; ++n) {
    Sha256::State portable{};
    for (std::uint32_t& word : portable) word = static_cast<std::uint32_t>(eng());
    std::array<std::uint8_t, 64> block{};
    for (std::size_t i = 0; i < block.size(); i += 8) {
      const std::uint64_t r = eng();
      std::memcpy(block.data() + i, &r, 8);
    }
    Sha256::State shani = portable;
    detail::sha256_compress_portable(portable, block.data());
    detail::sha256_compress_shani(shani, block.data());
    ASSERT_EQ(portable, shani) << "pair " << n;
  }
  std::cout << "[   INFO   ] sha-ni kernel matched the portable one on " << kPairs
            << " (state, block) pairs\n";
}

// ------------------------------------------------------------------- HMAC

TEST(Hmac, Rfc4231Vector1) {
  // Key = 20 bytes of 0x0b, data = "Hi There".
  std::vector<std::uint8_t> key(20, 0x0b);
  const auto mac = hmac_sha256(std::span<const std::uint8_t>{key},
                               std::span{reinterpret_cast<const std::uint8_t*>("Hi There"), 8});
  EXPECT_EQ(to_hex(mac), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Vector2) {
  const auto mac = hmac_sha256(
      std::span{reinterpret_cast<const std::uint8_t*>("Jefe"), 4},
      std::span{reinterpret_cast<const std::uint8_t*>("what do ya want for nothing?"), 28});
  EXPECT_EQ(to_hex(mac), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Vectors3467) {
  // Cases 6 and 7 use a 131-byte key, longer than a block: it is hashed
  // first.
  const std::vector<std::uint8_t> key3(20, 0xaa);
  const std::vector<std::uint8_t> data3(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key3, data3)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");

  std::vector<std::uint8_t> key4(25);
  for (std::size_t i = 0; i < key4.size(); ++i) key4[i] = static_cast<std::uint8_t>(i + 1);
  const std::vector<std::uint8_t> data4(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key4, data4)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");

  const std::vector<std::uint8_t> key67(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(key67, bytes("Test Using Larger Than Block-Size Key - "
                                            "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(to_hex(hmac_sha256(
                key67, bytes("This is a test using a larger than block-size key and a "
                             "larger than block-size data. The key needs to be hashed "
                             "before being used by the HMAC algorithm."))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, EmptyKey) {
  const std::array<std::uint8_t, 3> msg = {0x01, 0x02, 0x03};
  EXPECT_EQ(to_hex(hmac_sha256(std::span<const std::uint8_t>{}, msg)),
            "c25cf64db0f3339e7e80fbd6e0be879956a6a3d7e4987a2a4d01fb90f27b5639");
}

// H((K0 ^ opad) || H((K0 ^ ipad) || m)) from the incremental Sha256, with
// K0 the key zero-padded to a block (hashed first when longer than one).
Digest textbook_hmac(std::span<const std::uint8_t> key, std::span<const std::uint8_t> msg) {
  std::array<std::uint8_t, 64> k0{};
  if (key.size() > k0.size()) {
    const Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), k0.begin());
  } else {
    std::copy(key.begin(), key.end(), k0.begin());
  }
  std::array<std::uint8_t, 64> pad{};
  for (std::size_t i = 0; i < pad.size(); ++i) pad[i] = k0[i] ^ 0x36;
  Sha256 inner;
  inner.update(pad);
  inner.update(msg);
  const Digest inner_digest = inner.finish();
  for (std::size_t i = 0; i < pad.size(); ++i) pad[i] = k0[i] ^ 0x5c;
  Sha256 outer;
  outer.update(pad);
  outer.update(inner_digest);
  return outer.finish();
}

TEST(HmacKey, MacMatchesTextbookHmac) {
  // Every message length 0-300 (each padding case: the tail and its length
  // in one block or spilling into a second, whole blocks compressed in
  // place) under keys shorter than, as long as and longer than a block.
  std::mt19937_64 eng{2104};
  for (const std::size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 200u}) {
    std::vector<std::uint8_t> key(key_len);
    for (std::uint8_t& b : key) b = static_cast<std::uint8_t>(eng());
    const HmacKey schedule{key};
    for (std::size_t len = 0; len <= 300; ++len) {
      std::vector<std::uint8_t> msg(len);
      for (std::uint8_t& b : msg) b = static_cast<std::uint8_t>(eng());
      const Digest textbook = textbook_hmac(key, msg);
      ASSERT_EQ(schedule.mac(msg), textbook) << "key " << key_len << " msg " << len;
      ASSERT_EQ(hmac_sha256(key, msg), textbook) << "key " << key_len << " msg " << len;
    }
  }
}

TEST(HmacKey, PrefixedMacMatchesMacOfTheJoinedMessage) {
  // mac(prefix, msg) is the MAC of prefix || msg at every split, so blocks
  // straddling the two parts are assembled correctly.
  std::mt19937_64 eng{4231};
  Digest key{};
  for (std::uint8_t& b : key) b = static_cast<std::uint8_t>(eng());
  const HmacKey schedule{key};
  for (std::size_t len = 0; len <= 150; ++len) {
    std::vector<std::uint8_t> joined(len);
    for (std::uint8_t& b : joined) b = static_cast<std::uint8_t>(eng());
    const Digest textbook = textbook_hmac(key, joined);
    for (std::size_t split = 0; split <= len; ++split) {
      const std::span<const std::uint8_t> all{joined};
      ASSERT_EQ(schedule.mac(all.first(split), all.subspan(split)), textbook)
          << "len " << len << " split " << split;
    }
  }
}

TEST(Hmac, DifferentKeysDiffer) {
  Digest k1{};
  Digest k2{};
  k2[0] = 1;
  EXPECT_FALSE(digest_equal(hmac_sha256(k1, "m"), hmac_sha256(k2, "m")));
}

// ------------------------------------------------------------------ Prime

TEST(Prime, SmallKnownPrimes) {
  std::mt19937_64 eng{1};
  for (std::uint64_t p : {2ull, 3ull, 5ull, 65537ull, (1ull << 61) - 1}) {
    EXPECT_TRUE(is_probable_prime(Bignum{p}, 20, words_from(eng))) << p;
  }
  for (std::uint64_t c : {1ull, 4ull, 9ull, 65536ull, 561ull /*Carmichael*/}) {
    EXPECT_FALSE(is_probable_prime(Bignum{c}, 20, words_from(eng))) << c;
  }
}

TEST(Prime, GeneratedPrimesHaveRequestedWidth) {
  std::mt19937_64 eng{2};
  for (int bits : {64, 128, 256}) {
    const Bignum p = random_prime(bits, words_from(eng));
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(is_probable_prime(p, 20, words_from(eng)));
  }
}

// -------------------------------------------------------------------- RSA

TEST(Rsa, SignVerifyRoundTrip) {
  std::mt19937_64 eng{3};
  const RsaKeyPair key = rsa_generate(512, words_from(eng));
  const auto msg = bytes("route reply for destination 42");
  const Bignum sigma = rsa_sign(key, msg);
  EXPECT_TRUE(rsa_verify(key.pub, msg, sigma));
  EXPECT_FALSE(rsa_verify(key.pub, bytes("tampered"), sigma));
}

TEST(Rsa, EncryptDecryptRoundTrip) {
  std::mt19937_64 eng{4};
  const RsaKeyPair key = rsa_generate(512, words_from(eng));
  const Bignum m = Bignum::from_hex("123456789abcdef");
  EXPECT_EQ(rsa_decrypt(key, rsa_encrypt(key.pub, m)), m);
}

TEST(Rsa, HashToGroupInRange) {
  std::mt19937_64 eng{5};
  const RsaKeyPair key = rsa_generate(256, words_from(eng));
  for (int i = 0; i < 20; ++i) {
    const auto msg = bytes("m" + std::to_string(i));
    const Bignum h = hash_to_group(msg, key.pub.n);
    EXPECT_LT(Bignum::cmp(h, key.pub.n), 0);
    EXPECT_FALSE(h.is_zero());
  }
}

// ----------------------------------------------------------------- Shamir

TEST(Shamir, ReconstructFromExactThreshold) {
  std::mt19937_64 eng{6};
  const Bignum prime = random_prime(128, words_from(eng));
  const Bignum secret = Bignum::mod(Bignum::random_bits(100, words_from(eng)), prime);
  const auto shares = shamir_share(secret, prime, 7, 4, words_from(eng));
  // Any 4 shares reconstruct.
  std::vector<ShamirShare> subset{shares[1], shares[3], shares[5], shares[6]};
  EXPECT_EQ(shamir_reconstruct(subset, prime), secret);
}

TEST(Shamir, AllShareSubsetsOfThresholdSizeAgree) {
  std::mt19937_64 eng{7};
  const Bignum prime = random_prime(64, words_from(eng));
  const Bignum secret{123456789};
  const auto shares = shamir_share(secret, prime, 5, 3, words_from(eng));
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = a + 1; b < 5; ++b) {
      for (std::size_t c = b + 1; c < 5; ++c) {
        std::vector<ShamirShare> subset{shares[a], shares[b], shares[c]};
        EXPECT_EQ(shamir_reconstruct(subset, prime), secret);
      }
    }
  }
}

TEST(Shamir, BelowThresholdReconstructsWrongValue) {
  std::mt19937_64 eng{8};
  const Bignum prime = random_prime(64, words_from(eng));
  const Bignum secret{42};
  const auto shares = shamir_share(secret, prime, 5, 3, words_from(eng));
  std::vector<ShamirShare> subset{shares[0], shares[1]};
  // Two shares interpolate a line, not the cubic-free polynomial: with
  // overwhelming probability the result differs from the secret.
  EXPECT_NE(shamir_reconstruct(subset, prime), secret);
}

TEST(Shamir, DuplicateIndexThrows) {
  std::mt19937_64 eng{9};
  const Bignum prime = random_prime(64, words_from(eng));
  const auto shares = shamir_share(Bignum{1}, prime, 3, 2, words_from(eng));
  std::vector<ShamirShare> dup{shares[0], shares[0]};
  EXPECT_THROW(shamir_reconstruct(dup, prime), std::invalid_argument);
}

// ---------------------------------------------------------- Threshold RSA

TEST(ThresholdRsa, CombineExactThreshold) {
  std::mt19937_64 eng{10};
  const ThresholdRsa trsa = ThresholdRsa::deal(512, 5, 3, words_from(eng));
  const auto msg = bytes("agreed value v at level L");
  std::vector<ThresholdRsa::PartialSignature> partials;
  for (std::uint32_t i : {0u, 2u, 4u}) {
    partials.push_back(trsa.partial_sign(trsa.share(i), msg));
  }
  const auto sigma = trsa.combine(partials, msg);
  ASSERT_TRUE(sigma.has_value());
  EXPECT_TRUE(trsa.verify(msg, *sigma));
  EXPECT_FALSE(trsa.verify(bytes("other message"), *sigma));
}

TEST(ThresholdRsa, AnySubsetCombines) {
  std::mt19937_64 eng{11};
  const ThresholdRsa trsa = ThresholdRsa::deal(512, 4, 2, words_from(eng));
  const auto msg = bytes("m");
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = a + 1; b < 4; ++b) {
      std::vector<ThresholdRsa::PartialSignature> partials{
          trsa.partial_sign(trsa.share(a), msg), trsa.partial_sign(trsa.share(b), msg)};
      const auto sigma = trsa.combine(partials, msg);
      ASSERT_TRUE(sigma.has_value()) << a << "," << b;
      EXPECT_TRUE(trsa.verify(msg, *sigma));
    }
  }
}

TEST(ThresholdRsa, TooFewPartialsFails) {
  std::mt19937_64 eng{12};
  const ThresholdRsa trsa = ThresholdRsa::deal(512, 5, 3, words_from(eng));
  const auto msg = bytes("m");
  std::vector<ThresholdRsa::PartialSignature> partials{
      trsa.partial_sign(trsa.share(0), msg), trsa.partial_sign(trsa.share(1), msg)};
  EXPECT_FALSE(trsa.combine(partials, msg).has_value());
}

TEST(ThresholdRsa, DuplicatePartialsDoNotCount) {
  std::mt19937_64 eng{13};
  const ThresholdRsa trsa = ThresholdRsa::deal(512, 5, 3, words_from(eng));
  const auto msg = bytes("m");
  const auto p0 = trsa.partial_sign(trsa.share(0), msg);
  std::vector<ThresholdRsa::PartialSignature> partials{p0, p0, p0};
  EXPECT_FALSE(trsa.combine(partials, msg).has_value());
}

TEST(ThresholdRsa, CorruptPartialDetected) {
  std::mt19937_64 eng{14};
  const ThresholdRsa trsa = ThresholdRsa::deal(512, 4, 2, words_from(eng));
  const auto msg = bytes("m");
  auto p0 = trsa.partial_sign(trsa.share(0), msg);
  auto p1 = trsa.partial_sign(trsa.share(1), msg);
  p1.value = Bignum::add_u64(p1.value, 1);  // Byzantine voter
  std::vector<ThresholdRsa::PartialSignature> partials{p0, p1};
  EXPECT_FALSE(trsa.combine(partials, msg).has_value());
}

// ------------------------------------------------------- ThresholdScheme

class SchemeTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    eng_.seed(99);
    if (GetParam()) {
      scheme_ = std::make_unique<ShoupThresholdScheme>(384, 6, 2, words_from(eng_));
    } else {
      scheme_ = std::make_unique<ModelThresholdScheme>(99, 2, 1024);
    }
    for (std::uint32_t i = 0; i < 6; ++i) signers_.push_back(scheme_->issue_signer(i));
  }

  std::mt19937_64 eng_;
  std::unique_ptr<ThresholdScheme> scheme_;
  std::vector<std::unique_ptr<ThresholdSigner>> signers_;
};

TEST_P(SchemeTest, LevelOneNeedsTwoSigners) {
  const auto msg = bytes("RREP for D");
  std::vector<PartialSig> partials{signers_[0]->partial_sign(1, msg)};
  EXPECT_FALSE(scheme_->combine(1, msg, partials).has_value());
  partials.push_back(signers_[1]->partial_sign(1, msg));
  const auto sig = scheme_->combine(1, msg, partials);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(scheme_->verify(msg, *sig));
}

TEST_P(SchemeTest, LevelTwoNeedsThreeSigners) {
  const auto msg = bytes("sensor notification");
  std::vector<PartialSig> partials{signers_[0]->partial_sign(2, msg),
                                   signers_[1]->partial_sign(2, msg)};
  EXPECT_FALSE(scheme_->combine(2, msg, partials).has_value());
  partials.push_back(signers_[2]->partial_sign(2, msg));
  const auto sig = scheme_->combine(2, msg, partials);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(scheme_->verify(msg, *sig));
}

TEST_P(SchemeTest, CrossLevelPartialsRejected) {
  const auto msg = bytes("m");
  // Two level-1 partials plus a level-2 partial must not make a level-2 sig.
  std::vector<PartialSig> partials{signers_[0]->partial_sign(1, msg),
                                   signers_[1]->partial_sign(1, msg),
                                   signers_[2]->partial_sign(2, msg)};
  EXPECT_FALSE(scheme_->combine(2, msg, partials).has_value());
}

TEST_P(SchemeTest, SignatureBoundToMessage) {
  const auto msg = bytes("v=42");
  std::vector<PartialSig> partials{signers_[0]->partial_sign(1, msg),
                                   signers_[1]->partial_sign(1, msg)};
  const auto sig = scheme_->combine(1, msg, partials);
  ASSERT_TRUE(sig.has_value());
  EXPECT_FALSE(scheme_->verify(bytes("v=43"), *sig));
}

TEST_P(SchemeTest, PartialVerification) {
  const auto msg = bytes("m");
  PartialSig good = signers_[3]->partial_sign(1, msg);
  EXPECT_TRUE(scheme_->verify_partial(msg, good));
  PartialSig forged = good;
  forged.signer = 4;  // claims to be someone else
  EXPECT_FALSE(scheme_->verify_partial(msg, forged));
  PartialSig tampered = good;
  tampered.data[0] ^= 0xff;
  EXPECT_FALSE(scheme_->verify_partial(msg, tampered));
}

TEST_P(SchemeTest, OnAirSizesArePositive) {
  EXPECT_GT(scheme_->partial_sig_bytes(), 0u);
  EXPECT_GT(scheme_->signature_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ModelAndShoup, SchemeTest, ::testing::Values(false, true),
                         [](const auto& info) { return info.param ? "Shoup" : "Model"; });

// ------------------------------------------------ Model keys, once per run

// The simulation-grade constructions derived from scratch with the textbook
// HMAC: K_L = HMAC(SHA256(le64 seed), "K_L:<L>"), S_{L,i} = HMAC(K_L,
// "share:<i>"), a level-L tag HMAC(key, le32 L || msg), and a PKI node key
// HMAC(SHA256(le64 seed), "pki:<i>"). The schemes build each key's schedule
// once; these pin what the stored schedules must still compute.
Digest seed_digest(std::uint64_t seed) {
  std::array<std::uint8_t, 8> le{};
  for (std::size_t i = 0; i < le.size(); ++i) le[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  return Sha256::hash(le);
}

Digest fresh_master(std::uint64_t seed, int level) {
  return textbook_hmac(seed_digest(seed), bytes("K_L:" + std::to_string(level)));
}

Digest fresh_share(std::uint64_t seed, int level, std::uint32_t id) {
  return textbook_hmac(fresh_master(seed, level), bytes("share:" + std::to_string(id)));
}

std::vector<std::uint8_t> fresh_tag(const Digest& key, int level,
                                    std::span<const std::uint8_t> msg, std::size_t on_air) {
  std::vector<std::uint8_t> prefixed;
  for (int i = 0; i < 4; ++i) prefixed.push_back(static_cast<std::uint8_t>(level >> (8 * i)));
  prefixed.insert(prefixed.end(), msg.begin(), msg.end());
  const Digest tag = textbook_hmac(key, prefixed);
  std::vector<std::uint8_t> out(tag.begin(), tag.end());
  out.resize(on_air, 0);
  return out;
}

TEST(ModelKeys, SchemeMatchesAFreshDerivationForIssuedAndNeverIssuedIds) {
  constexpr std::uint64_t kSeed = 77;
  constexpr std::size_t kOnAir = 1024 / 8;
  ModelThresholdScheme scheme{kSeed, 3, 1024};
  const ModelThresholdScheme fresh_scheme{kSeed, 3, 1024};  // issues nothing
  const auto signer = scheme.issue_signer(2);                // 9 is never issued
  const auto msg = bytes("agreed value");
  for (int level = 1; level <= 3; ++level) {
    const PartialSig issued = signer->partial_sign(level, msg);
    ASSERT_EQ(issued.data, fresh_tag(fresh_share(kSeed, level, 2), level, msg, kOnAir));
    EXPECT_TRUE(scheme.verify_partial(msg, issued));
    EXPECT_TRUE(fresh_scheme.verify_partial(msg, issued));
    const PartialSig never{9, level, fresh_tag(fresh_share(kSeed, level, 9), level, msg, kOnAir)};
    EXPECT_TRUE(scheme.verify_partial(msg, never));

    for (const PartialSig& good : {issued, never}) {
      PartialSig tampered = good;
      tampered.data[31] ^= 0x01;
      EXPECT_FALSE(scheme.verify_partial(msg, tampered)) << good.signer;
      PartialSig cross_level = good;
      cross_level.level = level % 3 + 1;
      EXPECT_FALSE(scheme.verify_partial(msg, cross_level)) << good.signer;
      PartialSig other_signer = good;
      other_signer.signer = good.signer == 2 ? 9 : 2;
      EXPECT_FALSE(scheme.verify_partial(msg, other_signer)) << good.signer;
      EXPECT_FALSE(scheme.verify_partial(bytes("other value"), good)) << good.signer;
    }
  }

  const auto share_partial = [&](std::uint32_t id, int level) {
    return PartialSig{id, level, fresh_tag(fresh_share(kSeed, level, id), level, msg, kOnAir)};
  };
  // Level-1 partials from three signers never make a level-2 signature.
  const std::vector<PartialSig> level_one{signer->partial_sign(1, msg), share_partial(9, 1),
                                          share_partial(4, 1)};
  EXPECT_FALSE(scheme.combine(2, msg, level_one).has_value());
  const std::vector<PartialSig> level_two{signer->partial_sign(2, msg), share_partial(9, 2),
                                          share_partial(4, 2)};
  const auto sig = scheme.combine(2, msg, level_two);
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(sig->data, fresh_tag(fresh_master(kSeed, 2), 2, msg, kOnAir));
  EXPECT_TRUE(scheme.verify(msg, *sig));
  ThresholdSignature cross_level = *sig;
  cross_level.level = 1;
  EXPECT_FALSE(scheme.verify(msg, cross_level));
  ThresholdSignature tampered = *sig;
  tampered.data[7] ^= 0x40;
  EXPECT_FALSE(scheme.verify(msg, tampered));
}

TEST(ModelKeys, PkiMatchesAFreshDerivationForIssuedAndNeverIssuedIds) {
  constexpr std::uint64_t kSeed = 78;
  constexpr std::size_t kOnAir = 512 / 8;
  ModelPki pki{kSeed, 512};
  const ModelPki fresh_pki{kSeed, 512};  // issues nothing
  const auto signer = pki.issue_signer(3);
  const auto msg = bytes("RREP for 12");
  const auto fresh_sig = [&](std::uint32_t id) {
    const Digest node_key = textbook_hmac(seed_digest(kSeed), bytes("pki:" + std::to_string(id)));
    const Digest tag = textbook_hmac(node_key, msg);
    std::vector<std::uint8_t> out(tag.begin(), tag.end());
    out.resize(kOnAir, 0);
    return out;
  };
  const std::vector<std::uint8_t> issued = signer->sign(msg);
  ASSERT_EQ(issued, fresh_sig(3));
  EXPECT_TRUE(pki.verify(3, msg, issued));
  EXPECT_TRUE(fresh_pki.verify(3, msg, issued));
  EXPECT_FALSE(pki.verify(4, msg, issued));
  EXPECT_FALSE(pki.verify(3, bytes("RREP for 13"), issued));
  const std::vector<std::uint8_t> never = fresh_sig(7);
  EXPECT_TRUE(pki.verify(7, msg, never));
  EXPECT_FALSE(pki.verify(3, msg, never));
  for (std::vector<std::uint8_t> tampered : {issued, never}) {
    tampered[0] ^= 0x01;
    EXPECT_FALSE(pki.verify(3, msg, tampered));
    EXPECT_FALSE(pki.verify(7, msg, tampered));
  }
}

// ---------------------------------------------------------------- NS-Lowe

class NslTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    eng_.seed(123);
    if (GetParam()) {
      cipher_ = std::make_unique<RsaCipher>(384, 4, words_from(eng_));
    } else {
      cipher_ = std::make_unique<ModelCipher>();
    }
  }
  Nonce nonce(std::uint8_t fill) {
    Nonce n{};
    n.fill(fill);
    n[0] = static_cast<std::uint8_t>(eng_());
    return n;
  }
  std::mt19937_64 eng_;
  std::unique_ptr<AsymmetricCipher> cipher_;
};

TEST_P(NslTest, HandshakeEstablishesSharedKey) {
  NslSession alice = NslSession::initiate(0, 1, nonce(0xaa));
  const Ciphertext m1 = alice.message1(*cipher_);
  auto bob = NslSession::respond(1, m1, nonce(0xbb), *cipher_);
  ASSERT_TRUE(bob.has_value());
  EXPECT_EQ(bob->peer(), 0u);
  const Ciphertext m2 = bob->message2(*cipher_);
  const auto m3 = alice.on_message2(m2, *cipher_);
  ASSERT_TRUE(m3.has_value());
  EXPECT_TRUE(bob->on_message3(*m3, *cipher_));
  EXPECT_TRUE(alice.complete());
  EXPECT_TRUE(bob->complete());
  EXPECT_TRUE(digest_equal(alice.session_key(), bob->session_key()));
}

TEST_P(NslTest, LoweFixRejectsIdentityMismatch) {
  // Classic Lowe attack shape: Alice initiates to Mallory (2); Mallory
  // replays message 1 to Bob (1); Bob's message 2 names Bob, so Alice —
  // who believes she talks to Mallory — must reject it.
  NslSession alice = NslSession::initiate(0, 2, nonce(0x01));
  const Ciphertext m1_to_mallory = alice.message1(*cipher_);
  // Mallory decrypts (it is addressed to her) and re-encrypts to Bob.
  const auto inner = cipher_->decrypt(2, m1_to_mallory);
  ASSERT_TRUE(inner.has_value());
  const Ciphertext m1_to_bob{1, *inner};
  const Ciphertext replayed = cipher_->encrypt(1, *inner);
  auto bob = NslSession::respond(1, replayed, nonce(0x02), *cipher_);
  ASSERT_TRUE(bob.has_value());
  const Ciphertext m2 = bob->message2(*cipher_);
  // Alice must reject: message 2 names node 1, she expected node 2.
  EXPECT_FALSE(alice.on_message2(m2, *cipher_).has_value());
  (void)m1_to_bob;
}

TEST_P(NslTest, WrongNonceRejected) {
  NslSession alice = NslSession::initiate(0, 1, nonce(0x05));
  const Ciphertext m1 = alice.message1(*cipher_);
  auto bob = NslSession::respond(1, m1, nonce(0x06), *cipher_);
  ASSERT_TRUE(bob.has_value());
  const Ciphertext m2 = bob->message2(*cipher_);
  const auto m3 = alice.on_message2(m2, *cipher_);
  ASSERT_TRUE(m3.has_value());
  // Garbled message 3: re-encrypt a wrong nonce.
  std::vector<std::uint8_t> wrong(16, 0x77);
  EXPECT_FALSE(bob->on_message3(cipher_->encrypt(1, wrong), *cipher_));
}

TEST_P(NslTest, DecryptOnlyByOwner) {
  const Ciphertext ct = cipher_->encrypt(1, bytes("secret"));
  EXPECT_FALSE(cipher_->decrypt(0, ct).has_value());
  EXPECT_TRUE(cipher_->decrypt(1, ct).has_value());
}

INSTANTIATE_TEST_SUITE_P(ModelAndRsa, NslTest, ::testing::Values(false, true),
                         [](const auto& info) { return info.param ? "Rsa" : "Model"; });

}  // namespace
}  // namespace icc::crypto
