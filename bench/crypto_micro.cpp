// Micro-benchmarks for the cryptographic substrate at the paper's two key
// lengths (1024-bit for the AODV study, 512-bit for the sensor study):
// threshold-RSA partial signing / combination / verification, plain RSA,
// SHA-256/HMAC (one-shot, under a prebuilt key schedule, and one compression
// per kernel), and the simulation-grade scheme. These numbers calibrate the
// CryptoCostModel used inside the simulations (DESIGN.md §3) and quantify
// the software side of the paper's Crypto-Processor trade-off.
#include <benchmark/benchmark.h>

#include <random>

#include "crypto/hmac.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"
#include "crypto/threshold_rsa.hpp"

namespace {

using namespace icc::crypto;

std::vector<std::uint8_t> message() {
  return std::vector<std::uint8_t>(64, 0x5A);
}

// Key material is expensive to generate; share it across iterations.
const ThresholdRsa& shared_key(int bits) {
  static std::mt19937_64 eng{12345};
  static const ThresholdRsa k512 = ThresholdRsa::deal(512, 11, 3, [] { return eng(); });
  static const ThresholdRsa k1024 = ThresholdRsa::deal(1024, 11, 3, [] { return eng(); });
  return bits == 512 ? k512 : k1024;
}

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(std::span<const std::uint8_t>{data}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Digest key{};
  const auto msg = message();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, std::span<const std::uint8_t>{msg}));
  }
}
BENCHMARK(BM_HmacSha256);

// A MAC under a prebuilt key schedule, as STS tags and verifies beacons:
// 48, 64 and 80 bytes are the auth bytes of a beacon listing 4, 8 and 12
// neighbours.
void BM_HmacKeyMac(benchmark::State& state) {
  Digest key{};
  key[0] = 0x42;
  const HmacKey schedule{key};
  const std::vector<std::uint8_t> msg(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule.mac(msg));
  }
}
BENCHMARK(BM_HmacKeyMac)->Arg(48)->Arg(64)->Arg(80);

// One SHA-256 compression per iteration, on each kernel this host can run
// (arg 0: portable, arg 1: SHA extensions).
void BM_Sha256Compress(benchmark::State& state) {
  const bool shani = state.range(0) == 1;
  if (shani && !detail::sha256_shani_supported()) {
    state.SkipWithError("CPU lacks SHA extensions");
    return;
  }
  state.SetLabel(shani ? "sha-ni" : "portable");
  const auto compress =
      shani ? detail::sha256_compress_shani : detail::sha256_compress_portable;
  const std::vector<std::uint8_t> block(64, 0xAB);
  Sha256::State chain{};
  for (auto _ : state) {
    compress(chain, block.data());
    benchmark::DoNotOptimize(chain.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Sha256Compress)->Arg(0)->Arg(1);

void BM_RsaSign(benchmark::State& state) {
  std::mt19937_64 eng{7};
  const RsaKeyPair key = rsa_generate(static_cast<int>(state.range(0)), [&] { return eng(); });
  const auto msg = message();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(key, msg));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024);

void BM_RsaVerify(benchmark::State& state) {
  std::mt19937_64 eng{8};
  const RsaKeyPair key = rsa_generate(static_cast<int>(state.range(0)), [&] { return eng(); });
  const auto msg = message();
  const Bignum sigma = rsa_sign(key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_verify(key.pub, msg, sigma));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024);

void BM_ThresholdPartialSign(benchmark::State& state) {
  const ThresholdRsa& key = shared_key(static_cast<int>(state.range(0)));
  const auto msg = message();
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.partial_sign(key.share(0), msg));
  }
}
BENCHMARK(BM_ThresholdPartialSign)->Arg(512)->Arg(1024);

void BM_ThresholdCombine(benchmark::State& state) {
  const ThresholdRsa& key = shared_key(static_cast<int>(state.range(0)));
  const auto msg = message();
  std::vector<ThresholdRsa::PartialSignature> partials;
  for (std::uint32_t i = 0; i < key.threshold(); ++i) {
    partials.push_back(key.partial_sign(key.share(i), msg));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.combine(partials, msg));
  }
}
BENCHMARK(BM_ThresholdCombine)->Arg(512)->Arg(1024);

void BM_ThresholdVerify(benchmark::State& state) {
  const ThresholdRsa& key = shared_key(static_cast<int>(state.range(0)));
  const auto msg = message();
  std::vector<ThresholdRsa::PartialSignature> partials;
  for (std::uint32_t i = 0; i < key.threshold(); ++i) {
    partials.push_back(key.partial_sign(key.share(i), msg));
  }
  const Bignum sigma = *key.combine(partials, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.verify(msg, sigma));
  }
}
BENCHMARK(BM_ThresholdVerify)->Arg(512)->Arg(1024);

void BM_ModelSchemePartialSign(benchmark::State& state) {
  ModelThresholdScheme scheme{1, 3, 1024};
  const auto signer = scheme.issue_signer(0);
  const auto msg = message();
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->partial_sign(2, msg));
  }
}
BENCHMARK(BM_ModelSchemePartialSign);

void BM_ModelSchemeCombine(benchmark::State& state) {
  ModelThresholdScheme scheme{1, 3, 1024};
  std::vector<std::unique_ptr<ThresholdSigner>> signers;
  for (std::uint32_t i = 0; i < 4; ++i) signers.push_back(scheme.issue_signer(i));
  const auto msg = message();
  std::vector<PartialSig> partials;
  for (const auto& s : signers) partials.push_back(s->partial_sign(3, msg));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.combine(3, msg, partials));
  }
}
BENCHMARK(BM_ModelSchemeCombine);

}  // namespace
