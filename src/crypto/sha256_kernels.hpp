// SHA-256 compression kernels behind Sha256::process_block. Private to
// sha256.cpp, which picks one at static initialisation; the crypto tests and
// the crypto micro-benchmark include it to cross-check and time each kernel.
#pragma once

#include <cstdint>

#include "crypto/sha256.hpp"

namespace icc::crypto::detail {

/// FIPS 180-4 compression of one 64-byte block into `state`, in portable
/// C++. The only kernel off x86-64 and the reference for the others.
void sha256_compress_portable(Sha256::State& state, const std::uint8_t* block);

/// The same compression on the x86 SHA extensions. Call only where
/// sha256_shani_supported() holds.
void sha256_compress_shani(Sha256::State& state, const std::uint8_t* block);

/// CPUID reports SHA (leaf 7 EBX bit 29) and SSE4.1 (leaf 1 ECX bit 19).
/// Always false off x86-64.
[[nodiscard]] bool sha256_shani_supported();

}  // namespace icc::crypto::detail
