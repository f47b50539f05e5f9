// SHA-256 compression kernels. sha256.cpp picks one at static
// initialisation and dispatches to it for Sha256 and HmacKey alike; the
// crypto tests and the crypto micro-benchmark call each kernel directly to
// cross-check and time it.
#pragma once

#include <cstdint>

#include "crypto/sha256.hpp"

namespace icc::crypto::detail {

/// One compression on the kernel picked at start-up: the SHA extensions
/// where sha256_shani_supported() holds, the portable kernel otherwise.
void sha256_compress(Sha256::State& state, const std::uint8_t* block);

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
