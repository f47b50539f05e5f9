// Versioned wire-format codec for link frames.
//
// The simulator hands typed payload objects between nodes by shared_ptr; a
// multi-process deployment needs real bytes. This codec defines one flat,
// length-prefixed, little-endian encoding per protocol message. A body is
// its message type's field list (the static `fields` beside its members),
// written and read by the one walker in core/wire.hpp:
//
//   magic u32 | total_len u32 | version u8 | wire-kind u8 | flags u16
//   | frame_id u64 | tx u32 | rx u32                       (link header)
//   | src u32 | dst u32 | port u8 | size_bytes u32
//   | uid u64 | parent u64                                 (packet header)
//   | body bytes (kind-specific)
//   | checksum u32 (FNV-1a over everything before it)
//
// Wire kinds are a stable enum pinned here — deliberately NOT the runtime
// PayloadKind registry, whose values depend on first-touch order and so
// differ between processes. Decoding is total: malformed input from the
// network is reported as a DecodeError, never an exception or a crash, and
// a peer-supplied element count is checked against the bytes left before
// anything is allocated.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/frame.hpp"

namespace icc::sim {
class World;
}  // namespace icc::sim

namespace icc::net {

inline constexpr std::uint32_t kWireMagic = 0x31434349u;  // "ICC1" little-endian
inline constexpr std::uint8_t kWireVersion = 1;

/// Stable on-wire payload discriminator. Append-only: new kinds get new
/// values, existing values never change meaning (the version byte exists
/// for layout changes, not for renumbering). Kind k >= 1 is the k-th type
/// of the body type list in codec.cpp; its name is that type's kTag.
enum class WireKind : std::uint8_t {
  kNone = 0,  ///< no body (MAC ack frames)
  kAodvRreq = 1,
  kAodvRrep = 2,
  kAodvRerr = 3,
  kAodvData = 4,
  kStsBeacon = 5,
  kStsNsl = 6,
  kIvsSolicit = 7,
  kIvsValue = 8,
  kIvsPropose = 9,
  kIvsAck = 10,
  kIvsAgreed = 11,
  kDiffInterest = 12,
  kDiffNotification = 13,
  kCount
};

[[nodiscard]] const char* wire_kind_name(WireKind kind) noexcept;

enum class DecodeError : std::uint8_t {
  kOk = 0,
  kTruncated,    ///< fewer bytes than the header or total_len promise
  kBadMagic,     ///< first four bytes are not kWireMagic
  kBadVersion,   ///< version byte differs from kWireVersion
  kBadKind,      ///< wire-kind byte outside the known enum
  kBadChecksum,  ///< trailing FNV-1a does not match the content
  kBadBody,      ///< body bytes do not parse as the claimed kind
};

[[nodiscard]] const char* decode_error_name(DecodeError e) noexcept;

struct DecodeResult {
  DecodeError error{DecodeError::kTruncated};
  sim::Frame frame;
  std::size_t consumed{0};  ///< bytes the frame occupied (0 unless kOk)

  explicit operator bool() const noexcept { return error == DecodeError::kOk; }
};

/// Encode `frame` into `out`. `out` is cleared first but keeps its capacity,
/// so a caller that reuses one buffer (UdpTransport does) encodes with zero
/// steady-state allocations. Returns false — with `out` cleared — when the
/// payload type has no wire kind (experiment-local payloads stay sim-only).
bool encode_frame(const sim::Frame& frame, std::vector<std::uint8_t>& out);

/// Decode one frame from the front of `bytes`. On success `consumed` tells a
/// stream reader where the next frame starts.
[[nodiscard]] DecodeResult decode_frame(std::span<const std::uint8_t> bytes);

/// Codec parity hook for the simulator: installs a packet transform that
/// routes every link send through encode_frame + decode_frame, so simulation
/// runs exercise the same bytes the UDP testnet puts on the wire. Aborts the
/// run (ICC_CHECK) if any packet fails the round trip.
void attach_sim_codec(sim::World& world);

/// Reads the ICC_NET_CODEC env knob (0/unset = off). When enabled, returns a
/// hook that runs attach_sim_codec on a World — the shape the experiment
/// configs' `world_hook` field expects; otherwise returns an empty function.
[[nodiscard]] std::function<void(sim::World&)> codec_hook_from_env();

}  // namespace icc::net
