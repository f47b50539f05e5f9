#include "net/codec.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>

#include "aodv/messages.hpp"
#include "core/messages.hpp"
#include "core/wire.hpp"
#include "exp/env.hpp"
#include "sensor/diffusion.hpp"
#include "sim/world.hpp"

namespace icc::net {

namespace {

using BodyPtr = std::shared_ptr<const sim::Payload>;

/// FNV-1a, 32-bit: tiny, allocation-free, and plenty to catch truncation
/// and bit damage on a loopback testnet (this is an integrity check against
/// accidents, not an authenticator — the protocols carry their own crypto).
std::uint32_t fnv1a(std::span<const std::uint8_t> bytes) noexcept {
  std::uint32_t h = 0x811C9DC5u;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x01000193u;
  }
  return h;
}

template <typename M>
void write_body(core::WireWriter& w, const sim::Payload& body) {
  w.put(static_cast<const M&>(body));
}

template <typename M>
BodyPtr read_body(core::WireReader& r) {
  auto m = std::make_shared<M>();
  if (!r.get(*m)) return nullptr;
  return m;
}

/// The payload types with a wire form: wire kind k (k >= 1) is the k-th
/// type, named by its kTag. Append-only, like WireKind.
template <typename... M>
struct WireBodies {
  static constexpr std::array<const char*, 1 + sizeof...(M)> kNames{"none", M::kTag...};
  static constexpr std::array kWriters{&write_body<M>...};
  static constexpr std::array kReaders{&read_body<M>...};

  /// 0 for no body, nullopt for a payload type with no wire form
  /// (experiment-local probes stay sim-only).
  static std::optional<std::uint8_t> kind_of(const sim::Payload* body) {
    if (body == nullptr) return 0;
    const std::array<sim::PayloadKind, sizeof...(M)> kinds{sim::payload_kind<M>()...};
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      if (kinds[i] == body->kind()) return static_cast<std::uint8_t>(i + 1);
    }
    return std::nullopt;
  }
};

using Bodies = WireBodies<aodv::RreqMsg, aodv::RrepMsg, aodv::RerrMsg, aodv::DataMsg,
                          core::StsBeacon, core::NslMsg, core::SolicitMsg, core::ValueMsg,
                          core::ProposeMsg, core::AckMsg, core::AgreedMsg,
                          sensor::InterestMsg, sensor::NotificationMsg>;
static_assert(Bodies::kNames.size() == static_cast<std::size_t>(WireKind::kCount));

// Fixed offsets within a frame (see layout comment in codec.hpp).
constexpr std::size_t kOffTotalLen = 4;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffBody = 57;
constexpr std::size_t kMinFrame = kOffBody + 4;  // empty body + checksum

constexpr std::uint16_t kFlagAck = 1u << 0;
constexpr std::uint16_t kFlagCorrupted = 1u << 1;

/// The link and packet header after the version and kind bytes.
auto header_fields(auto& frame, auto& flags) {
  auto& p = frame.packet;
  return std::tie(flags, frame.frame_id, frame.tx, frame.rx, p.src, p.dst, p.port, p.size_bytes,
                  p.uid, p.parent);
}

}  // namespace

const char* wire_kind_name(WireKind kind) noexcept {
  const auto k = static_cast<std::size_t>(kind);
  return k < Bodies::kNames.size() ? Bodies::kNames[k] : "?";
}

const char* decode_error_name(DecodeError e) noexcept {
  switch (e) {
    case DecodeError::kOk: return "ok";
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kBadMagic: return "bad_magic";
    case DecodeError::kBadVersion: return "bad_version";
    case DecodeError::kBadKind: return "bad_kind";
    case DecodeError::kBadChecksum: return "bad_checksum";
    case DecodeError::kBadBody: return "bad_body";
  }
  return "?";
}

bool encode_frame(const sim::Frame& frame, std::vector<std::uint8_t>& out) {
  const sim::Payload* body = frame.packet.body.get();
  const std::optional<std::uint8_t> kind = Bodies::kind_of(body);
  if (!kind) {
    out.clear();
    return false;
  }
  const auto flags = static_cast<std::uint16_t>((frame.is_ack ? kFlagAck : 0) |
                                                (frame.corrupted ? kFlagCorrupted : 0));
  core::WireWriter w{std::move(out)};
  // total_len is written as 0 and patched once the body is in place.
  w.put(std::tuple{kWireMagic, std::uint32_t{0}, kWireVersion, *kind});
  w.put(header_fields(frame, flags));
  if (*kind != 0) Bodies::kWriters[*kind - 1](w, *body);
  w.patch_u32(kOffTotalLen, static_cast<std::uint32_t>(w.size() + 4));
  w.put(fnv1a(w.data()));
  out = std::move(w).take();
  return true;
}

DecodeResult decode_frame(std::span<const std::uint8_t> bytes) {
  DecodeResult result;
  auto fail = [&result](DecodeError e) {
    result.error = e;
    return std::move(result);
  };
  std::uint32_t magic = 0;
  std::uint32_t total_len = 0;
  if (!core::WireReader{bytes}.get(std::tie(magic, total_len))) {
    return fail(DecodeError::kTruncated);
  }
  if (magic != kWireMagic) return fail(DecodeError::kBadMagic);
  if (total_len < kMinFrame || bytes.size() < total_len) return fail(DecodeError::kTruncated);
  const std::span<const std::uint8_t> content = bytes.first(total_len - 4);
  core::WireReader r{content.subspan(kOffVersion)};
  std::uint8_t version = 0;
  std::uint8_t kind = 0;
  std::uint32_t checksum = 0;
  // Cannot fail: content is at least kOffBody bytes long.
  (void)r.get(std::tie(version, kind));
  (void)core::WireReader{bytes.subspan(total_len - 4, 4)}.get(checksum);
  if (version != kWireVersion) return fail(DecodeError::kBadVersion);
  if (kind >= Bodies::kNames.size()) return fail(DecodeError::kBadKind);
  if (checksum != fnv1a(content)) return fail(DecodeError::kBadChecksum);

  sim::Frame& frame = result.frame;
  std::uint16_t flags = 0;
  bool ok = r.get(header_fields(frame, flags));
  if (ok && kind != 0) ok = (frame.packet.body = Bodies::kReaders[kind - 1](r)) != nullptr;
  if (!ok || !r.done()) return fail(DecodeError::kBadBody);
  frame.is_ack = (flags & kFlagAck) != 0;
  frame.corrupted = (flags & kFlagCorrupted) != 0;
  result.error = DecodeError::kOk;
  result.consumed = total_len;
  return result;
}

void attach_sim_codec(sim::World& world) {
  // One scratch buffer per world: the transform is called from the
  // single-threaded event loop, so reuse is safe and steady-state encoding
  // never allocates.
  auto scratch = std::make_shared<std::vector<std::uint8_t>>();
  world.set_packet_transform(
      [scratch](sim::Packet&& packet, sim::NodeId tx, sim::NodeId rx) -> sim::Packet {
        sim::Frame frame;
        frame.tx = tx;
        frame.rx = rx;
        frame.packet = std::move(packet);
        if (!encode_frame(frame, *scratch)) {
          // No wire form (experiment-local payload): pass through untouched.
          return std::move(frame.packet);
        }
        DecodeResult decoded = decode_frame(*scratch);
        if (!decoded) {
          // A round-trip failure means the codec and a serializer disagree;
          // silently delivering the original packet would hide it. Fail
          // unconditionally — ICC_CHECK compiles out in Release.
          std::fprintf(stderr, "net: wire codec round trip failed in simulation: %s\n",
                       decode_error_name(decoded.error));
          std::abort();
        }
        return std::move(decoded.frame.packet);
      });
}

std::function<void(sim::World&)> codec_hook_from_env() {
  if (exp::env_int("ICC_NET_CODEC", 0) == 0) return {};
  return [](sim::World& world) { attach_sim_codec(world); };
}

}  // namespace icc::net
