// Wire-codec tests: round-trip identity for every wire kind, stream framing,
// the recorded v1 bytes of every format, rejection of truncated / corrupted
// / wrong-version / hostile frames, and simulation parity for the kinds the
// CI parity runs do not carry. Run under ASan/UBSan in the sanitizer CI
// jobs — the decoder must stay well-defined on arbitrary attacker-controlled
// bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aodv/messages.hpp"
#include "core/framework.hpp"
#include "core/messages.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "net/codec.hpp"
#include "sensor/diffusion.hpp"
#include "sensor/readings.hpp"
#include "sim/frame.hpp"
#include "sim/world.hpp"

namespace icc::net {
namespace {

sim::Frame make_frame(std::shared_ptr<const sim::Payload> body, sim::Port port,
                      std::uint32_t size_bytes = 64) {
  sim::Frame f;
  f.tx = 3;
  f.rx = 7;
  f.frame_id = 42;
  f.packet.src = 3;
  f.packet.dst = 9;
  f.packet.port = port;
  f.packet.size_bytes = size_bytes;
  f.packet.uid = (4ull << 40) | 17;
  f.packet.parent = (4ull << 40) | 5;
  f.packet.body = std::move(body);
  return f;
}

std::vector<std::uint8_t> encode_ok(const sim::Frame& f) {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(encode_frame(f, bytes));
  EXPECT_FALSE(bytes.empty());
  return bytes;
}

/// Round-trip and check the frame/packet header fields; returns the decoded
/// frame for body-specific checks.
sim::Frame roundtrip(const sim::Frame& f) {
  const auto bytes = encode_ok(f);
  const DecodeResult r = decode_frame(bytes);
  EXPECT_TRUE(r) << decode_error_name(r.error);
  EXPECT_EQ(r.consumed, bytes.size());
  EXPECT_EQ(r.frame.tx, f.tx);
  EXPECT_EQ(r.frame.rx, f.rx);
  EXPECT_EQ(r.frame.is_ack, f.is_ack);
  EXPECT_EQ(r.frame.frame_id, f.frame_id);
  EXPECT_EQ(r.frame.packet.src, f.packet.src);
  EXPECT_EQ(r.frame.packet.dst, f.packet.dst);
  EXPECT_EQ(r.frame.packet.port, f.packet.port);
  EXPECT_EQ(r.frame.packet.size_bytes, f.packet.size_bytes);
  EXPECT_EQ(r.frame.packet.uid, f.packet.uid);
  EXPECT_EQ(r.frame.packet.parent, f.packet.parent);
  return r.frame;
}

// ------------------------------------------------------------- round trips

TEST(CodecRoundTrip, AodvRreq) {
  auto m = std::make_shared<aodv::RreqMsg>();
  m->orig = 1;
  m->rreq_id = 11;
  m->orig_seq = 5;
  m->dest = 9;
  m->dest_seq = 3;
  m->dest_seq_known = true;
  m->hop_count = 2;
  const auto out = roundtrip(make_frame(m, sim::Port::kAodv));
  const auto* d = out.packet.body_as<aodv::RreqMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->orig, 1u);
  EXPECT_EQ(d->rreq_id, 11u);
  EXPECT_EQ(d->orig_seq, 5u);
  EXPECT_EQ(d->dest, 9u);
  EXPECT_EQ(d->dest_seq, 3u);
  EXPECT_TRUE(d->dest_seq_known);
  EXPECT_EQ(d->hop_count, 2u);
}

TEST(CodecRoundTrip, AodvRrep) {
  auto m = std::make_shared<aodv::RrepMsg>();
  m->dest = 4;
  m->dest_seq = 77;
  m->orig = 2;
  m->hop_count = 3;
  const auto out = roundtrip(make_frame(m, sim::Port::kAodv));
  const auto* d = out.packet.body_as<aodv::RrepMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->dest, 4u);
  EXPECT_EQ(d->dest_seq, 77u);
  EXPECT_EQ(d->orig, 2u);
  EXPECT_EQ(d->hop_count, 3u);
}

TEST(CodecRoundTrip, AodvRerr) {
  auto m = std::make_shared<aodv::RerrMsg>();
  m->unreachable = {{5, 10}, {6, 20}};
  const auto out = roundtrip(make_frame(m, sim::Port::kAodv));
  const auto* d = out.packet.body_as<aodv::RerrMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->unreachable, m->unreachable);
}

TEST(CodecRoundTrip, AodvData) {
  auto m = std::make_shared<aodv::DataMsg>();
  m->app_uid = 123456789;
  m->app_bytes = 512;
  m->sent_at = 1.625;
  const auto out = roundtrip(make_frame(m, sim::Port::kAodv));
  const auto* d = out.packet.body_as<aodv::DataMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->app_uid, 123456789u);
  EXPECT_EQ(d->app_bytes, 512u);
  EXPECT_DOUBLE_EQ(d->sent_at, 1.625);
}

TEST(CodecRoundTrip, StsBeacon) {
  auto m = std::make_shared<core::StsBeacon>();
  m->origin = 2;
  m->seq = 99;
  m->pos = sim::Vec2{12.5, -3.25};
  m->neighbors = {1, 3, 4};
  crypto::Digest d1{};
  d1.fill(0xAB);
  crypto::Digest d2{};
  d2.fill(0xCD);
  m->tags = {d1, d2, d1};
  const auto out = roundtrip(make_frame(m, sim::Port::kSts));
  const auto* d = out.packet.body_as<core::StsBeacon>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->origin, 2u);
  EXPECT_EQ(d->seq, 99u);
  EXPECT_DOUBLE_EQ(d->pos.x, 12.5);
  EXPECT_DOUBLE_EQ(d->pos.y, -3.25);
  EXPECT_EQ(d->neighbors, m->neighbors);
  EXPECT_EQ(d->tags, m->tags);
}

TEST(CodecRoundTrip, StsNsl) {
  auto m = std::make_shared<core::NslMsg>();
  m->phase = 2;
  m->ct.to = 8;
  m->ct.data = {1, 2, 3, 4, 5};
  const auto out = roundtrip(make_frame(m, sim::Port::kSts));
  const auto* d = out.packet.body_as<core::NslMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->phase, 2);
  EXPECT_EQ(d->ct.to, 8u);
  EXPECT_EQ(d->ct.data, m->ct.data);
}

TEST(CodecRoundTrip, IvsSolicit) {
  auto m = std::make_shared<core::SolicitMsg>();
  m->center = 5;
  m->round = 7;
  m->level = 3;
  m->ttl = 2;
  m->topic = {9, 9, 9};
  const auto out = roundtrip(make_frame(m, sim::Port::kIvs));
  const auto* d = out.packet.body_as<core::SolicitMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->center, 5u);
  EXPECT_EQ(d->round, 7u);
  EXPECT_EQ(d->level, 3);
  EXPECT_EQ(d->ttl, 2);
  EXPECT_EQ(d->topic, m->topic);
}

TEST(CodecRoundTrip, IvsValue) {
  auto m = std::make_shared<core::ValueMsg>();
  m->sender = 4;
  m->center = 5;
  m->round = 6;
  m->value = {1, 2};
  m->sig = {3, 4, 5};
  const auto out = roundtrip(make_frame(m, sim::Port::kIvs));
  const auto* d = out.packet.body_as<core::ValueMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->sender, 4u);
  EXPECT_EQ(d->center, 5u);
  EXPECT_EQ(d->round, 6u);
  EXPECT_EQ(d->value, m->value);
  EXPECT_EQ(d->sig, m->sig);
}

TEST(CodecRoundTrip, IvsProposeWithEvidence) {
  auto m = std::make_shared<core::ProposeMsg>();
  m->center = 1;
  m->round = 2;
  m->level = 3;
  m->ttl = 1;
  m->mode = core::VotingMode::kStatistical;
  m->value = {7, 7};
  core::ValueMsg ev;
  ev.sender = 9;
  ev.center = 1;
  ev.round = 2;
  ev.value = {8};
  ev.sig = {6, 6};
  m->evidence = {ev, ev};
  m->center_sig = {0xDE, 0xAD};
  const auto out = roundtrip(make_frame(m, sim::Port::kIvs));
  const auto* d = out.packet.body_as<core::ProposeMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->mode, core::VotingMode::kStatistical);
  EXPECT_EQ(d->value, m->value);
  ASSERT_EQ(d->evidence.size(), 2u);
  EXPECT_EQ(d->evidence[0].sender, 9u);
  EXPECT_EQ(d->evidence[1].sig, ev.sig);
  EXPECT_EQ(d->center_sig, m->center_sig);
}

TEST(CodecRoundTrip, IvsAck) {
  auto m = std::make_shared<core::AckMsg>();
  m->sender = 2;
  m->center = 3;
  m->round = 4;
  m->psig.signer = 2;
  m->psig.level = 5;
  m->psig.data = {1, 1, 2, 3};
  const auto out = roundtrip(make_frame(m, sim::Port::kIvs));
  const auto* d = out.packet.body_as<core::AckMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->psig, m->psig);
}

TEST(CodecRoundTrip, IvsAgreedKeepsTtl) {
  auto m = std::make_shared<core::AgreedMsg>();
  m->source = 1;
  m->round = 2;
  m->level = 3;
  m->ttl = 2;  // AgreedMsg::serialize omits ttl; the wire frame must not
  m->value = {5, 5, 5};
  m->sig.level = 3;
  m->sig.data = {9, 8, 7};
  const auto out = roundtrip(make_frame(m, sim::Port::kIvs));
  const auto* d = out.packet.body_as<core::AgreedMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->ttl, 2);
  EXPECT_EQ(d->value, m->value);
  EXPECT_EQ(d->sig, m->sig);
}

TEST(CodecRoundTrip, DiffInterest) {
  auto m = std::make_shared<sensor::InterestMsg>();
  m->sink = 0;
  m->seq = 3;
  m->hops = 2;
  const auto out = roundtrip(make_frame(m, sim::Port::kDiffusion));
  const auto* d = out.packet.body_as<sensor::InterestMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->sink, 0u);
  EXPECT_EQ(d->seq, 3u);
  EXPECT_EQ(d->hops, 2u);
}

TEST(CodecRoundTrip, DiffNotification) {
  auto m = std::make_shared<sensor::NotificationMsg>();
  m->origin = 6;
  m->uid = 1234;
  m->data = {0, 255, 128};
  const auto out = roundtrip(make_frame(m, sim::Port::kDiffusion));
  const auto* d = out.packet.body_as<sensor::NotificationMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->origin, 6u);
  EXPECT_EQ(d->uid, 1234u);
  EXPECT_EQ(d->data, m->data);
}

TEST(CodecRoundTrip, AckFrameWithoutBody) {
  sim::Frame f;
  f.tx = 1;
  f.rx = 2;
  f.is_ack = true;
  f.frame_id = 55;
  const auto out = roundtrip(f);
  EXPECT_TRUE(out.is_ack);
  EXPECT_EQ(out.packet.body, nullptr);
}

TEST(CodecRoundTrip, StreamFramingBackToBack) {
  auto a = std::make_shared<sensor::InterestMsg>();
  a->sink = 1;
  auto b = std::make_shared<aodv::DataMsg>();
  b->app_uid = 2;
  auto bytes = encode_ok(make_frame(a, sim::Port::kDiffusion));
  const auto second = encode_ok(make_frame(b, sim::Port::kAodv));
  bytes.insert(bytes.end(), second.begin(), second.end());

  const DecodeResult first = decode_frame(bytes);
  ASSERT_TRUE(first);
  EXPECT_NE(first.frame.packet.body_as<sensor::InterestMsg>(), nullptr);
  const DecodeResult rest =
      decode_frame(std::span{bytes}.subspan(first.consumed));
  ASSERT_TRUE(rest);
  EXPECT_NE(rest.frame.packet.body_as<aodv::DataMsg>(), nullptr);
  EXPECT_EQ(first.consumed + rest.consumed, bytes.size());
}

// --------------------------------------------------------------- rejection

std::vector<std::uint8_t> sample_bytes() {
  auto m = std::make_shared<aodv::RreqMsg>();
  m->orig = 1;
  m->dest = 2;
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(encode_frame(make_frame(m, sim::Port::kAodv), bytes));
  return bytes;
}

TEST(CodecReject, Truncated) {
  const auto bytes = sample_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const DecodeResult r = decode_frame(std::span{bytes.data(), len});
    EXPECT_FALSE(r) << "accepted a " << len << "-byte prefix";
    EXPECT_EQ(r.error, DecodeError::kTruncated);
  }
}

TEST(CodecReject, BadMagic) {
  auto bytes = sample_bytes();
  bytes[0] ^= 0xFF;
  const DecodeResult r = decode_frame(bytes);
  EXPECT_EQ(r.error, DecodeError::kBadMagic);
}

TEST(CodecReject, BadVersion) {
  auto bytes = sample_bytes();
  bytes[8] = kWireVersion + 1;
  const DecodeResult r = decode_frame(bytes);
  EXPECT_EQ(r.error, DecodeError::kBadVersion);
}

TEST(CodecReject, BadKind) {
  auto bytes = sample_bytes();
  bytes[9] = 0xEE;
  const DecodeResult r = decode_frame(bytes);
  EXPECT_EQ(r.error, DecodeError::kBadKind);
}

TEST(CodecReject, ChecksumMismatch) {
  auto bytes = sample_bytes();
  bytes[bytes.size() / 2] ^= 0x01;  // flip one payload bit
  const DecodeResult r = decode_frame(bytes);
  EXPECT_EQ(r.error, DecodeError::kBadChecksum);
}

TEST(CodecReject, BodyKindMismatch) {
  // Claim the RREQ body is an RERR: the body parse must fail cleanly.
  auto bytes = sample_bytes();
  bytes[9] = static_cast<std::uint8_t>(WireKind::kAodvRerr);
  // Re-checksum so only the body decode can object.
  std::uint32_t h = 0x811C9DC5u;
  for (std::size_t i = 0; i + 4 < bytes.size(); ++i) {
    h ^= bytes[i];
    h *= 0x01000193u;
  }
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(h >> (8 * i));
  const DecodeResult r = decode_frame(bytes);
  EXPECT_EQ(r.error, DecodeError::kBadBody);
}

TEST(CodecReject, RandomGarbageNeverCrashes) {
  // Deterministic xorshift garbage: the decoder must reject (or, absurdly
  // unlikely, accept) without UB — this is the ASan/UBSan fodder.
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> bytes(next() % 256);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(next());
    (void)decode_frame(bytes);
  }
  // Garbage that *starts* like a real frame but lies about its length.
  auto bytes = sample_bytes();
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = bytes;
    mutated[4 + next() % 4] = static_cast<std::uint8_t>(next());
    (void)decode_frame(mutated);
  }
}

TEST(CodecNames, Stable) {
  EXPECT_STREQ(wire_kind_name(WireKind::kAodvRreq), "aodv.rreq");
  EXPECT_STREQ(wire_kind_name(WireKind::kDiffNotification), "diff.notification");
  EXPECT_STREQ(decode_error_name(DecodeError::kBadChecksum), "bad_checksum");
}

// ------------------------------------------------------------ golden bytes

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoi(std::string{hex.substr(i, 2)}, nullptr, 16)));
  }
  return out;
}

/// Writes `v` little-endian at byte `at`.
void poke_u32(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Re-stamps total_len and the FNV-1a checksum after a test edits a frame,
/// so only the body decoder can object to the edit.
void restamp(std::vector<std::uint8_t>& bytes) {
  poke_u32(bytes, 4, static_cast<std::uint32_t>(bytes.size()));
  std::uint32_t h = 0x811C9DC5u;
  for (std::size_t i = 0; i + 4 < bytes.size(); ++i) {
    h ^= bytes[i];
    h *= 0x01000193u;
  }
  poke_u32(bytes, bytes.size() - 4, h);
}

constexpr std::size_t kBodyOffset = 57;  // see the layout in codec.hpp

core::ValueMsg golden_value(std::uint32_t sender) {
  core::ValueMsg m;
  m.sender = sender;
  m.center = 5;
  m.round = 6;
  m.value = {1, 2};
  m.sig = {3, 4, 5};
  return m;
}

/// One frame per wire kind plus an ack, every field away from its default.
/// The data frame carries the corrupted flag and the ack the ack flag.
std::vector<std::pair<std::string, sim::Frame>> golden_frames() {
  std::vector<std::pair<std::string, sim::Frame>> out;
  auto add = [&out](std::shared_ptr<const sim::Payload> body, sim::Port port) {
    std::string name = body->tag();
    out.emplace_back(std::move(name), make_frame(std::move(body), port));
  };

  auto rreq = std::make_shared<aodv::RreqMsg>();
  rreq->orig = 1;
  rreq->rreq_id = 11;
  rreq->orig_seq = 5;
  rreq->dest = 9;
  rreq->dest_seq = 3;
  rreq->dest_seq_known = true;
  rreq->hop_count = 2;
  add(rreq, sim::Port::kAodv);

  auto rrep = std::make_shared<aodv::RrepMsg>();
  rrep->dest = 4;
  rrep->dest_seq = 77;
  rrep->orig = 2;
  rrep->hop_count = 3;
  add(rrep, sim::Port::kAodv);

  auto rerr = std::make_shared<aodv::RerrMsg>();
  rerr->unreachable = {{5, 10}, {6, 20}};
  add(rerr, sim::Port::kAodv);

  auto data = std::make_shared<aodv::DataMsg>();
  data->app_uid = 123456789;
  data->app_bytes = 700;
  data->sent_at = 1.625;
  add(data, sim::Port::kCbr);
  out.back().second.corrupted = true;

  auto beacon = std::make_shared<core::StsBeacon>();
  beacon->origin = 2;
  beacon->seq = 99;
  beacon->pos = sim::Vec2{12.5, -3.25};
  beacon->neighbors = {1, 3, 4};
  crypto::Digest d1{};
  d1.fill(0xAB);
  crypto::Digest d2{};
  d2.fill(0xCD);
  beacon->tags = {d1, d2, d1};
  add(beacon, sim::Port::kSts);

  auto nsl = std::make_shared<core::NslMsg>();
  nsl->phase = 2;
  nsl->ct.to = 8;
  nsl->ct.data = {1, 2, 3, 4, 5};
  add(nsl, sim::Port::kSts);

  auto solicit = std::make_shared<core::SolicitMsg>();
  solicit->center = 5;
  solicit->round = 7;
  solicit->level = 3;
  solicit->ttl = 2;
  solicit->topic = {9, 9, 9};
  add(solicit, sim::Port::kIvs);

  add(std::make_shared<core::ValueMsg>(golden_value(4)), sim::Port::kIvs);

  auto propose = std::make_shared<core::ProposeMsg>();
  propose->center = 1;
  propose->round = 2;
  propose->level = 3;
  propose->ttl = 2;
  propose->mode = core::VotingMode::kStatistical;
  propose->value = {7, 7};
  propose->evidence = {golden_value(9), golden_value(10)};
  propose->center_sig = {0xDE, 0xAD};
  add(propose, sim::Port::kIvs);

  auto ack = std::make_shared<core::AckMsg>();
  ack->sender = 2;
  ack->center = 3;
  ack->round = 4;
  ack->psig.signer = 2;
  ack->psig.level = 5;
  ack->psig.data = {1, 1, 2, 3};
  add(ack, sim::Port::kIvs);

  auto agreed = std::make_shared<core::AgreedMsg>();
  agreed->source = 1;
  agreed->round = 2;
  agreed->level = 3;
  agreed->ttl = 2;
  agreed->value = {5, 5, 5};
  agreed->sig.level = 3;
  agreed->sig.data = {9, 8, 7};
  add(agreed, sim::Port::kIvs);

  auto interest = std::make_shared<sensor::InterestMsg>();
  interest->sink = 6;
  interest->seq = 3;
  interest->hops = 2;
  add(interest, sim::Port::kDiffusion);

  auto notification = std::make_shared<sensor::NotificationMsg>();
  notification->origin = 6;
  notification->uid = 1234;
  notification->data = {0, 255, 128};
  add(notification, sim::Port::kDiffusion);

  sim::Frame mac_ack;
  mac_ack.tx = 1;
  mac_ack.rx = 2;
  mac_ack.is_ack = true;
  mac_ack.frame_id = 55;
  out.emplace_back("mac.ack", mac_ack);
  return out;
}

core::AgreedMsg golden_agreed() {
  core::AgreedMsg m;
  m.source = 4;
  m.round = 8;
  m.level = 2;
  m.ttl = 2;  // not part of the serialized form
  m.value = {1, 2, 3};
  m.sig.level = 2;
  m.sig.data = {7, 7};
  return m;
}

aodv::RrepMsg golden_rrep() {
  aodv::RrepMsg m;
  m.dest = 4;
  m.dest_seq = 77;
  m.orig = 2;
  m.hop_count = 3;
  return m;
}

const sensor::Reading kGoldenReading{12.5, 42.25, {10.5, -3.25}};

sensor::FusedNotification golden_fused() {
  sensor::FusedNotification f;
  f.t = 33.0;
  f.target_pos = {100, 50};
  f.est_power = 19876.5;
  f.detectors = 6;
  f.valid = true;
  return f;
}

/// The four message-level formats, as their encoders write them.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> golden_messages() {
  return {{"agreed.serialize", golden_agreed().serialize()},
          {"rrep.wire_encode", aodv::RrepMsg::wire_encode(golden_rrep(), 12)},
          {"reading.serialize", kGoldenReading.serialize()},
          {"fused.serialize", golden_fused().serialize()}};
}

/// Wire format v1, recorded from the encoders before they were rewritten.
/// A change here is a wire-format change: it needs a new kWireVersion.
const std::map<std::string, std::string>& golden_hex() {
  static const std::map<std::string, std::string> kHex = {
      {"aodv.rreq",
       "4943433156000000010100002a00000000000000030000000700000003000000"
       "09000000004000000011000000000400000500000000040000010000000b0000"
       "000500000009000000030000000102000000bfdb0c99"},
      {"aodv.rrep",
       "494343314d000000010200002a00000000000000030000000700000003000000"
       "09000000004000000011000000000400000500000000040000040000004d0000"
       "0002000000030000006d1d0d34"},
      {"aodv.rerr",
       "4943433151000000010300002a00000000000000030000000700000003000000"
       "0900000000400000001100000000040000050000000004000002000000050000"
       "000a00000006000000140000002fc86757"},
      {"aodv.data",
       "4943433151000000010402002a00000000000000030000000700000003000000"
       "0900000001400000001100000000040000050000000004000015cd5b07000000"
       "00bc020000000000000000fa3fdbd7d105"},
      {"sts.beacon",
       "49434331cd000000010500002a00000000000000030000000700000003000000"
       "0900000002400000001100000000040000050000000004000002000000630000"
       "000000000000000000000029400000000000000ac00300000001000000030000"
       "000400000003000000ababababababababababababababababababababababab"
       "abababababababababcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"
       "cdcdcdcdcdcdcdcdcdababababababababababababababababababababababab"
       "ababababababababab10603e42"},
      {"sts.nsl",
       "494343314e000000010600002a00000000000000030000000700000003000000"
       "0900000002400000001100000000040000050000000004000002000000080000"
       "0005000000010203040570492385"},
      {"ivs.solicit",
       "4943433158000000010700002a00000000000000030000000700000003000000"
       "0900000003400000001100000000040000050000000004000005000000070000"
       "0000000000030000000200000003000000090909c317b9b7"},
      {"ivs.value",
       "494343315a000000010800002a00000000000000030000000700000003000000"
       "0900000003400000001100000000040000050000000004000004000000050000"
       "00060000000000000002000000010203000000030405c404d45e"},
      {"ivs.propose",
       "494343319c000000010900002a00000000000000030000000700000003000000"
       "0900000003400000001100000000040000050000000004000001000000020000"
       "0000000000030000000200000001020000000707020000000900000005000000"
       "0600000000000000020000000102030000000304050a00000005000000060000"
       "00000000000200000001020300000003040502000000deadd196ae07"},
      {"ivs.ack",
       "494343315d000000010a00002a00000000000000030000000700000003000000"
       "0900000003400000001100000000040000050000000004000002000000030000"
       "0004000000000000000200000005000000040000000101020387d78eab"},
      {"ivs.agreed",
       "4943433163000000010b00002a00000000000000030000000700000003000000"
       "0900000003400000001100000000040000050000000004000001000000020000"
       "00000000000300000002000000030000000505050300000003000000090807ef"
       "379fe0"},
      {"diff.interest",
       "4943433149000000010c00002a00000000000000030000000700000003000000"
       "0900000004400000001100000000040000050000000004000006000000030000"
       "000200000054598df2"},
      {"diff.notification",
       "4943433150000000010d00002a00000000000000030000000700000003000000"
       "0900000004400000001100000000040000050000000004000006000000d20400"
       "00000000000300000000ff801912dbe5"},
      {"mac.ack",
       "494343313d0000000100010037000000000000000100000002000000feffffff"
       "feffffff010000000000000000000000000000000000000000438a5bb8"},
      {"agreed.serialize",
       "0400000008000000000000000200000003000000010203020000000200000007"
       "07"},
      {"rrep.wire_encode",
       "040000004d00000002000000030000000c000000"},
      {"reading.serialize",
       "0000000000002940000000000020454000000000000025400000000000000ac0"},
      {"fused.serialize",
       "000000000080404000000000000059400000000000004940000000002069d340"
       "0600000001"},
  };
  return kHex;
}

std::string golden(const std::string& name) {
  const auto it = golden_hex().find(name);
  return it == golden_hex().end() ? std::string{} : it->second;
}

TEST(CodecGolden, FramesMatchRecordedBytes) {
  const auto frames = golden_frames();
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(WireKind::kCount));
  for (const auto& [name, frame] : frames) {
    EXPECT_EQ(to_hex(encode_ok(frame)), golden(name)) << name;
  }
}

TEST(CodecGolden, RecordedFramesDecodeToTheSameBytes) {
  for (const auto& [name, frame] : golden_frames()) {
    const auto bytes = from_hex(golden(name));
    const DecodeResult r = decode_frame(bytes);
    ASSERT_TRUE(r) << name << ": " << decode_error_name(r.error);
    EXPECT_EQ(r.consumed, bytes.size()) << name;
    EXPECT_EQ(r.frame.is_ack, frame.is_ack) << name;
    EXPECT_EQ(r.frame.corrupted, frame.corrupted) << name;
    EXPECT_EQ(to_hex(encode_ok(r.frame)), golden(name)) << name;
  }
}

TEST(CodecGolden, MessageFormatsMatchRecordedBytes) {
  for (const auto& [name, bytes] : golden_messages()) {
    EXPECT_EQ(to_hex(bytes), golden(name)) << name;
  }
  const auto agreed = core::AgreedMsg::deserialize(from_hex(golden("agreed.serialize")));
  ASSERT_TRUE(agreed.has_value());
  EXPECT_EQ(to_hex(agreed->serialize()), golden("agreed.serialize"));
  const auto rrep = aodv::RrepMsg::wire_decode(from_hex(golden("rrep.wire_encode")));
  ASSERT_TRUE(rrep.has_value());
  EXPECT_EQ(rrep->second, 12u);
  EXPECT_EQ(to_hex(aodv::RrepMsg::wire_encode(rrep->first, rrep->second)),
            golden("rrep.wire_encode"));
  const auto reading = sensor::Reading::deserialize(from_hex(golden("reading.serialize")));
  ASSERT_TRUE(reading.has_value());
  EXPECT_EQ(to_hex(reading->serialize()), golden("reading.serialize"));
  const auto fused = sensor::FusedNotification::deserialize(from_hex(golden("fused.serialize")));
  ASSERT_TRUE(fused.has_value());
  EXPECT_EQ(to_hex(fused->serialize()), golden("fused.serialize"));
}

// ------------------------------------------------------ hostile body bytes

std::vector<std::uint8_t> with_u32(std::vector<std::uint8_t> bytes, std::size_t at,
                                   std::uint32_t v) {
  poke_u32(bytes, at, v);
  restamp(bytes);
  return bytes;
}

TEST(CodecHostile, HugeCountsAreBadBodyNotAllocations) {
  // A peer-supplied element count must be checked against the bytes left
  // before anything is reserved: 0xFFFFFFFF once made decode_frame throw
  // std::bad_alloc, killing a UDP daemon with one datagram.
  const std::size_t rerr_count = kBodyOffset;               // first body field
  const std::size_t beacon_neighbors = kBodyOffset + 4 + 8 + 16;  // after origin, seq, pos
  // center, round, level, ttl, mode, then value = u32 length + {7, 7}
  const std::size_t propose_evidence = kBodyOffset + 4 + 8 + 4 + 4 + 1 + 4 + 2;
  for (const auto& [name, at] : {std::pair{"aodv.rerr", rerr_count},
                                 std::pair{"sts.beacon", beacon_neighbors},
                                 std::pair{"ivs.propose", propose_evidence}}) {
    const auto bytes = with_u32(from_hex(golden(name)), at, 0xFFFFFFFFu);
    DecodeResult r;
    EXPECT_NO_THROW(r = decode_frame(bytes)) << name;
    EXPECT_EQ(r.error, DecodeError::kBadBody) << name;
  }
}

TEST(CodecHostile, ShortOrPaddedBodiesAreBadBody) {
  for (const auto& [name, frame] : golden_frames()) {
    if (frame.packet.body == nullptr) continue;
    auto shorter = from_hex(golden(name));
    shorter.erase(shorter.end() - 5);  // last body byte
    restamp(shorter);
    EXPECT_EQ(decode_frame(shorter).error, DecodeError::kBadBody) << name;
    auto longer = from_hex(golden(name));
    longer.insert(longer.end() - 4, 0);  // one trailing body byte
    restamp(longer);
    EXPECT_EQ(decode_frame(longer).error, DecodeError::kBadBody) << name;
  }
}

TEST(CodecHostile, MutatedBodiesDecodeCleanlyOrNotAtAll) {
  // Unlike RandomGarbageNeverCrashes, every mutant here carries a valid
  // checksum, so the body decoders see it. Under ASan/UBSan this is the
  // body fuzz loop. A mutant the decoder accepts must re-encode to a frame
  // that decodes to itself.
  std::uint64_t s = 0xD1B54A32D192ED03ull;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  int accepted = 0;
  int rejected = 0;
  for (const auto& [name, frame] : golden_frames()) {
    const auto original = from_hex(golden(name));
    const std::size_t body_len = original.size() - kBodyOffset - 4;
    if (body_len == 0) continue;
    for (int trial = 0; trial < 400; ++trial) {
      auto mutant = original;
      const int edits = 1 + static_cast<int>(next() % 4);
      for (int e = 0; e < edits; ++e) {
        mutant[kBodyOffset + next() % body_len] = static_cast<std::uint8_t>(next());
      }
      restamp(mutant);
      const DecodeResult r = decode_frame(mutant);
      if (!r) {
        EXPECT_EQ(r.error, DecodeError::kBadBody) << name;
        ++rejected;
        continue;
      }
      ++accepted;
      EXPECT_EQ(r.consumed, mutant.size()) << name;
      const auto again = encode_ok(r.frame);
      const DecodeResult r2 = decode_frame(again);
      ASSERT_TRUE(r2) << name;
      EXPECT_EQ(encode_ok(r2.frame), again) << name;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// ------------------------------------------------- in-simulation parity
//
// CI's parity runs (blackhole_demo, fig7_blackhole) never put solicit,
// value, propose-with-evidence, interest or notification bodies through
// attach_sim_codec. These worlds do, and must trace identically either way.

/// Every trace category of one world as JSONL, plus the body tags the codec
/// round-tripped when it is attached. Declare it before the world: the
/// tracer holds its sink.
struct ParityRun {
  void attach(sim::World& world, bool codec) {
    world.tracer().add_sink(&sink, sim::Tracer::parse_mask("all"));
    if (!codec) return;
    attach_sim_codec(world);
    world.set_packet_transform([this, round_trip = world.packet_transform()](
                                   sim::Packet&& p, sim::NodeId tx, sim::NodeId rx) {
      if (p.body != nullptr) carried.insert(p.body->tag());
      if (const auto* m = p.body_as<core::ProposeMsg>(); m != nullptr && !m->evidence.empty()) {
        carried.insert("ivs.propose+evidence");
      }
      return round_trip(std::move(p), tx, rx);
    });
  }

  std::ostringstream trace;
  sim::JsonlTraceSink sink{trace};
  std::set<std::string> carried;
};

/// A dense six-node circle running one statistical round (voting_test's
/// StatisticalRoundFusesValues world).
void run_statistical_round(ParityRun& run, bool codec) {
  sim::WorldConfig config;
  config.width = 1000;
  config.height = 1000;
  config.tx_range = 250;
  config.seed = 21;
  sim::World world{config};
  run.attach(world, codec);
  crypto::ModelThresholdScheme scheme{77, 8, 512};
  crypto::ModelPki pki{78, 512};
  crypto::ModelCipher cipher;
  core::InnerCircleConfig ic;
  ic.level = 3;
  ic.mode = core::VotingMode::kStatistical;
  std::vector<std::unique_ptr<core::InnerCircleNode>> circle;
  for (int i = 0; i < 6; ++i) {
    sim::Node& node = world.add_node(std::make_unique<sim::StaticMobility>(
        sim::Vec2{100.0 + 30.0 * (i % 4), 100.0 + 30.0 * (i / 4)}));
    circle.push_back(std::make_unique<core::InnerCircleNode>(node, ic, scheme, pki, cipher));
    core::Callbacks& cb = circle.back()->callbacks();
    cb.get_value = [i](sim::NodeId, const core::Value&) -> std::optional<core::Value> {
      return core::Value{static_cast<std::uint8_t>(10 + i)};
    };
    cb.fuse = [](const std::vector<std::pair<sim::NodeId, core::Value>>& values) {
      int sum = 0;
      for (const auto& [id, v] : values) sum += v.at(0);
      return core::Value{static_cast<std::uint8_t>(sum)};
    };
    circle.back()->start();
  }
  world.run_until(5.0);
  circle[0]->initiate(core::Value{10});
  world.run_until(6.0);
}

/// A four-node diffusion chain carrying one notification to the sink
/// (sensor_network_test's NotificationClimbsToSink world).
void run_diffusion_chain(ParityRun& run, bool codec) {
  sim::WorldConfig config;
  config.width = 200;
  config.height = 200;
  config.tx_range = 40.0;
  config.seed = 51;
  sim::World world{config};
  run.attach(world, codec);
  std::vector<std::unique_ptr<sensor::Diffusion>> agents;
  for (const double x : {0.0, 30.0, 60.0, 90.0}) {
    sim::Node& node = world.add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{x, 0.0}));
    agents.push_back(std::make_unique<sensor::Diffusion>(node, 0, sensor::Diffusion::Params{}));
  }
  std::vector<std::uint8_t> received;
  agents[0]->set_sink_handler(
      [&received](const sensor::NotificationMsg& msg, sim::NodeId) { received = msg.data; });
  world.run_until(2.0);
  agents[3]->send_to_sink({1, 2, 3});
  world.run_until(3.0);
  EXPECT_EQ(received, (std::vector<std::uint8_t>{1, 2, 3}));
}

/// The first line at which two traces differ; empty when they are equal.
std::string first_divergence(const std::string& a, const std::string& b) {
  std::istringstream in_a{a};
  std::istringstream in_b{b};
  std::string line_a;
  std::string line_b;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(in_a, line_a));
    const bool more_b = static_cast<bool>(std::getline(in_b, line_b));
    if (!more_a && !more_b) return {};
    if (more_a != more_b || line_a != line_b) {
      return "line " + std::to_string(line) + "\n  off: " + line_a + "\n  on:  " + line_b;
    }
  }
}

TEST(CodecSimParity, StatisticalVotingTracesMatch) {
  ParityRun off;
  ParityRun on;
  run_statistical_round(off, false);
  run_statistical_round(on, true);
  EXPECT_FALSE(off.trace.str().empty());
  EXPECT_EQ(first_divergence(off.trace.str(), on.trace.str()), "");
  for (const char* tag : {"ivs.solicit", "ivs.value", "ivs.propose+evidence"}) {
    EXPECT_EQ(on.carried.count(tag), 1u) << tag;
  }
}

TEST(CodecSimParity, DiffusionChainTracesMatch) {
  ParityRun off;
  ParityRun on;
  run_diffusion_chain(off, false);
  run_diffusion_chain(on, true);
  EXPECT_FALSE(off.trace.str().empty());
  EXPECT_EQ(first_divergence(off.trace.str(), on.trace.str()), "");
  for (const char* tag : {"diff.interest", "diff.notification"}) {
    EXPECT_EQ(on.carried.count(tag), 1u) << tag;
  }
}

}  // namespace
}  // namespace icc::net
