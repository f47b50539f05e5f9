// Tests for the wire serialization helpers, the Suspicions Manager, and the
// agreed-message serialization round trip.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/messages.hpp"
#include "core/suspicions.hpp"
#include "core/wire.hpp"

namespace icc::core {
namespace {

TEST(Wire, RoundTripAllTypes) {
  WireWriter w;
  w.u8(7);
  w.u32(0xDEADBEEF);
  w.u64(0x123456789ABCDEF0ull);
  w.f64(3.14159);
  w.bytes(std::vector<std::uint8_t>{1, 2, 3});
  w.str("hello");

  WireReader r{w.data()};
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double f64 = 0.0;
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint8_t> s;
  ASSERT_TRUE(r.get(std::tie(u8, u32, u64, f64, bytes, s)));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x123456789ABCDEF0ull);
  EXPECT_DOUBLE_EQ(f64, 3.14159);
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(std::string(s.begin(), s.end()), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Wire, TruncatedInputFailsGracefully) {
  WireWriter w;
  w.u64(42);
  const auto& buf = w.data();
  WireReader r{std::span{buf.data(), 4}};  // cut in half
  std::uint64_t v = 0;
  EXPECT_FALSE(r.get(v));
}

TEST(Wire, OversizedLengthPrefixRejected) {
  WireWriter w;
  w.u32(1000);  // claims 1000 bytes follow; nothing does
  WireReader r{w.data()};
  std::vector<std::uint8_t> bytes;
  EXPECT_FALSE(r.get(bytes));
}

TEST(Wire, NonCanonicalTrailingBytesDetectable) {
  WireWriter w;
  w.u32(1);
  w.u8(0xFF);
  WireReader r{w.data()};
  std::uint32_t v = 0;
  ASSERT_TRUE(r.get(v));
  EXPECT_FALSE(r.done());
  EXPECT_FALSE(from_bytes(w.data(), v));
}

TEST(Wire, EnumOutOfRangeRejected) {
  VotingMode mode = VotingMode::kDeterministic;
  EXPECT_TRUE(from_bytes(std::vector<std::uint8_t>{1}, mode));
  EXPECT_EQ(mode, VotingMode::kStatistical);
  EXPECT_FALSE(from_bytes(std::vector<std::uint8_t>{2}, mode));
}

TEST(Suspicions, TemporarySuspicionExpires) {
  SuspicionsManager manager{10.0};
  manager.suspect_temporarily(5, /*now=*/100.0, "flaky");
  EXPECT_TRUE(manager.suspected(5, 105.0));
  EXPECT_FALSE(manager.suspected(5, 111.0));
  EXPECT_FALSE(manager.convicted(5));
}

TEST(Suspicions, ConvictionIsPermanent) {
  SuspicionsManager manager{10.0};
  manager.convict(7, "signed invalid fusion");
  EXPECT_TRUE(manager.suspected(7, 0.0));
  EXPECT_TRUE(manager.suspected(7, 1e9));
  EXPECT_TRUE(manager.convicted(7));
  EXPECT_EQ(manager.conviction_count(), 1u);
}

TEST(Suspicions, ConvictionOverridesTemporary) {
  SuspicionsManager manager{10.0};
  manager.suspect_temporarily(3, 0.0, "x");
  manager.convict(3, "y");
  EXPECT_TRUE(manager.suspected(3, 1e9));
}

TEST(Suspicions, ReSuspicionExtendsWindow) {
  SuspicionsManager manager{10.0};
  manager.suspect_temporarily(1, 0.0, "a");
  manager.suspect_temporarily(1, 8.0, "b");
  EXPECT_TRUE(manager.suspected(1, 15.0));  // 8 + 10 > 15
  EXPECT_FALSE(manager.suspected(1, 19.0));
}

TEST(Suspicions, EarlierSuspicionDoesNotShrinkWindow) {
  SuspicionsManager manager{10.0};
  manager.suspect_temporarily(1, 10.0, "late");
  manager.suspect_temporarily(1, 0.0, "early");  // must not shrink 10+10
  EXPECT_TRUE(manager.suspected(1, 15.0));
}

TEST(Suspicions, SuspectsListsActiveOnly) {
  SuspicionsManager manager{10.0};
  manager.suspect_temporarily(1, 0.0, "a");
  manager.suspect_temporarily(2, 100.0, "b");
  manager.convict(3, "c");
  const auto active = manager.suspects(105.0);
  EXPECT_EQ(active.size(), 2u);  // 2 (temp) and 3 (convicted); 1 expired
}

TEST(AgreedMsg, SerializeRoundTrip) {
  AgreedMsg msg;
  msg.source = 12;
  msg.round = 99;
  msg.level = 3;
  msg.value = {1, 2, 3, 4};
  msg.sig.level = 3;
  msg.sig.data = std::vector<std::uint8_t>(64, 0xAB);

  const auto bytes = msg.serialize();
  const auto parsed = AgreedMsg::deserialize(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->source, 12u);
  EXPECT_EQ(parsed->round, 99u);
  EXPECT_EQ(parsed->level, 3);
  EXPECT_EQ(parsed->value, msg.value);
  EXPECT_EQ(parsed->sig.level, 3);
  EXPECT_EQ(parsed->sig.data, msg.sig.data);
}

TEST(AgreedMsg, DeserializeGarbageFails) {
  EXPECT_FALSE(AgreedMsg::deserialize(std::vector<std::uint8_t>{1, 2, 3}).has_value());
  EXPECT_FALSE(AgreedMsg::deserialize(std::vector<std::uint8_t>{}).has_value());
}

TEST(AgreedMsg, SignedBytesBindAllFields) {
  const Value v{9, 9};
  const auto base = AgreedMsg::signed_bytes(1, 2, 3, v);
  EXPECT_NE(AgreedMsg::signed_bytes(9, 2, 3, v), base);  // source
  EXPECT_NE(AgreedMsg::signed_bytes(1, 9, 3, v), base);  // round
  EXPECT_NE(AgreedMsg::signed_bytes(1, 2, 9, v), base);  // level
  EXPECT_NE(AgreedMsg::signed_bytes(1, 2, 3, Value{8, 8}), base);  // value
}

TEST(StsBeacon, AuthBytesBindNeighborList) {
  const std::vector<sim::NodeId> n1{1, 2, 3};
  const std::vector<sim::NodeId> n2{1, 2, 4};
  EXPECT_NE(StsBeacon::auth_bytes(0, 1, {5, 5}, n1), StsBeacon::auth_bytes(0, 1, {5, 5}, n2));
  EXPECT_NE(StsBeacon::auth_bytes(0, 1, {5, 5}, n1), StsBeacon::auth_bytes(0, 2, {5, 5}, n1));
  EXPECT_EQ(StsBeacon::auth_bytes(0, 1, {5, 5}, n1), StsBeacon::auth_bytes(0, 1, {5, 5}, n1));
}

}  // namespace
}  // namespace icc::core
