// In-process tests for the deployment-mode plumbing: SteadyClock timer
// behavior and UdpHost loopback delivery — unicast dispatch, broadcast,
// promiscuous overhearing, inbound and outbound filters, lineage, link
// impairment, and malformed-datagram rejection. The multi-process path is
// exercised by tools/testnet.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "aodv/messages.hpp"
#include "exp/env.hpp"
#include "net/steady_clock.hpp"
#include "net/udp.hpp"

namespace icc::net {
namespace {

std::uint16_t test_base_port(int offset) {
  // Derive from the pid so parallel ctest invocations do not collide.
  return static_cast<std::uint16_t>(40000 + (::getpid() * 13 + offset * 101) % 20000);
}

// ------------------------------------------------------------- SteadyClock

TEST(SteadyClockTest, TimersFireInDeadlineOrder) {
  SteadyClock clock;
  std::vector<int> fired;
  clock.schedule_at(clock.now() - 0.001, [&] { fired.push_back(2); });
  clock.schedule_at(clock.now() - 0.002, [&] { fired.push_back(1); });
  clock.schedule_at(clock.now() + 60.0, [&] { fired.push_back(3); });
  EXPECT_EQ(clock.fire_due(), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_LE(clock.next_deadline() - clock.now(), 60.0);
}

TEST(SteadyClockTest, CancelAndPending) {
  SteadyClock clock;
  bool fired = false;
  const TimerId id = clock.schedule_in(0.0, [&] { fired = true; });
  EXPECT_TRUE(clock.pending(id));
  clock.cancel(id);
  EXPECT_FALSE(clock.pending(id));
  clock.fire_due();
  EXPECT_FALSE(fired);
}

TEST(SteadyClockTest, DueTimerArmedByCallbackFiresSamePass) {
  SteadyClock clock;
  int count = 0;
  clock.schedule_at(clock.now(), [&] {
    ++count;
    clock.schedule_at(clock.now(), [&] { ++count; });
  });
  EXPECT_EQ(clock.fire_due(), 2u);
  EXPECT_EQ(count, 2);
}

TEST(SteadyClockTest, SharedEpochAlignsProcesses) {
  const std::int64_t epoch =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count() -
      2'000'000;  // run started "two seconds ago"
  SteadyClock clock{epoch};
  EXPECT_GE(clock.now(), 1.9);
  EXPECT_LT(clock.now(), 10.0);
}

// ----------------------------------------------------------------- UdpHost

sim::Packet data_packet(sim::NodeId src, sim::NodeId dst) {
  auto body = std::make_shared<aodv::DataMsg>();
  body->app_uid = 7;
  sim::Packet p;
  p.src = src;
  p.dst = dst;
  p.port = sim::Port::kAodv;
  p.size_bytes = 64;
  p.body = std::move(body);
  return p;
}

void pump(UdpHost& host, double seconds = 0.02) {
  host.run_until(host.now() + seconds);
}

TEST(UdpHostTest, UnicastDeliversAndThirdPartyOverhears) {
  const std::uint16_t base = test_base_port(0);
  UdpHost a{{0, 3, base, 1}};
  UdpHost b{{1, 3, base, 1}};
  UdpHost c{{2, 3, base, 1}};

  int b_received = 0;
  b.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet& p, sim::NodeId from) {
                                   EXPECT_EQ(from, 0u);
                                   EXPECT_NE(p.body_as<aodv::DataMsg>(), nullptr);
                                   ++b_received;
                                 });
  int c_received = 0;
  c.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet&, sim::NodeId) { ++c_received; });
  int c_overheard = 0;
  c.transport().add_promiscuous_listener([&](const sim::Frame& f) {
    EXPECT_EQ(f.tx, 0u);
    EXPECT_EQ(f.rx, 1u);
    ++c_overheard;
  });

  a.transport().send(data_packet(0, 1), 1);
  for (int i = 0; i < 50 && (b_received == 0 || c_overheard == 0); ++i) {
    pump(b);
    pump(c);
  }
  EXPECT_EQ(b_received, 1);
  EXPECT_EQ(c_overheard, 1);
  EXPECT_EQ(c_received, 0) << "frame addressed to 1 must not be delivered at 2";
}

TEST(UdpHostTest, BroadcastReachesEveryPeer) {
  const std::uint16_t base = test_base_port(1);
  UdpHost a{{0, 3, base, 1}};
  UdpHost b{{1, 3, base, 1}};
  UdpHost c{{2, 3, base, 1}};
  int delivered = 0;
  for (UdpHost* h : {&b, &c}) {
    h->transport().register_handler(sim::Port::kAodv,
                                    [&](const sim::Packet&, sim::NodeId) { ++delivered; });
  }
  a.transport().send(data_packet(0, sim::kBroadcast), sim::kBroadcast);
  for (int i = 0; i < 50 && delivered < 2; ++i) {
    pump(b);
    pump(c);
  }
  EXPECT_EQ(delivered, 2);
}

TEST(UdpHostTest, InboundFilterDropsBeforeHandler) {
  const std::uint16_t base = test_base_port(2);
  UdpHost a{{0, 2, base, 1}};
  UdpHost b{{1, 2, base, 1}};
  int delivered = 0;
  b.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet&, sim::NodeId) { ++delivered; });
  b.transport().add_inbound_filter(
      [](const sim::Packet&, sim::NodeId) { return FilterVerdict::kDrop; });
  a.transport().send(data_packet(0, 1), 1);
  for (int i = 0; i < 20; ++i) pump(b, 0.01);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(b.metrics().counter_value("node.inbound_dropped"), 1.0);
}

TEST(UdpHostTest, GarbageDatagramRejectedNotCrashed) {
  const std::uint16_t base = test_base_port(3);
  UdpHost a{{0, 2, base, 1}};
  UdpHost b{{1, 2, base, 1}};
  (void)a;

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(base + 1));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const std::uint8_t garbage[] = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5};
  ASSERT_GT(::sendto(fd, garbage, sizeof(garbage), 0,
                     reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);

  for (int i = 0; i < 50 && b.metrics().counter_value("net.udp.rx_rejected") == 0.0; ++i) {
    pump(b, 0.01);
  }
  EXPECT_EQ(b.metrics().counter_value("net.udp.rx_rejected"), 1.0);
}

TEST(UdpHostTest, FaultLossDropsEveryDatagram) {
  const std::uint16_t base = test_base_port(5);
  UdpConfig lossy{0, 2, base, 1};
  lossy.fault_loss = 1.0;  // certain loss: the wire never sees a byte
  UdpHost a{lossy};
  UdpHost b{{1, 2, base, 1}};
  int delivered = 0;
  b.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet&, sim::NodeId) { ++delivered; });
  for (int i = 0; i < 5; ++i) a.transport().send(data_packet(0, 1), 1);
  for (int i = 0; i < 20; ++i) pump(b, 0.01);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(a.metrics().counter_value("net.udp.fault_dropped"), 5.0);
}

TEST(UdpHostTest, FaultReorderSwapsAdjacentDatagrams) {
  const std::uint16_t base = test_base_port(6);
  UdpConfig jumbled{0, 2, base, 1};
  jumbled.fault_reorder = 1.0;  // hold every datagram one slot
  UdpHost a{jumbled};
  UdpHost b{{1, 2, base, 1}};
  std::vector<std::uint64_t> arrived;
  b.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet& p, sim::NodeId) {
                                   arrived.push_back(p.body_as<aodv::DataMsg>()->app_uid);
                                 });
  // With certain reordering, datagram 1 is held until datagram 2 goes to
  // the wire, so the receiver sees them swapped — a minimal, bounded
  // reordering rather than an unbounded shuffle.
  for (std::uint64_t uid : {1u, 2u}) {
    sim::Packet p = data_packet(0, 1);
    auto body = std::make_shared<aodv::DataMsg>();
    body->app_uid = uid;
    p.body = std::move(body);
    a.transport().send(std::move(p), 1);
  }
  for (int i = 0; i < 50 && arrived.size() < 2; ++i) pump(b, 0.01);
  ASSERT_EQ(arrived.size(), 2u);
  EXPECT_EQ(arrived[0], 2u);
  EXPECT_EQ(arrived[1], 1u);
  EXPECT_EQ(a.metrics().counter_value("net.udp.fault_reordered"), 1.0);
}

// An explicit UdpConfig is the whole truth: the ICC_NET_* variables are
// tools/icnode's to read, so setting them to 0 must not disarm a host
// configured for certain loss.
TEST(UdpHostTest, ExplicitImpairmentIgnoresEnvironment) {
  struct ZeroedEnv {
    const char* name;
    std::string saved;  ///< "" when unset (an empty value reads as unset)
    explicit ZeroedEnv(const char* n) : name{n}, saved{exp::env_string(n)} {
      ::setenv(name, "0", 1);
    }
    ~ZeroedEnv() {
      if (saved.empty()) {
        ::unsetenv(name);
      } else {
        ::setenv(name, saved.c_str(), 1);
      }
    }
  };
  const ZeroedEnv loss{"ICC_NET_LOSS"};
  const ZeroedEnv reorder{"ICC_NET_REORDER"};
  const std::uint16_t base = test_base_port(7);
  UdpConfig lossy{0, 2, base, 1};
  lossy.fault_loss = 1.0;
  UdpHost a{lossy};
  for (int i = 0; i < 5; ++i) a.transport().send(data_packet(0, 1), 1);
  EXPECT_EQ(a.metrics().counter_value("net.udp.fault_dropped"), 5.0);
}

// A configuration error names the setting and ends there: errno belongs to
// socket and bind failures, and whatever it holds before them is stale.
TEST(UdpHostDeathTest, OutOfRangeLossCarriesNoErrno) {
  UdpConfig config{0, 2, test_base_port(12), 1};
  config.fault_loss = 2.0;
  EXPECT_DEATH(UdpHost{config}, "net: fatal: UdpConfig::fault_loss outside \\[0, 1\\]\n$");
}

// kDrop and kConsumed both keep the frame off the wire (only the drop is
// counted and traced); send_unfiltered bypasses the chain.
TEST(UdpHostTest, OutboundFiltersGateTheWire) {
  const std::uint16_t base = test_base_port(8);
  UdpHost a{{0, 2, base, 1}};
  UdpHost b{{1, 2, base, 1}};
  sim::CollectingTraceSink sink;
  a.tracer().add_sink(&sink, sim::Tracer::parse_mask("packet"));
  FilterVerdict verdict = FilterVerdict::kDrop;
  a.transport().add_outbound_filter([&verdict](const sim::Packet&, sim::NodeId) {
    return verdict;
  });
  int delivered = 0;
  b.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet&, sim::NodeId) { ++delivered; });

  a.transport().send(data_packet(0, 1), 1);
  verdict = FilterVerdict::kConsumed;
  a.transport().send(data_packet(0, 1), 1);
  for (int i = 0; i < 10; ++i) pump(b, 0.01);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(a.metrics().counter_value("net.udp.tx_frames"), 0.0);
  EXPECT_EQ(a.metrics().counter_value("node.outbound_dropped"), 1.0);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].type, sim::TraceType::kPacketDrop);
  EXPECT_STREQ(sink.events()[0].detail, "outbound_filter");

  a.transport().send_unfiltered(data_packet(0, 1), 1);
  for (int i = 0; i < 50 && delivered == 0; ++i) pump(b, 0.01);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(a.metrics().counter_value("net.udp.tx_frames"), 1.0);
}

// Lineage across processes: a send inside a LineageScope takes the scope's
// span as its parent, a forwarded packet keeps its parent, and a handler's
// reply descends from the packet it answers.
TEST(UdpHostTest, LineageFollowsScopesForwardsAndReplies) {
  const std::uint16_t base = test_base_port(9);
  UdpHost a{{0, 3, base, 1}};
  UdpHost b{{1, 3, base, 1}};
  UdpHost c{{2, 3, base, 1}};
  struct Seen {
    std::uint64_t uid{0};
    std::uint64_t parent{0};
  };
  Seen at_b;
  Seen at_c;
  Seen reply_at_a;
  b.transport().register_handler(sim::Port::kAodv, [&](const sim::Packet& p, sim::NodeId from) {
    at_b = {p.uid, p.parent};
    b.transport().send(p, 2);                     // forward
    b.transport().send(data_packet(1, 0), from);  // reply, a fresh packet
  });
  c.transport().register_handler(sim::Port::kAodv, [&](const sim::Packet& p, sim::NodeId) {
    at_c = {p.uid, p.parent};
  });
  a.transport().register_handler(sim::Port::kAodv, [&](const sim::Packet& p, sim::NodeId) {
    reply_at_a = {p.uid, p.parent};
  });

  constexpr std::uint64_t kCause = 42;
  {
    const LineageScope scope{a, kCause};
    a.transport().send(data_packet(0, 1), 1);
  }
  for (int i = 0; i < 50 && (at_c.uid == 0 || reply_at_a.uid == 0); ++i) {
    pump(b);
    pump(c);
    pump(a);
  }
  EXPECT_EQ(at_b.uid >> 40, 1u) << "uid drawn from the sender's namespace";
  EXPECT_EQ(at_b.parent, kCause);
  EXPECT_EQ(at_c.uid, at_b.uid);
  EXPECT_EQ(at_c.parent, kCause);
  EXPECT_EQ(reply_at_a.uid >> 40, 2u);
  EXPECT_EQ(reply_at_a.parent, at_b.uid);
}

TEST(UdpHostTest, UidNamespacesNeverCollide) {
  const std::uint16_t base = test_base_port(4);
  UdpHost a{{0, 2, base, 1}};
  UdpHost b{{1, 2, base, 1}};
  const std::uint64_t ua = a.next_packet_uid();
  const std::uint64_t ub = b.next_packet_uid();
  EXPECT_NE(ua >> 40, ub >> 40);
  EXPECT_EQ(ua >> 40, 1u);
  EXPECT_EQ(ub >> 40, 2u);
}

}  // namespace
}  // namespace icc::net
