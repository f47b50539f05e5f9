#include "net/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "net/codec.hpp"

namespace icc::net {

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

constexpr std::size_t kMaxDatagram = 65507;

// Deployment-mode setup errors are real runtime failures (a bad
// configuration, port in use, fd limits), not debug invariants — fail
// unconditionally, not via ICC_CHECK, which compiles out in Release. `err`
// is the errno of a failed system call; configuration errors pass 0, since
// whatever errno holds then is stale.
[[noreturn]] void fatal(const char* msg, int err = 0) {
  if (err != 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): abort path; nothing races a dying process
    std::fprintf(stderr, "net: fatal: %s (errno: %s)\n", msg, std::strerror(err));
  } else {
    std::fprintf(stderr, "net: fatal: %s\n", msg);
  }
  std::abort();
}

}  // namespace

UdpHost::UdpHost(UdpConfig config)
    : config_{config},
      clock_{config.epoch_unix_us},
      rng_{config.seed},
      next_uid_{((static_cast<std::uint64_t>(config.id) + 1) << 40) | 1},
      stack_{*this, config.id},
      tx_frames_id_{metrics().counter_id("net.udp.tx_frames")},
      rx_frames_id_{metrics().counter_id("net.udp.rx_frames")},
      rx_rejected_id_{metrics().counter_id("net.udp.rx_rejected")} {
  if (config_.num_nodes <= config_.id) fatal("node id outside the testnet size");
  if (!(config_.fault_loss >= 0.0 && config_.fault_loss <= 1.0)) {
    fatal("UdpConfig::fault_loss outside [0, 1]");
  }
  if (!(config_.fault_reorder >= 0.0 && config_.fault_reorder <= 1.0)) {
    fatal("UdpConfig::fault_reorder outside [0, 1]");
  }
  if (config_.fault_loss > 0.0 || config_.fault_reorder > 0.0) {
    // Fork only when armed: fork() advances the parent stream, and an
    // unimpaired host must draw exactly what it always drew.
    fault_rng_ = rng_.fork(0xFA171ull);
  }
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) fatal("udp socket creation failed", errno);
  const sockaddr_in addr =
      loopback_addr(static_cast<std::uint16_t>(config_.base_port + config_.id));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    fatal("udp bind failed (port already in use?)", errno);
  }
  rx_scratch_.resize(kMaxDatagram);
}

UdpHost::~UdpHost() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpHost::send(sim::Packet packet, sim::NodeId next_hop) {
  if (stack_.admit(packet, next_hop)) send_unfiltered(std::move(packet), next_hop);
}

void UdpHost::send_unfiltered(sim::Packet packet, sim::NodeId next_hop) {
  stack_.stamp(packet);
  sim::Frame frame;
  frame.tx = id();
  frame.rx = next_hop;
  frame.packet = std::move(packet);
  if (!encode_frame(frame, tx_scratch_)) {
    metrics_.add_named("net.udp.uncodable");
    return;
  }
  tracer_.emit({now(), sim::TraceType::kPacketTx, id(), frame.rx, frame.packet.uid,
                frame.packet.size_bytes, 0.0, nullptr, frame.packet.uid,
                frame.packet.parent});
  metrics().add(tx_frames_id_);
  broadcast_bytes(tx_scratch_);
}

void UdpHost::broadcast_bytes(const std::vector<std::uint8_t>& bytes) {
  // Shared-medium emulation: every frame reaches every peer; the receiver
  // decides between delivery and promiscuous overhearing.
  for (std::size_t peer = 0; peer < config_.num_nodes; ++peer) {
    if (peer == config_.id) continue;
    if (config_.fault_loss > 0.0 && fault_rng_.chance(config_.fault_loss)) {
      metrics_.add_named("net.udp.fault_dropped");
      continue;
    }
    if (config_.fault_reorder > 0.0 && !holding_ && fault_rng_.chance(config_.fault_reorder)) {
      // Hold this copy; it goes out right after the *next* datagram to the
      // wire, i.e. one slot late — a minimal, bounded reordering.
      held_datagram_ = bytes;
      held_peer_ = peer;
      holding_ = true;
      metrics_.add_named("net.udp.fault_reordered");
      continue;
    }
    send_datagram(peer, bytes);
    if (holding_) {
      holding_ = false;
      send_datagram(held_peer_, held_datagram_);
    }
  }
}

void UdpHost::send_datagram(std::size_t peer, const std::vector<std::uint8_t>& bytes) {
  const sockaddr_in addr =
      loopback_addr(static_cast<std::uint16_t>(config_.base_port + peer));
  int backoff_us = 100;
  for (int attempt = 0;; ++attempt) {
    const ssize_t n = ::sendto(fd_, bytes.data(), bytes.size(), 0,
                               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (n >= 0) {
      if (attempt > 0) metrics_.add_named("net.udp.tx_retries", static_cast<double>(attempt));
      return;
    }
    const bool transient =
        errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS || errno == EINTR;
    if (!transient || attempt >= 6) {
      // Radios lose frames; so can we. Count it and keep serving — a burst
      // of ENOBUFS must not kill a daemon that will be fine in a millisecond.
      metrics_.add_named("net.udp.tx_failed");
      return;
    }
    ::usleep(static_cast<useconds_t>(backoff_us));
    backoff_us = std::min(backoff_us * 2, 5000);
  }
}

void UdpHost::drain_socket() {
  for (;;) {
    const ssize_t n = ::recv(fd_, rx_scratch_.data(), rx_scratch_.size(), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient socket error: drop and keep serving
    }
    metrics().add(rx_frames_id_);
    const DecodeResult decoded =
        decode_frame(std::span{rx_scratch_.data(), static_cast<std::size_t>(n)});
    if (!decoded) {
      metrics().add(rx_rejected_id_);
      tracer_.emit({now(), sim::TraceType::kPacketDrop, id(), sim::kNoNode, 0, 0, 0.0,
                    decode_error_name(decoded.error)});
      continue;
    }
    dispatch(decoded.frame);
  }
}

void UdpHost::dispatch(const sim::Frame& frame) {
  // Every peer hears every frame, our own echo included; nothing is acked.
  if (frame.tx == id() || frame.is_ack) return;
  stack_.receive(frame, false);
}

Time UdpHost::run_until(Time until) {
  while (!stop_requested()) {
    clock_.fire_due();
    drain_socket();
    const Time t = now();
    if (t >= until) break;
    const Time next = std::min(clock_.next_deadline(), until);
    const double wait_s = next - t;
    if (wait_s <= 0.0) continue;
    // Cap the sleep so stop requests and freshly arrived datagrams are
    // noticed promptly even with a far-out next timer.
    const int timeout_ms = static_cast<int>(std::min(wait_s * 1000.0, 50.0)) + 1;
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    (void)::poll(&pfd, 1, timeout_ms);
  }
  return now();
}

}  // namespace icc::net
