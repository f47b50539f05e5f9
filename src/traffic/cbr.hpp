// Constant-bit-rate UDP-style traffic over AODV routes: the workload of the
// paper's black hole study (10 connections, 4 packets/s, 512 bytes).
#pragma once

#include <cstdint>

#include "aodv/aodv.hpp"

namespace icc::traffic {

/// One unidirectional CBR flow. Counts sent packets; the sink side counts
/// deliveries and samples end-to-end latency into the world stats
/// ("cbr.sent", "cbr.received", "cbr.latency").
class CbrConnection {
 public:
  struct Params {
    double rate_pps{4.0};
    std::uint32_t packet_bytes{512};
    sim::Time start{0.0};
    sim::Time stop{1e18};
  };

  CbrConnection(aodv::Aodv& source, sim::NodeId dest, Params params);

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] sim::NodeId source() const { return source_.node().id(); }
  [[nodiscard]] sim::NodeId dest() const noexcept { return dest_; }

  /// Install the delivery-side accounting on a node's AODV agent. Call once
  /// per node that terminates at least one connection.
  static void attach_sink(aodv::Aodv& aodv);

 private:
  void send_next();

  aodv::Aodv& source_;
  sim::NodeId dest_;
  Params params_;
  std::uint64_t sent_{0};
  sim::MetricId m_sent_;
};

}  // namespace icc::traffic
