// Radio energy accounting, following the ns-2 energy model the paper uses:
// the interface draws Tx power while transmitting, Rx power while the radio
// is locked onto a frame, and idle power otherwise (Fig 7/8 parameters:
// Tx 660 mW, Rx 395 mW, Idle 35 mW).
#pragma once

#include "sim/check.hpp"
#include "sim/types.hpp"

namespace icc::sim {

/// Radio power draw in watts for the three states.
struct EnergyParams {
  double tx_w{0.660};
  double rx_w{0.395};
  double idle_w{0.035};
};

/// Accumulates radio airtime per state; total energy is derived lazily so
/// the hot path only sums two doubles.
class EnergyMeter {
 public:
  void charge_tx(double seconds) noexcept {
    ICC_ASSERT(seconds >= 0.0, "radio airtime charges must be non-negative");
    tx_time_ += seconds;
  }
  void charge_rx(double seconds) noexcept {
    ICC_ASSERT(seconds >= 0.0, "radio airtime charges must be non-negative");
    rx_time_ += seconds;
  }
  /// Non-radio consumption (e.g., cryptographic operations, §4's
  /// Crypto-Processor vs software trade-off), in joules.
  void charge_extra(double joules) noexcept {
    ICC_ASSERT(joules >= 0.0, "energy charges must be non-negative");
    extra_j_ += joules;
  }

  [[nodiscard]] double tx_time() const noexcept { return tx_time_; }
  [[nodiscard]] double rx_time() const noexcept { return rx_time_; }
  [[nodiscard]] double extra_joules() const noexcept { return extra_j_; }

  /// Total joules consumed over a run of `elapsed` seconds.
  [[nodiscard]] double total_joules(const EnergyParams& p, Time elapsed) const noexcept {
    const double idle_time = elapsed - tx_time_ - rx_time_;
    return p.tx_w * tx_time_ + p.rx_w * rx_time_ +
           p.idle_w * (idle_time > 0 ? idle_time : 0.0) + extra_j_;
  }

 private:
  double tx_time_{0.0};
  double rx_time_{0.0};
  double extra_j_{0.0};
};

}  // namespace icc::sim
