// The base station (upper-layer gateway of the §3/§5.2 hierarchy): receives
// target notifications over diffusion and keeps the detection log the
// experiment metrics are computed from. In inner-circle mode it accepts only
// notifications wrapped in a valid level-L agreed message (the Integrity
// property — the base station trusts no individual sensor).
#pragma once

#include <unordered_map>
#include <vector>

#include "crypto/scheme.hpp"
#include "sensor/diffusion.hpp"
#include "sensor/readings.hpp"

namespace icc::sensor {

class BaseStation {
 public:
  struct Detection {
    sim::Time arrival{0.0};    ///< when the notification reached the station
    sim::Time claimed_t{0.0};  ///< the detection time the notification reports
    sim::Vec2 pos;             ///< reported target position
    std::uint32_t detectors{1};
    sim::NodeId reporter{sim::kNoNode};
  };

  /// Centralized detection rule: the station declares a target when one
  /// sensor's stream shows `debounce` consecutive over-threshold readings
  /// (the temporal corroboration that keeps the per-sensor false-alarm rate
  /// in check when no spatial corroboration is available).
  struct CentralizedRule {
    double lambda{6.635};
    sim::Time sample_period{5.0};
    int debounce{2};
  };

  /// `scheme` non-null => inner-circle mode (verify agreed messages).
  BaseStation(net::Host& node, Diffusion& diffusion, const crypto::ThresholdScheme* scheme,
              CentralizedRule rule);

  [[nodiscard]] const std::vector<Detection>& detections() const noexcept {
    return detections_;
  }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

  [[nodiscard]] std::uint64_t readings_received() const noexcept { return readings_; }

 private:
  void handle_notification(const NotificationMsg& msg);

  struct SensorStream {
    sim::Time last_t{-1e18};
    int consecutive{0};
  };

  net::Host& node_;
  const crypto::ThresholdScheme* scheme_;
  CentralizedRule rule_;
  std::vector<Detection> detections_;
  std::unordered_map<sim::NodeId, SensorStream> streams_;
  std::uint64_t rejected_{0};
  std::uint64_t readings_{0};
};

}  // namespace icc::sensor
