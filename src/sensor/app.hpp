// Sensor-node application for the target detection/localization study
// (§5.2), in its two configurations:
//
//  * Centralized ("No IC"): every sensor that detects (with a consecutive-
//    sample debounce to keep its individual false-alarm rate in check)
//    sends its raw reading <t, E, u> to the base station over diffusion.
//
//  * Inner-circle: the first detector of an epoch becomes the center of a
//    statistical voting round; its circle contributes readings, the
//    FT-cluster fusion builds one validated, threshold-signed notification,
//    and circle members observing the agreed broadcast suppress their own
//    redundant notifications for that epoch.
#pragma once

#include <memory>
#include <optional>

#include "core/framework.hpp"
#include "fault/schedule.hpp"
#include "sensor/diffusion.hpp"
#include "sim/node.hpp"
#include "sensor/field.hpp"
#include "sensor/fusion_rules.hpp"
#include "sensor/readings.hpp"

namespace icc::sensor {

class SensorApp {
 public:
  struct Params {
    sim::Time sample_period{5.0};
    int debounce{2};  ///< centralized mode: consecutive detections required
    FaultType fault{FaultType::kNone};
    FaultParams fault_params{};
    /// When the fault corrupts samples (fault::SensorFault::when). Position
    /// error is the exception: the bad self-position is drawn once at
    /// startup, so the schedule only gates which *samples* ship it.
    fault::Schedule fault_when{fault::Schedule::always()};
    FusionParams fusion{};
    sim::Time suppression_window{6.0};  ///< IC: mute after an observed agreement
  };

  /// Centralized sensor (`icc == nullptr`) or inner-circle sensor.
  SensorApp(sim::Node& node, Diffusion& diffusion, const TargetField& field, Params params,
            core::InnerCircleNode* icc);

  [[nodiscard]] const Reading& latest_reading() const noexcept { return latest_; }
  [[nodiscard]] sim::Vec2 reported_position() const noexcept { return reported_pos_; }
  [[nodiscard]] FaultType fault() const noexcept { return params_.fault; }

 private:
  void sample_tick();
  void install_callbacks();
  [[nodiscard]] bool suppressed() const;
  /// One on-demand or periodic measurement: the configured fault is applied
  /// only inside its schedule, and every faulty sample is reported to the
  /// coverage ledger as an injected sensor fault.
  [[nodiscard]] double measure(sim::Time t);

  sim::Node& node_;
  Diffusion& diffusion_;
  const TargetField& field_;
  Params params_;
  core::InnerCircleNode* icc_;
  sim::Rng rng_;

  sim::Vec2 reported_pos_;  ///< == true position unless kPositionError
  Reading latest_{};
  bool has_reading_{false};
  int consecutive_{0};
  sim::Time last_agreed_seen_{-1e18};
  /// Reading ids the most recent local fusion rejected; on an agreement this
  /// node centered, those rejections become *neutralized* ledger rows (the
  /// faulty readings were kept out of the accepted notification).
  std::vector<sim::NodeId> last_fused_dropped_;
};

}  // namespace icc::sensor
