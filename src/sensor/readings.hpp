// Wire formats for sensor target notifications: the raw per-sensor reading
// <t_i, E_i, u_i> (§5.2) and the fused notification produced by inner-circle
// statistical voting.
#pragma once

#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "core/wire.hpp"
#include "sim/types.hpp"
#include "sim/vec2.hpp"

namespace icc::sensor {

/// A single sensor's target notification <t_i, E_i, u_i>.
struct Reading {
  sim::Time t{0.0};     ///< detection time
  double energy{0.0};   ///< sensed energy E_i
  sim::Vec2 pos;        ///< the sensor's position estimate u_i (= s_i)
  static auto fields(auto& m) { return std::tie(m.t, m.energy, m.pos.x, m.pos.y); }

  [[nodiscard]] std::vector<std::uint8_t> serialize() const {
    return core::to_bytes(fields(*this));
  }

  [[nodiscard]] static std::optional<Reading> deserialize(
      std::span<const std::uint8_t> bytes) {
    Reading out;
    if (!core::from_bytes(bytes, fields(out))) return std::nullopt;
    return out;
  }

  static constexpr std::uint32_t kWireSize = 32;
};

/// The inner-circle fused notification: detection time, estimated target
/// position (trilateration + FT-cluster), estimated source power, and the
/// number of corroborating detectors.
struct FusedNotification {
  sim::Time t{0.0};
  sim::Vec2 target_pos;
  double est_power{0.0};
  std::uint32_t detectors{0};
  bool valid{false};  ///< the fusion produced a consistent estimate
  static auto fields(auto& m) {
    return std::tie(m.t, m.target_pos.x, m.target_pos.y, m.est_power, m.detectors, m.valid);
  }

  [[nodiscard]] std::vector<std::uint8_t> serialize() const {
    return core::to_bytes(fields(*this));
  }

  [[nodiscard]] static std::optional<FusedNotification> deserialize(
      std::span<const std::uint8_t> bytes) {
    FusedNotification out;
    if (!core::from_bytes(bytes, fields(out))) return std::nullopt;
    return out;
  }
};

}  // namespace icc::sensor
