#include "sensor/app.hpp"

#include "fault/ledger.hpp"
#include "sim/world.hpp"

namespace icc::sensor {

namespace {
constexpr std::uint64_t kSensorRngSalt = 0x5E5E00ull;
}

SensorApp::SensorApp(sim::Node& node, Diffusion& diffusion, const TargetField& field,
                     Params params, core::InnerCircleNode* icc)
    : node_{node},
      diffusion_{diffusion},
      field_{field},
      params_{params},
      icc_{icc},
      rng_{node.fork_rng(kSensorRngSalt + node.id())} {
  reported_pos_ = node_.position();
  if (params_.fault == FaultType::kPositionError) {
    // "a faulty sensor i has an incorrect estimate of its own position:
    //  s_i ~ Uniform(R)"
    const auto& wc = node_.world().config();
    reported_pos_ = rng_.point_in(wc.width, wc.height);
  }
  if (icc_ != nullptr) install_callbacks();
  // Sampling phases are independent across sensors.
  node_.clock().schedule_in(rng_.uniform(0.0, params_.sample_period),
                                    [this] { sample_tick(); }, net::EventTag::kSensor);
}

double SensorApp::measure(sim::Time t) {
  const FaultType fault =
      params_.fault != FaultType::kNone && params_.fault_when.active_at(t)
          ? params_.fault
          : FaultType::kNone;
  // The clean path samples through the same call so the RNG draw count is
  // identical whether or not a fault (or its schedule) is live.
  const double energy = field_.sample(node_.position(), t, fault, params_.fault_params, rng_);
  if (fault != FaultType::kNone) {
    fault::report_injected(node_, fault::FaultClass::kSensor, node_.id());
  }
  return energy;
}

void SensorApp::sample_tick() {
  const sim::Time t = node_.now();
  const double energy = measure(t);
  latest_ = Reading{t, energy, reported_pos_};
  has_reading_ = true;
  node_.metrics().add_named("sensor.samples");

  const bool detected = energy > field_.model().lambda;
  consecutive_ = detected ? consecutive_ + 1 : 0;

  if (icc_ == nullptr) {
    // Centralized: raw data collection — every sample is shipped to the
    // base station, which runs detection centrally ("the base station
    // collects raw target notifications as they are generated", §5.2).
    node_.metrics().add_named("sensor.notifications");
    diffusion_.send_to_sink(latest_.serialize());
  } else if (detected && !suppressed()) {
    // Inner-circle: the first unsuppressed detector of the epoch initiates
    // statistical voting over its own reading.
    node_.metrics().add_named("sensor.rounds_initiated");
    icc_->initiate(latest_.serialize());
  }

  node_.clock().schedule_in(params_.sample_period, [this] { sample_tick(); },
                                    net::EventTag::kSensor);
}

bool SensorApp::suppressed() const {
  return node_.now() - last_agreed_seen_ < params_.suppression_window;
}

void SensorApp::install_callbacks() {
  core::Callbacks& cb = icc_->callbacks();

  // getVal: take a fresh on-demand measurement and contribute it only if it
  // is itself a detection — the circle corroborates detections, it does not
  // manufacture them (this is what drives both false alarms and misses,
  // §5.2). Event-triggered sampling keeps corroboration latency at the
  // voting-round scale instead of the sampling-period scale.
  cb.get_value = [this](sim::NodeId, const core::Value& topic)
      -> std::optional<core::Value> {
    const auto center_reading = Reading::deserialize(topic);
    if (!center_reading) return std::nullopt;
    const sim::Time t = node_.now();
    const double energy = measure(t);
    node_.metrics().add_named("sensor.ondemand_samples");
    if (energy <= field_.model().lambda) return std::nullopt;
    return Reading{t, energy, reported_pos_}.serialize();
  };

  // fuseVal: trilateration + FT-cluster (fusion_rules.hpp).
  cb.fuse = [this](const std::vector<std::pair<sim::NodeId, core::Value>>& values)
      -> core::Value {
    std::vector<std::pair<sim::NodeId, Reading>> readings;
    readings.reserve(values.size());
    for (const auto& [id, bytes] : values) {
      if (const auto r = Reading::deserialize(bytes)) readings.emplace_back(id, *r);
    }
    // Readings the FT-cluster refinement rejects are *detected* sensor
    // faults, attributed to the contributing sensor. Validators recompute
    // the fusion, so a rejection can be reported by several circle members;
    // the ledger's capped rows absorb that multiplicity.
    std::vector<sim::NodeId> rejected;
    const FusedNotification fused =
        fuse_readings(field_.model(), readings, params_.fusion, &rejected);
    for (const sim::NodeId id : rejected) {
      node_.metrics().add_named("sensor.readings_rejected");
      fault::report_detected(node_, fault::FaultClass::kSensor, id);
    }
    last_fused_dropped_ = std::move(rejected);
    return fused.serialize();
  };

  // check: the fused notification must describe a physically consistent
  // detection.
  cb.check = [](sim::NodeId, const core::Value& fused_bytes) {
    const auto fused = FusedNotification::deserialize(fused_bytes);
    return fused.has_value() && fused->valid;
  };

  // onAgr: the center forwards the self-checking agreed message to the base
  // station; every circle member (center included) mutes its own redundant
  // reporting for the epoch.
  cb.on_agreed = [this](const core::AgreedMsg& msg, bool is_center) {
    last_agreed_seen_ = node_.now();
    if (is_center) {
      // The agreed notification excludes the readings our fusion rejected:
      // those faults were masked, which is the neutralization the ledger
      // tracks. Only the center reports (its fusion is the accepted one).
      for (const sim::NodeId id : last_fused_dropped_) {
        fault::report_neutralized(node_, fault::FaultClass::kSensor, id);
      }
      last_fused_dropped_.clear();
      node_.metrics().add_named("sensor.notifications");
      diffusion_.send_to_sink(msg.serialize());
    }
  };
}

}  // namespace icc::sensor
