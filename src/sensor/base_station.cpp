#include "sensor/base_station.hpp"

#include "core/messages.hpp"
#include "sim/trace.hpp"

namespace icc::sensor {

BaseStation::BaseStation(net::Host& node, Diffusion& diffusion,
                         const crypto::ThresholdScheme* scheme, CentralizedRule rule)
    : node_{node}, scheme_{scheme}, rule_{rule} {
  diffusion.set_sink_handler([this](const NotificationMsg& msg, sim::NodeId) {
    handle_notification(msg);
  });
}

void BaseStation::handle_notification(const NotificationMsg& msg) {
  const sim::Time now = node_.now();
  if (scheme_ == nullptr) {
    // Centralized: a raw sample from one sensor's stream. Run the detection
    // rule here — declare when `debounce` consecutive samples from the same
    // sensor clear the threshold.
    const auto reading = Reading::deserialize(msg.data);
    if (!reading) {
      ++rejected_;
      return;
    }
    ++readings_;
    SensorStream& stream = streams_[msg.origin];
    if (reading->energy > rule_.lambda) {
      const bool consecutive_epoch =
          reading->t - stream.last_t < 1.6 * rule_.sample_period;
      stream.consecutive = consecutive_epoch ? stream.consecutive + 1 : 1;
      stream.last_t = reading->t;
      if (stream.consecutive >= rule_.debounce) {
        detections_.push_back(Detection{now, reading->t, reading->pos, 1, msg.origin});
      }
    } else {
      stream.consecutive = 0;
      stream.last_t = reading->t;
    }
    return;
  }

  // Inner-circle: unwrap and verify the agreed message before trusting it.
  const auto agreed = core::AgreedMsg::deserialize(msg.data);
  if (!agreed) {
    ++rejected_;
    return;
  }
  const auto signed_bytes = core::AgreedMsg::signed_bytes(agreed->source, agreed->round,
                                                          agreed->level, agreed->value);
  if (agreed->sig.level != agreed->level || !scheme_->verify(signed_bytes, agreed->sig)) {
    ++rejected_;
    node_.metrics().add_named("bs.agreed_rejected");
    node_.tracer().emit({now, sim::TraceType::kFusionDecision, node_.id(),
                         agreed->source, agreed->round, 0, 0.0, "rejected_signature"});
    return;
  }
  const auto fused = FusedNotification::deserialize(agreed->value);
  if (!fused || !fused->valid) {
    ++rejected_;
    node_.tracer().emit({now, sim::TraceType::kFusionDecision, node_.id(),
                         agreed->source, agreed->round, 0, 0.0, "rejected_payload"});
    return;
  }
  node_.tracer().emit({now, sim::TraceType::kFusionDecision, node_.id(),
                       agreed->source, agreed->round, 0,
                       static_cast<double>(fused->detectors), "accepted"});
  detections_.push_back(
      Detection{now, fused->t, fused->target_pos, fused->detectors, agreed->source});
}

}  // namespace icc::sensor
