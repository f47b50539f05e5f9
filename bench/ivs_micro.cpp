// IVS protocol-cost study (§4.2): messages, on-air bytes, and completion
// latency of one inner-circle voting round as a function of the
// dependability level L and the voting mode, in a dense circle of 12 nodes
// (the 10-15-member regime the paper cites [22]). Also quantifies the §4
// Crypto-Processor ablation: round latency with hardware-assisted versus
// software cryptography cost models.
//
// Environment knobs: ICC_ROUNDS (default 40), ICC_JSON (structured JSON
// report path).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/framework.hpp"
#include "exp/env.hpp"
#include "exp/report.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "sim/report.hpp"
#include "sim/world.hpp"

namespace {

using namespace icc;

struct RoundCost {
  double msgs_per_round{0.0};
  double latency_ms{0.0};
  double completed{0.0};
};

RoundCost measure(int circle_size, int level, core::VotingMode mode,
                  core::CryptoCostModel cost, int rounds) {
  sim::WorldConfig config;
  config.width = 1000;
  config.height = 1000;
  config.tx_range = 250;
  config.seed = 97;
  sim::World world{config};
  crypto::ModelThresholdScheme scheme{3, std::max(level, 1), 1024};
  crypto::ModelPki pki{4, 1024};
  crypto::ModelCipher cipher;

  std::vector<std::unique_ptr<core::InnerCircleNode>> circles;
  for (int i = 0; i < circle_size; ++i) {
    sim::Node& node = world.add_node(std::make_unique<sim::StaticMobility>(
        sim::Vec2{400.0 + 40.0 * (i % 4), 400.0 + 40.0 * static_cast<double>(i / 4)}));
    core::InnerCircleConfig icc_config;
    icc_config.level = level;
    icc_config.mode = mode;
    icc_config.ivs.cost = cost;
    circles.push_back(std::make_unique<core::InnerCircleNode>(node, icc_config, scheme, pki,
                                                              cipher));
    auto& cb = circles.back()->callbacks();
    cb.check = [](sim::NodeId, const core::Value&) { return true; };
    cb.get_value = [](sim::NodeId, const core::Value& topic) -> std::optional<core::Value> {
      return topic;  // echo the solicited value
    };
    cb.fuse = [](const std::vector<std::pair<sim::NodeId, core::Value>>& values) {
      return values.front().second;
    };
    circles.back()->start();
  }
  world.run_until(5.0);  // STS bootstrap

  double latency_sum = 0.0;
  int completed = 0;
  circles[0]->callbacks().on_agreed = [&](const core::AgreedMsg&, bool is_center) {
    if (is_center) ++completed;
  };

  const std::uint64_t frames_before = world.medium().frames_sent();
  for (int r = 0; r < rounds; ++r) {
    const sim::Time start = 5.0 + 0.5 * r;
    world.sched().schedule_at(start, [&, start] {
      const int completed_before = completed;
      circles[0]->callbacks().on_agreed = [&, start, completed_before](
                                              const core::AgreedMsg&, bool is_center) {
        if (is_center) {
          ++completed;
          latency_sum += world.now() - start;
        }
      };
      circles[0]->initiate(core::Value(32, 0x42));
    });
  }
  world.run_until(5.0 + 0.5 * rounds + 2.0);

  // Remove the STS beacon background from the frame count: measure it from
  // a window with no voting.
  const std::uint64_t frames_during = world.medium().frames_sent() - frames_before;
  const double window = 0.5 * rounds + 2.0;
  const double beacon_rate = world.metrics().counter_value("sts.beacons_sent") / world.now();
  const double beacon_frames = beacon_rate * window;

  RoundCost out;
  out.completed = completed;
  out.msgs_per_round =
      (static_cast<double>(frames_during) - beacon_frames) / std::max(completed, 1);
  out.latency_ms = 1000.0 * latency_sum / std::max(completed, 1);
  return out;
}

}  // namespace

int main() {
  const int rounds = icc::exp::env_int("ICC_ROUNDS", 40);
  const int circle_size = 12;

  sim::RunReport report;
  report.set_meta("experiment", "ivs_micro");
  report.set_meta("rounds", rounds);
  report.set_meta("circle_size", circle_size);

  std::printf("IVS round cost, dense circle of %d nodes (%d rounds per cell)\n\n",
              circle_size, rounds);
  std::printf("%-3s | %-28s | %-28s\n", "L", "deterministic", "statistical");
  std::printf("%-3s | %9s %12s | %9s %12s\n", "", "msgs/rnd", "latency[ms]", "msgs/rnd",
              "latency[ms]");
  for (int level = 1; level <= 7; ++level) {
    const RoundCost det = measure(circle_size, level, core::VotingMode::kDeterministic,
                                  core::CryptoCostModel::hardware(), rounds);
    const RoundCost stat = measure(circle_size, level, core::VotingMode::kStatistical,
                                   core::CryptoCostModel::hardware(), rounds);
    std::printf("%-3d | %9.1f %12.2f | %9.1f %12.2f\n", level, det.msgs_per_round,
                det.latency_ms, stat.msgs_per_round, stat.latency_ms);
    const std::string row = "level" + std::to_string(level);
    report.add_gauge(row + ".det.msgs_per_round", det.msgs_per_round);
    report.add_gauge(row + ".det.latency_ms", det.latency_ms);
    report.add_gauge(row + ".stat.msgs_per_round", stat.msgs_per_round);
    report.add_gauge(row + ".stat.latency_ms", stat.latency_ms);
  }

  std::printf("\nCrypto-Processor ablation (deterministic, L=2): round latency\n");
  const RoundCost hw = measure(circle_size, 2, core::VotingMode::kDeterministic,
                               core::CryptoCostModel::hardware(), rounds);
  const RoundCost sw = measure(circle_size, 2, core::VotingMode::kDeterministic,
                               core::CryptoCostModel::software(), rounds);
  std::printf("%-22s %10.2f ms\n", "hardware crypto", hw.latency_ms);
  std::printf("%-22s %10.2f ms  (%.1fx slower)\n", "software crypto", sw.latency_ms,
              sw.latency_ms / hw.latency_ms);
  report.add_gauge("crypto_ablation.hardware.latency_ms", hw.latency_ms);
  report.add_gauge("crypto_ablation.software.latency_ms", sw.latency_ms);

  icc::exp::write_report_from_env(report);
  return 0;
}
