// Parameterized property sweeps over the protocol configuration space:
// voting rounds across (circle size, dependability level) combinations and
// threshold RSA across (players, threshold) combinations — the §4.2
// Agreement/Termination properties checked systematically rather than at
// hand-picked points.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>

#include "core/framework.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "crypto/threshold_rsa.hpp"
#include "sim/world.hpp"

namespace icc::core {
namespace {

// ------------------------------------------------ voting (N, L) sweep

class VotingSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(VotingSweep, RoundCompletesIffCircleSupportsLevel) {
  const auto [n, level] = GetParam();

  sim::WorldConfig config;
  config.tx_range = 250;
  config.seed = 141;
  sim::World world{config};
  crypto::ModelThresholdScheme scheme{142, 11, 512};
  crypto::ModelPki pki{143, 512};
  crypto::ModelCipher cipher;

  std::vector<std::unique_ptr<InnerCircleNode>> circles;
  for (int i = 0; i < n; ++i) {
    sim::Node& node = world.add_node(std::make_unique<sim::StaticMobility>(
        sim::Vec2{400.0 + 35.0 * (i % 4), 400.0 + 35.0 * (i / 4)}));
    InnerCircleConfig icc_config;
    icc_config.level = level;
    circles.push_back(
        std::make_unique<InnerCircleNode>(node, icc_config, scheme, pki, cipher));
    circles.back()->callbacks().check = [](sim::NodeId, const Value&) { return true; };
    circles.back()->start();
  }
  world.run_until(5.0);

  bool agreed = false;
  bool aborted = false;
  std::optional<AgreedMsg> msg;
  circles[0]->callbacks().on_agreed = [&](const AgreedMsg& m, bool is_center) {
    if (is_center) {
      agreed = true;
      msg = m;
    }
  };
  circles[0]->callbacks().on_abort = [&](std::uint64_t, const Value&) { aborted = true; };
  circles[0]->initiate(VotingMode::kDeterministic, level, Value{9});
  world.run_until(7.0);

  // Termination: exactly one of {agreed, aborted} (§4.2).
  EXPECT_NE(agreed, aborted);
  // Agreement feasibility: a fully cooperative circle of n-1 members
  // supports any level <= n-1.
  const bool feasible = level <= n - 1;
  EXPECT_EQ(agreed, feasible) << "n=" << n << " L=" << level;
  if (agreed) {
    // Integrity: verifiable everywhere, at exactly the claimed level.
    EXPECT_TRUE(circles[1]->ivs().verify_agreed(*msg));
    EXPECT_EQ(msg->level, level);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CircleByLevel, VotingSweep,
    ::testing::Combine(::testing::Values(3, 5, 8, 12), ::testing::Values(1, 2, 4, 7, 11)),
    [](const auto& info) {
      std::string name = "N";
      name.append(std::to_string(std::get<0>(info.param)))
          .append("_L")
          .append(std::to_string(std::get<1>(info.param)));
      return name;
    });

// -------------------------------------- threshold RSA (players, k) sweep

class ThresholdRsaSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ThresholdRsaSweep, ExactThresholdSignsAndBelowFails) {
  const auto [players, threshold] = GetParam();
  std::mt19937_64 eng{static_cast<std::uint64_t>(1000 + players * 100 + threshold)};
  const auto key = crypto::ThresholdRsa::deal(
      384, static_cast<std::uint32_t>(players), static_cast<std::uint32_t>(threshold),
      [&eng] { return eng(); });
  const std::vector<std::uint8_t> msg{'s', 'w', 'e', 'e', 'p'};

  // The *last* `threshold` players (exercise non-contiguous high indices).
  std::vector<crypto::ThresholdRsa::PartialSignature> partials;
  for (int i = players - threshold; i < players; ++i) {
    partials.push_back(key.partial_sign(key.share(static_cast<std::uint32_t>(i)), msg));
  }
  const auto sigma = key.combine(partials, msg);
  ASSERT_TRUE(sigma.has_value());
  EXPECT_TRUE(key.verify(msg, *sigma));

  if (threshold > 1) {
    partials.pop_back();
    EXPECT_FALSE(key.combine(partials, msg).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlayersByThreshold, ThresholdRsaSweep,
    ::testing::Values(std::make_tuple(2, 2), std::make_tuple(5, 2), std::make_tuple(5, 5),
                      std::make_tuple(9, 3), std::make_tuple(9, 7), std::make_tuple(13, 4)),
    [](const auto& info) {
      std::string name = "P";
      name.append(std::to_string(std::get<0>(info.param)))
          .append("_T")
          .append(std::to_string(std::get<1>(info.param)));
      return name;
    });

}  // namespace
}  // namespace icc::core
