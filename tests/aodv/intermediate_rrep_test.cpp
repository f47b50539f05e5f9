// Tests for AODV intermediate-node replies (destination-only flag off) and
// their interaction with the inner-circle guard: a cached-route reply passes
// the Fig 6 check only because the replier is a recorded forwarder.
#include <gtest/gtest.h>

#include <memory>

#include "aodv/guard.hpp"
#include "core/framework.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "sim/world.hpp"

namespace icc::aodv {
namespace {

class IntermediateRrepTest : public ::testing::Test {
 protected:
  // Chain 0..n-1 plus an off-path requester (id n) whose only
  // neighbor is node 2 (so the chain is the unique 0->4 path).
  void build_chain(int n, bool guarded, bool dest_only) {
    sim::WorldConfig config;
    config.width = 5000;
    config.height = 1000;
    config.tx_range = 250;
    config.seed = 121;
    world_ = std::make_unique<sim::World>(config);
    if (guarded) {
      scheme_ = std::make_unique<crypto::ModelThresholdScheme>(122, 2, 1024);
      pki_ = std::make_unique<crypto::ModelPki>(123, 1024);
    }
    Aodv::Params params;
    params.dest_only = dest_only;
    for (int i = 0; i <= n; ++i) {
      const sim::Vec2 pos = i < n ? sim::Vec2{150.0 * i, 0.0} : sim::Vec2{300.0, 220.0};
      sim::Node& node = world_->add_node(std::make_unique<sim::StaticMobility>(pos));
      agents_.push_back(std::make_unique<Aodv>(node, params));
      agents_.back()->set_deliver_handler(
          [this](const DataMsg&, sim::NodeId) { ++delivered_; });
      if (guarded) {
        core::InnerCircleConfig icc_config;
        icc_config.level = 1;
        circles_.push_back(
            std::make_unique<core::InnerCircleNode>(node, icc_config, *scheme_, *pki_,
                                                    cipher_));
        guards_.push_back(std::make_unique<AodvGuard>(*agents_.back(), *circles_.back()));
        circles_.back()->start();
      }
    }
    world_->run_until(guarded ? 5.0 : 0.1);
  }

  std::unique_ptr<sim::World> world_;
  std::unique_ptr<crypto::ModelThresholdScheme> scheme_;
  std::unique_ptr<crypto::ModelPki> pki_;
  crypto::ModelCipher cipher_;
  std::vector<std::unique_ptr<Aodv>> agents_;
  std::vector<std::unique_ptr<core::InnerCircleNode>> circles_;
  std::vector<std::unique_ptr<AodvGuard>> guards_;
  int delivered_{0};
};

TEST_F(IntermediateRrepTest, CachedRouteAnswersSecondDiscovery) {
  build_chain(5, /*guarded=*/false, /*dest_only=*/false);
  // First flow 0 -> 4 builds routes at every intermediate node.
  agents_[0]->send_data(4, DataMsg{});
  world_->run_until(3.0);
  ASSERT_EQ(delivered_, 1);
  // The off-path requester (node 5) asks for 4: an on-path node with a
  // cached route answers instead of the destination.
  agents_[5]->send_data(4, DataMsg{});
  world_->run_until(6.0);
  EXPECT_EQ(delivered_, 2);
  EXPECT_GE(world_->metrics().counter_value("aodv.intermediate_rrep"), 1.0);
}

TEST_F(IntermediateRrepTest, DestOnlySuppressesIntermediateReplies) {
  build_chain(5, /*guarded=*/false, /*dest_only=*/true);
  agents_[0]->send_data(4, DataMsg{});
  world_->run_until(3.0);
  agents_[5]->send_data(4, DataMsg{});
  world_->run_until(6.0);
  EXPECT_EQ(delivered_, 2);
  EXPECT_DOUBLE_EQ(world_->metrics().counter_value("aodv.intermediate_rrep"), 0.0);
}

TEST_F(IntermediateRrepTest, GuardedIntermediateReplyPassesFig6Check) {
  // With the guard, an intermediate reply is voted on like any other RREP.
  // The replier was a forwarder of the original agreed RREP chain, so its
  // circle's fw map already authorizes it for (dest, dest_seq).
  build_chain(5, /*guarded=*/true, /*dest_only=*/false);
  agents_[0]->send_data(4, DataMsg{});
  world_->run_until(10.0);
  ASSERT_EQ(delivered_, 1);
  agents_[5]->send_data(4, DataMsg{});
  world_->run_until(16.0);
  EXPECT_EQ(delivered_, 2);
  // The second discovery was answered from a cache somewhere along the
  // chain, and the reply still traveled as agreed messages only.
  EXPECT_GE(world_->metrics().counter_value("aodv.intermediate_rrep"), 1.0);
}

}  // namespace
}  // namespace icc::aodv
