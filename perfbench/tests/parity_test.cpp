// Parity tests for the benchmark's own code, at small sizes. Each guards a
// promise the layer numbers rest on, so a library change that breaks one
// fails here instead of quietly skewing the benchmark:
//  * the traced composition simulates exactly what the entry point does;
//  * the decorators only pass calls through;
//  * the executive simulates exactly what the serial engine does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>

#include "crypto/model_scheme.hpp"
#include "traced_world.hpp"

namespace perfbench {
namespace {

using icc::aodv::BlackholeExperimentConfig;

Signature entry_point(BlackholeExperimentConfig config) {
  Markers markers;
  config.world_hook = marker_hook(markers, config.sim_time);
  const auto result = icc::aodv::run_blackhole_experiment(config);
  EXPECT_TRUE(result.coverage_consistent);
  return signature_of(result, markers.count);
}

TracedRun traced(BlackholeExperimentConfig config) {
  Markers markers;
  config.world_hook = marker_hook(markers, config.sim_time);
  TracedRun run = run_traced(config, markers);
  EXPECT_EQ(check_outputs(config, run.outputs), "");
  return run;
}

double metric(const TracedRun& run, const std::string& name) {
  const auto it = std::find_if(run.metrics.begin(), run.metrics.end(),
                               [&](const auto& kv) { return kv.first == name; });
  if (it == run.metrics.end()) {
    ADD_FAILURE() << "missing metric " << name;
    return 0.0;
  }
  return it->second;
}

BlackholeExperimentConfig small_fig7(int nodes, int connections, double sim_time) {
  BlackholeExperimentConfig c = find_workload("fig7_ic")->config;
  c.num_nodes = nodes;
  c.num_connections = connections;
  c.sim_time = sim_time;
  c.seed = 7;
  return c;
}

BlackholeExperimentConfig small_storm() {
  BlackholeExperimentConfig c = find_workload("storm4k")->config;
  c.num_nodes = 300;
  c.area = 1000.0 * std::sqrt(300.0 / 25.0);
  c.num_connections = 60;
  c.sim_time = 3.0;
  c.seed = 11;
  return c;
}

int exec_threads() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 2u, 4u));
}

TEST(CompositionParity, Fig7WorldMatchesEntryPoint) {
  const BlackholeExperimentConfig config = small_fig7(50, 10, 40.0);
  const TracedRun run = traced(config);
  const Signature expected = entry_point(config);
  EXPECT_EQ(run.outputs.signature, expected)
      << "traced:      " << run.outputs.signature.str() << "\nentry point: " << expected.str();
  EXPECT_GT(run.outputs.signature.voting_rounds, 0u);
}

TEST(CompositionParity, StormWorldMatchesEntryPoint) {
  BlackholeExperimentConfig config = small_storm();
  config.sim_threads = 0;
  const TracedRun run = traced(config);
  const Signature expected = entry_point(config);
  EXPECT_EQ(run.outputs.signature, expected)
      << "traced:      " << run.outputs.signature.str() << "\nentry point: " << expected.str();
}

TEST(ExecutiveParity, StormWorldMatchesSerialEngine) {
  BlackholeExperimentConfig serial = small_storm();
  serial.sim_threads = 0;
  BlackholeExperimentConfig exec = serial;
  exec.sim_threads = exec_threads();
  const Signature expected = entry_point(serial);
  EXPECT_EQ(entry_point(exec), expected);
  const TracedRun run = traced(exec);
  EXPECT_EQ(run.outputs.signature, expected)
      << "traced exec: " << run.outputs.signature.str() << "\nserial:      " << expected.str();
  EXPECT_EQ(run.exec_threads, exec.sim_threads);
  EXPECT_GT(metric(run, "exec.busy_share"), 0.0);
}

TEST(Decorators, OnlyPassCallsThroughOnInnerCircleWorld) {
  BlackholeExperimentConfig config = small_fig7(20, 4, 30.0);
  config.sim_threads = 0;
  const TracedRun run = traced(config);
  EXPECT_EQ(run.outputs.signature, entry_point(config));
  // Every boundary this world crosses was seen by its decorator.
  for (const char* span :
       {"aodv.ctl_rx", "aodv.data_rx", "aodv.timer", "cbr.timer", "core.sts_rx", "core.ivs_rx",
        "core.filter_in", "core.filter_out", "core.timer", "guard.check", "guard.agreed",
        "crypto.partial_sign", "crypto.combine", "crypto.verify", "crypto.cipher"}) {
    EXPECT_GT(metric(run, std::string{span} + ".calls"), 0.0) << span;
  }
  EXPECT_GT(metric(run, "substrate.self_s"), 0.0);
  EXPECT_EQ(metric(run, "sched.events"), static_cast<double>(run.outputs.signature.events));
}

TEST(Decorators, CryptoDecoratorsReturnWhatTheyWrap) {
  LayerTrace trace;
  icc::crypto::ModelThresholdScheme model{42, 2, 1024};
  TracedScheme scheme{model, trace};
  const std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
  std::vector<icc::crypto::PartialSig> partials;
  for (std::uint32_t id = 0; id < 3; ++id) {
    const auto plain = model.issue_signer(id)->partial_sign(2, msg);
    const auto wrapped = scheme.issue_signer(id)->partial_sign(2, msg);
    EXPECT_EQ(wrapped, plain);
    EXPECT_EQ(scheme.verify_partial(msg, wrapped), model.verify_partial(msg, plain));
    partials.push_back(wrapped);
  }
  const auto sig = scheme.combine(2, msg, partials);
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(*sig, *model.combine(2, msg, partials));
  EXPECT_TRUE(scheme.verify(msg, *sig));
  EXPECT_EQ(scheme.signature_bytes(), model.signature_bytes());

  icc::crypto::ModelPki model_pki{9, 1024};
  TracedPki pki{model_pki, trace};
  const auto node_sig = pki.issue_signer(5)->sign(msg);
  EXPECT_EQ(node_sig, model_pki.issue_signer(5)->sign(msg));
  EXPECT_TRUE(pki.verify(5, msg, node_sig));
  EXPECT_FALSE(pki.verify(6, msg, node_sig));

  icc::crypto::ModelCipher model_cipher;
  TracedCipher cipher{model_cipher, trace};
  const auto ct = cipher.encrypt(3, msg);
  EXPECT_EQ(cipher.decrypt(3, ct), model_cipher.decrypt(3, ct));
  EXPECT_FALSE(cipher.decrypt(4, ct).has_value());

  const LayerTrace::Totals totals = trace.totals();
  const auto calls = [&](SpanId id) { return totals.calls[static_cast<std::size_t>(id)]; };
  EXPECT_EQ(calls(SpanId::kCryptoPartialSign), 3u);
  EXPECT_EQ(calls(SpanId::kCryptoVerifyPartial), 3u);
  EXPECT_EQ(calls(SpanId::kCryptoCombine), 1u);
  EXPECT_EQ(calls(SpanId::kCryptoVerify), 1u);
  EXPECT_EQ(calls(SpanId::kCryptoPkiSign), 1u);
  EXPECT_EQ(calls(SpanId::kCryptoPkiVerify), 2u);
  EXPECT_EQ(calls(SpanId::kCryptoCipher), 3u);
}

TEST(OutputChecks, StormCbrSendCountOutsideWindowFails) {
  // The storm has one second of traffic: every flow starts in [1, 2) and
  // sends at least its first packet before the run ends at 2 s, and at most
  // rate + 1 packets.
  const BlackholeExperimentConfig config = find_workload("storm4k")->config;
  RunOutputs outputs;
  outputs.coverage_consistent = true;
  outputs.node_energy_count = static_cast<std::size_t>(config.num_nodes);
  outputs.signature.events = 1;
  outputs.signature.frames = 1;
  outputs.signature.mean_energy_j = 1.0;
  const auto flows = static_cast<std::uint64_t>(config.num_connections);
  const auto most = flows * static_cast<std::uint64_t>(config.rate_pps + 1.0);
  for (const std::uint64_t sent : {flows, most}) {
    outputs.signature.cbr_sent = sent;
    EXPECT_EQ(check_outputs(config, outputs), "") << sent << " sent";
  }
  for (const std::uint64_t sent : {std::uint64_t{0}, flows - 1, most + 1}) {
    outputs.signature.cbr_sent = sent;
    EXPECT_EQ(check_outputs(config, outputs), "CBR send count outside the rate x duration window")
        << sent << " sent";
  }
}

TEST(LayerTraceTest, SelfTimeExcludesChildSpansOnEveryThread) {
  LayerTrace trace;
  const auto spin = [](double seconds) {
    const double until = host_seconds() + seconds;
    while (host_seconds() < until) {
    }
  };
  const auto nested = [&] {
    const LayerTrace::Scope outer{trace, SpanId::kAodvCtlRx};
    spin(0.005);
    const LayerTrace::Scope inner{trace, SpanId::kCryptoCombine};
    spin(0.03);
  };
  std::thread worker{nested};
  nested();
  worker.join();
  const LayerTrace::Totals totals = trace.totals();
  const auto outer = static_cast<std::size_t>(SpanId::kAodvCtlRx);
  const auto inner = static_cast<std::size_t>(SpanId::kCryptoCombine);
  EXPECT_EQ(totals.calls[outer], 2u);
  EXPECT_EQ(totals.calls[inner], 2u);
  EXPECT_GE(totals.self_s[inner], 0.06);
  EXPECT_GE(totals.self_s[outer], 0.01);
  // The children's 60 ms are not the outer spans' (which spin 10 ms); the
  // margin absorbs preemption on a loaded host.
  EXPECT_LT(totals.self_s[outer], 0.04);
  trace.reset();
  EXPECT_EQ(trace.totals().calls[outer], 0u);
}

}  // namespace
}  // namespace perfbench
