// icnode: one inner-circle node as a standalone process.
//
// Runs the same protocol objects the simulator runs — AODV (or the
// black-hole MisbehaviorAodv), the inner-circle framework with its STS/IVS
// services, the AODV guard, optionally the watchdog baseline, and CBR
// traffic — on a net::UdpHost: loopback UDP datagrams as the radio,
// SteadyClock as time. tools/testnet launches N of these to form a network.
//
// Every process derives the shared state (crypto substrate, attacker set,
// CBR flow list) deterministically from the run seed, so no coordination
// channel is needed beyond the sockets themselves.
//
// Configuration, by flag only; a malformed value exits 2 naming the flag:
//   --id N          this node's id, 0-based          [required]
//   --num-nodes N   testnet size                     [5]
//   --base-port P   node i binds 127.0.0.1:P+i       [47000]
//   --seed S        shared run seed                  [1]
//   --epoch-us E    shared unix-us run epoch         [now]
//   --duration S    run length, seconds              [10]
//   --attackers M   nodes 0..M-1 are black holes     [1]
//   --flows K       CBR flows between correct nodes  [2]
//   --defense D     icc | watchdog | none            [icc]
//   --report PATH   RunReport JSON path              [stdout]
// Link impairment, by environment only (strict-parsed; a malformed value
// aborts and a value outside [0, 1] exits 2, each naming the variable):
//   ICC_NET_LOSS     per-datagram drop probability     [0]
//   ICC_NET_REORDER  per-datagram one-slot reorder     [0]
//
// SIGINT/SIGTERM stop the run loop at the next iteration; the RunReport,
// any trace sinks, and the flight recorder are still flushed, and the
// process exits 0 — a stopped node is a normal outcome, not a crash.
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "aodv/aodv.hpp"
#include "aodv/guard.hpp"
#include "aodv/misbehavior.hpp"
#include "aodv/watchdog.hpp"
#include "core/framework.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "exp/env.hpp"
#include "fault/ledger.hpp"
#include "fault/plan.hpp"
#include "net/udp.hpp"
#include "sim/flight.hpp"
#include "sim/report.hpp"
#include "traffic/cbr.hpp"

namespace {

icc::net::UdpHost* g_host = nullptr;

void on_signal(int /*sig*/) {
  // request_stop is one relaxed atomic store: async-signal-safe.
  if (g_host != nullptr) g_host->request_stop();
}

std::int64_t unix_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

struct Options {
  int id{-1};
  int num_nodes{5};
  int base_port{47000};
  long long seed{1};
  long long epoch_us{0};
  double duration{10.0};
  int attackers{1};
  int flows{2};
  std::string defense{"icc"};
  std::string report;
};

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr, "icnode: %s\n", msg);
  std::fprintf(stderr,
               "usage: icnode --id N [--num-nodes N] [--base-port P] [--seed S]\n"
               "              [--epoch-us E] [--duration S] [--attackers M]\n"
               "              [--flows K] [--defense icc|watchdog|none] [--report PATH]\n");
  std::exit(2);
}

/// Parses the whole of `text` as a T; anything else (an empty value, a
/// trailing "x", an out-of-range number) is a usage error naming `flag`.
template <typename T>
T parse_number(const std::string& flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) {
    usage_error((flag + " needs a number, got '" + text + "'").c_str());
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  const auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) usage_error("flag needs a value");
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--id") {
      opt.id = parse_number<int>(flag, need_value(i++));
    } else if (flag == "--num-nodes") {
      opt.num_nodes = parse_number<int>(flag, need_value(i++));
    } else if (flag == "--base-port") {
      opt.base_port = parse_number<int>(flag, need_value(i++));
    } else if (flag == "--seed") {
      opt.seed = parse_number<long long>(flag, need_value(i++));
    } else if (flag == "--epoch-us") {
      opt.epoch_us = parse_number<long long>(flag, need_value(i++));
    } else if (flag == "--duration") {
      opt.duration = parse_number<double>(flag, need_value(i++));
    } else if (flag == "--attackers") {
      opt.attackers = parse_number<int>(flag, need_value(i++));
    } else if (flag == "--flows") {
      opt.flows = parse_number<int>(flag, need_value(i++));
    } else if (flag == "--defense") {
      opt.defense = need_value(i++);
    } else if (flag == "--report") {
      opt.report = need_value(i++);
    } else {
      usage_error("unknown flag");
    }
  }
  if (opt.id < 0) usage_error("--id is required");
  if (opt.id >= opt.num_nodes) usage_error("--id must be < --num-nodes");
  if (opt.attackers >= opt.num_nodes) usage_error("--attackers must leave correct nodes");
  if (opt.defense != "icc" && opt.defense != "watchdog" && opt.defense != "none") {
    usage_error("--defense must be icc, watchdog, or none");
  }
  return opt;
}

/// A link-impairment probability from the environment, 0 when unset.
double env_probability(const char* name) {
  const double p = icc::exp::env_double(name, 0.0);
  if (!(p >= 0.0 && p <= 1.0)) {
    std::fprintf(stderr, "icnode: %s=%g is outside [0, 1]\n", name, p);
    std::exit(2);
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const auto seed = static_cast<std::uint64_t>(opt.seed);

  icc::net::UdpConfig net_config;
  net_config.id = static_cast<icc::sim::NodeId>(opt.id);
  net_config.num_nodes = static_cast<std::size_t>(opt.num_nodes);
  net_config.base_port = static_cast<std::uint16_t>(opt.base_port);
  net_config.seed = seed;
  net_config.epoch_unix_us = opt.epoch_us != 0 ? opt.epoch_us : unix_now_us();
  // Static layout on a circle well inside one radio range — in deployment
  // mode every datagram reaches every peer anyway, positions only feed the
  // protocols' bookkeeping.
  const double angle = 6.283185307179586 * opt.id / opt.num_nodes;
  net_config.position = {500.0 + 50.0 * std::cos(angle), 500.0 + 50.0 * std::sin(angle)};
  net_config.fault_loss = env_probability("ICC_NET_LOSS");
  net_config.fault_reorder = env_probability("ICC_NET_REORDER");

  icc::net::UdpHost host{net_config};
  g_host = &host;
  host.tracer().configure_from_env();
  // After configure_from_env: the flight recorder registers a dump-and-die
  // handler for SIGINT/SIGTERM, which is right for crashing sims but wrong
  // for a daemon. icnode overrides those two with a graceful stop — the
  // epilogue still dumps the ring, from a normal context, before exit 0.
  // (SIGSEGV/SIGBUS keep the flight handler.)
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Shared crypto substrate: same seeds in every process stand in for the
  // paper's trusted dealer at network initialization.
  icc::core::CryptoCostModel cost{};
  icc::crypto::ModelThresholdScheme scheme{seed, 1, 1024};
  icc::crypto::ModelPki pki{seed ^ 0x5A5Aull, 1024};
  icc::crypto::ModelCipher cipher;

  // The attacker set is structural: nodes 0..attackers-1, same plan every
  // process derives.
  const icc::fault::FaultPlan plan = icc::fault::black_hole_plan(opt.attackers);
  const bool malicious = opt.id < opt.attackers;

  std::unique_ptr<icc::aodv::Aodv> agent;
  if (malicious) {
    agent = std::make_unique<icc::aodv::MisbehaviorAodv>(
        host, icc::aodv::Aodv::Params{},
        plan.protocol.at(static_cast<std::size_t>(opt.id)));
  } else {
    agent = std::make_unique<icc::aodv::Aodv>(host, icc::aodv::Aodv::Params{});
  }

  std::unique_ptr<icc::core::InnerCircleNode> circle;
  std::unique_ptr<icc::aodv::AodvGuard> guard;
  std::unique_ptr<icc::aodv::Watchdog> watchdog;
  if (opt.defense == "icc" && !malicious) {
    icc::core::InnerCircleConfig icc_config;
    icc_config.level = 1;
    icc_config.mode = icc::core::VotingMode::kDeterministic;
    icc_config.ivs.cost = cost;
    circle = std::make_unique<icc::core::InnerCircleNode>(host, icc_config, scheme, pki,
                                                          cipher);
    guard = std::make_unique<icc::aodv::AodvGuard>(*agent, *circle);
    circle->start();
  }
  if (opt.defense == "watchdog" && !malicious) {
    watchdog = std::make_unique<icc::aodv::Watchdog>(*agent, icc::aodv::Watchdog::Params{});
  }
  icc::traffic::CbrConnection::attach_sink(*agent);

  // CBR flow list between correct nodes, drawn identically in every process
  // from the shared seed; only the flow's source instantiates it.
  std::vector<std::unique_ptr<icc::traffic::CbrConnection>> connections;
  icc::sim::Rng traffic_rng = icc::sim::Rng{seed}.fork(0xCB12ull);
  const auto pick_correct = [&] {
    return static_cast<icc::sim::NodeId>(
        traffic_rng.uniform_int(static_cast<std::uint32_t>(opt.attackers),
                                static_cast<std::uint32_t>(opt.num_nodes - 1)));
  };
  for (int c = 0; c < opt.flows; ++c) {
    const icc::sim::NodeId src = pick_correct();
    icc::sim::NodeId dst = pick_correct();
    while (dst == src) dst = pick_correct();
    icc::traffic::CbrConnection::Params params;
    params.start = 3.0 + traffic_rng.uniform(0.0, 1.0);  // let STS authenticate first
    params.stop = opt.duration;
    if (src == host.id()) {
      connections.push_back(
          std::make_unique<icc::traffic::CbrConnection>(*agent, dst, params));
    }
  }

  host.run_until(opt.duration);
  const bool interrupted = host.stop_requested();

  // Epilogue runs on timeout and on signal alike: the report and the trace
  // are part of the run's contract either way.
  icc::sim::RunReport report;
  report.set_meta("tool", "icnode");
  report.set_meta("mode", "udp");
  report.set_meta("node", static_cast<std::uint64_t>(opt.id));
  report.set_meta("num_nodes", static_cast<std::uint64_t>(opt.num_nodes));
  report.set_meta("seed", static_cast<std::uint64_t>(seed));
  report.set_meta("attackers", static_cast<std::uint64_t>(opt.attackers));
  report.set_meta("defense", opt.defense);
  report.set_meta("duration_s", opt.duration);
  report.set_meta("interrupted", interrupted ? std::uint64_t{1} : std::uint64_t{0});
  report.add_metrics(host.metrics());

  const icc::fault::CoverageLedger ledger{host.metrics()};
  ledger.add_to_report(report);
  report.add_gauge("coverage.consistent", ledger.consistent() ? 1.0 : 0.0);

  if (opt.report.empty()) {
    report.write_json(std::cout);
  } else if (!report.write_file(opt.report)) {
    std::fprintf(stderr, "icnode: cannot write report to %s\n", opt.report.c_str());
    return 1;
  }

  if (interrupted && host.tracer().flight() != nullptr) {
    host.tracer().flight()->dump("icnode signal shutdown");
  }
  // Stream sinks flush when their ostreams are destroyed at scope exit.
  g_host = nullptr;
  return 0;
}
