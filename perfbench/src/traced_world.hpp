// The traced composition: the world aodv::run_blackhole_experiment builds,
// rebuilt here from the library's public constructors with every layer
// boundary decorated, so each layer can be timed from outside.
//
//  * Protocol objects get a TracedHost instead of their sim::Node. Its Clock
//    and Transport wrap every timer, port handler, interceptor filter and
//    send-failure handler in a span of the object's layer, and every send
//    in a substrate span.
//  * Crypto decorators sit in front of ThresholdScheme, ThresholdSigner,
//    Pki, NodeSigner and AsymmetricCipher.
//  * The guard's Callbacks are wrapped after its construction.
//  * The scheduler's own profiler gives the wall time of every event, and
//    the run advances in chunks so queue depths can be sampled.
//
// Nothing here may change what is simulated: the traced run's signature
// must equal the entry point's for the same config (tests/parity_test.cpp).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crypto/ns_lowe.hpp"
#include "crypto/pki.hpp"
#include "crypto/scheme.hpp"
#include "layer_trace.hpp"
#include "net/host.hpp"
#include "sim/node.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Which layer a TracedHost charges its spans to.
enum class Layer : std::uint8_t {
  kRouting,      ///< Aodv / MisbehaviorAodv, and the CBR timers on their host
  kInnerCircle,  ///< InnerCircleNode: STS, IVS, interceptor
};

class TracedClock final : public icc::net::Clock {
 public:
  TracedClock(icc::net::Clock& inner, LayerTrace& trace, Layer layer)
      : inner_{inner}, trace_{trace}, layer_{layer} {}

  [[nodiscard]] icc::net::Time now() const noexcept override { return inner_.now(); }
  icc::net::TimerId schedule_at(icc::net::Time t, std::function<void()> fn,
                                icc::net::EventTag tag) override;
  void cancel(icc::net::TimerId id) override { inner_.cancel(id); }
  [[nodiscard]] bool pending(icc::net::TimerId id) const override { return inner_.pending(id); }

 private:
  icc::net::Clock& inner_;
  LayerTrace& trace_;
  Layer layer_;
};

/// Registrations a layer is not expected to make throw std::logic_error, so
/// a library change that adds one fails loudly instead of going untimed.
class TracedTransport final : public icc::net::Transport {
 public:
  TracedTransport(icc::net::Transport& inner, LayerTrace& trace, Layer layer)
      : inner_{inner}, trace_{trace}, layer_{layer} {}

  void send(icc::net::Packet packet, icc::net::NodeId next_hop) override;
  void send_unfiltered(icc::net::Packet packet, icc::net::NodeId next_hop) override;
  void register_handler(icc::net::Port port, icc::net::Handler handler) override;
  void add_promiscuous_listener(icc::net::PromiscuousListener l) override {
    inner_.add_promiscuous_listener(std::move(l));
  }
  void add_inbound_filter(icc::net::InboundFilter f) override;
  void add_outbound_filter(icc::net::OutboundFilter f) override;
  void set_send_failed_handler(icc::net::SendFailedHandler h) override;

 private:
  icc::net::Transport& inner_;
  LayerTrace& trace_;
  Layer layer_;
};

/// A sim::Node seen through one layer's clock and transport; every other
/// Host call goes straight to the node.
class TracedHost final : public icc::net::Host {
 public:
  TracedHost(icc::sim::Node& node, LayerTrace& trace, Layer layer)
      : node_{node}, clock_{node.clock(), trace, layer}, transport_{node, trace, layer} {}

  icc::net::Stats& stats() noexcept override { return node_.stats(); }
  icc::net::MetricsRegistry& metrics() noexcept override { return node_.metrics(); }
  icc::net::Tracer& tracer() noexcept override { return node_.tracer(); }
  [[nodiscard]] icc::net::Time now() const noexcept override { return node_.now(); }
  [[nodiscard]] icc::net::Rng fork_rng(std::uint64_t salt) override {
    return node_.fork_rng(salt);
  }
  std::uint64_t next_packet_uid() noexcept override { return node_.next_packet_uid(); }
  std::uint64_t next_span() noexcept override { return node_.next_span(); }
  [[nodiscard]] std::uint64_t lineage_parent() const noexcept override {
    return node_.lineage_parent();
  }
  void set_lineage_parent(std::uint64_t span) noexcept override {
    node_.set_lineage_parent(span);
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept override { return node_.num_nodes(); }
  [[nodiscard]] icc::net::NodeId id() const noexcept override { return node_.id(); }
  [[nodiscard]] icc::net::Vec2 position() const override { return node_.position(); }
  [[nodiscard]] bool down() const noexcept override { return node_.down(); }
  icc::net::EnergyMeter& energy() noexcept override { return node_.energy(); }
  icc::net::Clock& clock() noexcept override { return clock_; }
  icc::net::Transport& transport() noexcept override { return transport_; }

 private:
  icc::sim::Node& node_;
  TracedClock clock_;
  TracedTransport transport_;
};

class TracedScheme final : public icc::crypto::ThresholdScheme {
 public:
  TracedScheme(icc::crypto::ThresholdScheme& inner, LayerTrace& trace)
      : inner_{inner}, trace_{trace} {}

  [[nodiscard]] int max_level() const override { return inner_.max_level(); }
  [[nodiscard]] std::unique_ptr<icc::crypto::ThresholdSigner> issue_signer(
      std::uint32_t id) override;
  [[nodiscard]] bool verify_partial(std::span<const std::uint8_t> msg,
                                    const icc::crypto::PartialSig& ps) const override;
  [[nodiscard]] std::optional<icc::crypto::ThresholdSignature> combine(
      int level, std::span<const std::uint8_t> msg,
      std::span<const icc::crypto::PartialSig> partials) const override;
  [[nodiscard]] bool verify(std::span<const std::uint8_t> msg,
                            const icc::crypto::ThresholdSignature& sig) const override;
  [[nodiscard]] std::size_t partial_sig_bytes() const override {
    return inner_.partial_sig_bytes();
  }
  [[nodiscard]] std::size_t signature_bytes() const override { return inner_.signature_bytes(); }

 private:
  icc::crypto::ThresholdScheme& inner_;
  LayerTrace& trace_;
};

class TracedPki final : public icc::crypto::Pki {
 public:
  TracedPki(icc::crypto::Pki& inner, LayerTrace& trace) : inner_{inner}, trace_{trace} {}

  [[nodiscard]] std::unique_ptr<icc::crypto::NodeSigner> issue_signer(std::uint32_t id) override;
  [[nodiscard]] bool verify(std::uint32_t id, std::span<const std::uint8_t> msg,
                            std::span<const std::uint8_t> sig) const override;
  [[nodiscard]] std::size_t signature_bytes() const override { return inner_.signature_bytes(); }

 private:
  icc::crypto::Pki& inner_;
  LayerTrace& trace_;
};

class TracedCipher final : public icc::crypto::AsymmetricCipher {
 public:
  TracedCipher(const icc::crypto::AsymmetricCipher& inner, LayerTrace& trace)
      : inner_{inner}, trace_{trace} {}

  [[nodiscard]] icc::crypto::Ciphertext encrypt(
      std::uint32_t to, std::span<const std::uint8_t> plain) const override;
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> decrypt(
      std::uint32_t me, const icc::crypto::Ciphertext& ct) const override;

 private:
  const icc::crypto::AsymmetricCipher& inner_;
  LayerTrace& trace_;
};

/// Result of one traced run.
struct TracedRun {
  RunOutputs outputs;
  int exec_threads{0};
  /// Per-layer metrics by name, in a fixed order. Excludes the ones the
  /// caller derives from other runs (events/s, trace overhead) and the
  /// executive's window statistics, which it prints to stderr at teardown.
  std::vector<std::pair<std::string, double>> metrics;
};

/// Build and run `config`'s world with every layer traced. `markers` must be
/// the Markers that `config.world_hook` (a marker_hook) writes. Throws
/// std::invalid_argument for configs the composition does not model
/// (watchdog, AODVSEC, geographic leash, channel/node/wormhole faults).
[[nodiscard]] TracedRun run_traced(const icc::aodv::BlackholeExperimentConfig& config,
                                   const Markers& markers);

}  // namespace perfbench
