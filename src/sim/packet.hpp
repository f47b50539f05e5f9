// Network packets.
//
// A Packet is the unit handed between protocol layers. Its payload is an
// immutable, shared, typed object (one concrete Payload subclass per
// protocol message), so forwarding a packet along a multi-hop path never
// copies the body, mirroring how ns-2 shares packet data between layers.
//
// Payload demux is RTTI-free: every concrete payload type registers a
// PayloadKind (a small integer) plus its human-readable tag string in the
// PayloadRegistry on first use, and `Packet::body_as<T>()` is a single
// integer compare + static_cast instead of a `dynamic_cast` walk of the
// vtable. Kinds are assigned in first-touch order, so their numeric values
// are an internal detail and never appear in traces or reports — the tag
// strings do.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/check.hpp"
#include "sim/types.hpp"

namespace icc::sim {

/// Dense integer identifying a concrete Payload type. Values are assigned
/// at runtime in registration order; only equality is meaningful.
using PayloadKind = std::uint16_t;

/// Process-wide kind -> tag table. Registration happens once per payload
/// type (guarded by a magic static in payload_kind<T>()); the mutex makes
/// first-touch from concurrent campaign workers safe.
class PayloadRegistry {
 public:
  static PayloadKind register_kind(const char* tag) {
    std::lock_guard<std::mutex> lock{mutex()};
    auto& t = tags();
#if ICC_CHECKED_ENABLED
    for (const char* existing : tags()) {
      ICC_CHECK(std::string_view{existing} != std::string_view{tag},
                "two payload types registered the same tag string");
    }
#endif
    t.push_back(tag);
    return static_cast<PayloadKind>(t.size() - 1);
  }

  static const char* tag(PayloadKind kind) {
    std::lock_guard<std::mutex> lock{mutex()};
    return tags().at(kind);
  }

  static std::size_t num_kinds() {
    std::lock_guard<std::mutex> lock{mutex()};
    return tags().size();
  }

 private:
  static std::vector<const char*>& tags() {
    static std::vector<const char*> v;
    return v;
  }
  static std::mutex& mutex() {
    static std::mutex m;
    return m;
  }
};

/// The kind assigned to payload type T (which must expose a string literal
/// `static constexpr const char* kTag`). First call registers the type.
template <typename T>
[[nodiscard]] PayloadKind payload_kind() {
  static const PayloadKind kind = PayloadRegistry::register_kind(T::kTag);
  return kind;
}

/// Base class for typed packet bodies. Concrete protocol messages (RREQ,
/// RREP, STS beacon, IVS propose, sensor notification, ...) derive from
/// PayloadBase<Self>, which stamps the registered kind. Deliberately
/// vtable-free: bodies live behind shared_ptr (whose deleter is captured at
/// construction), so no virtual destructor is needed either.
struct Payload {
  /// The registered type tag of this body.
  [[nodiscard]] PayloadKind kind() const noexcept { return kind_; }
  /// Human-readable tag used in traces and test assertions.
  [[nodiscard]] std::string tag() const { return PayloadRegistry::tag(kind_); }

 protected:
  explicit Payload(PayloadKind kind) noexcept : kind_{kind} {}
  ~Payload() = default;
  Payload(const Payload&) = default;
  Payload& operator=(const Payload&) = default;

 private:
  PayloadKind kind_;
};

/// CRTP helper: derives the registered kind from the concrete type's kTag.
template <typename T>
struct PayloadBase : Payload {
  PayloadBase() noexcept : Payload{payload_kind<T>()} {}
};

/// A network-level packet: end-to-end addressing plus a typed body.
struct Packet {
  NodeId src{kNoNode};   ///< network-level originator
  NodeId dst{kNoNode};   ///< network-level destination (kBroadcast allowed)
  Port port{Port::kCbr}; ///< receiving handler demux key
  std::uint32_t size_bytes{0};  ///< simulated on-air size (headers included)
  std::uint64_t uid{0};         ///< unique packet id, assigned by World
  /// Lineage: span of the event that caused this packet (the received RREQ
  /// behind a re-flood, the data packet behind a discovery, ...). Stamped
  /// from the run's lineage context at send time when still 0; a
  /// packet's own span is its uid. Identity metadata only — no protocol
  /// logic may branch on it.
  std::uint64_t parent{0};
  std::shared_ptr<const Payload> body;

  /// Typed view of the body; returns nullptr when the body is another type.
  /// One integer compare — no RTTI.
  template <typename T>
  [[nodiscard]] const T* body_as() const {
    static_assert(std::is_base_of_v<Payload, T>, "body_as requires a Payload type");
    return body != nullptr && body->kind() == payload_kind<T>()
               ? static_cast<const T*>(body.get())
               : nullptr;
  }
};

}  // namespace icc::sim
