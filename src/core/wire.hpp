// Canonical byte serialization for protocol messages and signed content.
//
// Threshold signatures bind (source, round, level, value); STS beacon tags
// bind (origin, seq, position, neighbor list). Both sides must serialize
// identically, so all multi-byte fields are little-endian through these
// helpers.
//
// Every format that is both written and read is declared once, as a field
// list: an ordered std::tie of a message's members, returned by a static
// `fields(auto& m)` beside the members, so the one declaration yields const
// references for writing and mutable ones for reading. WireWriter::put and
// WireReader::get walk any field list and hold every wire rule:
//
//   unsigned integer    little-endian, its own width
//   bool                u8; writes 0 or 1, reads any nonzero as true
//   int                 u32, two's complement
//   double              u64 bit pattern
//   enum E              its underlying integer; reading a value at or past
//                       kWireEnumCount<E> fails
//   std::array<u8, N>   N raw bytes (digests)
//   std::vector<T>      u32 count, then the elements; reading a count larger
//                       than the bytes left fails before anything is allocated
//   std::pair           first, then second
//   std::tuple          its elements in order (a nested field list)
//   T with T::fields    T's field list
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace icc::core {

/// Number of valid values of an enum that travels on the wire. Enums with a
/// kCount sentinel need nothing more; others specialize this beside their
/// definition.
template <typename E>
inline constexpr std::size_t kWireEnumCount = static_cast<std::size_t>(E::kCount);

namespace wire_detail {

template <typename T, template <typename...> class Template>
inline constexpr bool kIs = false;
template <typename... A, template <typename...> class Template>
inline constexpr bool kIs<Template<A...>, Template> = true;

template <typename T>
inline constexpr bool kIsByteArray = false;
template <std::size_t N>
inline constexpr bool kIsByteArray<std::array<std::uint8_t, N>> = true;

template <typename T>
concept HasFields = requires(T& m) { T::fields(m); };

template <typename>
inline constexpr bool kNoWireForm = false;

}  // namespace wire_detail

class WireWriter {
 public:
  /// Starts empty; a caller that reuses one buffer hands it in to keep its
  /// capacity.
  explicit WireWriter(std::vector<std::uint8_t> reuse = {}) : buf_{std::move(reuse)} {
    buf_.clear();
  }

  void u8(std::uint8_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) { put(v); }
  void bytes(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void str(const std::string& s) {
    bytes(std::span{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Writes one field or field list (rules in the header comment).
  template <typename T>
  void put(const T& v) {
    using wire_detail::kIs;
    if constexpr (kIs<T, std::tuple>) {
      std::apply([this](const auto&... field) { (put(field), ...); }, v);
    } else if constexpr (wire_detail::HasFields<T>) {
      put(T::fields(v));
    } else if constexpr (std::is_same_v<T, bool>) {
      put(static_cast<std::uint8_t>(v ? 1 : 0));
    } else if constexpr (std::is_same_v<T, int>) {
      put(static_cast<std::uint32_t>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      put(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::unsigned_integral<T>) {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    } else if constexpr (wire_detail::kIsByteArray<T>) {
      buf_.insert(buf_.end(), v.begin(), v.end());
    } else if constexpr (kIs<T, std::vector>) {
      put(static_cast<std::uint32_t>(v.size()));
      if constexpr (std::is_same_v<typename T::value_type, std::uint8_t>) {
        buf_.insert(buf_.end(), v.begin(), v.end());
      } else {
        for (const auto& element : v) put(element);
      }
    } else if constexpr (kIs<T, std::pair>) {
      put(v.first);
      put(v.second);
    } else {
      static_assert(wire_detail::kNoWireForm<T>, "type has no wire form");
    }
  }

  /// Overwrites the u32 written at byte `at`: for a length known only once
  /// what follows it is written.
  void patch_u32(std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) {
      buf_.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && noexcept { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reader with explicit failure (false) instead of exceptions: malformed
/// input from Byzantine nodes is an expected event, not a program error.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_{data} {}

  /// Reads one field or field list (rules in the header comment). On false
  /// the target is partly written and must be discarded.
  template <typename T>
  [[nodiscard]] bool get(T&& out) {
    using V = std::remove_cvref_t<T>;
    using wire_detail::kIs;
    if constexpr (kIs<V, std::tuple>) {
      return std::apply([this](auto&... field) { return (get(field) && ...); }, out);
    } else if constexpr (wire_detail::HasFields<V>) {
      return get(V::fields(out));
    } else if constexpr (std::is_same_v<V, bool>) {
      std::uint8_t v = 0;
      if (!get(v)) return false;
      out = v != 0;
      return true;
    } else if constexpr (std::is_same_v<V, int>) {
      std::uint32_t v = 0;
      if (!get(v)) return false;
      out = static_cast<int>(v);
      return true;
    } else if constexpr (std::is_same_v<V, double>) {
      std::uint64_t bits = 0;
      if (!get(bits)) return false;
      out = std::bit_cast<double>(bits);
      return true;
    } else if constexpr (std::is_enum_v<V>) {
      std::underlying_type_t<V> v{};
      if (!get(v) || static_cast<std::size_t>(v) >= kWireEnumCount<V>) return false;
      out = static_cast<V>(v);
      return true;
    } else if constexpr (std::unsigned_integral<V>) {
      if (left() < sizeof(V)) return false;
      out = 0;
      for (std::size_t i = 0; i < sizeof(V); ++i) {
        out |= static_cast<V>(V{data_[off_++]} << (8 * i));
      }
      return true;
    } else if constexpr (wire_detail::kIsByteArray<V>) {
      if (left() < out.size()) return false;
      std::memcpy(out.data(), data_.data() + off_, out.size());
      off_ += out.size();
      return true;
    } else if constexpr (kIs<V, std::vector>) {
      std::uint32_t count = 0;
      if (!get(count) || count > left()) return false;
      if constexpr (std::is_same_v<typename V::value_type, std::uint8_t>) {
        out.assign(data_.begin() + static_cast<std::ptrdiff_t>(off_),
                   data_.begin() + static_cast<std::ptrdiff_t>(off_ + count));
        off_ += count;
        return true;
      } else {
        out.resize(count);
        for (auto& element : out) {
          if (!get(element)) return false;
        }
        return true;
      }
    } else if constexpr (kIs<V, std::pair>) {
      return get(out.first) && get(out.second);
    } else {
      static_assert(wire_detail::kNoWireForm<V>, "type has no wire form");
    }
  }

  [[nodiscard]] bool done() const noexcept { return off_ == data_.size(); }

 private:
  [[nodiscard]] std::size_t left() const noexcept { return data_.size() - off_; }

  std::span<const std::uint8_t> data_;
  std::size_t off_{0};
};

/// The bytes of one field list.
template <typename Fields>
[[nodiscard]] std::vector<std::uint8_t> to_bytes(const Fields& fields) {
  WireWriter w;
  w.put(fields);
  return std::move(w).take();
}

/// Reads `bytes` into a field list; false on a short read, an invalid value
/// or trailing bytes.
template <typename Fields>
[[nodiscard]] bool from_bytes(std::span<const std::uint8_t> bytes, Fields&& fields) {
  WireReader r{bytes};
  return r.get(fields) && r.done();
}

}  // namespace icc::core
