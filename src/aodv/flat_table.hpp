// Open-addressed hash table for AODV's per-node flood state: the RREQ
// seen-cache (a set of packed (orig, rreq_id) keys) and the route table
// (NodeId -> RouteEntry). Both are hit on every RREQ a node hears: about a
// million times in two simulated seconds of a 4,000-node flood storm.
//
// Linear probing over a power-of-two array of slots, doubled whenever an
// insert would take the load past three quarters. The constructor allocates
// nothing, so building a world of N nodes (2N tables) costs no table
// storage: the first insert allocates, and clear() keeps the capacity.
// Each slot carries its own occupied flag, so every key value is a legal
// key — kNoNode and UINT32_MAX included, since over UDP both come off the
// wire.
//
// There is no iterator. The one walk, for_each_in_key_order, visits entries
// in ascending key order, so slot layout can never reach packet contents
// (DESIGN.md §9). A pointer returned by find or try_emplace is invalidated
// by the next insert; the walk's visitor must not insert.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace icc::aodv {

/// The value type of a FlatTable used as a set.
struct NoValue {};

template <typename Key, typename Value = NoValue>
class FlatTable {
  static_assert(std::is_unsigned_v<Key> && sizeof(Key) <= sizeof(std::uint64_t),
                "FlatTable keys are unsigned integers of at most 64 bits");

 public:
  /// Inserts `key` with a value-initialized Value unless it is present.
  /// Returns the entry's value and whether the key was new.
  std::pair<Value*, bool> try_emplace(Key key) {
    if (!slots_.empty()) {
      Slot& slot = slots_[probe(key)];
      if (slot.used) return {&slot.value, false};
      if (4 * (size_ + 1) <= 3 * slots_.size()) return {&occupy(slot, key), true};
    }
    grow();
    return {&occupy(slots_[probe(key)], key), true};
  }

  /// Set insert: whether `key` was new.
  bool insert(Key key) { return try_emplace(key).second; }

  Value& operator[](Key key) { return *try_emplace(key).first; }

  [[nodiscard]] const Value* find(Key key) const noexcept {
    if (size_ == 0) return nullptr;
    const Slot& slot = slots_[probe(key)];
    return slot.used ? &slot.value : nullptr;
  }
  [[nodiscard]] Value* find(Key key) noexcept {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  /// Forgets every entry and keeps the capacity.
  void clear() noexcept {
    for (Slot& slot : slots_) slot.used = false;
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Calls visit(key, value&) for every entry, in ascending key order.
  template <typename Visit>
  void for_each_in_key_order(Visit&& visit) {
    std::vector<Slot*> order;
    order.reserve(size_);
    for (Slot& slot : slots_) {
      if (slot.used) order.push_back(&slot);
    }
    std::sort(order.begin(), order.end(),
              [](const Slot* a, const Slot* b) { return a->key < b->key; });
    for (Slot* slot : order) visit(slot->key, slot->value);
  }

 private:
  struct Slot {
    Key key{};
    bool used{false};
    [[no_unique_address]] Value value{};
  };

  static constexpr std::size_t kInitialSlots = 8;

  /// SplitMix64's finalizer: a fixed mixing function, so the layout is the
  /// same on every platform and standard library.
  static std::uint64_t mix(std::uint64_t x) noexcept {
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  /// The slot holding `key`, or the empty slot where it would go. The load
  /// stays at or below three quarters, so an empty slot ends every probe.
  [[nodiscard]] std::size_t probe(Key key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  Value& occupy(Slot& slot, Key key) {
    slot.key = key;
    slot.used = true;
    slot.value = Value{};
    ++size_;
    return slot.value;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Slot{});
    for (Slot& slot : old) {
      if (slot.used) slots_[probe(slot.key)] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_{0};
};

}  // namespace icc::aodv
