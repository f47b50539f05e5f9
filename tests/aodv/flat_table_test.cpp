// Differential test for aodv::FlatTable, the open-addressed table behind
// AODV's RREQ seen-cache and route table: a seeded random sequence of
// insert, find, ordered walk and clear() runs against a std::set /
// std::map reference, and the two are compared after every step.
#include "aodv/flat_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace icc::aodv {
namespace {

constexpr std::uint32_t kMaxId = std::numeric_limits<std::uint32_t>::max();

std::uint64_t pack(sim::NodeId orig, std::uint32_t rreq_id) {
  return (std::uint64_t{orig} << 32) | rreq_id;
}

/// Seen-cache keys at the edges of both halves: orig 0, kNoNode and
/// kBroadcast, each with rreq_id 0, 1 and UINT32_MAX.
std::vector<std::uint64_t> extreme_rreq_keys() {
  std::vector<std::uint64_t> keys;
  for (const sim::NodeId orig : {sim::NodeId{0}, sim::kNoNode, sim::kBroadcast}) {
    for (const std::uint32_t id : {0u, 1u, kMaxId}) keys.push_back(pack(orig, id));
  }
  return keys;
}

/// The key pool of a run: the extremes, then runs of consecutive rreq_ids
/// per originator (how floods arrive), some of them wrapping past UINT32_MAX.
std::vector<std::uint64_t> rreq_key_pool(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint64_t> keys = extreme_rreq_keys();
  while (keys.size() < n) {
    const auto orig = static_cast<sim::NodeId>(rng() % 4000);
    const auto first = static_cast<std::uint32_t>(rng());
    for (std::uint32_t k = 0; k < 4; ++k) keys.push_back(pack(orig, first + k));
  }
  return keys;
}

/// Route-table keys: the extremes (0, kNoNode, kBroadcast), a dense block
/// of ids as a world numbers its nodes, and ids scattered over 32 bits.
std::vector<sim::NodeId> node_key_pool(std::mt19937_64& rng) {
  std::vector<sim::NodeId> keys = {0, sim::kNoNode, sim::kBroadcast};
  for (sim::NodeId id = 1; id < 300; ++id) keys.push_back(id);
  for (int i = 0; i < 200; ++i) keys.push_back(static_cast<sim::NodeId>(rng()));
  return keys;
}

std::vector<std::uint64_t> walk(FlatTable<std::uint64_t>& table) {
  std::vector<std::uint64_t> keys;
  table.for_each_in_key_order([&keys](std::uint64_t key, NoValue&) { keys.push_back(key); });
  return keys;
}

std::vector<std::pair<sim::NodeId, std::uint64_t>> walk(
    FlatTable<sim::NodeId, std::uint64_t>& table) {
  std::vector<std::pair<sim::NodeId, std::uint64_t>> entries;
  table.for_each_in_key_order(
      [&entries](sim::NodeId key, std::uint64_t& value) { entries.emplace_back(key, value); });
  return entries;
}

/// What a run exercised, so each test can assert its sequence covered the
/// cases it is meant to.
struct Coverage {
  int doublings = 0;
  int duplicate_inserts = 0;
  int absent_finds_nonempty = 0;
  int clears = 0;
};

TEST(FlatTableTest, AbsentKeysInATableThatNeverAllocated) {
  FlatTable<std::uint64_t> seen;
  FlatTable<sim::NodeId, std::uint64_t> routes;
  for (const std::uint64_t key : extreme_rreq_keys()) EXPECT_EQ(seen.find(key), nullptr);
  for (const sim::NodeId key : {sim::NodeId{0}, sim::kNoNode, sim::kBroadcast}) {
    EXPECT_EQ(routes.find(key), nullptr);
  }
  seen.clear();
  routes.for_each_in_key_order([](sim::NodeId, std::uint64_t&) { ADD_FAILURE(); });
  EXPECT_EQ(seen.capacity(), 0u);
  EXPECT_EQ(routes.capacity(), 0u);
}

TEST(FlatTableTest, SeenCacheMatchesStdSet) {
  std::mt19937_64 rng{4101};
  const std::vector<std::uint64_t> pool = rreq_key_pool(rng, 600);
  FlatTable<std::uint64_t> table;
  std::set<std::uint64_t> ref;
  Coverage seen;

  // Every extreme key is a legal key: new once, then a duplicate.
  for (const std::uint64_t key : extreme_rreq_keys()) {
    EXPECT_TRUE(table.insert(key)) << key;
    EXPECT_FALSE(table.insert(key)) << key;
    ref.insert(key);
    ++seen.duplicate_inserts;
  }

  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t key = pool[rng() % pool.size()];
    const std::uint64_t op = rng() % 1000;
    if (op < 5) {
      // The wholesale clear of the seen-cache timer: storage stays, every
      // key is forgotten, and re-inserting a key makes it new again.
      const std::vector<std::uint64_t> before(ref.begin(), ref.end());
      const std::size_t capacity = table.capacity();
      table.clear();
      ref.clear();
      ++seen.clears;
      EXPECT_EQ(table.capacity(), capacity);
      for (const std::uint64_t k : before) EXPECT_EQ(table.find(k), nullptr) << k;
      for (std::size_t i = 0; i < before.size(); i += 2) {
        EXPECT_TRUE(table.insert(before[i])) << before[i];
        ref.insert(before[i]);
      }
    } else if (op < 600) {
      const bool is_new = ref.insert(key).second;
      const std::size_t capacity = table.capacity();
      EXPECT_EQ(table.insert(key), is_new) << key;
      if (!is_new) ++seen.duplicate_inserts;
      if (capacity != 0 && table.capacity() != capacity) {
        EXPECT_EQ(table.capacity(), 2 * capacity);
        ++seen.doublings;
      }
    } else {
      const bool present = ref.count(key) != 0;
      EXPECT_EQ(table.find(key) != nullptr, present) << key;
      if (!present && !ref.empty()) ++seen.absent_finds_nonempty;
    }
    ASSERT_EQ(table.size(), ref.size()) << "step " << step;
    ASSERT_EQ(walk(table), std::vector<std::uint64_t>(ref.begin(), ref.end())) << "step " << step;
  }
  EXPECT_GE(seen.doublings, 4);
  EXPECT_GT(seen.duplicate_inserts, 100);
  EXPECT_GT(seen.absent_finds_nonempty, 100);
  EXPECT_GE(seen.clears, 3);
  for (const std::uint64_t key : pool) {
    EXPECT_EQ(table.find(key) != nullptr, ref.count(key) != 0) << key;
  }
}

TEST(FlatTableTest, RouteTableMatchesStdMap) {
  std::mt19937_64 rng{4102};
  const std::vector<sim::NodeId> pool = node_key_pool(rng);
  FlatTable<sim::NodeId, std::uint64_t> table;
  std::map<sim::NodeId, std::uint64_t> ref;
  Coverage seen;

  // kNoNode and kBroadcast are legal keys: over UDP both come off the wire.
  for (const sim::NodeId key : {sim::NodeId{0}, sim::kNoNode, sim::kBroadcast}) {
    EXPECT_TRUE(table.try_emplace(key).second) << key;
    EXPECT_FALSE(table.try_emplace(key).second) << key;
    ref[key] = 0;
    ++seen.duplicate_inserts;
  }

  for (int step = 0; step < 5000; ++step) {
    const sim::NodeId key = pool[rng() % pool.size()];
    const std::uint64_t op = rng() % 1000;
    if (op < 5) {
      const std::vector<std::pair<sim::NodeId, std::uint64_t>> before(ref.begin(), ref.end());
      const std::size_t capacity = table.capacity();
      table.clear();
      ref.clear();
      ++seen.clears;
      EXPECT_EQ(table.capacity(), capacity);
      for (const auto& [k, v] : before) EXPECT_EQ(table.find(k), nullptr) << k;
      for (const auto& [k, v] : before) {
        const auto [value, is_new] = table.try_emplace(k);
        EXPECT_TRUE(is_new) << k;
        EXPECT_EQ(*value, 0u) << "a re-inserted key starts value-initialized";
        *value = v;
        ref[k] = v;
      }
    } else if (op < 40) {
      // The RERR walk: visit in key order and update entries in place.
      table.for_each_in_key_order([](sim::NodeId k, std::uint64_t& v) {
        if (k % 3 == 0) v += 1;
      });
      for (auto& [k, v] : ref) {
        if (k % 3 == 0) v += 1;
      }
    } else if (op < 600) {
      // update_route's access: operator[] inserts a value-initialized entry
      // or returns the existing one.
      const bool is_new = ref.count(key) == 0;
      const std::size_t capacity = table.capacity();
      std::uint64_t& value = table[key];
      if (is_new) {
        EXPECT_EQ(value, 0u) << key;
      } else {
        EXPECT_EQ(value, ref[key]) << key;
        ++seen.duplicate_inserts;
      }
      const auto stamp = static_cast<std::uint64_t>(step);
      value = value * 31 + stamp;
      ref[key] = ref[key] * 31 + stamp;
      if (capacity != 0 && table.capacity() != capacity) {
        EXPECT_EQ(table.capacity(), 2 * capacity);
        ++seen.doublings;
      }
    } else {
      const auto it = ref.find(key);
      const std::uint64_t* found = table.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(found, nullptr) << key;
        if (!ref.empty()) ++seen.absent_finds_nonempty;
      } else {
        ASSERT_NE(found, nullptr) << key;
        EXPECT_EQ(*found, it->second) << key;
      }
    }
    ASSERT_EQ(table.size(), ref.size()) << "step " << step;
    ASSERT_EQ(walk(table), (std::vector<std::pair<sim::NodeId, std::uint64_t>>(ref.begin(),
                                                                               ref.end())))
        << "step " << step;
  }
  EXPECT_GE(seen.doublings, 4);
  EXPECT_GT(seen.duplicate_inserts, 100);
  EXPECT_GT(seen.absent_finds_nonempty, 100);
  EXPECT_GE(seen.clears, 3);
  for (const sim::NodeId key : {sim::NodeId{0}, sim::kNoNode, sim::kBroadcast}) {
    EXPECT_EQ(table.find(key) != nullptr, ref.count(key) != 0) << key;
  }
}

}  // namespace
}  // namespace icc::aodv
