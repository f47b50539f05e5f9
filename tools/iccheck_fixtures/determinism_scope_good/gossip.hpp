// Scoping fixture: this header declares peers_ as an unordered container.
// other_ordered.cpp does not include it, so its own ordered peers_ must not
// inherit the unordered-ness.
#pragma once

#include <unordered_set>

class Gossip {
 private:
  std::unordered_set<int> peers_;
};
