// Scoping fixture: peers_ here is an ordered std::set, and this file does
// not include gossip.hpp.  A global name set would still flag the loop;
// include-closure scoping must keep the scenario clean.
#include <set>

class Roster {
 public:
  int count() const {
    int n = 0;
    for (int peer : peers_) n += peer;
    return n;
  }

 private:
  std::set<int> peers_;
};
