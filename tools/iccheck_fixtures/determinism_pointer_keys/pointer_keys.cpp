// Fixture: must trip exactly the pointer-keys rule.  The map is a struct
// member so the globals census has nothing to flag.
#include <map>

struct Node;

struct Topology {
  std::map<Node*, int> degree_by_node;
};
