// Fixture: must trip exactly the unordered-iter rule.
#include <unordered_map>

class Table {
 public:
  int sum() const {
    int total = 0;
    for (const auto& [key, value] : entries_) total += value;
    return total;
  }

 private:
  std::unordered_map<int, int> entries_;
};
