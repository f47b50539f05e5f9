// Fixture: must trip exactly the raw-getenv rule.
#include <cstdlib>

const char* journal_path() { return std::getenv("ICC_CAMPAIGN_JOURNAL"); }
