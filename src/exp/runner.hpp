// Parallel campaign runner: a fixed thread pool self-schedules over the
// flattened (cell, run) job list (each idle worker atomically claims the
// next unclaimed job, so fast workers steal the slack of slow ones). Jobs
// are share-nothing — each constructs its own World from its derived seed —
// and results land in per-job slots, so the aggregated report is
// byte-identical for any thread count.
//
// Environment knobs (all overridable via RunnerOptions):
//   ICC_THREADS           worker count (default 1)
//   ICC_CAMPAIGN_JOURNAL  JSONL checkpoint path; existing entries are
//                         resumed, new completions appended (default: none)
// Progress ("N/M jobs (R jobs/s, ETA Ts)") goes to stderr so stdout tables
// stay clean.
#pragma once

#include <string>

#include "exp/campaign.hpp"

namespace icc::exp {

struct RunnerOptions {
  /// Worker threads; <= 0 reads ICC_THREADS (default 1). Clamped to the
  /// number of outstanding jobs.
  int threads{0};
  /// Checkpoint journal path; unset reads ICC_CAMPAIGN_JOURNAL. Empty
  /// string after both => no journal.
  std::string journal_path;
  bool journal_path_set{false};
  /// Progress reporting to stderr (default on; off for quiet tests).
  bool progress{true};

  RunnerOptions& with_threads(int n) {
    threads = n;
    return *this;
  }
  RunnerOptions& with_journal(std::string path) {
    journal_path = std::move(path);
    journal_path_set = true;
    return *this;
  }
  RunnerOptions& quiet() {
    progress = false;
    return *this;
  }
};

/// Execute every job of `campaign` (minus journal-resumed ones) and return
/// the deterministic aggregation. Throws std::invalid_argument for an empty
/// job, runs < 1 or a grid with no cell, and std::runtime_error if a job
/// throws (the first error is reported; remaining jobs are abandoned).
CampaignResult run_campaign(const Campaign& campaign, const RunnerOptions& options = {});

}  // namespace icc::exp
