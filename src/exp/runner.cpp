#include "exp/runner.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/env.hpp"
#include "exp/journal.hpp"
#include "sim/check.hpp"

namespace icc::exp {

namespace {

// icc:allow(wall-clock): drives throughput/ETA reporting only; never feeds job seeds or outputs
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Replay a journal into the output slots. Returns the number of resumed
/// jobs. Entries for another campaign/base_seed, out-of-range coordinates,
/// or malformed lines (e.g. the torn last line of a killed run) are skipped.
std::size_t load_journal(const std::string& path, const Campaign& campaign,
                         std::vector<JobOutputs>& outputs, std::vector<char>& have) {
  std::ifstream in{path};
  if (!in) return 0;
  std::size_t resumed = 0;
  std::string line;
  while (std::getline(in, line)) {
    const std::optional<JournalEntry> entry = parse_journal_line(line);
    if (!entry || entry->campaign != campaign.name ||
        entry->base_seed != campaign.base_seed) {
      continue;
    }
    if (entry->cell >= campaign.grid.num_cells() || entry->run < 0 ||
        entry->run >= campaign.runs) {
      continue;
    }
    const std::size_t id = entry->cell * static_cast<std::size_t>(campaign.runs) +
                           static_cast<std::size_t>(entry->run);
    if (have[id] != 0) continue;  // duplicate line: first wins
    outputs[id] = entry->outputs;
    have[id] = 1;
    ++resumed;
  }
  return resumed;
}

/// True when `path` is absent, empty, or ends in '\n'. A file that does not
/// is a journal whose writer was killed mid-line; the torn fragment must be
/// newline-terminated before appending, or the next entry would concatenate
/// onto it and both records would be lost.
bool ends_with_newline(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in || in.tellg() <= 0) return true;
  in.seekg(-1, std::ios::end);
  char last = '\0';
  in.get(last);
  return last == '\n';
}

/// Serialized progress/journal state shared by the workers.
class ProgressSink {
 public:
  ProgressSink(const Campaign& campaign, std::size_t resumed, std::size_t pending,
               std::ofstream* journal, bool progress)
      : campaign_{campaign},
        resumed_{resumed},
        pending_{pending},
        journal_{journal},
        progress_{progress},
        tty_{isatty(fileno(stderr)) != 0},
        start_{Clock::now()} {}

  /// Record one finished job: journal it, then maybe print a progress line.
  void complete(std::size_t cell, int run, const JobOutputs& outputs) {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (journal_ != nullptr && *journal_) {
      JournalEntry entry;
      entry.campaign = campaign_.name;
      entry.base_seed = campaign_.base_seed;
      entry.cell = cell;
      entry.run = run;
      entry.outputs = outputs;
      *journal_ << format_journal_line(entry) << '\n';
      journal_->flush();  // each line is a durable checkpoint
    }
    ++done_;
    if (!progress_) return;
    const double elapsed = seconds_since(start_);
    const bool last = done_ == pending_;
    // Throttle: a tty gets an in-place line ~5x/s, a pipe a line every ~2 s.
    if (!last && elapsed - last_print_ < (tty_ ? 0.2 : 2.0)) return;
    last_print_ = elapsed;
    const double rate = elapsed > 0.0 ? static_cast<double>(done_) / elapsed : 0.0;
    const double eta =
        rate > 0.0 ? static_cast<double>(pending_ - done_) / rate : 0.0;
    std::fprintf(stderr, "%scampaign %s: %zu/%zu jobs (%.1f jobs/s, ETA %.0fs)%s",
                 tty_ ? "\r" : "", campaign_.name.c_str(), done_ + resumed_,
                 pending_ + resumed_, rate, eta, (tty_ && !last) ? "" : "\n");
    std::fflush(stderr);
  }

  [[nodiscard]] std::size_t done() const { return done_; }
  [[nodiscard]] double elapsed_s() const { return seconds_since(start_); }

 private:
  const Campaign& campaign_;
  const std::size_t resumed_;
  const std::size_t pending_;
  std::ofstream* journal_;
  const bool progress_;
  const bool tty_;
  const Clock::time_point start_;
  std::mutex mutex_;
  std::size_t done_{0};
  double last_print_{0.0};
};

}  // namespace

CampaignResult run_campaign(const Campaign& campaign, const RunnerOptions& options) {
  if (!campaign.job) throw std::invalid_argument("run_campaign: campaign.job is empty");
  if (campaign.runs < 1) throw std::invalid_argument("run_campaign: runs must be >= 1");
  if (campaign.grid.num_cells() == 0) {
    throw std::invalid_argument("run_campaign: the grid has no cell (add an axis)");
  }

  const std::size_t total = campaign.num_jobs();
  std::vector<JobOutputs> outputs(total);
  std::vector<char> have(total, 0);

#if ICC_CHECKED_ENABLED
  // Statistical soundness: jobs must draw independent streams wherever the
  // design promises independence. Under common random numbers cells share
  // seeds on purpose (paired comparisons), so uniqueness is required only
  // across runs; otherwise across every (cell, run) job.
  {
    std::set<std::uint64_t> seeds;
    const std::size_t cells_checked =
        campaign.common_random_numbers ? 1 : campaign.grid.num_cells();
    for (std::size_t cell = 0; cell < cells_checked; ++cell) {
      for (int run = 0; run < campaign.runs; ++run) {
        ICC_CHECK(seeds.insert(campaign.job_seed(cell, run)).second,
                  "two campaign jobs derived the same seed: their runs would be correlated");
      }
    }
  }
#endif

  const std::string journal_path = options.journal_path_set
                                       ? options.journal_path
                                       : env_string("ICC_CAMPAIGN_JOURNAL");
  std::size_t resumed = 0;
  if (!journal_path.empty()) {
    resumed = load_journal(journal_path, campaign, outputs, have);
  }

  // Flattened job list, minus resumed jobs; workers claim entries with an
  // atomic cursor (self-scheduling work stealing over a shared deque).
  std::vector<std::size_t> pending;
  pending.reserve(total - resumed);
  for (std::size_t id = 0; id < total; ++id) {
    if (have[id] == 0) pending.push_back(id);
  }

  std::ofstream journal;
  if (!journal_path.empty() && !pending.empty()) {
    const bool repair = !ends_with_newline(journal_path);
    journal.open(journal_path, std::ios::app);
    if (!journal) {
      std::fprintf(stderr, "campaign %s: cannot open journal '%s'; checkpoints off\n",
                   campaign.name.c_str(), journal_path.c_str());
    } else if (repair) {
      journal << '\n';  // seal the torn line of a killed predecessor
    }
  }

  int threads = options.threads > 0 ? options.threads : env_int("ICC_THREADS", 1);
  if (threads < 1) threads = 1;
  if (static_cast<std::size_t>(threads) > pending.size() && !pending.empty()) {
    threads = static_cast<int>(pending.size());
  }

  ProgressSink sink{campaign, resumed, pending.size(),
                    journal.is_open() ? &journal : nullptr, options.progress};
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::string first_error;

  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < pending.size(); i = next.fetch_add(1)) {
      const std::size_t id = pending[i];
      const std::size_t cell = id / static_cast<std::size_t>(campaign.runs);
      const int run = static_cast<int>(id % static_cast<std::size_t>(campaign.runs));
      JobContext ctx;
      ctx.cell = cell;
      ctx.run = run;
      ctx.seed = campaign.job_seed(cell, run);
      try {
        outputs[id] = campaign.job(ctx);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock{error_mutex};
        if (first_error.empty()) first_error = e.what();
        next.store(pending.size());  // abandon the remaining jobs
        return;
      }
      sink.complete(cell, run, outputs[id]);
    }
  };

  if (!pending.empty()) {
    if (threads == 1) {
      worker();  // inline: no pool overhead for serial campaigns
    } else {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads));
      for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
      for (std::thread& t : pool) t.join();
    }
  }
  if (!first_error.empty()) {
    throw std::runtime_error("campaign " + campaign.name + ": job failed: " + first_error);
  }

  CampaignResult result = aggregate_outputs(campaign, outputs);
  result.jobs_executed = sink.done();
  result.jobs_resumed = resumed;
  result.elapsed_s = sink.elapsed_s();
  result.jobs_per_s = result.elapsed_s > 0.0
                          ? static_cast<double>(result.jobs_executed) / result.elapsed_s
                          : 0.0;
  return result;
}

}  // namespace icc::exp
