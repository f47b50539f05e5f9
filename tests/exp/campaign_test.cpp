// ParamGrid / Campaign / aggregation / runner behaviour, plus the shared
// report_key and env helpers the benches now use.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "exp/env.hpp"
#include "exp/runner.hpp"
#include "sim/report.hpp"

namespace {

using icc::exp::Campaign;
using icc::exp::JobContext;
using icc::exp::JobOutputs;
using icc::exp::ParamGrid;
using icc::exp::report_key;

TEST(ReportKey, LowercasesAndCollapsesSeparators) {
  EXPECT_EQ(report_key("No IC"), "no_ic");
  EXPECT_EQ(report_key("IC, L=2"), "ic_l_2");
  EXPECT_EQ(report_key("position error"), "position_error");
  EXPECT_EQ(report_key("stuck-at-zero"), "stuck_at_zero");
}

TEST(ReportKey, NeverEmitsLeadingOrTrailingUnderscore) {
  // A label starting (or ending) with non-alphanumerics must not produce a
  // dangling '_' in report names.
  EXPECT_EQ(report_key("(no target)"), "no_target");
  EXPECT_EQ(report_key("  padded  "), "padded");
  EXPECT_EQ(report_key("!!x!!"), "x");
  EXPECT_EQ(report_key("((("), "");
  EXPECT_EQ(report_key(""), "");
}

TEST(ParamGrid, FlattensRowMajorFirstAxisSlowest) {
  ParamGrid grid;
  grid.axis("series", {"No IC", "IC"}).axis("malicious", {"0", "1", "2"});
  ASSERT_EQ(grid.num_cells(), 6u);
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t m = 0; m < 3; ++m) {
      const std::size_t cell = grid.cell_index({s, m});
      EXPECT_EQ(cell, s * 3 + m);
      EXPECT_EQ(grid.level(cell, 0), s);
      EXPECT_EQ(grid.level(cell, 1), m);
    }
  }
  EXPECT_EQ(grid.key(4), "ic.1");
  EXPECT_EQ(grid.label(4), "IC, 1");
}

TEST(ParamGrid, ExplicitKeysOverrideDerivedOnes) {
  ParamGrid grid;
  grid.axis("series", {"IC, L=1"}, {"ic_l1"});
  EXPECT_EQ(grid.key(0), "ic_l1");
  EXPECT_THROW(grid.axis("bad", {"a", "b"}, {"only_one"}), std::invalid_argument);
}

TEST(EnvHelpers, ParseWithFallbacks) {
  ::setenv("ICC_TEST_ENV_INT", "12", 1);
  ::setenv("ICC_TEST_ENV_DOUBLE", "2.5", 1);
  EXPECT_EQ(icc::exp::env_int("ICC_TEST_ENV_INT", 7), 12);
  EXPECT_DOUBLE_EQ(icc::exp::env_double("ICC_TEST_ENV_DOUBLE", 1.0), 2.5);
  EXPECT_EQ(icc::exp::env_string("ICC_TEST_ENV_INT"), "12");
  ::unsetenv("ICC_TEST_ENV_INT");
  ::unsetenv("ICC_TEST_ENV_DOUBLE");
  EXPECT_EQ(icc::exp::env_int("ICC_TEST_ENV_INT", 7), 7);
  EXPECT_DOUBLE_EQ(icc::exp::env_double("ICC_TEST_ENV_DOUBLE", 1.0), 1.0);
  EXPECT_EQ(icc::exp::env_string("ICC_TEST_ENV_INT", "dflt"), "dflt");
}

/// A cheap synthetic campaign: outputs are pure functions of (cell, run).
Campaign synthetic_campaign(int runs = 3) {
  Campaign campaign;
  campaign.name = "synthetic";
  campaign.base_seed = 9;
  campaign.runs = runs;
  campaign.grid.axis("a", {"x", "y"}).axis("b", {"p", "q"});
  campaign.job = [](const JobContext& ctx) {
    JobOutputs out;
    out["value"] = {static_cast<double>(ctx.cell) * 100.0 + ctx.run};
    out["pair"] = {1.0, 3.0};  // multi-sample metric: two samples per run
    return out;
  };
  return campaign;
}

TEST(Runner, JobsSeeEveryCellRunAndDerivedSeed) {
  Campaign campaign = synthetic_campaign(2);
  std::mutex mutex;
  std::set<std::pair<std::size_t, int>> seen;
  campaign.job = [&](const JobContext& ctx) {
    EXPECT_EQ(ctx.seed, campaign.job_seed(ctx.cell, ctx.run));
    const std::lock_guard<std::mutex> lock{mutex};
    EXPECT_TRUE(seen.emplace(ctx.cell, ctx.run).second);
    return JobOutputs{};
  };
  const auto result =
      icc::exp::run_campaign(campaign, icc::exp::RunnerOptions{}.with_threads(2).with_journal("").quiet());
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(result.jobs_total, 8u);
  EXPECT_EQ(result.jobs_executed, 8u);
  EXPECT_EQ(result.jobs_resumed, 0u);
}

TEST(Runner, AggregatesPerCellSeriesInRunOrder) {
  const Campaign campaign = synthetic_campaign(3);
  const auto result =
      icc::exp::run_campaign(campaign, icc::exp::RunnerOptions{}.with_threads(4).with_journal("").quiet());
  ASSERT_EQ(result.num_cells(), 4u);
  for (std::size_t cell = 0; cell < 4; ++cell) {
    const icc::sim::SampleSeries& value = result.series(cell, "value");
    EXPECT_EQ(value.count, 3u);
    EXPECT_DOUBLE_EQ(value.mean(), static_cast<double>(cell) * 100.0 + 1.0);
    EXPECT_DOUBLE_EQ(value.min, static_cast<double>(cell) * 100.0);
    const icc::sim::SampleSeries& pair = result.series(cell, "pair");
    EXPECT_EQ(pair.count, 6u);  // two samples per run, three runs
    EXPECT_DOUBLE_EQ(pair.mean(), 2.0);
  }
  // Unknown metrics and out-of-range cells read as empty series.
  EXPECT_TRUE(result.series(0, "missing").empty());
  EXPECT_TRUE(result.series(99, "value").empty());
}

TEST(Runner, ReportNamesAreMetricDotCellKey) {
  const auto result = icc::exp::run_campaign(synthetic_campaign(1),
                                             icc::exp::RunnerOptions{}.with_journal("").quiet());
  icc::sim::RunReport report;
  result.add_to_report(report);
  std::ostringstream json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"value.x.p\""), std::string::npos);
  EXPECT_NE(json.str().find("\"pair.y.q\""), std::string::npos);
}

TEST(Runner, PropagatesJobFailure) {
  Campaign campaign = synthetic_campaign(2);
  campaign.job = [](const JobContext& ctx) -> JobOutputs {
    if (ctx.cell == 2) throw std::runtime_error("boom");
    return {};
  };
  EXPECT_THROW(icc::exp::run_campaign(campaign, icc::exp::RunnerOptions{}.with_journal("").quiet()),
               std::runtime_error);
}

TEST(Runner, RejectsEmptyJobAndBadRuns) {
  Campaign campaign = synthetic_campaign(0);
  EXPECT_THROW(icc::exp::run_campaign(campaign, icc::exp::RunnerOptions{}.with_journal("").quiet()),
               std::invalid_argument);
  campaign.runs = 1;
  campaign.job = nullptr;
  EXPECT_THROW(icc::exp::run_campaign(campaign, icc::exp::RunnerOptions{}.with_journal("").quiet()),
               std::invalid_argument);
  // A grid with no axis has no cell: the campaign would run nothing and
  // every mean() would read 0.0.
  Campaign no_axis = synthetic_campaign(1);
  no_axis.grid = ParamGrid{};
  EXPECT_THROW(icc::exp::run_campaign(no_axis, icc::exp::RunnerOptions{}.with_journal("").quiet()),
               std::invalid_argument);
}

}  // namespace
