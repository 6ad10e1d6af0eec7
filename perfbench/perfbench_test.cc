/**
 * @file
 * Tests of the benchmark's own arithmetic and of the determinism its
 * simulated metrics rely on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "metrics.hh"
#include "workloads.hh"

using namespace perfbench;

TEST(Metrics, MedianOfOddAndEvenSamples)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Metrics, FastestTimes)
{
    EXPECT_DOUBLE_EQ(fastest({3, 1, 2}), 1.0);
    EXPECT_DOUBLE_EQ(fastest({}), 0.0);
    // Point 0 is fastest in pass 1, point 1 in pass 0.
    EXPECT_DOUBLE_EQ(sumOfFastest({{5, 2}, {4, 3}}), 6.0);
    EXPECT_DOUBLE_EQ(sumOfFastest({}), 0.0);
    EXPECT_THROW(sumOfFastest({{1, 2}, {1}}), std::invalid_argument);
}

TEST(Metrics, HostSlowdown)
{
    // A kernel 25% slower than its reference: a 2.0 Mops/s reading is
    // 2.5 at reference speed, a 1.0 s set-up is 0.8 s.
    const double h = hostSlowdown(0.0125, 0.010);
    EXPECT_DOUBLE_EQ(h, 1.25);
    EXPECT_DOUBLE_EQ(2.0 * h, 2.5);
    EXPECT_DOUBLE_EQ(1.0 / h, 0.8);
    EXPECT_THROW(hostSlowdown(0.0, 0.010), std::invalid_argument);
}

TEST(Metrics, TailIsHighestPercentileWithTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(10), 50.0);   // too few: median
    EXPECT_EQ(tailPercentile(20), 50.0);   // 10 beyond p50
    EXPECT_EQ(tailPercentile(39), 50.0);   // p75 leaves only 9
    EXPECT_EQ(tailPercentile(40), 75.0);
    EXPECT_EQ(tailPercentile(100), 90.0);  // p95 leaves only 5
    EXPECT_EQ(tailPercentile(200), 95.0);
    EXPECT_EQ(tailPercentile(999), 95.0);  // p99 leaves only 9
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(10000), 99.9);
}

TEST(Metrics, SummaryUsesNearestRank)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const Summary s = summarize(v);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.p50, 50.0);
    EXPECT_DOUBLE_EQ(s.tailPct, 90.0);
    EXPECT_DOUBLE_EQ(s.tail, 90.0);
}

TEST(Metrics, HistogramSummaryMatchesSampleSummary)
{
    dve::Histogram h;
    std::vector<double> v;
    for (int i = 0; i < 20; ++i) { // below 32 every bucket is exact
        h.record(i);
        v.push_back(i);
    }
    const Summary a = summarizeHistogram(h), b = summarize(v);
    EXPECT_EQ(a.count, 20u);
    EXPECT_DOUBLE_EQ(a.p50, b.p50);
    EXPECT_DOUBLE_EQ(a.tail, b.tail);
    EXPECT_DOUBLE_EQ(a.p50, 9.0);
}

TEST(Metrics, Fig6GapFromKnownRoiTimes)
{
    // allow: speedups 4 and 1 -> geomean 2; paper 1.6 -> gap 0.25.
    // deny:  speedups 2 and 2 -> geomean 2; paper 2.5 -> gap 0.20.
    const std::vector<double> numa = {400, 300};
    const std::vector<std::vector<double>> schemes = {{100, 300},
                                                      {200, 150}};
    EXPECT_NEAR(fig6GapPct(numa, schemes, {1.6, 2.5}), 22.5, 1e-9);
    EXPECT_NEAR(fig6GapPct(numa, {{200, 150}}, {2.0}), 0.0, 1e-12);
    EXPECT_THROW(fig6GapPct(numa, schemes, {1.0}), std::invalid_argument);
    EXPECT_THROW(fig6GapPct(numa, {{0, 1}}, {1.0}), std::invalid_argument);
}

TEST(Metrics, BottomTenPaperValuesAreAllSquaredOverTopTen)
{
    const auto w = makeWorkload("fig6-bottom10", 1);
    ASSERT_EQ(w.paper.size(), 3u);
    EXPECT_NEAR(w.paper[0], 1.072, 5e-4);
    EXPECT_NEAR(w.paper[1], 1.033, 5e-4);
    EXPECT_NEAR(w.paper[2], 1.079, 5e-4);
}

TEST(Metrics, UnrecoveredPpm)
{
    EXPECT_DOUBLE_EQ(unrecoveredPpm(3, 2, 1000000), 5.0);
    EXPECT_DOUBLE_EQ(unrecoveredPpm(10, 0, 2000), 5000.0);
    EXPECT_DOUBLE_EQ(unrecoveredPpm(1, 1, 0), 0.0);
}

TEST(Metrics, BusyShare)
{
    EXPECT_DOUBLE_EQ(busyShare(3.0, 2, 2.0), 0.75);
    EXPECT_DOUBLE_EQ(busyShare(4.0, 2, 2.0), 1.0);
    EXPECT_DOUBLE_EQ(busyShare(1.0, 0, 2.0), 0.0);
}

TEST(Workloads, SeedChangesInputsAndUnknownNamesThrow)
{
    const auto a = makeWorkload("fig6-top10", 1);
    const auto b = makeWorkload("fig6-top10", 2);
    for (std::size_t i = 0; i < a.profiles.size(); ++i)
        EXPECT_NE(a.profiles[i].seed, b.profiles[i].seed);
    EXPECT_EQ(makeWorkload("fault-campaign", 9).campaign.seed, 9u);
    EXPECT_THROW(makeWorkload("nope", 1), std::invalid_argument);
}

TEST(Determinism, ReplayMetricsRepeatAcrossRunsAndWorkerCounts)
{
    auto w = makeWorkload("fig6-top10", 5);
    w.profiles.resize(2);
    w.scale = 0.01;
    const ReplayPass a = runReplayPass(w, 1, nullptr);
    SpanLog log;
    const ReplayPass b = runReplayPass(w, 2, &log);
    ASSERT_EQ(a.points.size(), 8u);
    for (std::size_t i = 0; i < a.points.size(); ++i)
        EXPECT_EQ(a.points[i].json, b.points[i].json) << "point " << i;
    EXPECT_EQ(fig6GapOf(w, a), fig6GapOf(w, b));
    EXPECT_GT(fig6GapOf(w, a), 0.0);
    EXPECT_EQ(log.named("pass.task").size(), 8u);
    EXPECT_EQ(log.named("sys.build").size(), 8u);
}

TEST(Determinism, CampaignMetricsRepeatAcrossRunsAndWorkerCounts)
{
    auto w = makeWorkload("fault-campaign", 3);
    w.campaign.trials = 4;
    w.campaign.opsPerTrial = 300;
    const CampaignPass a = runCampaignPass(w, 1, nullptr);
    const CampaignPass b = runCampaignPass(w, 2, nullptr);
    SpanLog log;
    const CampaignPass c = runCampaignPass(w, 2, &log);
    ASSERT_EQ(a.trials.size(), 20u);
    ASSERT_EQ(c.trials.size(), 20u);
    EXPECT_FALSE(a.report.empty());
    EXPECT_EQ(a.report, b.report);
    EXPECT_TRUE(c.report.empty());
    EXPECT_EQ(log.named("fault.trial").size(), 20u);
    for (std::size_t i = 0; i < a.trials.size(); ++i) {
        EXPECT_EQ(trialFingerprint(a.trials[i]),
                  trialFingerprint(b.trials[i]));
        EXPECT_EQ(trialFingerprint(a.trials[i]),
                  trialFingerprint(c.trials[i]));
    }
    EXPECT_NE(trialFingerprint(a.trials[0]), trialFingerprint(a.trials[1]));
    EXPECT_EQ(dvePpmOf(w, a), dvePpmOf(w, b));
    EXPECT_EQ(dvePpmOf(w, a), dvePpmOf(w, c));
}
