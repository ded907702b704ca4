/**
 * @file
 * End-to-end tests of the methodology driver across the paper's five
 * benchmarks and both configuration sizes.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "core/methodology.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;
using namespace minnoc::core;

namespace {

CliqueSet
benchCliques(trace::Benchmark b, std::uint32_t ranks)
{
    trace::NasConfig cfg;
    cfg.ranks = ranks;
    cfg.iterations = 1;
    const auto tr = trace::generateBenchmark(b, cfg);
    return trace::analyzeByCall(tr);
}

} // namespace

/** Parameterized over (benchmark, small/large config). */
class MethodologyAllBenchmarks
    : public ::testing::TestWithParam<std::tuple<trace::Benchmark, bool>>
{
};

TEST_P(MethodologyAllBenchmarks, ContentionFreeWithinConstraints)
{
    const auto [bench, large] = GetParam();
    const std::uint32_t ranks = large ? trace::largeConfigRanks(bench)
                                      : trace::smallConfigRanks(bench);
    const auto ks = benchCliques(bench, ranks);

    MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    const auto outcome = runMethodology(ks, cfg);

    // Theorem 1 must hold on the finalized design.
    EXPECT_TRUE(outcome.violations.empty())
        << trace::benchmarkName(bench) << "-" << ranks << ": "
        << outcome.violations.size() << " residual contentions";

    // All 5 benchmarks are feasible at degree 5 (the paper generates
    // degree-5 networks for each).
    EXPECT_TRUE(outcome.constraintsMet)
        << trace::benchmarkName(bench) << "-" << ranks;
    for (SwitchId s = 0; s < outcome.design.numSwitches; ++s)
        EXPECT_LE(outcome.design.switchDegree(s), 5u);

    // The generated network must be no larger than one switch per
    // processor (it should beat the mesh on switch count).
    EXPECT_LE(outcome.design.numSwitches, ranks);
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, MethodologyAllBenchmarks,
    ::testing::Combine(::testing::Values(trace::Benchmark::BT,
                                         trace::Benchmark::CG,
                                         trace::Benchmark::FFT,
                                         trace::Benchmark::MG,
                                         trace::Benchmark::SP),
                       ::testing::Bool()),
    [](const auto &info) {
        return trace::benchmarkName(std::get<0>(info.param)) +
               std::string(std::get<1>(info.param) ? "_large" : "_small");
    });

TEST(Methodology, DeterministicAcrossRuns)
{
    const auto ks = benchCliques(trace::Benchmark::CG, 16);
    MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    const auto a = runMethodology(ks, cfg);
    const auto b = runMethodology(ks, cfg);
    EXPECT_EQ(a.design.numSwitches, b.design.numSwitches);
    EXPECT_EQ(a.design.totalLinks(), b.design.totalLinks());
    EXPECT_EQ(a.design.procHome, b.design.procHome);
}

TEST(Methodology, SeedChangesDesignButNotCorrectness)
{
    const auto ks = benchCliques(trace::Benchmark::FFT, 16);
    MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    cfg.partitioner.seed = 1;
    const auto a = runMethodology(ks, cfg);
    cfg.partitioner.seed = 99;
    const auto b = runMethodology(ks, cfg);
    EXPECT_TRUE(a.violations.empty());
    EXPECT_TRUE(b.violations.empty());
}

TEST(Methodology, CliqueReductionDoesNotChangeVerification)
{
    const auto ks = benchCliques(trace::Benchmark::MG, 8);
    MethodologyConfig with;
    with.partitioner.constraints.maxDegree = 5;
    with.reduceCliques = true;
    MethodologyConfig without = with;
    without.reduceCliques = false;
    EXPECT_TRUE(runMethodology(ks, with).violations.empty());
    EXPECT_TRUE(runMethodology(ks, without).violations.empty());
}

TEST(Methodology, LooseConstraintsKeepMegaswitch)
{
    const auto ks = benchCliques(trace::Benchmark::CG, 8);
    MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 64;
    const auto outcome = runMethodology(ks, cfg);
    EXPECT_EQ(outcome.design.numSwitches, 1u);
    EXPECT_EQ(outcome.design.totalLinks(), 0u);
    EXPECT_TRUE(outcome.violations.empty());
}

TEST(Methodology, SummaryMentionsKeyFigures)
{
    const auto ks = benchCliques(trace::Benchmark::CG, 8);
    MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    const auto outcome = runMethodology(ks, cfg);
    const auto text = outcome.summary();
    EXPECT_NE(text.find("switches="), std::string::npos);
    EXPECT_NE(text.find("links="), std::string::npos);
}

TEST(Methodology, HistoryEndsWithFinalize)
{
    const auto ks = benchCliques(trace::Benchmark::CG, 16);
    MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    const auto outcome = runMethodology(ks, cfg);
    ASSERT_FALSE(outcome.history.empty());
    EXPECT_EQ(outcome.history.back().kind,
              PartitionStep::Kind::Finalize);
}

TEST(Methodology, CancelStopsSwitchMergeMidway)
{
    // BT-36 over four restarts: the switch merge after them takes about
    // five times as long as the restarts themselves, so a deadline half
    // a restart phase after they end fires mid-merge, and the run must
    // stop well before the merge would have ended. Without a checkpoint
    // inside the merge it runs to completion and throws nothing.
    const auto ks = benchCliques(trace::Benchmark::BT, 36);
    MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    cfg.restarts = 4;
    cfg.threads = 1;
    using Clock = std::chrono::steady_clock;
    const auto seconds = [](Clock::time_point since) {
        return std::chrono::duration<double>(Clock::now() - since).count();
    };

    cfg.mergeSwitches = false;
    auto start = Clock::now();
    runMethodology(ks, cfg);
    const double restarts = seconds(start);

    cfg.mergeSwitches = true;
    CancelToken token;
    cfg.cancel = &token;
    token.setDeadlineIn(static_cast<std::int64_t>(1.5e6 * restarts));
    start = Clock::now();
    EXPECT_THROW(runMethodology(ks, cfg), CancelledError);
    EXPECT_LT(seconds(start), 3 * restarts);
}
