/**
 * @file
 * Unit tests for the main partitioning algorithm.
 */

#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "util/rng.hpp"

using namespace minnoc::core;
using minnoc::Rng;

namespace {

CliqueSet
cgCliques(std::uint32_t ranks)
{
    minnoc::trace::NasConfig cfg;
    cfg.ranks = ranks;
    cfg.iterations = 1;
    const auto tr = minnoc::trace::generateCG(cfg);
    auto ks = minnoc::trace::analyzeByCall(tr);
    ks.reduceToMaximum();
    return ks;
}

} // namespace

TEST(Partitioner, TrivialPatternAlreadySatisfied)
{
    CliqueSet ks(4);
    ks.addClique({Comm(0, 1)});
    DesignNetwork net(ks);
    PartitionerConfig cfg;
    cfg.constraints.maxDegree = 8; // 4 procs, no links: degree 4 <= 8
    const auto result = partitionNetwork(net, cfg);
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(result.numSplits, 0u);
    EXPECT_EQ(net.numSwitches(), 1u);
}

TEST(Partitioner, SplitsUntilDegreeConstraintHolds)
{
    CliqueSet ks = cgCliques(16);
    DesignNetwork net(ks);
    PartitionerConfig cfg;
    cfg.constraints.maxDegree = 5;
    cfg.paranoid = true;
    const auto result = partitionNetwork(net, cfg);
    EXPECT_TRUE(result.feasible);
    EXPECT_GT(result.numSplits, 0u);
    for (SwitchId s = 0; s < net.numSwitches(); ++s) {
        if (!net.procsOf(s).empty()) {
            EXPECT_LE(net.estimatedDegree(s), 5u);
        }
    }
}

TEST(Partitioner, DeterministicForFixedSeed)
{
    CliqueSet ks = cgCliques(16);
    PartitionerConfig cfg;
    cfg.constraints.maxDegree = 5;
    cfg.seed = 42;

    DesignNetwork a(ks);
    const auto ra = partitionNetwork(a, cfg);
    DesignNetwork b(ks);
    const auto rb = partitionNetwork(b, cfg);

    EXPECT_EQ(ra.numSplits, rb.numSplits);
    EXPECT_EQ(ra.numMoves, rb.numMoves);
    EXPECT_EQ(a.numSwitches(), b.numSwitches());
    EXPECT_EQ(a.totalEstimatedLinks(), b.totalEstimatedLinks());
    for (ProcId p = 0; p < 16; ++p)
        EXPECT_EQ(a.homeOf(p), b.homeOf(p));
}

TEST(Partitioner, InfeasibleConstraintsReported)
{
    // An 8-way all-to-all in a single contention period: every proc has
    // 7 mutually conflicting outgoing comms, so degree 2 can never hold.
    CliqueSet ks(8);
    std::vector<Comm> comms;
    for (ProcId s = 0; s < 8; ++s) {
        for (ProcId d = 0; d < 8; ++d) {
            if (s != d)
                comms.emplace_back(s, d);
        }
    }
    ks.addClique(comms);
    DesignNetwork net(ks);
    PartitionerConfig cfg;
    cfg.constraints.maxDegree = 2;
    const auto result = partitionNetwork(net, cfg);
    EXPECT_FALSE(result.feasible);
}

TEST(Partitioner, HistoryRecordsSplitsAndMoves)
{
    CliqueSet ks = cgCliques(8);
    DesignNetwork net(ks);
    PartitionerConfig cfg;
    cfg.constraints.maxDegree = 5;
    const auto result = partitionNetwork(net, cfg);

    std::uint32_t splits = 0;
    std::uint32_t moves = 0;
    for (const auto &step : result.history) {
        splits += step.kind == PartitionStep::Kind::Split;
        moves += step.kind == PartitionStep::Kind::Move;
    }
    EXPECT_EQ(splits, result.numSplits);
    EXPECT_EQ(moves, result.numMoves);
}

TEST(Partitioner, MaxProcsPerSwitchConstraint)
{
    CliqueSet ks = cgCliques(8);
    DesignNetwork net(ks);
    PartitionerConfig cfg;
    cfg.constraints.maxDegree = 64;
    cfg.constraints.maxProcsPerSwitch = 2;
    const auto result = partitionNetwork(net, cfg);
    EXPECT_TRUE(result.feasible);
    for (SwitchId s = 0; s < net.numSwitches(); ++s)
        EXPECT_LE(net.procsOf(s).size(), 2u);
}

TEST(Partitioner, SplitBudgetStopsRunaway)
{
    CliqueSet ks = cgCliques(16);
    DesignNetwork net(ks);
    PartitionerConfig cfg;
    cfg.constraints.maxDegree = 5;
    cfg.maxSplits = 1;
    const auto result = partitionNetwork(net, cfg);
    EXPECT_LE(result.numSplits, 1u);
}

TEST(Partitioner, MovesNeverEmptyASwitch)
{
    CliqueSet ks = cgCliques(16);
    DesignNetwork net(ks);
    PartitionerConfig cfg;
    cfg.constraints.maxDegree = 5;
    partitionNetwork(net, cfg);
    // Every switch created by a split keeps at least one processor OR
    // carries transit traffic; in particular no (2,0) un-split shape.
    std::size_t totalProcs = 0;
    for (SwitchId s = 0; s < net.numSwitches(); ++s)
        totalProcs += net.procsOf(s).size();
    EXPECT_EQ(totalProcs, 16u);
}

TEST(Partitioner, EstimateNeverBelowOnePerUsedPipe)
{
    CliqueSet ks = cgCliques(16);
    DesignNetwork net(ks);
    PartitionerConfig cfg;
    cfg.constraints.maxDegree = 5;
    partitionNetwork(net, cfg);
    for (const auto &key : net.pipes()) {
        const auto &pipe = net.pipe(key);
        if (!pipe.fwd.empty() || !pipe.bwd.empty()) {
            EXPECT_GE(net.fastColor(key), 1u);
        }
    }
}
