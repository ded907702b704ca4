/**
 * @file
 * Unit tests for design finalization (formal coloring, link assignment,
 * orphan pruning, connectivity patching).
 */

#include <gtest/gtest.h>

#include "core/finalize.hpp"
#include "core/partitioner.hpp"
#include "graph/connectivity.hpp"
#include "graph/digraph.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "util/rng.hpp"

using namespace minnoc::core;
using minnoc::Rng;

namespace {

DesignNetwork
partitioned(CliqueSet &ks, minnoc::trace::Benchmark bench,
            std::uint32_t ranks, std::uint32_t degree)
{
    minnoc::trace::NasConfig cfg;
    cfg.ranks = ranks;
    cfg.iterations = 1;
    const auto tr = minnoc::trace::generateBenchmark(bench, cfg);
    ks = minnoc::trace::analyzeByCall(tr);
    ks.reduceToMaximum();
    DesignNetwork net(ks);
    PartitionerConfig pc;
    pc.constraints.maxDegree = degree;
    partitionNetwork(net, pc);
    return net;
}

} // namespace

TEST(Finalize, MegaswitchFinalizesToOneSwitch)
{
    CliqueSet ks(4);
    ks.addClique({Comm(0, 1), Comm(2, 3)});
    DesignNetwork net(ks);
    const auto design = finalizeDesign(net);
    EXPECT_EQ(design.numSwitches, 1u);
    EXPECT_TRUE(design.pipes.empty());
    EXPECT_EQ(design.totalLinks(), 0u);
    EXPECT_EQ(design.switchDegree(0), 4u);
    EXPECT_TRUE(design.colorsExact);
}

TEST(Finalize, LinkCountsMatchChromaticNumbers)
{
    // Two conflicting comms one way and one comm back on one pipe:
    // exactly 2 links, which only a unidirectional design may provision
    // as 2 + 1 channels instead of 2 + 2.
    CliqueSet ks(4);
    ks.addClique({Comm(0, 2), Comm(1, 3)});
    ks.addClique({Comm(2, 0)});
    DesignNetwork net(ks);
    Rng rng(1);
    const SwitchId sj = net.splitSwitch(0, rng);
    for (ProcId p : {0u, 1u})
        net.moveProc(p, 0);
    for (ProcId p : {2u, 3u})
        net.moveProc(p, sj);
    const auto design = finalizeDesign(net);
    ASSERT_EQ(design.pipes.size(), 1u);
    EXPECT_EQ(design.pipes[0].links, 2u);
    EXPECT_EQ(design.totalChannels(), 4u);
    const auto uni = finalizeDesign(net, FinalizeConfig{true});
    EXPECT_EQ(uni.totalLinks(), 2u);
    EXPECT_EQ(uni.totalChannels(), 3u);
    // Conflicting comms must receive distinct link colors.
    const auto &fwd = design.pipes[0].fwdLink;
    ASSERT_EQ(fwd.size(), 2u);
    const auto it = fwd.begin();
    EXPECT_NE(it->second, std::next(it)->second);
}

TEST(Finalize, NonConflictingCommsShareOneLink)
{
    CliqueSet ks(4);
    ks.addClique({Comm(0, 2)});
    ks.addClique({Comm(1, 3)});
    DesignNetwork net(ks);
    Rng rng(1);
    const SwitchId sj = net.splitSwitch(0, rng);
    for (ProcId p : {0u, 1u})
        net.moveProc(p, 0);
    for (ProcId p : {2u, 3u})
        net.moveProc(p, sj);
    const auto design = finalizeDesign(net);
    ASSERT_EQ(design.pipes.size(), 1u);
    EXPECT_EQ(design.pipes[0].links, 1u);
}

TEST(Finalize, OrphanSwitchesPruned)
{
    CliqueSet ks(4);
    ks.addClique({Comm(0, 1), Comm(2, 3)});
    DesignNetwork net(ks);
    Rng rng(1);
    const SwitchId sj = net.splitSwitch(0, rng);
    // Pull everything back to switch 0: sj becomes an orphan.
    for (ProcId p = 0; p < 4; ++p)
        net.moveProc(p, 0);
    (void)sj;
    const auto design = finalizeDesign(net);
    EXPECT_EQ(design.numSwitches, 1u);
    for (ProcId p = 0; p < 4; ++p)
        EXPECT_EQ(design.procHome[p], 0u);
}

TEST(Finalize, ConnectivityPatchJoinsIslands)
{
    // Two comms fully inside two separate switch islands: the patch
    // must connect them.
    CliqueSet ks(4);
    ks.addClique({Comm(0, 1)});
    ks.addClique({Comm(2, 3)});
    DesignNetwork net(ks);
    Rng rng(1);
    const SwitchId sj = net.splitSwitch(0, rng);
    for (ProcId p : {0u, 1u})
        net.moveProc(p, 0);
    for (ProcId p : {2u, 3u})
        net.moveProc(p, sj);
    const auto design = finalizeDesign(net);
    ASSERT_EQ(design.pipes.size(), 1u);
    EXPECT_TRUE(design.pipes[0].connectivityOnly);
    EXPECT_EQ(design.pipes[0].links, 1u);

    // The switch graph must now be strongly connected.
    minnoc::graph::Digraph sg(design.numSwitches);
    for (const auto &p : design.pipes) {
        sg.addEdge(p.key.a, p.key.b);
        sg.addEdge(p.key.b, p.key.a);
    }
    EXPECT_TRUE(minnoc::graph::isStronglyConnected(sg));
}

TEST(Finalize, CgSixteenIsConnectedAndWithinDegree)
{
    CliqueSet ks;
    auto net = partitioned(ks, minnoc::trace::Benchmark::CG, 16, 5);
    const auto design = finalizeDesign(net);

    minnoc::graph::Digraph sg(design.numSwitches);
    for (const auto &p : design.pipes) {
        sg.addEdge(p.key.a, p.key.b);
        sg.addEdge(p.key.b, p.key.a);
    }
    EXPECT_TRUE(minnoc::graph::isStronglyConnected(sg));
    for (SwitchId s = 0; s < design.numSwitches; ++s)
        EXPECT_LE(design.switchDegree(s), 5u);
    EXPECT_TRUE(design.colorsExact);
}

TEST(Finalize, DuplexDesignsProvisionTwoChannelsPerLink)
{
    // The methodology compares every design by totalChannels(); for a
    // duplex design that must be 2 * totalLinks(). A unidirectional
    // design may provision fewer (LinkCountsMatchChromaticNumbers).
    for (const auto bench : minnoc::trace::kAllBenchmarks) {
        SCOPED_TRACE(minnoc::trace::benchmarkName(bench));
        CliqueSet ks;
        const auto duplex = finalizeDesign(partitioned(ks, bench, 16, 5));
        EXPECT_GT(duplex.totalLinks(), 0u);
        EXPECT_EQ(duplex.totalChannels(), 2 * duplex.totalLinks());
    }

}

TEST(Finalize, RoutesSurviveRemapping)
{
    CliqueSet ks;
    auto net = partitioned(ks, minnoc::trace::Benchmark::CG, 16, 5);
    const auto design = finalizeDesign(net);
    for (CommId c = 0; c < design.comms.size(); ++c) {
        const auto &route = design.routes[c];
        ASSERT_FALSE(route.empty());
        EXPECT_EQ(route.front(), design.procHome[design.comms[c].src]);
        EXPECT_EQ(route.back(), design.procHome[design.comms[c].dst]);
        for (const auto s : route)
            EXPECT_LT(s, design.numSwitches);
        // Every hop is a finalized pipe with a link color for this comm.
        for (std::size_t i = 0; i + 1 < route.size(); ++i) {
            const auto pi =
                design.pipeIndex(PipeKey(route[i], route[i + 1]));
            ASSERT_NE(pi, FinalizedDesign::npos);
            const auto &pipe = design.pipes[pi];
            const bool fwd = route[i] < route[i + 1];
            const auto &linkOf = fwd ? pipe.fwdLink : pipe.bwdLink;
            const auto it = linkOf.find(c);
            ASSERT_NE(it, linkOf.end());
            EXPECT_LT(it->second, pipe.links);
        }
    }
}

TEST(Finalize, PipeIndexMissingKey)
{
    CliqueSet ks(4);
    ks.addClique({Comm(0, 1)});
    DesignNetwork net(ks);
    const auto design = finalizeDesign(net);
    EXPECT_EQ(design.pipeIndex(PipeKey(0, 1)), FinalizedDesign::npos);
}

TEST(Finalize, ToStringSmoke)
{
    CliqueSet ks(4);
    ks.addClique({Comm(0, 1)});
    DesignNetwork net(ks);
    const auto design = finalizeDesign(net);
    EXPECT_NE(design.toString().find("FinalizedDesign"),
              std::string::npos);
}
