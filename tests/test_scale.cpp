/**
 * @file
 * Node-axis scale tests: the hierarchical pre-partitioner (determinism,
 * leaf sizing, agreement with the flat path under Theorem 1), the
 * closed-form scale patterns, the cached CommBitset popcount, the
 * incremental Theorem-1 verifier, byte-identity of a 256-rank design
 * across thread counts and reruns, and a 4096-rank mesh ring that must
 * build and simulate without any all-pairs state.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/design_io.hpp"
#include "core/hier_partitioner.hpp"
#include "core/methodology.hpp"
#include "core/verify.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "trace/analyzer.hpp"
#include "trace/scale_patterns.hpp"

using namespace minnoc::core;
namespace trace = minnoc::trace;

namespace {

std::string
serialized(const FinalizedDesign &d)
{
    std::ostringstream os;
    saveDesign(d, os);
    return os.str();
}

} // namespace

TEST(CommBitsetCount, MaintainedByInsertAndErase)
{
    CommBitset s(200);
    EXPECT_EQ(s.size(), 0u);
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.insert(3));
    EXPECT_TRUE(s.insert(130));
    EXPECT_FALSE(s.insert(3)); // duplicate: count must not drift
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(s.erase(3));
    EXPECT_FALSE(s.erase(3)); // double erase: count must not drift
    EXPECT_EQ(s.size(), 1u);
    EXPECT_FALSE(s.empty());
    s.resize(64);
    EXPECT_EQ(s.size(), 0u);
}

TEST(CommBitsetCount, EqualityIsWordExact)
{
    CommBitset a(100);
    CommBitset b(100);
    a.insert(7);
    a.insert(70);
    a.erase(70);
    b.insert(7);
    // Different insert/erase histories, same words: equal.
    EXPECT_TRUE(a == b);
    b.insert(8);
    EXPECT_FALSE(a == b);
    // Same bits at a different width: not equal (fixed-width contract).
    CommBitset c(101);
    c.insert(7);
    EXPECT_FALSE(a == c);
}

TEST(ScalePatterns, RingTwoDirectionalCliques)
{
    const auto ks = trace::ringPattern(8);
    EXPECT_EQ(ks.numProcs(), 8u);
    EXPECT_EQ(ks.numCliques(), 2u);
    EXPECT_EQ(ks.numComms(), 16u); // 8 forward + 8 backward
}

TEST(ScalePatterns, TransposeDropsFixedPoints)
{
    const auto ks = trace::transposePattern(16); // 4 x 4 grid
    EXPECT_EQ(ks.numCliques(), 1u);
    EXPECT_EQ(ks.numComms(), 12u); // 16 minus the 4-element diagonal
}

TEST(ScalePatterns, NearestNeighborFourShifts)
{
    const auto ks = trace::nearestNeighborPattern(16);
    EXPECT_EQ(ks.numCliques(), 4u);
}

TEST(ScalePatterns, RailOneCliquePerDestinationGroup)
{
    const auto ks = trace::railPattern(32, 8, 2); // 4 groups
    EXPECT_EQ(ks.numCliques(), 4u);
    // Each destination group receives from 3 others on 2 rails.
    for (const auto &k : ks.cliques())
        EXPECT_EQ(k.comms.size(), 6u);
}

TEST(ScalePatterns, DispatchMatchesDirectCalls)
{
    const auto direct = trace::ringPattern(64);
    const auto named = trace::makeScalePattern("ring", 64);
    EXPECT_EQ(direct.numComms(), named.numComms());
    EXPECT_EQ(direct.numCliques(), named.numCliques());
}

TEST(ScalePatterns, FanDirectionsGrowMonotonically)
{
    using trace::GroupDirection;
    // 4 groups of 8, subgroup 2: uni fans the root subgroup out to
    // the 3 other groups (2 x 8 comms each), bi adds the gather into
    // group 0, omni makes every group the root.
    const auto uni = trace::fanPattern(32, 8, 2, GroupDirection::Uni);
    EXPECT_EQ(uni.numCliques(), 3u);
    EXPECT_EQ(uni.numComms(), 48u);

    const auto bi = trace::fanPattern(32, 8, 2, GroupDirection::Bi);
    EXPECT_EQ(bi.numCliques(), 4u);
    EXPECT_EQ(bi.numComms(), 96u);

    const auto omni = trace::fanPattern(32, 8, 2, GroupDirection::Omni);
    EXPECT_EQ(omni.numCliques(), 4u);
    EXPECT_EQ(omni.numComms(), 192u);
}

TEST(ScalePatterns, DenseSubgroupProducts)
{
    using trace::GroupDirection;
    // 4 groups of 4, subgroup 2: each active ordered pair contributes
    // the 2 x 2 subgroup product.
    const auto uni = trace::densePattern(16, 4, 2, GroupDirection::Uni);
    EXPECT_EQ(uni.numCliques(), 3u);
    EXPECT_EQ(uni.numComms(), 12u);

    const auto bi = trace::densePattern(16, 4, 2, GroupDirection::Bi);
    EXPECT_EQ(bi.numCliques(), 4u);
    EXPECT_EQ(bi.numComms(), 24u);

    const auto omni =
        trace::densePattern(16, 4, 2, GroupDirection::Omni);
    EXPECT_EQ(omni.numCliques(), 4u);
    EXPECT_EQ(omni.numComms(), 48u);
}

TEST(ScalePatterns, NamedFanDenseDispatch)
{
    const auto named = trace::makeScalePattern("dense_omni", 16, 4, 2);
    const auto direct = trace::densePattern(
        16, 4, 2, trace::GroupDirection::Omni);
    EXPECT_EQ(named.numComms(), direct.numComms());
    EXPECT_EQ(named.numCliques(), direct.numCliques());
    // Every advertised name dispatches (fatal() would abort).
    for (const auto &name : trace::scalePatternNames())
        EXPECT_GT(trace::makeScalePattern(name, 64).numComms(), 0u);
}

TEST(ScalePatterns, TraceFromCliquesRoundTripsThroughAnalyzer)
{
    const auto ks =
        trace::fanPattern(16, 4, 2, trace::GroupDirection::Omni);
    const auto tr = trace::traceFromCliques(ks, "fan", 256, 2);
    EXPECT_EQ(tr.numRanks(), ks.numProcs());
    // callId = clique index, so by-call analysis recovers exactly the
    // generating contention periods (iterations dedupe away).
    const auto recovered = trace::analyzeByCall(tr);
    EXPECT_EQ(recovered.numCliques(), ks.numCliques());
    EXPECT_EQ(recovered.numComms(), ks.numComms());
}

TEST(HierPartitioner, LeafSizesAndInvariants)
{
    const auto ks = trace::ringPattern(128);
    DesignNetwork net(ks);
    PartitionerConfig cfg;
    cfg.hierarchicalLeaf = 8;
    PartitionResult result;
    const auto stats = hierarchicalPrePartition(net, cfg, result);
    net.checkInvariants();
    EXPECT_GE(stats.leaves, 128u / 8u);
    EXPECT_EQ(stats.splits, net.numSwitches() - 1);
    EXPECT_EQ(result.numSplits, stats.splits);
    for (SwitchId s = 0; s < net.numSwitches(); ++s) {
        EXPECT_GE(net.procsOf(s).size(), 1u);
        EXPECT_LE(net.procsOf(s).size(), 8u);
    }
}

TEST(HierPartitioner, DeterministicAcrossRuns)
{
    const auto ks = trace::nearestNeighborPattern(128);
    PartitionerConfig cfg;
    auto run = [&] {
        DesignNetwork net(ks);
        PartitionResult result;
        hierarchicalPrePartition(net, cfg, result);
        std::vector<SwitchId> homes;
        for (ProcId p = 0; p < net.numProcs(); ++p)
            homes.push_back(net.homeOf(p));
        return homes;
    };
    EXPECT_EQ(run(), run());
}

TEST(HierPartitioner, HierAndFlatBothVerifyOnSameCliques)
{
    // Force the hierarchical path at a size the flat path also handles,
    // and require Theorem-1-clean, constraint-satisfying designs from
    // both on the SAME clique set.
    const auto ks = trace::ringPattern(32);
    MethodologyConfig flat;
    flat.partitioner.constraints.maxDegree = 6;
    flat.restarts = 2;
    flat.partitioner.hierarchicalThreshold = 0; // flat paper path
    const auto flatOut = runMethodology(ks, flat);
    EXPECT_TRUE(flatOut.constraintsMet);
    EXPECT_TRUE(flatOut.violations.empty());

    MethodologyConfig hier = flat;
    hier.partitioner.hierarchicalThreshold = 16; // 32 > 16: engages
    const auto hierOut = runMethodology(ks, hier);
    EXPECT_TRUE(hierOut.constraintsMet);
    EXPECT_TRUE(hierOut.violations.empty());
    EXPECT_TRUE(checkContentionFree(hierOut.design, ks).empty());
}

TEST(HierPartitioner, DesignsByteIdenticalAt256Ranks)
{
    const auto ks = trace::ringPattern(256);
    MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 6;
    cfg.restarts = 2;

    cfg.threads = 1;
    const auto first = runMethodology(ks, cfg);
    EXPECT_TRUE(first.violations.empty());
    const auto firstBytes = serialized(first.design);

    // Rerun at the same thread count: identical bytes.
    const auto rerun = runMethodology(ks, cfg);
    EXPECT_EQ(firstBytes, serialized(rerun.design));

    // Different thread count: the wave selection must keep the winner
    // identical.
    cfg.threads = 4;
    const auto threaded = runMethodology(ks, cfg);
    EXPECT_EQ(firstBytes, serialized(threaded.design));
}

TEST(IncrementalVerifier, MatchesBatchAndReusesUnchangedPipes)
{
    CliqueSet ks(6);
    const CommId a = ks.internComm(Comm(0, 1));
    const CommId b = ks.internComm(Comm(2, 3));
    const CommId c = ks.internComm(Comm(4, 5));
    ks.addCliqueByIds({a, b});
    ks.addCliqueByIds({c});

    FinalizedDesign d;
    d.numProcs = 6;
    d.numSwitches = 3;
    FinalizedPipe p01;
    p01.key = PipeKey(0, 1);
    p01.links = p01.linksFwd = 1;
    p01.fwdLink = {{a, 0}, {b, 0}}; // contending pair shares link 0
    FinalizedPipe p12;
    p12.key = PipeKey(1, 2);
    p12.links = p12.linksFwd = 1;
    p12.fwdLink = {{c, 0}};
    d.pipes = {p01, p12};

    IncrementalVerifier v(ks);
    const auto batch = checkContentionFree(d, ks);
    const auto inc = v.check(d);
    ASSERT_EQ(batch.size(), 1u);
    ASSERT_EQ(inc.size(), 1u);
    EXPECT_EQ(inc[0].a, batch[0].a);
    EXPECT_EQ(inc[0].b, batch[0].b);
    EXPECT_EQ(inc[0].pipe, batch[0].pipe);
    EXPECT_EQ(inc[0].forward, batch[0].forward);
    EXPECT_EQ(inc[0].link, batch[0].link);
    EXPECT_EQ(v.pipesChecked(), 2u);
    EXPECT_EQ(v.pipesReused(), 0u);

    // Unchanged design: every pipe served from cache, same result.
    const auto again = v.check(d);
    EXPECT_EQ(again.size(), 1u);
    EXPECT_EQ(v.pipesChecked(), 2u);
    EXPECT_EQ(v.pipesReused(), 2u);

    // Fix the violation on one pipe: only that pipe is re-checked.
    d.pipes[0].links = d.pipes[0].linksFwd = 2;
    d.pipes[0].fwdLink = {{a, 0}, {b, 1}};
    const auto fixed = v.check(d);
    EXPECT_TRUE(fixed.empty());
    EXPECT_TRUE(checkContentionFree(d, ks).empty());
    EXPECT_EQ(v.pipesChecked(), 3u);
    EXPECT_EQ(v.pipesReused(), 3u);

    // A pipe that disappears just drops out of the cache.
    d.pipes.pop_back();
    EXPECT_TRUE(v.check(d).empty());
    EXPECT_EQ(v.pipesChecked(), 3u);
    EXPECT_EQ(v.pipesReused(), 4u);
}

TEST(Scale, MeshRing4096)
{
    // 64x64 mesh with computed DOR routing: the build, the routing
    // validation and the simulation all stay linear-ish in the ranks.
    const auto net = minnoc::topo::buildMesh(4096);
    const auto tr =
        trace::traceFromCliques(trace::ringPattern(4096), "ring-4096", 1024, 1);
    const auto res = minnoc::sim::runTrace(tr, *net.topo, *net.routing);
    EXPECT_EQ(res.packetsDelivered, 8192u);
    EXPECT_EQ(res.deadlockRecoveries, 0u);
}
