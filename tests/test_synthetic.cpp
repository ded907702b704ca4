/**
 * @file
 * Unit tests for synthetic traffic generation and DOT export.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/methodology.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "topo/dot.hpp"
#include "topo/floorplan.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "trace/synthetic.hpp"

using namespace minnoc;
using namespace minnoc::trace;

TEST(Synthetic, PatternNames)
{
    EXPECT_EQ(patternName(Pattern::UniformRandom), "uniform");
    EXPECT_EQ(patternName(Pattern::Hotspot), "hotspot");
}

TEST(Synthetic, PatternNamesRoundTrip)
{
    for (const auto p :
         {Pattern::UniformRandom, Pattern::Transpose,
          Pattern::BitReversal, Pattern::Hotspot, Pattern::Neighbor}) {
        EXPECT_EQ(patternFromName(patternName(p)), p);
    }
    EXPECT_EXIT(patternFromName("mesh"), ::testing::ExitedWithCode(1),
                "unknown synthetic pattern");
}

TEST(PhaseShift, ValidatesConfig)
{
    EXPECT_EXIT(phaseShift({}), ::testing::ExitedWithCode(1),
                "at least one pattern");
    PhaseShiftConfig cfg;
    cfg.ranks = 1;
    EXPECT_EXIT(phaseShift({Pattern::Neighbor}, cfg),
                ::testing::ExitedWithCode(1), "two ranks");
}

TEST(PhaseShift, CallIdsSegregateByEpoch)
{
    PhaseShiftConfig cfg;
    cfg.ranks = 8;
    const auto tr =
        phaseShift({Pattern::Neighbor, Pattern::Transpose}, cfg);
    EXPECT_EQ(tr.name(), "phase-shift-neighbor-transpose");

    // Epoch e uses exactly the call-id range
    // [e*sitesPerPhase, (e+1)*sitesPerPhase): distinct call sites per
    // phase are what the segmenter's Jaccard term keys on.
    for (core::ProcId r = 0; r < cfg.ranks; ++r) {
        for (const auto &op : tr.timeline(r)) {
            if (op.kind == OpKind::Send) {
                EXPECT_LT(op.callId, 2 * cfg.sitesPerPhase);
            }
        }
    }
}

TEST(PhaseShift, NeighborEpochSendsEveryRankEveryIteration)
{
    PhaseShiftConfig cfg;
    cfg.ranks = 8;
    cfg.itersPerPhase = 4;
    const auto tr = phaseShift({Pattern::Neighbor}, cfg);
    EXPECT_EQ(tr.numSends(),
              static_cast<std::size_t>(cfg.ranks) * cfg.itersPerPhase);
}

TEST(PhaseShift, ReplaysDeadlockFreeOnAMesh)
{
    const auto tr = phaseShift(
        {Pattern::Neighbor, Pattern::Hotspot, Pattern::Transpose});
    const auto mesh = topo::buildMesh(16);
    const auto res = sim::runTrace(tr, *mesh.topo, *mesh.routing);
    EXPECT_EQ(res.packetsDelivered, tr.numSends());
    EXPECT_EQ(res.deadlockRecoveries, 0u);
}

TEST(PhaseShift, IsDeterministic)
{
    const auto a = phaseShift({Pattern::UniformRandom});
    const auto b = phaseShift({Pattern::UniformRandom});
    std::ostringstream sa, sb;
    a.save(sa);
    b.save(sb);
    EXPECT_EQ(sa.str(), sb.str());
}

TEST(Synthetic, ValidatesConfig)
{
    SyntheticConfig cfg;
    cfg.ranks = 1;
    EXPECT_EXIT(generateSynthetic(cfg), ::testing::ExitedWithCode(1),
                "two ranks");
    cfg.ranks = 4;
    cfg.load = 1.5;
    EXPECT_EXIT(generateSynthetic(cfg), ::testing::ExitedWithCode(1),
                "load");
}

TEST(Synthetic, ZeroLoadSendsNothing)
{
    SyntheticConfig cfg;
    cfg.ranks = 8;
    cfg.load = 0.0;
    const auto tr = generateSynthetic(cfg);
    EXPECT_EQ(tr.numSends(), 0u);
}

TEST(Synthetic, LoadScalesMessageCount)
{
    SyntheticConfig cfg;
    cfg.ranks = 16;
    cfg.slots = 500;
    cfg.load = 0.1;
    const auto low = generateSynthetic(cfg).numSends();
    cfg.load = 0.4;
    const auto high = generateSynthetic(cfg).numSends();
    // Roughly proportional (Bernoulli; 4x load within 30%).
    EXPECT_GT(high, 3 * low);
    EXPECT_LT(high, 5 * low + low / 2);
}

TEST(Synthetic, NeighborPatternOnlyTalksToSuccessor)
{
    SyntheticConfig cfg;
    cfg.ranks = 8;
    cfg.pattern = Pattern::Neighbor;
    cfg.load = 0.5;
    const auto tr = generateSynthetic(cfg);
    for (core::ProcId r = 0; r < 8; ++r) {
        for (const auto &op : tr.timeline(r)) {
            if (op.kind == OpKind::Send) {
                EXPECT_EQ(op.peer, (r + 1) % 8);
            }
        }
    }
}

TEST(Synthetic, HotspotConcentratesOnNodeZero)
{
    SyntheticConfig cfg;
    cfg.ranks = 16;
    cfg.pattern = Pattern::Hotspot;
    cfg.load = 0.5;
    cfg.slots = 400;
    cfg.hotspotFraction = 0.5;
    const auto tr = generateSynthetic(cfg);
    std::size_t toZero = 0;
    std::size_t total = 0;
    for (core::ProcId r = 0; r < 16; ++r) {
        for (const auto &op : tr.timeline(r)) {
            if (op.kind == OpKind::Send) {
                ++total;
                toZero += op.peer == 0;
            }
        }
    }
    // ~50% hotspot + uniform share: node 0 well above 1/15.
    EXPECT_GT(static_cast<double>(toZero) / static_cast<double>(total),
              0.35);
}

TEST(Synthetic, TransposeIsDeterministicPerSource)
{
    SyntheticConfig cfg;
    cfg.ranks = 16; // 4x4
    cfg.pattern = Pattern::Transpose;
    cfg.load = 1.0;
    cfg.slots = 4;
    const auto tr = generateSynthetic(cfg);
    for (core::ProcId r = 0; r < 16; ++r) {
        const auto expected =
            static_cast<core::ProcId>((r % 4) * 4 + r / 4);
        for (const auto &op : tr.timeline(r)) {
            if (op.kind == OpKind::Send) {
                EXPECT_EQ(op.peer, expected);
            }
        }
    }
}

TEST(Synthetic, RunsOnEveryTopology)
{
    SyntheticConfig cfg;
    cfg.ranks = 8;
    cfg.load = 0.3;
    cfg.slots = 50;
    for (const auto pattern :
         {Pattern::UniformRandom, Pattern::Transpose,
          Pattern::BitReversal, Pattern::Hotspot, Pattern::Neighbor}) {
        cfg.pattern = pattern;
        const auto tr = generateSynthetic(cfg);
        const auto mesh = topo::buildMesh(8);
        const auto res = sim::runTrace(tr, *mesh.topo, *mesh.routing);
        EXPECT_EQ(res.packetsDelivered, tr.numSends())
            << patternName(pattern);
        EXPECT_EQ(res.deadlockRecoveries, 0u);
    }
}

TEST(Synthetic, LatencyGrowsWithLoad)
{
    const auto mesh = topo::buildMesh(16);
    double prev = 0.0;
    for (const double load : {0.05, 0.7}) {
        SyntheticConfig cfg;
        cfg.ranks = 16;
        cfg.load = load;
        cfg.slots = 150;
        const auto tr = generateSynthetic(cfg);
        const auto res = sim::runTrace(tr, *mesh.topo, *mesh.routing);
        EXPECT_GT(res.avgPacketLatency, prev);
        prev = res.avgPacketLatency;
    }
}

TEST(Dot, DesignExportContainsAllElements)
{
    trace::NasConfig ncfg;
    ncfg.ranks = 8;
    ncfg.iterations = 1;
    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = 5;
    const auto outcome = core::runMethodology(
        trace::analyzeByCall(trace::generateCG(ncfg)), mcfg);

    std::ostringstream oss;
    topo::writeDesignDot(outcome.design, oss);
    const auto dot = oss.str();
    EXPECT_NE(dot.find("graph design {"), std::string::npos);
    for (core::ProcId p = 0; p < 8; ++p) {
        std::string node = "P";
        node += std::to_string(p);
        node += ' ';
        EXPECT_NE(dot.find(node), std::string::npos);
    }
    // One edge line per pipe.
    std::size_t edges = 0;
    std::size_t pos = 0;
    while ((pos = dot.find(" -- S", pos)) != std::string::npos) {
        ++edges;
        ++pos;
    }
    EXPECT_EQ(edges, outcome.design.pipes.size() + 8); // + proc edges
}

TEST(Dot, TopologyExportParsesNodes)
{
    const auto mesh = topo::buildMesh(4);
    std::ostringstream oss;
    topo::writeTopologyDot(*mesh.topo, oss);
    const auto dot = oss.str();
    EXPECT_NE(dot.find("graph \"mesh-2x2\""), std::string::npos);
    EXPECT_NE(dot.find("S3"), std::string::npos);
    EXPECT_NE(dot.find("P0"), std::string::npos);
}
