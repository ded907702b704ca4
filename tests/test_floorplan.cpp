/**
 * @file
 * Unit tests for the tile floorplanner and area model, and byte pins of
 * the plans it produces: FNV-1a digests of `Floorplan::toString()` and
 * the three area terms for the five NAS designs at 16 ranks and the
 * CG-64 perfbench design, each at two floorplan seeds. A change that
 * moves a digest changes where the paper's area model places a
 * network, not just how fast it gets there.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/design_io.hpp"
#include "core/methodology.hpp"
#include "dse/cache.hpp"
#include "topo/floorplan.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;
using namespace minnoc::topo;

TEST(GridDims, MostSquareFactorizations)
{
    EXPECT_EQ(gridDims(16), (std::pair<std::uint32_t, std::uint32_t>{4, 4}));
    EXPECT_EQ(gridDims(9), (std::pair<std::uint32_t, std::uint32_t>{3, 3}));
    EXPECT_EQ(gridDims(8), (std::pair<std::uint32_t, std::uint32_t>{4, 2}));
    EXPECT_EQ(gridDims(12),
              (std::pair<std::uint32_t, std::uint32_t>{4, 3}));
    EXPECT_EQ(gridDims(1), (std::pair<std::uint32_t, std::uint32_t>{1, 1}));
}

TEST(GridDims, PrimeFallsBackToCeilGrid)
{
    const auto [w, h] = gridDims(7);
    EXPECT_GE(static_cast<std::uint64_t>(w) * h, 7u);
}

TEST(Areas, MeshReferenceValues)
{
    // 4x4 mesh: 16 switches, 24 unit-area connections.
    EXPECT_EQ(meshAreas(16),
              (std::pair<std::uint32_t, std::uint32_t>{16, 24}));
    // 3x3: 12 connections.
    EXPECT_EQ(meshAreas(9),
              (std::pair<std::uint32_t, std::uint32_t>{9, 12}));
    // 4x2: 10 connections.
    EXPECT_EQ(meshAreas(8),
              (std::pair<std::uint32_t, std::uint32_t>{8, 10}));
}

TEST(Areas, TorusDoublesMeshLinkArea)
{
    // Folded torus: 2 * w * h connections of area 2.
    const auto [sw16, lk16] = torusAreas(16);
    EXPECT_EQ(sw16, 16u);
    EXPECT_EQ(lk16, 64u);
    const auto [swM, lkM] = meshAreas(16);
    (void)swM;
    EXPECT_GE(lk16, 2 * lkM);
}

TEST(Manhattan, Distance)
{
    EXPECT_EQ(manhattan(GridPoint{0, 0}, GridPoint{3, 4}), 7u);
    EXPECT_EQ(manhattan(GridPoint{2, 2}, GridPoint{2, 2}), 0u);
    EXPECT_EQ(manhattan(GridPoint{-1, 0}, GridPoint{1, 0}), 2u);
}

namespace {

core::DesignOutcome
cgDesign(std::uint32_t ranks)
{
    trace::NasConfig cfg;
    cfg.ranks = ranks;
    cfg.iterations = 1;
    const auto tr = trace::generateCG(cfg);
    const auto ks = trace::analyzeByCall(tr);
    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = 5;
    return core::runMethodology(ks, mcfg);
}

} // namespace

TEST(Floorplan, PlacementIsValid)
{
    const auto outcome = cgDesign(16);
    const auto plan = planFloor(outcome.design);
    EXPECT_EQ(plan.procTile.size(), 16u);
    EXPECT_EQ(plan.switchCorner.size(), outcome.design.numSwitches);
    EXPECT_EQ(plan.switchArea, outcome.design.numSwitches);

    // Tiles are distinct and within the grid.
    std::set<std::pair<int, int>> seen;
    for (const auto &tile : plan.procTile) {
        EXPECT_GE(tile.x, 0);
        EXPECT_LT(tile.x, static_cast<int>(plan.tilesX));
        EXPECT_GE(tile.y, 0);
        EXPECT_LT(tile.y, static_cast<int>(plan.tilesY));
        EXPECT_TRUE(seen.insert({tile.x, tile.y}).second);
    }
}

TEST(Floorplan, GeneratedBeatsMeshAreas)
{
    // The headline Figure-7 property: the generated CG network uses
    // fewer switches and less link area than the mesh.
    const auto outcome = cgDesign(16);
    const auto plan = planFloor(outcome.design);
    const auto [meshSw, meshLk] = meshAreas(16);
    EXPECT_LT(plan.switchArea, meshSw);
    EXPECT_LT(plan.linkArea + plan.procLinkArea, meshLk);
}

TEST(Floorplan, DeterministicForSeed)
{
    const auto outcome = cgDesign(8);
    FloorplanConfig cfg;
    cfg.seed = 5;
    const auto a = planFloor(outcome.design, cfg);
    const auto b = planFloor(outcome.design, cfg);
    EXPECT_EQ(a.linkArea, b.linkArea);
    EXPECT_EQ(a.procLinkArea, b.procLinkArea);
    for (std::size_t i = 0; i < a.procTile.size(); ++i)
        EXPECT_EQ(a.procTile[i], b.procTile[i]);
}

TEST(Floorplan, SwitchDistanceHasUnitFloor)
{
    const auto outcome = cgDesign(8);
    const auto plan = planFloor(outcome.design);
    for (core::SwitchId a = 0; a < outcome.design.numSwitches; ++a) {
        for (core::SwitchId b = 0; b < outcome.design.numSwitches; ++b)
            EXPECT_GE(plan.switchDistance(a, b), 1u);
    }
}

TEST(Floorplan, ProcDistanceZeroWhenCornerAdjacent)
{
    const auto outcome = cgDesign(8);
    const auto plan = planFloor(outcome.design);
    // The annealer should co-locate most processors with their switch;
    // proc link area must at least stay small relative to proc count.
    EXPECT_LE(plan.procLinkArea, outcome.design.numProcs);
}

namespace {

/** Digest of the plan of @p design at floorplan seed @p seed. */
std::string
planDigest(const core::FinalizedDesign &design, std::uint64_t seed)
{
    FloorplanConfig cfg;
    cfg.seed = seed;
    const auto plan = planFloor(design, cfg);
    std::ostringstream oss;
    oss << plan.toString() << "switchArea=" << plan.switchArea
        << " linkArea=" << plan.linkArea
        << " procLinkArea=" << plan.procLinkArea << "\n";
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(dse::fnv1a64(oss.str())));
    return buf;
}

/** The 16-rank NAS design the plan pins place. */
core::FinalizedDesign
nasDesign(trace::Benchmark bench)
{
    trace::NasConfig tcfg;
    tcfg.ranks = 16;
    tcfg.iterations = 1;
    tcfg.seed = 1;
    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = 5;
    mcfg.partitioner.seed = 1;
    mcfg.restarts = 2;
    mcfg.threads = 1;
    return core::runMethodology(
               trace::analyzeByCall(trace::generateBenchmark(bench, tcfg)),
               mcfg)
        .design;
}

/** Largest number of processors any one switch of @p design owns. */
std::size_t
maxProcsPerSwitch(const core::FinalizedDesign &design)
{
    std::size_t most = 0;
    for (const auto &procs : design.switchProcs)
        most = std::max(most, procs.size());
    return most;
}

} // namespace

TEST(FloorplanBytes, BT16)
{
    const auto design = nasDesign(trace::Benchmark::BT);
    EXPECT_EQ(planDigest(design, 1), "9876b0eb325ce5ac");
    EXPECT_EQ(planDigest(design, 7), "9099aeae4d8f17b1");
}

TEST(FloorplanBytes, CG16)
{
    // Several processors share a switch, so a switch's candidate
    // corners span more than one tile.
    const auto design = nasDesign(trace::Benchmark::CG);
    EXPECT_GT(maxProcsPerSwitch(design), 1u);
    EXPECT_EQ(planDigest(design, 1), "536d0bea58212296");
    EXPECT_EQ(planDigest(design, 7), "e09ac6fdcd83b822");
}

TEST(FloorplanBytes, FFT16)
{
    const auto design = nasDesign(trace::Benchmark::FFT);
    EXPECT_EQ(planDigest(design, 1), "8f7d07602255f68d");
    EXPECT_EQ(planDigest(design, 7), "2066ecc6178392ce");
}

TEST(FloorplanBytes, MG16)
{
    const auto design = nasDesign(trace::Benchmark::MG);
    EXPECT_EQ(planDigest(design, 1), "a65e0c61f6890067");
    EXPECT_EQ(planDigest(design, 7), "276a84c27322da12");
}

TEST(FloorplanBytes, SP16)
{
    // SP and BT synthesize the same design at 16 ranks, so their plans
    // coincide; both stay pinned in case that ever changes.
    const auto design = nasDesign(trace::Benchmark::SP);
    EXPECT_EQ(planDigest(design, 1), "9876b0eb325ce5ac");
    EXPECT_EQ(planDigest(design, 7), "9099aeae4d8f17b1");
}

TEST(FloorplanBytes, CG64PerfbenchDesign)
{
    std::ifstream file(std::string(MINNOC_TESTS_DIR) +
                       "/../perfbench/data/cg64_design.txt");
    ASSERT_TRUE(file);
    const auto design = core::loadDesign(file);
    EXPECT_EQ(planDigest(design, 1), "c0ddc7cbbbb0f8a7");
    EXPECT_EQ(planDigest(design, 7), "dca50b7b5fbab817");
}
