/**
 * @file
 * Unit tests for the concrete topology layer and builders.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <utility>

#include "topo/builders.hpp"
#include "topo/topology.hpp"

using namespace minnoc;
using namespace minnoc::topo;

TEST(Topology, NodeIndexSpaces)
{
    Topology t(4, 2, "test");
    EXPECT_EQ(t.numNodes(), 6u);
    EXPECT_EQ(t.procNode(3), 3u);
    EXPECT_EQ(t.switchNode(0), 4u);
    EXPECT_TRUE(t.isProc(2));
    EXPECT_FALSE(t.isProc(4));
    EXPECT_EQ(t.switchOf(5), 1u);
    EXPECT_EQ(t.procOf(1), 1u);
}

TEST(Topology, LinksAndAdjacency)
{
    Topology t(2, 1, "test");
    const auto [fwd, bwd] = t.addDuplex(t.procNode(0), t.switchNode(0), 3);
    EXPECT_EQ(t.link(fwd).from, t.procNode(0));
    EXPECT_EQ(t.link(fwd).to, t.switchNode(0));
    EXPECT_EQ(t.link(fwd).length, 3u);
    EXPECT_EQ(t.link(fwd).delay(), 3u);
    EXPECT_EQ(t.link(bwd).from, t.switchNode(0));
    EXPECT_EQ(t.outLinks(t.procNode(0)).size(), 1u);
    EXPECT_EQ(t.inLinks(t.procNode(0)).size(), 1u);
}

TEST(Topology, ZeroLengthLinkHasUnitDelay)
{
    Topology t(1, 1, "test");
    const auto [fwd, bwd] = t.addDuplex(0, t.switchNode(0), 0);
    (void)bwd;
    EXPECT_EQ(t.link(fwd).length, 0u);
    EXPECT_EQ(t.link(fwd).delay(), 1u);
}

TEST(Topology, FindLinksPreservesOrder)
{
    Topology t(1, 2, "test");
    t.addDuplex(0, t.switchNode(0), 1);
    const auto a = t.addLink(t.switchNode(0), t.switchNode(1), 1);
    const auto b = t.addLink(t.switchNode(0), t.switchNode(1), 1);
    const auto links = t.findLinks(t.switchNode(0), t.switchNode(1));
    ASSERT_EQ(links.size(), 2u);
    EXPECT_EQ(links[0], a);
    EXPECT_EQ(links[1], b);
}

TEST(Topology, InjectionEjectionRequireExactlyOne)
{
    Topology t(1, 1, "test");
    EXPECT_DEATH(t.injectionLink(0), "injection");
    t.addDuplex(0, t.switchNode(0), 1);
    EXPECT_NO_FATAL_FAILURE(t.injectionLink(0));
    t.addDuplex(0, t.switchNode(0), 1);
    EXPECT_DEATH(t.injectionLink(0), "injection");
}

TEST(Topology, SelfLinkRejected)
{
    Topology t(2, 1, "test");
    EXPECT_DEATH(t.addLink(0, 0), "self-link");
}

TEST(Builders, CrossbarShape)
{
    const auto net = buildCrossbar(8);
    EXPECT_EQ(net.topo->numProcs(), 8u);
    EXPECT_EQ(net.topo->numSwitches(), 1u);
    EXPECT_EQ(net.topo->numLinks(), 16u); // 8 duplex connections
    EXPECT_EQ(net.routing->name(), "crossbar");
    EXPECT_FALSE(net.routing->adaptive());
}

TEST(Builders, MeshShape)
{
    const auto net = buildMesh(16); // 4x4
    EXPECT_EQ(net.topo->numSwitches(), 16u);
    // Links: 16 proc duplex + 24 mesh duplex = 2*(16+24) unidirectional.
    EXPECT_EQ(net.topo->numLinks(), 2u * (16 + 24));
    // Inter-switch links have length 1, proc links length 0.
    std::uint64_t area = net.topo->totalLinkArea();
    EXPECT_EQ(area, 2u * 24);
}

TEST(Builders, PrimeCountBecomesChainMesh)
{
    // gridDims(7) falls back to a 7x1 chain, which is a valid mesh.
    const auto net = buildMesh(7);
    EXPECT_EQ(net.topo->numSwitches(), 7u);
    // 7 proc duplex + 6 chain duplex connections.
    EXPECT_EQ(net.topo->numLinks(), 2u * (7 + 6));
}

TEST(Builders, TorusShape)
{
    const auto net = buildTorus(16); // 4x4 folded
    EXPECT_EQ(net.topo->numSwitches(), 16u);
    // 16 proc duplex + 32 ring duplex connections.
    EXPECT_EQ(net.topo->numLinks(), 2u * (16 + 32));
    // All ring links are length 2: total area = 2 * 32 * 2.
    EXPECT_EQ(net.topo->totalLinkArea(), 2u * 32 * 2);
    EXPECT_TRUE(net.routing->adaptive());
}

TEST(Builders, TorusTwoRingKeepsParallelLinks)
{
    const auto net = buildTorus(8); // 4x2: vertical rings of 2
    // Each column pair is connected by two parallel duplex connections.
    std::size_t parallel = 0;
    for (core::SwitchId s = 0; s < 4; ++s) {
        const auto links = net.topo->findLinks(
            net.topo->switchNode(s), net.topo->switchNode(s + 4));
        parallel += links.size();
    }
    EXPECT_EQ(parallel, 8u); // 2 per column x 4 columns
}

TEST(Builders, EveryTopologyValidates)
{
    for (const std::uint32_t procs : {2u, 4u, 8u, 9u, 16u}) {
        if (procs != 9) {
            EXPECT_NO_FATAL_FAILURE(buildCrossbar(procs));
            EXPECT_NO_FATAL_FAILURE(buildMesh(procs));
            EXPECT_NO_FATAL_FAILURE(buildTorus(procs));
        } else {
            EXPECT_NO_FATAL_FAILURE(buildMesh(procs));
            EXPECT_NO_FATAL_FAILURE(buildTorus(procs));
        }
    }
}

TEST(Builders, BaselineByNameMatchesItsBuilder)
{
    using Builder = BuiltNetwork (*)(std::uint32_t);
    const std::pair<const char *, Builder> direct[] = {
        {"crossbar", &buildCrossbar},
        {"mesh", &buildMesh},
        {"torus", &buildTorus}};
    ASSERT_EQ(std::size(direct), kBaselines.size());
    for (std::size_t i = 0; i < kBaselines.size(); ++i) {
        const auto [name, build] = direct[i];
        EXPECT_STREQ(kBaselines[i], name); // the paper's order
        for (const std::uint32_t procs : {8u, 16u}) {
            const auto byName = buildBaseline(name, procs);
            ASSERT_TRUE(byName.has_value()) << name;
            const auto ref = build(procs);
            EXPECT_EQ(byName->topo->numLinks(), ref.topo->numLinks())
                << name << "-" << procs;
            EXPECT_EQ(byName->routing->name(), ref.routing->name())
                << name << "-" << procs;
        }
    }
}

TEST(Builders, UnknownBaselineIsNullopt)
{
    for (const char *name : {"", "ring", "Mesh", "generated", "cg.design"})
        EXPECT_FALSE(buildBaseline(name, 16).has_value()) << name;
}
