/**
 * @file
 * Unit tests for SCC / BFS connectivity algorithms.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/connectivity.hpp"

using namespace minnoc::graph;

namespace {

Digraph
directedCycle(std::size_t n)
{
    Digraph g(n);
    for (NodeId v = 0; v < n; ++v)
        g.addEdge(v, (v + 1) % n);
    return g;
}

/** The tree path to @p node as edge ids, root first. */
std::vector<EdgeId>
pathTo(const Digraph &g, const BfsTree &tree, NodeId node)
{
    std::vector<EdgeId> path;
    for (; tree.parent[node] != kNoEdge; node = g.edge(path.back()).src)
        path.push_back(tree.parent[node]);
    std::reverse(path.begin(), path.end());
    return path;
}

} // namespace

TEST(Scc, SingleNodeNoEdges)
{
    Digraph g(1);
    EXPECT_EQ(numScc(g), 1u);
    EXPECT_TRUE(isStronglyConnected(g));
}

TEST(Scc, EmptyGraphNotStronglyConnected)
{
    Digraph g;
    EXPECT_FALSE(isStronglyConnected(g));
}

TEST(Scc, DirectedCycleIsOneComponent)
{
    const auto g = directedCycle(6);
    EXPECT_EQ(numScc(g), 1u);
    EXPECT_TRUE(isStronglyConnected(g));
}

TEST(Scc, ChainIsAllSingletons)
{
    Digraph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    EXPECT_EQ(numScc(g), 4u);
    EXPECT_FALSE(isStronglyConnected(g));
}

TEST(Scc, TwoCyclesJoinedOneWay)
{
    // cycle {0,1,2} -> cycle {3,4}; two components.
    Digraph g(5);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 0);
    g.addEdge(3, 4);
    g.addEdge(4, 3);
    g.addEdge(2, 3);
    const auto comp = stronglyConnectedComponents(g);
    EXPECT_EQ(numScc(g), 2u);
    EXPECT_EQ(comp[0], comp[1]);
    EXPECT_EQ(comp[1], comp[2]);
    EXPECT_EQ(comp[3], comp[4]);
    EXPECT_NE(comp[0], comp[3]);
}

TEST(Scc, ComponentsInReverseTopologicalOrder)
{
    Digraph g(2);
    g.addEdge(0, 1);
    const auto comp = stronglyConnectedComponents(g);
    // Tarjan emits the sink component first.
    EXPECT_LT(comp[1], comp[0]);
}

TEST(Bfs, ShortestPathTrivial)
{
    Digraph g(2);
    g.addEdge(0, 1);
    const auto tree = bfs(g, 0);
    EXPECT_EQ(tree.dist[0], 0);
    EXPECT_EQ(tree.parent[0], kNoEdge);
    EXPECT_TRUE(pathTo(g, tree, 0).empty());
}

TEST(Bfs, ShortestPathFollowsEdges)
{
    Digraph g(4);
    const EdgeId e01 = g.addEdge(0, 1);
    const EdgeId e12 = g.addEdge(1, 2);
    g.addEdge(0, 3);
    g.addEdge(3, 2); // alternative same-length path
    const auto tree = bfs(g, 0);
    // The tie goes to the predecessor settled first: 1 before 3.
    EXPECT_EQ(pathTo(g, tree, 2), (std::vector<EdgeId>{e01, e12}));
    EXPECT_EQ(tree.dist[2], 2);
    EXPECT_EQ(tree.order, (std::vector<NodeId>{0, 1, 3, 2}));
}

TEST(Bfs, UnreachableSentinel)
{
    Digraph g(3);
    g.addEdge(0, 1);
    const auto tree = bfs(g, 0);
    EXPECT_EQ(tree.parent[2], kNoEdge);
    EXPECT_EQ(tree.dist[2], -1);
    EXPECT_EQ(tree.order, (std::vector<NodeId>{0, 1}));
}

TEST(Bfs, DistancesAndUnreachable)
{
    Digraph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    const auto dist = bfs(g, 0).dist;
    EXPECT_EQ(dist[0], 0);
    EXPECT_EQ(dist[1], 1);
    EXPECT_EQ(dist[2], 2);
    EXPECT_EQ(dist[3], -1);
}

TEST(Bfs, RespectsDirection)
{
    Digraph g(2);
    g.addEdge(0, 1);
    EXPECT_EQ(bfs(g, 1).dist[0], -1);
}
