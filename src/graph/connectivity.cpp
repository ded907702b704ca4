#include "connectivity.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace minnoc::graph {

std::vector<std::uint32_t>
stronglyConnectedComponents(const Digraph &g)
{
    const std::size_t n = g.numNodes();
    constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);

    std::vector<std::uint32_t> index(n, kUnvisited);
    std::vector<std::uint32_t> lowlink(n, 0);
    std::vector<bool> onStack(n, false);
    std::vector<NodeId> stack;
    std::vector<std::uint32_t> comp(n, kUnvisited);
    std::uint32_t nextIndex = 0;
    std::uint32_t nextComp = 0;

    // Iterative Tarjan: each frame tracks the node and the position in
    // its successor list.
    struct Frame
    {
        NodeId node;
        std::vector<NodeId> succs;
        std::size_t next = 0;
    };

    for (NodeId root = 0; root < n; ++root) {
        if (index[root] != kUnvisited)
            continue;
        std::vector<Frame> frames;
        frames.push_back(Frame{root, g.successors(root)});
        index[root] = lowlink[root] = nextIndex++;
        stack.push_back(root);
        onStack[root] = true;

        while (!frames.empty()) {
            Frame &fr = frames.back();
            if (fr.next < fr.succs.size()) {
                const NodeId w = fr.succs[fr.next++];
                if (index[w] == kUnvisited) {
                    index[w] = lowlink[w] = nextIndex++;
                    stack.push_back(w);
                    onStack[w] = true;
                    frames.push_back(Frame{w, g.successors(w)});
                } else if (onStack[w]) {
                    lowlink[fr.node] = std::min(lowlink[fr.node], index[w]);
                }
            } else {
                const NodeId v = fr.node;
                if (lowlink[v] == index[v]) {
                    // v is the root of an SCC; pop it off.
                    for (;;) {
                        const NodeId w = stack.back();
                        stack.pop_back();
                        onStack[w] = false;
                        comp[w] = nextComp;
                        if (w == v)
                            break;
                    }
                    ++nextComp;
                }
                frames.pop_back();
                if (!frames.empty()) {
                    const NodeId parent = frames.back().node;
                    lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
                }
            }
        }
    }
    return comp;
}

std::size_t
numScc(const Digraph &g)
{
    const auto comp = stronglyConnectedComponents(g);
    std::uint32_t maxComp = 0;
    for (auto c : comp)
        maxComp = std::max(maxComp, c + 1);
    return maxComp;
}

bool
isStronglyConnected(const Digraph &g)
{
    return g.numNodes() > 0 && numScc(g) == 1;
}

BfsTree
bfs(const Digraph &g, NodeId root)
{
    const std::size_t n = g.numNodes();
    BfsTree tree{std::vector<EdgeId>(n, kNoEdge),
                 std::vector<std::int64_t>(n, -1), {}};
    tree.order.reserve(n);
    tree.dist[root] = 0;
    tree.order.push_back(root);
    // The settle order doubles as the FIFO queue.
    for (std::size_t head = 0; head < tree.order.size(); ++head) {
        const NodeId v = tree.order[head];
        for (const EdgeId e : g.outEdges(v)) {
            const NodeId w = g.edge(e).dst;
            if (tree.dist[w] >= 0)
                continue;
            tree.dist[w] = tree.dist[v] + 1;
            tree.parent[w] = e;
            tree.order.push_back(w);
        }
    }
    return tree;
}

} // namespace minnoc::graph
