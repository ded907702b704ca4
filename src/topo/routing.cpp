#include "routing.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace minnoc::topo {

namespace {

/**
 * A switch graph, one edge per switch pair, whose edges pick their
 * physical link round-robin over the parallel links from one switch to
 * the other, with a counter per edge.
 */
struct RoundRobinGraph
{
    explicit RoundRobinGraph(std::uint32_t switches) : g(switches) {}

    graph::Digraph g;
    std::vector<std::vector<LinkId>> links;
    std::vector<std::uint32_t> next;

    /** Adds from -> to unless no link runs that way. */
    void
    add(const Topology &topo, core::SwitchId from, core::SwitchId to)
    {
        auto parallel =
            topo.findLinks(topo.switchNode(from), topo.switchNode(to));
        if (parallel.empty())
            return;
        g.addEdge(from, to);
        links.push_back(std::move(parallel));
        next.push_back(0);
    }

    LinkId
    pick(graph::EdgeId e)
    {
        return links[e][next[e]++ % links[e].size()];
    }
};

} // namespace

void
TableRouting::setPath(core::ProcId src, core::ProcId dst,
                      std::vector<LinkId> path)
{
    if (path.empty())
        panic("TableRouting: empty path for (", src, ",", dst, ")");
    // Validate continuity: each link starts where the previous ended.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (_topo->link(path[i]).to != _topo->link(path[i + 1]).from)
            panic("TableRouting '", _name, "': discontinuous path for (",
                  src, ",", dst, ")");
    }
    if (_topo->link(path.front()).from != _topo->procNode(src) ||
        _topo->link(path.back()).to != _topo->procNode(dst)) {
        panic("TableRouting '", _name, "': path endpoints wrong for (",
              src, ",", dst, ")");
    }
    _table[key(src, dst)] = std::move(path);
}

const std::vector<LinkId> &
TableRouting::path(core::ProcId src, core::ProcId dst) const
{
    const auto it = _table.find(key(src, dst));
    if (it == _table.end())
        panic("TableRouting '", _name, "': no path for (", src, ",", dst,
              ")");
    return it->second;
}

bool
TableRouting::hasPath(core::ProcId src, core::ProcId dst) const
{
    return _table.count(key(src, dst)) != 0;
}

std::vector<LinkId>
TableRouting::candidates(NodeIdx cur, core::ProcId src,
                         core::ProcId dst) const
{
    // Paths are simple (no node repeats), so the link leaving `cur` is
    // unique on the path.
    for (const LinkId id : path(src, dst)) {
        if (_topo->link(id).from == cur)
            return {id};
    }
    panic("TableRouting '", _name, "': node ", cur,
          " is not on the path (", src, ",", dst, ")");
}

MeshDorRouting::MeshDorRouting(const Topology &topo, std::uint32_t w,
                               std::uint32_t h)
    : _topo(&topo), _w(w), _next(topo.numSwitches())
{
    if (static_cast<std::uint64_t>(w) * h != topo.numProcs() ||
        topo.numSwitches() != topo.numProcs())
        panic("MeshDorRouting: bad dims");
    for (std::uint32_t y = 0; y < h; ++y) {
        for (std::uint32_t x = 0; x < w; ++x) {
            const NodeIdx from = topo.switchNode(y * w + x);
            auto link = [&](bool inside, std::uint32_t nx,
                            std::uint32_t ny) {
                if (!inside)
                    return kNoLink;
                const LinkId id =
                    topo.findLink(from, topo.switchNode(ny * w + nx));
                if (id == kNoLink)
                    panic("MeshDorRouting: missing mesh link");
                return id;
            };
            _next[y * w + x] = {link(x + 1 < w, x + 1, y),
                                link(x > 0, x - 1, y),
                                link(y + 1 < h, x, y + 1),
                                link(y > 0, x, y - 1)};
        }
    }
}

std::vector<LinkId>
MeshDorRouting::candidates(NodeIdx cur, core::ProcId src,
                           core::ProcId dst) const
{
    (void)src;
    if (_topo->isProc(cur))
        return {_topo->injectionLink(_topo->procOf(cur))};
    const core::SwitchId s = _topo->switchOf(cur);
    const std::uint32_t x = s % _w;
    const std::uint32_t dx = dst % _w;
    if (x != dx)
        return {_next[s][x < dx ? East : West]};
    const std::uint32_t y = s / _w;
    const std::uint32_t dy = dst / _w;
    if (y != dy)
        return {_next[s][y < dy ? South : North]};
    return {_topo->ejectionLink(dst)};
}

std::vector<LinkId>
CrossbarRouting::candidates(NodeIdx cur, core::ProcId src,
                            core::ProcId dst) const
{
    (void)src;
    if (_topo->isProc(cur))
        return {_topo->injectionLink(_topo->procOf(cur))};
    return {_topo->ejectionLink(dst)};
}

TorusAdaptiveRouting::TorusAdaptiveRouting(const Topology &topo,
                                           std::uint32_t w, std::uint32_t h)
    : _topo(&topo), _w(w), _h(h)
{
    if (static_cast<std::uint64_t>(w) * h != topo.numProcs())
        panic("TorusAdaptiveRouting: ", w, "x", h, " != ",
              topo.numProcs(), " procs");
}

std::vector<LinkId>
TorusAdaptiveRouting::candidates(NodeIdx cur, core::ProcId src,
                                 core::ProcId dst) const
{
    (void)src;
    if (_topo->isProc(cur)) {
        // Only the source end-node ever routes: inject.
        return {_topo->injectionLink(_topo->procOf(cur))};
    }

    const core::SwitchId s = _topo->switchOf(cur);
    const std::uint32_t x = s % _w;
    const std::uint32_t y = s / _w;
    const std::uint32_t dx = dst % _w;
    const std::uint32_t dy = dst / _w;

    if (x == dx && y == dy)
        return {_topo->ejectionLink(dst)};

    std::vector<LinkId> out;
    auto addDir = [&](std::uint32_t nx, std::uint32_t ny) {
        const LinkId id = _topo->findLink(
            cur, _topo->switchNode(ny * _w + nx));
        if (id == kNoLink)
            panic("TorusAdaptiveRouting: missing torus link");
        out.push_back(id);
    };

    if (x != dx) {
        const std::uint32_t fwd = (dx + _w - x) % _w; // +x hops
        const std::uint32_t bwd = (x + _w - dx) % _w; // -x hops
        if (fwd <= bwd)
            addDir((x + 1) % _w, y);
        if (bwd <= fwd)
            addDir((x + _w - 1) % _w, y);
    }
    if (y != dy) {
        const std::uint32_t fwd = (dy + _h - y) % _h;
        const std::uint32_t bwd = (y + _h - dy) % _h;
        if (fwd <= bwd)
            addDir(x, (y + 1) % _h);
        if (bwd <= fwd)
            addDir(x, (y + _h - 1) % _h);
    }
    if (out.empty())
        panic("TorusAdaptiveRouting: no productive link at S", s,
              " for dst ", dst);
    return out;
}

void
validateRouting(const Topology &topo, const RoutingFunction &routing)
{
    // Walks the first candidates from every source to d. Each node's hop
    // count to d is memoized; a source-oblivious route from a node does
    // not depend on the source, so later walks stop where they meet an
    // earlier one and each destination costs O(nodes). Otherwise the
    // memo is cleared after every walk.
    constexpr std::uint64_t kUnknown = ~0ull;
    constexpr std::uint64_t kOnWalk = kUnknown - 1;
    const bool oblivious = routing.sourceOblivious();
    const std::uint64_t budget = 4ull * topo.numNodes();
    std::vector<std::uint64_t> dist(topo.numNodes());
    std::vector<NodeIdx> walk;
    for (core::ProcId d = 0; d < topo.numProcs(); ++d) {
        std::fill(dist.begin(), dist.end(), kUnknown);
        dist[topo.procNode(d)] = 0;
        for (core::ProcId s = 0; s < topo.numProcs(); ++s) {
            walk.clear();
            NodeIdx cur = topo.procNode(s);
            while (dist[cur] == kUnknown) {
                dist[cur] = kOnWalk;
                walk.push_back(cur);
                const auto cands = routing.candidates(cur, s, d);
                if (cands.empty())
                    panic("validateRouting: no candidates at node ", cur,
                          " for (", s, ",", d, ")");
                cur = topo.link(cands.front()).to;
            }
            if (dist[cur] == kOnWalk)
                panic("validateRouting: livelock (loop through node ", cur,
                      ") for (", s, ",", d, ")");
            // The budget backstops the loop check above.
            std::uint64_t hops = dist[cur];
            for (auto it = walk.rbegin(); it != walk.rend(); ++it) {
                if (++hops > budget)
                    panic("validateRouting: livelock for (", s, ",", d,
                          ")");
                dist[*it] = oblivious ? hops : kUnknown;
            }
        }
    }
}

std::vector<LinkId>
treePath(const Topology &topo, const graph::Digraph &g,
         const graph::BfsTree &tree, core::ProcId src, core::ProcId dst,
         graph::NodeId target,
         const std::function<LinkId(graph::EdgeId)> &pick)
{
    const auto hops = static_cast<std::size_t>(tree.dist[target]);
    std::vector<LinkId> path(hops + 2);
    path.front() = topo.injectionLink(src);
    path.back() = topo.ejectionLink(dst);
    // The parent edges fill the hop slots from the target back up to the
    // root; the links are then picked root first.
    graph::NodeId n = target;
    for (std::size_t i = hops; i > 0; --i) {
        path[i] = tree.parent[n];
        n = g.edge(tree.parent[n]).src;
    }
    for (std::size_t i = 1; i <= hops; ++i)
        path[i] = pick(path[i]);
    return path;
}

std::unique_ptr<TableRouting>
makeDesignRouting(const Topology &topo, const core::FinalizedDesign &design)
{
    auto routing = std::make_unique<TableRouting>(topo, "source-routed");

    // Parallel links of a pipe, in finalization link-index order: the
    // builder adds them in that order, so findLinks preserves it.
    auto pipeLink = [&](core::SwitchId from, core::SwitchId to,
                        std::uint32_t index) {
        const auto links = topo.findLinks(topo.switchNode(from),
                                          topo.switchNode(to));
        if (index >= links.size())
            panic("makeDesignRouting: pipe S", from, "-S", to,
                  " has no link ", index);
        return links[index];
    };

    // Known communications: follow the finalized route and colors.
    for (core::CommId c = 0; c < design.comms.size(); ++c) {
        const auto &comm = design.comms[c];
        if (comm.src == comm.dst)
            continue;
        const auto &route = design.routes[c];
        std::vector<LinkId> path{topo.injectionLink(comm.src)};
        for (std::size_t i = 0; i + 1 < route.size(); ++i) {
            const core::PipeKey key(route[i], route[i + 1]);
            const std::size_t pi = design.pipeIndex(key);
            if (pi == core::FinalizedDesign::npos)
                panic("makeDesignRouting: route uses missing pipe");
            const auto &pipe = design.pipes[pi];
            const bool forward = route[i] < route[i + 1];
            const auto &linkOf = forward ? pipe.fwdLink : pipe.bwdLink;
            const auto it = linkOf.find(c);
            if (it == linkOf.end())
                panic("makeDesignRouting: comm missing link color");
            path.push_back(pipeLink(route[i], route[i + 1], it->second));
        }
        path.push_back(topo.ejectionLink(comm.dst));
        routing->setPath(comm.src, comm.dst, std::move(path));
    }

    // Fallback for pairs the design never saw (cross-pattern runs):
    // BFS-shortest switch paths, round-robin over parallel links, the
    // counters advancing in (s, d) order. Pipes may be one-directional
    // (linksFwd xor linksBwd), so only directions with at least one
    // physical link enter the graph.
    RoundRobinGraph sg(design.numSwitches);
    for (const auto &pipe : design.pipes) {
        sg.add(topo, pipe.key.a, pipe.key.b);
        sg.add(topo, pipe.key.b, pipe.key.a);
    }
    const auto pick = [&](graph::EdgeId e) { return sg.pick(e); };
    for (core::ProcId s = 0; s < topo.numProcs(); ++s) {
        const auto tree = graph::bfs(sg.g, design.procHome[s]);
        for (core::ProcId d = 0; d < topo.numProcs(); ++d) {
            if (s == d || routing->hasPath(s, d))
                continue;
            const auto dw = design.procHome[d];
            if (tree.dist[dw] < 0)
                panic("makeDesignRouting: switch graph disconnected");
            routing->setPath(s, d,
                             treePath(topo, sg.g, tree, s, d, dw, pick));
        }
    }
    return routing;
}

std::unique_ptr<TableRouting>
makeUpDownRouting(const Topology &topo)
{
    const std::uint32_t numSw = topo.numSwitches();
    if (numSw == 0)
        panic("makeUpDownRouting: no switches");

    // Undirected switch adjacency from the inter-switch links, one edge
    // per switch pair however many links join it.
    RoundRobinGraph sg(numSw);
    for (const auto &link : topo.links()) {
        if (topo.isProc(link.from) || topo.isProc(link.to))
            continue;
        const auto from = topo.switchOf(link.from);
        const auto to = topo.switchOf(link.to);
        if (sg.g.findEdge(from, to) == graph::kNoEdge)
            sg.add(topo, from, to);
    }

    // BFS levels from switch 0 define the up orientation.
    const auto level = graph::bfs(sg.g, 0).dist;
    for (core::SwitchId s = 0; s < numSw; ++s) {
        if (level[s] < 0)
            panic("makeUpDownRouting: switch graph disconnected");
    }
    auto isUp = [&](core::SwitchId from, core::SwitchId to) {
        if (level[to] != level[from])
            return level[to] < level[from];
        return to < from; // tie-break by id
    };

    // Legal (up* then down*) hops between (switch, phase) states, state
    // 2 * switch + phase, phase = "has taken a down hop yet"; each state
    // edge is tagged with its switch edge.
    graph::Digraph states(2 * numSw);
    for (core::SwitchId sw = 0; sw < numSw; ++sw) {
        for (const bool down : {false, true}) {
            for (const auto e : sg.g.outEdges(sw)) {
                const auto next = sg.g.edge(e).dst;
                const bool hopUp = isUp(sw, next);
                if (down && hopUp)
                    continue; // down -> up is illegal
                states.addEdge(2 * sw + down, 2 * next + (down || !hopUp),
                               1, e);
            }
        }
    }

    // One search per source; each switch keeps whichever phase reached
    // it first, so its path is a shortest legal one.
    auto routing = std::make_unique<TableRouting>(topo, "up-down");
    const auto pick = [&](graph::EdgeId e) {
        return sg.pick(static_cast<graph::EdgeId>(states.edge(e).tag));
    };
    std::vector<graph::NodeId> first(numSw);
    for (core::ProcId s = 0; s < topo.numProcs(); ++s) {
        const auto sw =
            topo.switchOf(topo.link(topo.injectionLink(s)).to);
        const auto tree = graph::bfs(states, 2 * sw);
        std::fill(first.begin(), first.end(), graph::kNoNode);
        for (const auto state : tree.order) {
            if (first[state / 2] == graph::kNoNode)
                first[state / 2] = state;
        }
        for (core::ProcId d = 0; d < topo.numProcs(); ++d) {
            if (s == d)
                continue;
            const auto dw =
                topo.switchOf(topo.link(topo.injectionLink(d)).to);
            if (first[dw] == graph::kNoNode)
                panic("makeUpDownRouting: no legal path between S", sw,
                      " and S", dw);
            routing->setPath(s, d,
                             treePath(topo, states, tree, s, d, first[dw],
                                      pick));
        }
    }
    return routing;
}

} // namespace minnoc::topo
