#include "routing.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "graph/connectivity.hpp"
#include "graph/digraph.hpp"
#include "util/log.hpp"

namespace minnoc::topo {

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
    // BFS-shortest switch paths, round-robin over parallel links.
    // Pipes may be one-directional (linksFwd xor linksBwd), so only
    // directions with at least one physical link enter the graph.
    graph::Digraph sg(design.numSwitches);
    for (const auto &pipe : design.pipes) {
        if (!topo.findLinks(topo.switchNode(pipe.key.a),
                            topo.switchNode(pipe.key.b)).empty())
            sg.addEdge(pipe.key.a, pipe.key.b);
        if (!topo.findLinks(topo.switchNode(pipe.key.b),
                            topo.switchNode(pipe.key.a)).empty())
            sg.addEdge(pipe.key.b, pipe.key.a);
    }
    std::map<std::pair<core::SwitchId, core::SwitchId>, std::uint32_t> rr;
    for (core::ProcId s = 0; s < topo.numProcs(); ++s) {
        for (core::ProcId d = 0; d < topo.numProcs(); ++d) {
            if (s == d || routing->hasPath(s, d))
                continue;
            const auto sw = design.procHome[s];
            const auto dw = design.procHome[d];
            std::vector<LinkId> path{topo.injectionLink(s)};
            if (sw != dw) {
                const auto hops = graph::shortestPathEdges(sg, sw, dw);
                if (hops.size() == 1 && hops.front() == graph::kNoEdge)
                    panic("makeDesignRouting: switch graph disconnected");
                for (const auto e : hops) {
                    const auto from =
                        static_cast<core::SwitchId>(sg.edge(e).src);
                    const auto to =
                        static_cast<core::SwitchId>(sg.edge(e).dst);
                    const auto parallel =
                        topo.findLinks(topo.switchNode(from),
                                       topo.switchNode(to));
                    auto &counter = rr[{from, to}];
                    path.push_back(parallel[counter % parallel.size()]);
                    ++counter;
                }
            }
            path.push_back(topo.ejectionLink(d));
            routing->setPath(s, d, std::move(path));
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

    // Undirected switch adjacency from the inter-switch links.
    graph::Digraph sg(numSw);
    for (const auto &link : topo.links()) {
        if (!topo.isProc(link.from) && !topo.isProc(link.to)) {
            sg.addEdge(topo.switchOf(link.from),
                       topo.switchOf(link.to));
        }
    }

    // BFS levels from switch 0 define the up orientation.
    const auto level = graph::bfsDistances(sg, 0);
    for (core::SwitchId s = 0; s < numSw; ++s) {
        if (level[s] < 0)
            panic("makeUpDownRouting: switch graph disconnected");
    }
    auto isUp = [&](core::SwitchId from, core::SwitchId to) {
        if (level[to] != level[from])
            return level[to] < level[from];
        return to < from; // tie-break by id
    };

    // Shortest legal (up* then down*) switch paths via BFS over
    // (switch, phase) states, phase = "has taken a down hop yet".
    auto legalPath = [&](core::SwitchId src,
                         core::SwitchId dst) -> std::vector<core::SwitchId> {
        if (src == dst)
            return {src};
        struct Prev
        {
            core::SwitchId sw = core::kNoSwitch;
            bool phase = false;
        };
        std::vector<std::array<Prev, 2>> parent(numSw);
        std::vector<std::array<bool, 2>> visited(numSw,
                                                 {false, false});
        std::deque<std::pair<core::SwitchId, bool>> frontier;
        visited[src][0] = true;
        frontier.push_back({src, false});
        while (!frontier.empty()) {
            const auto [sw, down] = frontier.front();
            frontier.pop_front();
            for (const auto next : sg.successors(sw)) {
                const bool hopUp = isUp(sw, next);
                if (down && hopUp)
                    continue; // down -> up is illegal
                const bool nextDown = down || !hopUp;
                if (visited[next][nextDown])
                    continue;
                visited[next][nextDown] = true;
                parent[next][nextDown] = Prev{sw, down};
                if (next == dst) {
                    std::vector<core::SwitchId> path{dst};
                    core::SwitchId cur = dst;
                    bool phase = nextDown;
                    while (cur != src) {
                        const Prev &pv = parent[cur][phase];
                        path.push_back(pv.sw);
                        phase = pv.phase;
                        cur = pv.sw;
                    }
                    std::reverse(path.begin(), path.end());
                    return path;
                }
                frontier.push_back({next, nextDown});
            }
        }
        panic("makeUpDownRouting: no legal path between S", src,
              " and S", dst);
    };

    auto routing = std::make_unique<TableRouting>(topo, "up-down");
    std::map<std::pair<core::SwitchId, core::SwitchId>, std::uint32_t> rr;
    for (core::ProcId s = 0; s < topo.numProcs(); ++s) {
        const auto sw =
            topo.switchOf(topo.link(topo.injectionLink(s)).to);
        for (core::ProcId d = 0; d < topo.numProcs(); ++d) {
            if (s == d)
                continue;
            const auto dw =
                topo.switchOf(topo.link(topo.injectionLink(d)).to);
            std::vector<LinkId> path{topo.injectionLink(s)};
            if (sw != dw) {
                const auto hops = legalPath(sw, dw);
                for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
                    const auto parallel =
                        topo.findLinks(topo.switchNode(hops[i]),
                                       topo.switchNode(hops[i + 1]));
                    if (parallel.empty())
                        panic("makeUpDownRouting: missing link");
                    auto &counter = rr[{hops[i], hops[i + 1]}];
                    path.push_back(parallel[counter % parallel.size()]);
                    ++counter;
                }
            }
            path.push_back(topo.ejectionLink(d));
            routing->setPath(s, d, std::move(path));
        }
    }
    return routing;
}

} // namespace minnoc::topo
