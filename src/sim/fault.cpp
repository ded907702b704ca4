#include "fault.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace minnoc::sim {

FaultModel::FaultModel(const topo::Topology &topo, const FaultConfig &cfg)
    : _cfg(cfg), _rng(cfg.seed)
{
    if (cfg.flitErrorRate < 0.0 || cfg.flitErrorRate > 1.0)
        panic("FaultModel: flit error rate ", cfg.flitErrorRate,
              " outside [0, 1]");
    const auto numLinks = static_cast<topo::LinkId>(topo.numLinks());
    _failedMask.assign(numLinks, false);

    for (const auto l : cfg.failLinks) {
        if (l >= numLinks)
            panic("FaultModel: failed link ", l, " out of range (topology "
                  "has ", numLinks, " links)");
        if (!_failedMask[l]) {
            _failedMask[l] = true;
            _failedList.push_back(l);
        }
    }

    if (cfg.randomFailLinks > 0) {
        // Draw from the inter-switch links so a single random fault does
        // not trivially amputate a processor; topologies without any
        // (crossbar) fall back to the full link set.
        std::vector<topo::LinkId> pool;
        for (topo::LinkId l = 0; l < numLinks; ++l) {
            const auto &link = topo.link(l);
            if (!topo.isProc(link.from) && !topo.isProc(link.to) &&
                !_failedMask[l]) {
                pool.push_back(l);
            }
        }
        if (pool.empty()) {
            for (topo::LinkId l = 0; l < numLinks; ++l) {
                if (!_failedMask[l])
                    pool.push_back(l);
            }
        }
        auto want = cfg.randomFailLinks;
        if (want > pool.size()) {
            warn("FaultModel: requested ", want, " random failed links "
                 "but only ", pool.size(), " are eligible; clamping");
            want = static_cast<std::uint32_t>(pool.size());
        }
        _rng.shuffle(pool);
        for (std::uint32_t i = 0; i < want; ++i) {
            _failedMask[pool[i]] = true;
            _failedList.push_back(pool[i]);
        }
    }
    std::sort(_failedList.begin(), _failedList.end());
}

DegradedRouting
rerouteAroundFaults(const topo::Topology &topo,
                    const std::vector<bool> &failedMask)
{
    const auto failed = [&](topo::LinkId l) {
        return l < failedMask.size() && failedMask[l];
    };

    // Surviving inter-switch digraph; edge tags carry the originating
    // LinkId, the link each tree path takes. Routing stays at the switch
    // level — paths never cut through another processor's network
    // interface.
    graph::Digraph g(topo.numSwitches());
    for (topo::LinkId l = 0; l < topo.numLinks(); ++l) {
        if (failed(l))
            continue;
        const auto &link = topo.link(l);
        if (topo.isProc(link.from) || topo.isProc(link.to))
            continue;
        g.addEdge(topo.switchOf(link.from), topo.switchOf(link.to),
                  link.delay(), static_cast<std::int64_t>(l));
    }

    DegradedRouting out;
    out.routing = std::make_unique<topo::TableRouting>(topo, "degraded");
    const auto pick = [&](graph::EdgeId e) {
        return static_cast<topo::LinkId>(g.edge(e).tag);
    };
    for (core::ProcId s = 0; s < topo.numProcs(); ++s) {
        const auto inj = topo.injectionLink(s);
        const auto tree = graph::bfs(g, topo.switchOf(topo.link(inj).to));
        for (core::ProcId d = 0; d < topo.numProcs(); ++d) {
            if (s == d)
                continue;
            const auto ej = topo.ejectionLink(d);
            const auto dw = topo.switchOf(topo.link(ej).from);
            if (failed(inj) || failed(ej) || tree.dist[dw] < 0) {
                out.disconnected.emplace_back(s, d);
                continue;
            }
            out.routing->setPath(s, d,
                                 topo::treePath(topo, g, tree, s, d, dw,
                                                pick));
        }
    }
    return out;
}

} // namespace minnoc::sim
