#include "builders.hpp"

#include "util/log.hpp"

namespace minnoc::topo {

BuiltNetwork
buildCrossbar(std::uint32_t procs)
{
    auto topo = std::make_unique<Topology>(
        procs, 1, "crossbar-" + std::to_string(procs));
    const NodeIdx sw = topo->switchNode(0);
    for (core::ProcId p = 0; p < procs; ++p)
        topo->addDuplex(topo->procNode(p), sw, 1);
    topo->validate();
    auto routing = std::make_unique<CrossbarRouting>(*topo);
    validateRouting(*topo, *routing);
    return BuiltNetwork{std::move(topo), std::move(routing)};
}

BuiltNetwork
buildMesh(std::uint32_t procs)
{
    const auto [w, h] = gridDims(procs);
    if (static_cast<std::uint64_t>(w) * h != procs)
        panic("buildMesh: ", procs, " procs do not tile a grid");
    auto topo = std::make_unique<Topology>(
        procs, procs,
        "mesh-" + std::to_string(w) + "x" + std::to_string(h));
    for (core::ProcId p = 0; p < procs; ++p)
        topo->addDuplex(topo->procNode(p), topo->switchNode(p), 0);
    for (std::uint32_t y = 0; y < h; ++y) {
        for (std::uint32_t x = 0; x < w; ++x) {
            const auto s = topo->switchNode(y * w + x);
            if (x + 1 < w)
                topo->addDuplex(s, topo->switchNode(y * w + x + 1), 1);
            if (y + 1 < h)
                topo->addDuplex(s, topo->switchNode((y + 1) * w + x), 1);
        }
    }
    topo->validate();
    auto routing = std::make_unique<MeshDorRouting>(*topo, w, h);
    validateRouting(*topo, *routing);
    return BuiltNetwork{std::move(topo), std::move(routing)};
}

BuiltNetwork
buildTorus(std::uint32_t procs)
{
    const auto [w, h] = gridDims(procs);
    if (static_cast<std::uint64_t>(w) * h != procs)
        panic("buildTorus: ", procs, " procs do not tile a grid");
    auto topo = std::make_unique<Topology>(
        procs, procs,
        "torus-" + std::to_string(w) + "x" + std::to_string(h));
    for (core::ProcId p = 0; p < procs; ++p)
        topo->addDuplex(topo->procNode(p), topo->switchNode(p), 0);
    // Folded layout: every ring link has physical length 2. A ring of
    // two switches keeps both of its links (they become parallel).
    for (std::uint32_t y = 0; y < h; ++y) {
        for (std::uint32_t x = 0; x < w; ++x) {
            const auto s = topo->switchNode(y * w + x);
            if (w > 1)
                topo->addDuplex(s, topo->switchNode(y * w + (x + 1) % w),
                                2);
            if (h > 1)
                topo->addDuplex(s, topo->switchNode(((y + 1) % h) * w + x),
                                2);
        }
    }
    topo->validate();
    auto routing = std::make_unique<TorusAdaptiveRouting>(*topo, w, h);
    validateRouting(*topo, *routing);
    return BuiltNetwork{std::move(topo), std::move(routing)};
}

std::optional<BuiltNetwork>
buildBaseline(std::string_view name, std::uint32_t procs)
{
    if (name == "crossbar")
        return buildCrossbar(procs);
    if (name == "mesh")
        return buildMesh(procs);
    if (name == "torus")
        return buildTorus(procs);
    return std::nullopt;
}

BuiltNetwork
buildFromDesign(const core::FinalizedDesign &design, const Floorplan &plan)
{
    auto topo = std::make_unique<Topology>(design.numProcs,
                                           design.numSwitches, "generated");
    for (core::ProcId p = 0; p < design.numProcs; ++p) {
        const auto home = design.procHome[p];
        topo->addDuplex(topo->procNode(p), topo->switchNode(home),
                        plan.procDistance(p, home));
    }
    // Parallel channels per pipe in link-index order per direction
    // (makeDesignRouting relies on this ordering via findLinks).
    // Hand-built designs that only set `links` are treated as duplex.
    for (const auto &pipe : design.pipes) {
        const auto length =
            manhattan(plan.switchCorner.at(pipe.key.a),
                      plan.switchCorner.at(pipe.key.b));
        std::uint32_t fwd = pipe.linksFwd;
        std::uint32_t bwd = pipe.linksBwd;
        if (fwd == 0 && bwd == 0) {
            fwd = pipe.links;
            bwd = pipe.links;
        }
        for (std::uint32_t i = 0; i < fwd; ++i) {
            topo->addLink(topo->switchNode(pipe.key.a),
                          topo->switchNode(pipe.key.b), length);
        }
        for (std::uint32_t i = 0; i < bwd; ++i) {
            topo->addLink(topo->switchNode(pipe.key.b),
                          topo->switchNode(pipe.key.a), length);
        }
    }
    topo->validate();
    auto routing = makeDesignRouting(*topo, design);
    validateRouting(*topo, *routing);
    return BuiltNetwork{std::move(topo), std::move(routing)};
}

} // namespace minnoc::topo
