#include "finalize.hpp"

#include <algorithm>
#include <sstream>

#include "graph/coloring.hpp"
#include "graph/connectivity.hpp"
#include "graph/digraph.hpp"
#include "graph/ugraph.hpp"
#include "util/log.hpp"

namespace minnoc::core {

std::size_t
FinalizedDesign::pipeIndex(const PipeKey &key) const
{
    const auto it = std::lower_bound(
        pipes.begin(), pipes.end(), key,
        [](const FinalizedPipe &p, const PipeKey &k) { return p.key < k; });
    if (it == pipes.end() || !(it->key == key))
        return npos;
    return static_cast<std::size_t>(it - pipes.begin());
}

std::uint32_t
FinalizedDesign::switchDegree(SwitchId s) const
{
    std::uint32_t degree =
        static_cast<std::uint32_t>(switchProcs.at(s).size());
    for (const auto &p : pipes) {
        if (p.key.a == s || p.key.b == s)
            degree += p.links;
    }
    return degree;
}

std::uint32_t
FinalizedDesign::totalLinks() const
{
    std::uint32_t total = 0;
    for (const auto &p : pipes)
        total += p.links;
    return total;
}

std::uint32_t
FinalizedDesign::totalChannels() const
{
    std::uint32_t total = 0;
    for (const auto &p : pipes) {
        if (p.linksFwd == 0 && p.linksBwd == 0)
            total += 2 * p.links; // hand-built duplex designs
        else
            total += p.linksFwd + p.linksBwd;
    }
    return total;
}

std::string
FinalizedDesign::toString() const
{
    std::ostringstream oss;
    oss << "FinalizedDesign(" << numSwitches << " switches, "
        << totalLinks() << " links, colorsExact=" << colorsExact << ")\n";
    for (SwitchId s = 0; s < numSwitches; ++s) {
        oss << "  S" << s << " degree " << switchDegree(s) << " procs {";
        for (std::size_t i = 0; i < switchProcs[s].size(); ++i) {
            if (i)
                oss << ", ";
            oss << switchProcs[s][i];
        }
        oss << "}\n";
    }
    for (const auto &p : pipes) {
        oss << "  pipe S" << p.key.a << "-S" << p.key.b << ": " << p.links
            << " link(s)" << (p.connectivityOnly ? " [connectivity]" : "")
            << "\n";
    }
    return oss.str();
}

namespace {

/**
 * Branch-and-bound node budget per conflict graph before falling back
 * to the DSATUR heuristic color count.
 */
constexpr std::uint64_t kExactNodeBudget = 2'000'000;

/**
 * Color one directional comm set of a pipe: build the conflict graph
 * from clique co-occurrence and exact-color it.
 */
graph::Coloring
colorDirection(const CliqueSet &cliques, const CommBitset &comms,
               bool &exact)
{
    const std::vector<CommId> ids = comms.toVector();
    graph::Ugraph cg(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        for (std::size_t j = i + 1; j < ids.size(); ++j) {
            if (cliques.contend(ids[i], ids[j]))
                cg.addEdge(static_cast<graph::NodeId>(i),
                           static_cast<graph::NodeId>(j));
        }
    }
    bool wasExact = true;
    auto coloring =
        graph::exactColoring(cg, kExactNodeBudget, &wasExact);
    if (!wasExact)
        exact = false;
    return coloring;
}

} // namespace

FinalizedDesign
finalizeDesign(const DesignNetwork &net, const FinalizeConfig &config)
{
    const CliqueSet &cliques = net.cliques();

    // Compact the switch space: partitioning can leave orphan switches
    // (no processors, no traffic); drop them and renumber. Switches
    // that carry transit routes or processors survive.
    const auto oldCount = static_cast<SwitchId>(net.numSwitches());
    std::vector<bool> used(oldCount, false);
    for (SwitchId s = 0; s < oldCount; ++s) {
        if (!net.procsOf(s).empty())
            used[s] = true;
    }
    for (CommId c = 0; c < cliques.numComms(); ++c) {
        for (const SwitchId s : net.route(c))
            used[s] = true;
    }
    std::vector<SwitchId> remap(oldCount, kNoSwitch);
    SwitchId next = 0;
    for (SwitchId s = 0; s < oldCount; ++s) {
        if (used[s])
            remap[s] = next++;
    }

    FinalizedDesign out;
    out.numProcs = net.numProcs();
    out.numSwitches = next;
    out.switchProcs.resize(next);
    for (SwitchId s = 0; s < oldCount; ++s) {
        if (used[s])
            out.switchProcs[remap[s]] = net.procsOf(s);
    }
    out.procHome.resize(net.numProcs());
    for (ProcId p = 0; p < net.numProcs(); ++p)
        out.procHome[p] = remap[net.homeOf(p)];
    out.routes.resize(cliques.numComms());
    out.comms.resize(cliques.numComms());
    for (CommId c = 0; c < cliques.numComms(); ++c) {
        out.routes[c] = net.route(c);
        for (auto &s : out.routes[c])
            s = remap[s];
        out.comms[c] = cliques.comm(c);
    }

    // Formal coloring per pipe and direction; the physical link count is
    // the max of the two directional chromatic numbers (full-duplex).
    for (const auto &key : net.pipes()) {
        const Pipe &p = net.pipe(key);
        FinalizedPipe fp;
        fp.key = PipeKey(remap[key.a], remap[key.b]);

        const std::vector<CommId> fwdIds = p.fwd.toVector();
        const std::vector<CommId> bwdIds = p.bwd.toVector();
        const auto fwdColoring =
            colorDirection(cliques, p.fwd, out.colorsExact);
        const auto bwdColoring =
            colorDirection(cliques, p.bwd, out.colorsExact);

        for (std::size_t i = 0; i < fwdIds.size(); ++i)
            fp.fwdLink[fwdIds[i]] = fwdColoring.color[i];
        for (std::size_t i = 0; i < bwdIds.size(); ++i)
            fp.bwdLink[bwdIds[i]] = bwdColoring.color[i];
        fp.links = std::max(fwdColoring.numColors, bwdColoring.numColors);
        if (config.unidirectional) {
            // Each direction only gets the channels it needs.
            fp.linksFwd = fwdColoring.numColors;
            fp.linksBwd = bwdColoring.numColors;
        } else {
            fp.linksFwd = fp.links;
            fp.linksBwd = fp.links;
        }
        if (fp.links == 0)
            continue; // pipe carries nothing; drop it
        out.pipes.push_back(std::move(fp));
    }
    std::sort(out.pipes.begin(), out.pipes.end(),
              [](const FinalizedPipe &x, const FinalizedPipe &y) {
                  return x.key < y.key;
              });

    // Connectivity patch (Definition 1 demands strong connectivity).
    // In duplex mode any pipe provides both directions; in
    // unidirectional mode only provisioned directions count, so an
    // asymmetric design may need extra channels even between already
    // piped switches.
    out.unidirectional = config.unidirectional;
    auto patchConnectivity = [&out]() {
        graph::Digraph sg(out.numSwitches);
        for (const auto &p : out.pipes) {
            if (p.linksFwd > 0)
                sg.addEdge(p.key.a, p.key.b);
            if (p.linksBwd > 0)
                sg.addEdge(p.key.b, p.key.a);
        }
        auto comp = graph::stronglyConnectedComponents(sg);
        std::uint32_t numComp = 0;
        for (const auto c : comp)
            numComp = std::max(numComp, c + 1);
        if (numComp <= 1)
            return false;

        // Close a directed ring over component representatives.
        std::vector<SwitchId> rep(numComp, kNoSwitch);
        for (SwitchId s = 0; s < out.numSwitches; ++s) {
            if (rep[comp[s]] == kNoSwitch)
                rep[comp[s]] = s;
        }
        std::sort(rep.begin(), rep.end());
        for (std::size_t i = 0; i < rep.size(); ++i) {
            const SwitchId a = rep[i];
            const SwitchId b = rep[(i + 1) % rep.size()];
            if (rep.size() == 2 && i == 1)
                break; // two components: one duplex patch suffices
            const PipeKey key(a, b);
            const auto idx = out.pipeIndex(key);
            if (idx == FinalizedDesign::npos) {
                FinalizedPipe fp;
                fp.key = key;
                fp.links = 1;
                fp.linksFwd = 1;
                fp.linksBwd = 1;
                fp.connectivityOnly = true;
                out.pipes.push_back(std::move(fp));
                std::sort(out.pipes.begin(), out.pipes.end(),
                          [](const FinalizedPipe &x,
                             const FinalizedPipe &y) {
                              return x.key < y.key;
                          });
            } else {
                // Pipe exists but lacks a direction: widen it.
                auto &fp = out.pipes[idx];
                if (fp.linksFwd == 0)
                    fp.linksFwd = 1;
                if (fp.linksBwd == 0)
                    fp.linksBwd = 1;
                fp.links = std::max(fp.linksFwd, fp.linksBwd);
            }
        }
        return true;
    };
    // A single pass can merge several components at once; iterate to a
    // fixpoint (bounded by the component count).
    for (std::uint32_t guard = 0; guard <= out.numSwitches; ++guard) {
        if (!patchConnectivity())
            break;
    }

    return out;
}

} // namespace minnoc::core
