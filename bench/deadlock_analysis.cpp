/**
 * @file
 * Static deadlock analysis of every routing/topology combination in
 * the evaluation.
 *
 * The paper reports "for all execution traces simulated on all of the
 * above networks and configurations, no deadlocks were detected. This
 * result is consistent with prior observations [20]" — [20] being
 * Warnakulasuriya & Pinkston's deadlock characterization in irregular
 * networks. This bench *explains* that observation with channel
 * dependency graphs: mesh DOR and the generated source-routed designs
 * are provably acyclic (deadlock-free), while torus TFAR is cyclic and
 * merely unlikely to deadlock under application traffic (hence the
 * paper's detection-and-recovery safety net). Up-star/down-star
 * routing is included as the deadlock-free-by-construction baseline
 * for irregular topologies.
 */

#include <cstdio>

#include "core/methodology.hpp"
#include "topo/builders.hpp"
#include "topo/deadlock_analysis.hpp"
#include "topo/floorplan.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;
using namespace minnoc::topo;

namespace {

void
report(const char *name, const Topology &topo,
       const RoutingFunction &routing)
{
    const auto r = analyzeChannelDependencies(topo, routing);
    std::printf("%-26s %-10s | %8zu %12zu | %s\n", name,
                routing.name().c_str(), r.usedChannels, r.dependencies,
                r.acyclic ? "ACYCLIC (deadlock-free)" : "cyclic");
}

} // namespace

int
main()
{
    std::printf("Channel-dependency-graph analysis "
                "(Dally-Seitz criterion).\n\n");
    std::printf("%-26s %-10s | %8s %12s | %s\n", "network", "routing",
                "channels", "dependencies", "verdict");

    for (const auto name : kBaselines) {
        const auto net = *buildBaseline(name, 16);
        report(net.topo->name().c_str(), *net.topo, *net.routing);
        // A single switch (the crossbar) has no up*/down* order.
        if (net.topo->numSwitches() > 1) {
            const auto updown = makeUpDownRouting(*net.topo);
            report(net.topo->name().c_str(), *net.topo, *updown);
        }
    }
    for (const auto bench : trace::kAllBenchmarks) {
        const std::uint32_t ranks = trace::largeConfigRanks(bench);
        trace::NasConfig cfg;
        cfg.ranks = ranks;
        cfg.iterations = 1;
        const auto outcome = core::runMethodology(
            trace::analyzeByCall(trace::generateBenchmark(bench, cfg)));
        const auto net =
            buildFromDesign(outcome.design, planFloor(outcome.design));

        const auto name =
            "generated-" + trace::benchmarkName(bench) + "-16";
        report(name.c_str(), *net.topo, *net.routing);
        const auto updown = makeUpDownRouting(*net.topo);
        report(name.c_str(), *net.topo, *updown);
    }

    std::printf(
        "\nreading: DOR is provably deadlock-free; the 8/9-node "
        "generated designs analyze\nacyclic, while the 16-node ones "
        "(whose tables also carry all-pairs BFS fallback\nroutes for "
        "foreign traffic) have dependency cycles yet never deadlock "
        "under their\nown traffic -- matching the paper's observation "
        "and justifying its detection-and-\nrecovery safety net. "
        "Up-star/down-star is acyclic everywhere by construction and\n"
        "is the drop-in remedy when a guarantee is required.\n");
    return 0;
}
