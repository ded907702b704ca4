/**
 * @file
 * Open-loop load-latency curves — the standard NoC evaluation the
 * library supports beyond the paper's trace-driven methodology.
 *
 * For each topology, sweep offered load under uniform-random and
 * transpose traffic and report average packet latency; the crossbar
 * saturates last, the mesh first, and the CG-generated network (built
 * for a different pattern!) sits in between, degrading gracefully on
 * traffic it was never designed for thanks to the BFS fallback routes.
 */

#include <cstdio>

#include "core/methodology.hpp"
#include "sim/evaluate.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "trace/synthetic.hpp"

using namespace minnoc;

int
main()
{
    constexpr std::uint32_t kRanks = 16;

    trace::NasConfig ncfg;
    ncfg.ranks = kRanks;
    ncfg.iterations = 1;
    const auto outcome = core::runMethodology(
        trace::analyzeByCall(trace::generateCG(ncfg)));

    for (const auto pattern :
         {trace::Pattern::UniformRandom, trace::Pattern::Transpose}) {
        std::printf("=== %s traffic, %u nodes, 64B packets ===\n",
                    trace::patternName(pattern).c_str(), kRanks);
        std::printf("%-8s", "load");
        for (const auto name : topo::kBaselines)
            std::printf(" %14s", name);
        std::printf(" %14s   (avg packet latency, cycles)\n",
                    "generated(CG)");

        for (const double load : {0.05, 0.1, 0.2, 0.3, 0.5, 0.7}) {
            trace::SyntheticConfig scfg;
            scfg.ranks = kRanks;
            scfg.pattern = pattern;
            scfg.load = load;
            scfg.slots = 150;
            const auto tr = trace::generateSynthetic(scfg);

            std::printf("%-8.2f", load);
            for (const auto name : topo::kBaselines) {
                const auto e = sim::evaluateNetwork(
                    *topo::buildBaseline(name, kRanks), tr);
                std::printf(" %14.1f", e.sim.avgPacketLatency);
            }
            const auto e = sim::evaluateDesign(outcome.design, tr);
            std::printf(" %14.1f\n", e.sim.avgPacketLatency);
        }
        std::printf("\n");
    }
    std::printf(
        "expected shape: on uniform traffic the generated network (46%% "
        "of mesh links)\ndegrades fastest and the crossbar stays flat; "
        "on transpose traffic the generated\nnetwork is almost "
        "crossbar-flat — CG's clique set contains the matrix transpose, "
        "so\nthe network was literally designed for it, while the mesh "
        "contends.\n");
    return 0;
}
