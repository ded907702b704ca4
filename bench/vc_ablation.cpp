/**
 * @file
 * Virtual-channel ablation. The paper states that each physical link
 * has 3 virtual channels and that "this helps to alleviate contention
 * problems for the mesh and torus" while possibly also helping the
 * generated network absorb time-skew contention. This bench sweeps the
 * VC count on the CG-16 workload (the most contended one) and reports
 * execution time per topology.
 */

#include <cstdio>

#include "core/methodology.hpp"
#include "sim/evaluate.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;

int
main()
{
    trace::NasConfig ncfg;
    ncfg.ranks = 16;
    ncfg.iterations = 3;
    const auto tr = trace::generateCG(ncfg);

    const auto outcome = core::runMethodology(trace::analyzeByCall(tr));

    std::printf("CG-16 execution time (cycles) by virtual-channel "
                "count:\n\n");
    std::printf("%-6s", "VCs");
    for (const auto name : topo::kBaselines)
        std::printf(" %12s", name);
    std::printf(" %12s\n", "generated");

    for (const std::uint32_t vcs : {1u, 2u, 3u, 4u, 6u}) {
        sim::SimConfig cfg;
        cfg.numVcs = vcs;
        std::printf("%-6u", vcs);
        for (const auto name : topo::kBaselines) {
            const auto e = sim::evaluateNetwork(
                *topo::buildBaseline(name, 16), tr, cfg);
            std::printf(" %12lld", static_cast<long long>(e.sim.execTime));
        }
        const auto e = sim::evaluateDesign(outcome.design, tr, cfg);
        std::printf(" %12lld\n", static_cast<long long>(e.sim.execTime));
    }
    std::printf(
        "\nreading: the contention-free generated network and the "
        "crossbar are completely\nVC-insensitive (nothing ever "
        "blocks). The adaptive torus improves with VCs (TFAR\nneeds "
        "free VCs to exploit alternative paths). The mesh slightly "
        "DEGRADES with more\nVCs on this lock-step workload: "
        "round-robin flit interleaving stretches both\nconflicting "
        "wormholes, whereas single-VC serialization releases one "
        "waiting rank\nearly — a known subtlety of VC flow control "
        "under synchronized traffic.\n");
    return 0;
}
