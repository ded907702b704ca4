/**
 * @file
 * Compare every topology on one benchmark.
 *
 * Usage:
 *   compare_topologies [BT|CG|FFT|MG|SP] [ranks] [iterations]
 *
 * Runs the chosen benchmark trace on crossbar, mesh, folded torus and
 * the methodology-generated network, reporting execution time,
 * communication time, average packet latency and resource areas — the
 * per-benchmark slice of the paper's Figures 7 and 8.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/methodology.hpp"
#include "sim/evaluate.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;

int
main(int argc, char **argv)
{
    const auto bench = trace::benchmarkFromName(argc > 1 ? argv[1] : "CG");
    trace::NasConfig cfg;
    cfg.ranks = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2]))
                         : trace::largeConfigRanks(bench);
    cfg.iterations =
        argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3])) : 3;

    const auto tr = trace::generateBenchmark(bench, cfg);
    std::printf("%s on %u ranks: %zu messages, %.1f KB payload, %u "
                "call sites\n",
                tr.name().c_str(), cfg.ranks, tr.numSends(),
                static_cast<double>(tr.totalSendBytes()) / 1024.0,
                tr.numCalls());

    const auto outcome = core::runMethodology(trace::analyzeByCall(tr));
    std::printf("generated: %s\n", outcome.summary().c_str());

    const auto [meshSw, meshLk] = topo::meshAreas(cfg.ranks);
    const auto [torusSw, torusLk] = topo::torusAreas(cfg.ranks);
    const auto [xbarSw, xbarLk] = topo::crossbarAreas(cfg.ranks);

    std::printf("\n%-10s %12s %12s %10s %9s %9s %9s\n", "network",
                "exec cycles", "comm cycles", "pkt lat", "sw area",
                "lnk area", "deadlk");
    const auto row = [](const char *name, const sim::SimResult &res,
                        std::uint32_t switchArea, std::uint32_t linkArea) {
        std::printf("%-10s %12lld %12.0f %10.1f %9u %9u %9u\n", name,
                    static_cast<long long>(res.execTime),
                    res.commTimeMean(), res.avgPacketLatency, switchArea,
                    linkArea, res.deadlockRecoveries);
    };
    const auto baseline = [&](const char *name) {
        return sim::evaluateNetwork(*topo::buildBaseline(name, cfg.ranks), tr)
            .sim;
    };
    row("crossbar", baseline("crossbar"), xbarSw, xbarLk);
    row("mesh", baseline("mesh"), meshSw, meshLk);
    row("torus", baseline("torus"), torusSw, torusLk);
    const auto e = sim::evaluateDesign(outcome.design, tr);
    row("generated", e.sim, e.plan.switchArea,
        e.plan.linkArea + e.plan.procLinkArea);
    std::printf("\n(first row = non-blocking crossbar reference)\n");
    return 0;
}
