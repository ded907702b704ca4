/**
 * @file
 * Figure 7 reproduction: switch and link areas of the generated
 * networks, normalized to the mesh, for all five benchmarks at the 8/9
 * node (a) and 16 node (b) configurations. The torus columns use the
 * analytic folded-torus areas (same switches as mesh, double link
 * area), exactly as the paper derives them.
 */

#include <cstdio>

#include "core/methodology.hpp"
#include "topo/floorplan.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;

namespace {

void
runConfig(const char *title, bool large)
{
    std::printf("=== Figure 7(%s): %s ===\n", large ? "b" : "a", title);
    std::printf("%-5s %5s | %9s %9s | %9s %9s | %12s %12s\n", "bench",
                "ranks", "gen sw", "gen lnk", "mesh sw", "mesh lnk",
                "sw vs mesh", "lnk vs mesh");

    for (const auto bench : trace::kAllBenchmarks) {
        const std::uint32_t ranks = large
                                        ? trace::largeConfigRanks(bench)
                                        : trace::smallConfigRanks(bench);
        trace::NasConfig cfg;
        cfg.ranks = ranks;
        cfg.iterations = 2;
        const auto tr = trace::generateBenchmark(bench, cfg);

        const auto outcome = core::runMethodology(trace::analyzeByCall(tr));
        const auto plan = topo::planFloor(outcome.design);

        const auto [meshSw, meshLk] = topo::meshAreas(ranks);
        const std::uint32_t genSw = plan.switchArea;
        const std::uint32_t genLk = plan.linkArea + plan.procLinkArea;
        std::printf("%-5s %5u | %9u %9u | %9u %9u | %11.0f%% %11.0f%%\n",
                    trace::benchmarkName(bench).c_str(), ranks, genSw,
                    genLk, meshSw, meshLk,
                    100.0 * genSw / meshSw, 100.0 * genLk / meshLk);
    }

    // Torus reference row (identical for every benchmark).
    const std::uint32_t ranks = large ? 16 : 8;
    const auto [meshSw, meshLk] = topo::meshAreas(ranks);
    const auto [torusSw, torusLk] = topo::torusAreas(ranks);
    std::printf("%-5s %5u | %9s %9s | %9u %9u | %11.0f%% %11.0f%%  "
                "(torus reference)\n\n",
                "torus", ranks, "-", "-", torusSw, torusLk,
                100.0 * torusSw / meshSw, 100.0 * torusLk / meshLk);
}

} // namespace

int
main()
{
    std::printf("Generated-network resource comparison "
                "(normalized to mesh = 100%%).\n"
                "Paper shape: generated networks use roughly 40-60%% "
                "of the mesh switch area and\n25-60%% of its link "
                "area; FFT/MG grow denser at 16 nodes; torus doubles "
                "mesh link area.\n\n");
    runConfig("8 / 9 node configurations", false);
    runConfig("16 node configurations", true);
    return 0;
}
