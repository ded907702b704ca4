/**
 * @file
 * Ablations of the methodology's design choices (DESIGN.md section 5):
 *
 *  1. Fast_Color bound quality: compare the clique-based lower bound
 *     against DSATUR and exact chromatic numbers on every pipe conflict
 *     graph of the generated benchmark designs (the paper claims the
 *     bound is a tight estimate).
 *  2. Route optimization ablation: total links with Best_Route and
 *     global consolidation disabled vs enabled.
 */

#include <cstdio>

#include "core/methodology.hpp"
#include "graph/coloring.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;
using namespace minnoc::core;

namespace {

/** Harvest pipe conflict graphs from a finalized design and compare
 * coloring bounds on each. */
void
boundQuality()
{
    std::printf("=== Ablation 1: Fast_Color bound vs formal coloring "
                "===\n\n");
    std::printf("%-6s %6s | %10s %10s %10s | %s\n", "bench", "pipes",
                "fast=exact", "fast<exact", "max gap", "graphs");

    for (const auto bench : trace::kAllBenchmarks) {
        trace::NasConfig cfg;
        cfg.ranks = trace::largeConfigRanks(bench);
        cfg.iterations = 1;
        const auto tr = trace::generateBenchmark(bench, cfg);
        auto ks = trace::analyzeByCall(tr);
        ks.reduceToMaximum();

        const auto outcome = runMethodology(ks);

        std::size_t equal = 0;
        std::size_t below = 0;
        std::uint32_t maxGap = 0;
        std::size_t graphs = 0;
        for (const auto &pipe : outcome.design.pipes) {
            if (pipe.connectivityOnly)
                continue;
            // Rebuild each direction's conflict graph from the design.
            for (const auto dir : {&pipe.fwdLink, &pipe.bwdLink}) {
                std::vector<CommId> ids;
                for (const auto &[c, link] : *dir)
                    ids.push_back(c);
                if (ids.empty())
                    continue;
                graph::Ugraph cg(ids.size());
                std::uint32_t fast = 0;
                // Fast bound: max clique-set intersection.
                for (const auto &k : ks.cliques()) {
                    std::uint32_t common = 0;
                    for (std::size_t i = 0; i < ids.size(); ++i) {
                        if (k.contains(ids[i]))
                            ++common;
                    }
                    fast = std::max(fast, common);
                }
                for (std::size_t i = 0; i < ids.size(); ++i) {
                    for (std::size_t j = i + 1; j < ids.size(); ++j) {
                        if (ks.contend(ids[i], ids[j]))
                            cg.addEdge(static_cast<graph::NodeId>(i),
                                       static_cast<graph::NodeId>(j));
                    }
                }
                const auto exact = graph::exactColoring(cg);
                ++graphs;
                if (fast == exact.numColors)
                    ++equal;
                else
                    ++below;
                maxGap = std::max(maxGap, exact.numColors - fast);
            }
        }
        std::printf("%-6s %6zu | %10zu %10zu %10u | %zu\n",
                    trace::benchmarkName(bench).c_str(),
                    outcome.design.pipes.size(), equal, below, maxGap,
                    graphs);
    }
    std::printf("\n(fast=exact everywhere means the lower bound is "
                "tight, as the paper claims)\n\n");
}

/** Total links with pieces of the optimizer turned off. */
void
optimizerAblation()
{
    std::printf("=== Ablation 2: route optimization stages ===\n\n");
    std::printf("%-6s | %10s %12s %12s\n", "bench", "full",
                "no consol.", "no BestRoute");

    for (const auto bench : trace::kAllBenchmarks) {
        trace::NasConfig cfg;
        cfg.ranks = trace::smallConfigRanks(bench);
        cfg.iterations = 1;
        const auto tr = trace::generateBenchmark(bench, cfg);
        const auto ks = trace::analyzeByCall(tr);

        auto linksWith = [&](bool consolidate, bool bestRoute) {
            MethodologyConfig mcfg;
            mcfg.partitioner.consolidate = consolidate;
            mcfg.partitioner.optimizeRoutes = bestRoute;
            mcfg.restarts = 4;
            const auto outcome = runMethodology(ks, mcfg);
            return std::pair<std::uint32_t, bool>(
                outcome.design.totalLinks(), outcome.constraintsMet);
        };

        const auto [full, fullOk] = linksWith(true, true);
        const auto [noCons, noConsOk] = linksWith(false, true);
        const auto [noBr, noBrOk] = linksWith(true, false);
        std::printf("%-6s | %8u%s %10u%s %10u%s\n",
                    trace::benchmarkName(bench).c_str(), full,
                    fullOk ? "  " : "!!", noCons, noConsOk ? "  " : "!!",
                    noBr, noBrOk ? "  " : "!!");
    }
    std::printf("\n('!!' marks runs where the degree-5 constraint "
                "could not be met)\n");
}

/** Duplex vs unidirectional provisioning (paper footnote 1). */
void
unidirectionalAblation()
{
    std::printf("\n=== Ablation 3: duplex vs unidirectional links ===\n\n");
    std::printf("%-14s | %10s %10s | %12s\n", "pattern",
                "duplex ch.", "uni ch.", "saved");

    auto channels = [](const core::FinalizedDesign &d) {
        std::uint32_t total = 0;
        for (const auto &p : d.pipes)
            total += p.linksFwd + p.linksBwd;
        return total;
    };
    auto runBoth = [&](const char *name, const CliqueSet &ks) {
        MethodologyConfig base;
        base.restarts = 8;
        MethodologyConfig uni = base;
        uni.finalize.unidirectional = true;
        const auto d = runMethodology(ks, base);
        const auto u = runMethodology(ks, uni);
        const auto dc = channels(d.design);
        const auto uc = channels(u.design);
        std::printf("%-14s | %10u %10u | %11.0f%%\n", name, dc, uc,
                    100.0 * (1.0 - static_cast<double>(uc) /
                                       static_cast<double>(dc)));
    };

    // Fully asymmetric pattern: one-way ring.
    {
        CliqueSet ring(16);
        std::vector<Comm> comms;
        for (ProcId p = 0; p < 16; ++p)
            comms.emplace_back(p, static_cast<ProcId>((p + 1) % 16));
        ring.addClique(comms);
        runBoth("one-way ring", ring);
    }
    // Symmetric benchmark: little to gain.
    {
        trace::NasConfig cfg;
        cfg.ranks = 16;
        cfg.iterations = 1;
        runBoth("CG-16", trace::analyzeByCall(trace::generateCG(cfg)));
    }
    std::printf(
        "\n(symmetric exchanges gain nothing by construction; the "
        "one-way ring sheds ~10%%\nwith asymmetry-priced routing — "
        "the contiguous-placement optimum would be 50%%,\nbut "
        "placement search is still duplex-driven; see DESIGN.md 5b)\n");
}

} // namespace

int
main()
{
    boundQuality();
    optimizerAblation();
    unidirectionalAblation();
    return 0;
}
