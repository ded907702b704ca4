/**
 * @file
 * Design a network from an execution-trace file.
 *
 * Usage:
 *   design_from_trace [trace-file] [max-degree]
 *
 * Without arguments the example writes a BT-9 trace to a temporary
 * file first, so it doubles as a demonstration of the trace text
 * format. The trace is loaded back, analyzed into contention periods,
 * fed through the methodology, and the resulting network is described,
 * floorplanned and simulated against the same trace.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/methodology.hpp"
#include "sim/evaluate.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;

namespace {

std::string
writeDemoTrace()
{
    trace::NasConfig cfg;
    cfg.ranks = 9;
    cfg.iterations = 2;
    const auto tr = trace::generateBT(cfg);
    const std::string path = "/tmp/minnoc_demo_bt9.trace";
    std::ofstream out(path);
    tr.save(out);
    std::printf("wrote demo trace to %s (%zu sends)\n", path.c_str(),
                tr.numSends());
    return path;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string path = argc > 1 ? argv[1] : writeDemoTrace();
    const std::uint32_t maxDegree =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 5;

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 1;
    }
    const trace::Trace tr = trace::Trace::load(in);
    std::printf("loaded '%s': %u ranks, %zu messages, %u call sites\n",
                tr.name().c_str(), tr.numRanks(), tr.numSends(),
                tr.numCalls());

    // Contention periods via the paper's by-call analysis.
    core::CliqueSet cliques = trace::analyzeByCall(tr);
    const auto removed = cliques.reduceToMaximum();
    std::printf("%zu contention periods (%zu dominated removed), "
                "%zu distinct comms\n",
                cliques.numCliques(), removed, cliques.numComms());

    // Run the methodology.
    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = maxDegree;
    const auto outcome = core::runMethodology(cliques, mcfg);
    std::printf("design: %s\n", outcome.summary().c_str());
    std::printf("%s", outcome.design.toString().c_str());

    // Floorplan + area report, then the trace on the generated network
    // and on the mesh.
    const auto gen = sim::evaluateDesign(outcome.design, tr);
    const auto &plan = gen.plan;
    const auto [meshSw, meshLk] = topo::meshAreas(tr.numRanks());
    std::printf("area vs %ux mesh: switches %.0f%%, links %.0f%%\n",
                tr.numRanks(),
                100.0 * plan.switchArea / meshSw,
                100.0 * (plan.linkArea + plan.procLinkArea) / meshLk);

    const auto &rg = gen.sim;
    const auto rm =
        sim::evaluateNetwork(*topo::buildBaseline("mesh", tr.numRanks()), tr)
            .sim;
    std::printf("simulated exec cycles: generated %lld, mesh %lld "
                "(%.1f%% speedup)\n",
                static_cast<long long>(rg.execTime),
                static_cast<long long>(rm.execTime),
                100.0 * (static_cast<double>(rm.execTime) /
                             static_cast<double>(rg.execTime) -
                         1.0));
    return 0;
}
