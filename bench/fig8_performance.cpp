/**
 * @file
 * Figure 8 reproduction: total execution time and communication time
 * of every benchmark on crossbar / mesh / torus / generated networks,
 * normalized to the non-blocking crossbar, for the 8/9-node (a) and
 * 16-node (b) configurations.
 *
 * The paper's qualitative claims checked here:
 *  - the generated network tracks the crossbar within a few percent,
 *  - it beats the mesh most clearly on CG-16 (and never loses badly),
 *  - the torus sits between mesh and crossbar, and
 *  - no deadlocks occur in any run.
 */

#include <cstdio>

#include "core/methodology.hpp"
#include "sim/evaluate.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;

namespace {

std::uint32_t gDeadlocks = 0;

void
runConfig(const char *title, bool large)
{
    std::printf("=== Figure 8(%s): %s ===\n", large ? "b" : "a", title);
    std::printf("%-5s %5s | %-9s | %12s %12s | %10s %10s\n", "bench",
                "ranks", "network", "exec cycles", "comm cycles",
                "exec norm", "comm norm");

    for (const auto bench : trace::kAllBenchmarks) {
        const std::uint32_t ranks = large
                                        ? trace::largeConfigRanks(bench)
                                        : trace::smallConfigRanks(bench);
        trace::NasConfig cfg;
        cfg.ranks = ranks;
        cfg.iterations = 3;
        const auto tr = trace::generateBenchmark(bench, cfg);

        const auto outcome = core::runMethodology(trace::analyzeByCall(tr));

        double baseExec = 0.0;
        double baseComm = 0.0;
        const auto row = [&](const char *name, const sim::SimResult &res) {
            gDeadlocks += res.deadlockRecoveries;
            const auto exec = static_cast<double>(res.execTime);
            const auto comm = res.commTimeMean();
            if (baseExec == 0.0) {
                baseExec = exec;
                baseComm = comm > 0.0 ? comm : 1.0;
            }
            std::printf("%-5s %5u | %-9s | %12.0f %12.0f | %9.3fx "
                        "%9.3fx\n",
                        trace::benchmarkName(bench).c_str(), ranks,
                        name, exec, comm, exec / baseExec,
                        comm / baseComm);
        };
        for (const auto name : topo::kBaselines)
            row(name,
                sim::evaluateNetwork(*topo::buildBaseline(name, ranks), tr)
                    .sim);
        row("generated", sim::evaluateDesign(outcome.design, tr).sim);
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    std::printf("Trace-driven performance comparison "
                "(normalized to the crossbar = 1.000x).\n"
                "Simulator: wormhole, 3 VCs, 32-bit flits, 10-cycle "
                "send/recv overhead, DOR mesh,\nTFAR torus, "
                "source-routed generated networks.\n\n");
    runConfig("8 / 9 node configurations", false);
    runConfig("16 node configurations", true);
    std::printf("total deadlock recoveries across all runs: %u "
                "(paper observed none)\n",
                gDeadlocks);
    return gDeadlocks == 0 ? 0 : 1;
}
