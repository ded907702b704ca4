/**
 * @file
 * Quickstart: the full pipeline on the paper's flagship case (CG, 16
 * processors, max node degree 5).
 *
 *   1. synthesize a CG execution trace,
 *   2. extract the communication clique set (contention periods),
 *   3. run the design methodology to generate a minimal topology,
 *   4. verify Theorem 1 (contention-freedom),
 *   5. floorplan it and compare area against mesh/torus, and
 *   6. simulate the trace on crossbar / mesh / torus / generated
 *      networks and compare execution and communication time.
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
    // 1. Synthesize the CG trace for 16 ranks.
    trace::NasConfig ncfg;
    ncfg.ranks = 16;
    ncfg.iterations = 3;
    const trace::Trace tr = trace::generateCG(ncfg);
    std::printf("trace: %s, %u ranks, %zu messages, %.1f KB total\n",
                tr.name().c_str(), tr.numRanks(), tr.numSends(),
                static_cast<double>(tr.totalSendBytes()) / 1024.0);

    // 2. Extract contention periods (the paper's by-call analysis).
    core::CliqueSet cliques = trace::analyzeByCall(tr);
    std::printf("pattern: %zu distinct comms, %zu contention periods "
                "(max clique %zu)\n",
                cliques.numComms(), cliques.numCliques(),
                cliques.maxCliqueSize());

    // 3. Generate a minimal low-contention network, degree <= 5.
    // (Degree 5 is the methodology's default constraint.)
    const core::DesignOutcome outcome = core::runMethodology(cliques);
    std::printf("generated: %s\n", outcome.summary().c_str());
    std::printf("%s", outcome.design.toString().c_str());

    // 4. Theorem 1: the design should be contention-free for CG.
    if (outcome.violations.empty()) {
        std::printf("Theorem 1 holds: C intersect R is empty\n");
    } else {
        std::printf("WARNING: %zu residual contention pairs\n",
                    outcome.violations.size());
    }

    // 5. Floorplan, build and simulate the generated network; compare
    //    its area against mesh/torus.
    const sim::DesignEvaluation generated =
        sim::evaluateDesign(outcome.design, tr);
    const topo::Floorplan &plan = generated.plan;
    const auto [meshSw, meshLk] = topo::meshAreas(16);
    const auto [torusSw, torusLk] = topo::torusAreas(16);
    std::printf("area (switch, link): generated (%u, %u)  mesh (%u, %u)  "
                "torus (%u, %u)\n",
                plan.switchArea, plan.linkArea + plan.procLinkArea, meshSw,
                meshLk, torusSw, torusLk);

    // 6. Simulate on the baselines and compare with the generated run.
    std::printf("%-10s %14s %14s %10s\n", "network", "exec cycles",
                "comm cycles", "deadlocks");
    const auto row = [](const char *name, const sim::SimResult &res) {
        std::printf("%-10s %14lld %14.0f %10u\n", name,
                    static_cast<long long>(res.execTime),
                    res.commTimeMean(), res.deadlockRecoveries);
    };
    for (const auto name : topo::kBaselines)
        row(name,
            sim::evaluateNetwork(*topo::buildBaseline(name, 16), tr).sim);
    row("generated", generated.sim);
    return 0;
}
