/**
 * @file
 * Phase-gain study: monolithic vs union vs time-multiplexed designs.
 *
 * Runs the phase evaluator on the five NAS patterns plus one synthetic
 * phase-shift workload (neighbor -> transpose -> hotspot epochs) and
 * emits one JSON document: the full phase report per workload, i.e.
 * detected phases, the three design variants' area / latency / energy,
 * and the explicit reconfiguration overhead of the time-multiplexed
 * variant.
 *
 * Expected shape: the NAS traces are temporally homogeneous — the
 * segmenter finds one phase and time-multiplexing degenerates to the
 * monolithic design plus nothing. The phase-shift trace splits into
 * one phase per epoch, and the time-multiplexed variant beats the
 * monolithic design on area (the fabric only hosts the largest phase
 * network) while paying a visible, reported reconfiguration cost.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>
#include <vector>

#include "phase/evaluator.hpp"
#include "trace/nas_generators.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace minnoc;

namespace {

void
runWorkload(std::ostream &os, const trace::Trace &tr,
            const phase::PhaseEvalConfig &cfg, bool first)
{
    const auto report = phase::evaluatePhases(tr, cfg);
    os << (first ? "" : ",\n") << "    " << report.toJson();
    std::fprintf(stderr,
                 "%s-%u: %zu phase(s); area mono %u / union %u / tm %u, "
                 "exec mono %lld / tm %lld (+%lld reconfig)\n",
                 report.pattern.c_str(), report.ranks,
                 report.phases.size(), report.monolithic.area,
                 report.unionVariant.area, report.timeMultiplexed.area,
                 static_cast<long long>(report.monolithic.execTime),
                 static_cast<long long>(report.timeMultiplexed.execTime),
                 static_cast<long long>(report.reconfigCycles));
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = cli::Args::parse(
        argc, argv, 1,
        {"ranks", "iterations", "window", "reconfig-cost", "restarts",
         "threads", "out"});

    phase::PhaseEvalConfig cfg;
    cfg.segmenter.windowMessages =
        args.getU32("window", cfg.segmenter.windowMessages);
    cfg.reconfigCost = static_cast<sim::Cycle>(args.getU64(
        "reconfig-cost", static_cast<std::uint64_t>(cfg.reconfigCost)));
    cfg.methodology.restarts = args.getU32("restarts", 8);
    cfg.threads = args.getU32("threads", 0);

    std::ofstream file;
    const auto out = args.get("out");
    if (!out.empty()) {
        file.open(out);
        if (!file)
            fatal("cannot write '", out, "'");
    }
    std::ostream &os = out.empty() ? std::cout : file;

    os << "{\n  \"benchmark\": \"phase_gain\",\n"
       << "  \"reconfig_cost\": " << cfg.reconfigCost << ",\n"
       << "  \"workloads\": [\n";

    bool first = true;
    for (const auto bench : trace::kAllBenchmarks) {
        trace::NasConfig ncfg;
        ncfg.ranks =
            args.getU32("ranks", trace::largeConfigRanks(bench));
        ncfg.iterations = args.getU32("iterations", 2);
        runWorkload(os, trace::generateBenchmark(bench, ncfg), cfg,
                    first);
        first = false;
    }

    trace::PhaseShiftConfig scfg;
    scfg.ranks = args.getU32("ranks", scfg.ranks);
    runWorkload(os,
                trace::phaseShift({trace::Pattern::Neighbor,
                                   trace::Pattern::Transpose,
                                   trace::Pattern::Hotspot},
                                  scfg),
                cfg, first);

    os << "\n  ]\n}\n";
    return 0;
}
