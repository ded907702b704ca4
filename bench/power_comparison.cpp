/**
 * @file
 * Power/energy comparison — the paper's named future-work extension
 * ("this work can be extended to include other important optimization
 * criteria such as power to produce power-efficient on-chip
 * networks").
 *
 * Replays every benchmark on the four network families and accounts
 * energy under both tiers of topo/power.hpp: the static per-flit-hop
 * model and the activity-based model driven by simulator counters
 * (buffer occupancy, crossbar traversals, per-link flit loads). One
 * JSON document per run: per benchmark, per network, both energy
 * breakdowns plus the ratio to the mesh baseline.
 *
 * Expected shape: the generated CG network wins outright (~0.7x mesh:
 * localized traffic on short dedicated links); for near-neighbor
 * patterns (BT/SP/MG) the mesh is already the dynamic-energy optimum
 * and generated networks pay ~5-12% in hop count while winning on
 * leakage; the torus pays doubled wire leakage; the crossbar's 2-hop
 * paths set the dynamic lower bound but do not scale. The activity
 * tier widens the spread: congested networks hold flits in buffers
 * longer, so buffer energy punishes contention the static model never
 * sees.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>

#include "core/methodology.hpp"
#include "sim/evaluate.hpp"
#include "topo/power.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace minnoc;

int
main(int argc, char **argv)
{
    const auto args =
        cli::Args::parse(argc, argv, 1, {"iterations", "out"});
    const std::uint32_t kIterations = args.getU32("iterations", 2);

    std::ofstream file;
    const auto out = args.get("out");
    if (!out.empty()) {
        file.open(out);
        if (!file)
            fatal("cannot write '", out, "'");
    }
    std::ostream &os = out.empty() ? std::cout : file;

    topo::PowerModel activityModel;
    activityModel.kind = topo::PowerModelKind::Activity;

    os << "{\n  \"benchmark\": \"power_comparison\",\n"
       << "  \"iterations\": " << kIterations << ",\n"
       << "  \"benchmarks\": [\n";

    bool firstBench = true;
    for (const auto bench : trace::kAllBenchmarks) {
        const std::uint32_t ranks = trace::largeConfigRanks(bench);
        trace::NasConfig cfg;
        cfg.ranks = ranks;
        cfg.iterations = kIterations;
        const auto tr = trace::generateBenchmark(bench, cfg);

        const auto outcome = core::runMethodology(trace::analyzeByCall(tr));

        os << (firstBench ? "" : ",\n") << "    {\"name\": \""
           << trace::benchmarkName(bench) << "\", \"ranks\": " << ranks
           << ", \"networks\": [\n";
        firstBench = false;

        double meshStatic = 0.0;
        double meshActivity = 0.0;
        const auto row = [&](const char *name, const topo::Topology &topo,
                             const sim::NetworkEvaluation &e, bool last) {
            const auto &stat = e.energy;
            const auto act = topo::computeEnergy(
                topo, e.sim.linkFlits, e.sim.execTime, e.sim.activity,
                activityModel);
            if (meshStatic == 0.0) {
                meshStatic = stat.total();
                meshActivity = act.total();
            }
            char buf[512];
            std::snprintf(
                buf, sizeof buf,
                "      {\"name\": \"%s\", "
                "\"static\": {\"dynamic\": %.2f, \"leakage\": %.2f, "
                "\"total\": %.2f, \"vs_mesh\": %.4f}, "
                "\"activity\": {\"dynamic\": %.2f, \"buffer\": %.2f, "
                "\"leakage\": %.2f, \"total\": %.2f, "
                "\"vs_mesh\": %.4f}}%s\n",
                name, stat.dynamic(), stat.leakage(), stat.total(),
                stat.total() / meshStatic, act.dynamic(),
                act.bufferDynamic, act.leakage(), act.total(),
                act.total() / meshActivity, last ? "" : ",");
            os << buf;
        };
        // The mesh comes first: every ratio is to it.
        for (const char *name : {"mesh", "torus", "crossbar"}) {
            const auto net = *topo::buildBaseline(name, ranks);
            row(name, *net.topo, sim::evaluateNetwork(net, tr), false);
        }
        const auto e = sim::evaluateDesign(outcome.design, tr);
        row("generated", *e.net.topo, e, true);
        os << "    ]}";
    }
    os << "\n  ]\n}\n";
    if (!out.empty())
        std::fprintf(stderr, "wrote %s\n", out.c_str());
    return 0;
}
