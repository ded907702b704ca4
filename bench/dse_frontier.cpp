/**
 * @file
 * Design-space frontiers for the five NAS patterns vs the baselines.
 *
 * Runs the DSE explorer's default grid (degree x directionality x VCs,
 * 12 points) on every NAS benchmark and emits one JSON document per
 * run: the full explore report (all points, dominated flags, frontier)
 * per pattern, next to the crossbar / mesh / torus baselines evaluated
 * on the same trace (simulated latency, execution time, energy, and
 * the analytic area models). Jobs go through the shared result cache,
 * so re-running the bench after an exploration of the same traces is
 * nearly free.
 *
 * Expected shape: every generated frontier point beats the mesh on
 * area; the crossbar bounds latency from below at quadratic area; the
 * frontier exposes the degree knob as a genuine area/performance
 * trade-off (looser degree -> fewer, busier switches).
 */

#include <cstdio>
#include <fstream>
#include <ostream>

#include "dse/explorer.hpp"
#include "sim/evaluate.hpp"
#include "topo/floorplan.hpp"
#include "trace/nas_generators.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace minnoc;

namespace {

struct BaselineRow
{
    const char *name;
    std::uint32_t switchArea;
    std::uint32_t linkArea;
    sim::NetworkEvaluation e;
};

void
emitBaseline(std::ostream &os, const BaselineRow &row, bool last)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "        {\"name\": \"%s\", \"switch_area\": %u, "
        "\"link_area\": %u, \"exec_time\": %lld, "
        "\"avg_latency\": %.17g, \"avg_hops\": %.17g, "
        "\"energy\": %.17g}%s\n",
        row.name, row.switchArea, row.linkArea,
        static_cast<long long>(row.e.sim.execTime),
        row.e.sim.avgPacketLatency, row.e.sim.avgPacketHops,
        row.e.energy.total(), last ? "" : ",");
    os << buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = cli::Args::parse(
        argc, argv, 1,
        {"ranks", "iterations", "threads", "cache-dir", "cache", "out"});
    const std::uint32_t iterations = args.getU32("iterations", 2);

    dse::ExploreConfig cfg;
    cfg.threads = args.getU32("threads", 0);
    cfg.cacheDir = args.get("cache-dir");
    cfg.useCache = args.getU32("cache", 1) != 0;

    std::ofstream file;
    const auto out = args.get("out");
    if (!out.empty()) {
        file.open(out);
        if (!file)
            fatal("cannot write '", out, "'");
    }
    std::ostream &os = out.empty() ? std::cout : file;

    os << "{\n  \"benchmark\": \"dse_frontier\",\n"
       << "  \"iterations\": " << iterations << ",\n"
       << "  \"patterns\": [\n";

    bool firstPattern = true;
    for (const auto bench : trace::kAllBenchmarks) {
        trace::NasConfig ncfg;
        ncfg.ranks = args.getU32(
            "ranks", trace::largeConfigRanks(bench));
        ncfg.iterations = iterations;
        const auto tr = trace::generateBenchmark(bench, ncfg);
        const auto ranks = tr.numRanks();

        const auto [meshSw, meshLk] = topo::meshAreas(ranks);
        const auto [torusSw, torusLk] = topo::torusAreas(ranks);
        const auto [xbarSw, xbarLk] = topo::crossbarAreas(ranks);
        const auto judge = [&](const char *name, std::uint32_t switchArea,
                               std::uint32_t linkArea) {
            return BaselineRow{
                name, switchArea, linkArea,
                sim::evaluateNetwork(*topo::buildBaseline(name, ranks), tr)};
        };
        const BaselineRow baselines[] = {
            judge("crossbar", xbarSw, xbarLk),
            judge("mesh", meshSw, meshLk),
            judge("torus", torusSw, torusLk),
        };

        const auto report = dse::explore(tr, cfg);

        os << (firstPattern ? "" : ",\n") << "    {\n      \"name\": \""
           << trace::benchmarkName(bench) << "\",\n      \"ranks\": "
           << ranks << ",\n      \"baselines\": [\n";
        for (std::size_t b = 0; b < std::size(baselines); ++b)
            emitBaseline(os, baselines[b],
                         b + 1 == std::size(baselines));
        os << "      ],\n      \"explore\": " << report.toJson()
           << "    }";
        firstPattern = false;

        std::fprintf(stderr,
                     "%s-%u: %zu points, %zu on frontier, cache "
                     "%zu/%zu hits\n",
                     trace::benchmarkName(bench).c_str(), ranks,
                     report.points.size(), report.frontier.size(),
                     report.cacheHits,
                     report.cacheHits + report.cacheMisses);
    }
    os << "\n  ]\n}\n";
    return 0;
}
