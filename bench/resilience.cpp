/**
 * @file
 * Degradation curves under injected faults — how gracefully each
 * network gives ground as links die and traversals corrupt packets.
 *
 * Sweeps permanently-failed link counts crossed with transient
 * corruption rates over the CG trace on four networks and emits one
 * JSON document of degradation points (delivered fraction, latency
 * inflation, retransmissions, disconnected pairs, execution time).
 *
 * Expected shape: the mesh and torus shrug off several random
 * inter-switch failures (BFS rerouting finds detours), the crossbar
 * has no detours at all (every random failure amputates a processor),
 * and the generated network — minimal by construction — sits in
 * between: it survives some failures but disconnects sooner than the
 * regular topologies because the methodology pruned its redundancy.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>
#include <utility>
#include <vector>

#include "core/methodology.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "topo/floorplan.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace minnoc;

int
main(int argc, char **argv)
{
    const auto args = cli::Args::parse(argc, argv, 1,
                                       {"ranks", "fault-seed", "out"});
    const std::uint32_t kRanks = args.getU32("ranks", 16);
    const std::uint64_t kFaultSeed = args.getU64("fault-seed", 7);

    std::ofstream file;
    const auto out = args.get("out");
    if (!out.empty()) {
        file.open(out);
        if (!file)
            fatal("cannot write '", out, "'");
    }
    std::ostream &os = out.empty() ? std::cout : file;

    trace::NasConfig ncfg;
    ncfg.ranks = kRanks;
    ncfg.iterations = 1;
    const auto cg = trace::generateCG(ncfg);
    const auto outcome = core::runMethodology(trace::analyzeByCall(cg));

    // Faults vary the simulation stage, so each network is built once
    // here and replayed under every fault configuration.
    std::vector<std::pair<const char *, topo::BuiltNetwork>> nets;
    for (const auto name : topo::kBaselines)
        nets.emplace_back(name, *topo::buildBaseline(name, kRanks));
    nets.emplace_back("generated(CG)",
                      topo::buildFromDesign(outcome.design,
                                            topo::planFloor(outcome.design)));
    const std::uint32_t failCounts[] = {0, 1, 2, 4};
    const double errorRates[] = {0.0, 0.001, 0.01};

    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\n  \"benchmark\": \"resilience\",\n"
                  "  \"trace\": \"CG-%u\",\n  \"fault_seed\": %llu,\n"
                  "  \"networks\": [\n",
                  kRanks, static_cast<unsigned long long>(kFaultSeed));
    os << buf;
    for (std::size_t n = 0; n < std::size(nets); ++n) {
        const auto &[name, net] = nets[n];
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"points\": [\n", name);
        os << buf;
        bool firstPoint = true;
        for (const auto failLinks : failCounts) {
            for (const auto rate : errorRates) {
                sim::FaultConfig fcfg;
                fcfg.randomFailLinks = failLinks;
                fcfg.flitErrorRate = rate;
                fcfg.seed = kFaultSeed;
                const auto res = sim::runTrace(cg, *net.topo, *net.routing,
                                               sim::SimConfig{}, fcfg);
                std::snprintf(
                    buf, sizeof buf,
                    "      %s{\"fail_links\": %u, \"flit_error_rate\": %g, "
                    "\"delivered_fraction\": %.4f, "
                    "\"latency_inflation\": %.4f, "
                    "\"exec_time\": %lld, \"retransmissions\": %llu, "
                    "\"dropped\": %llu, \"disconnected_pairs\": %u, "
                    "\"deadlock_recoveries\": %u}",
                    firstPoint ? "" : ",\n      ", failLinks, rate,
                    res.deliveredFraction, res.latencyInflation,
                    static_cast<long long>(res.execTime),
                    static_cast<unsigned long long>(res.retransmissions),
                    static_cast<unsigned long long>(res.packetsDropped),
                    res.disconnectedPairs, res.deadlockRecoveries);
                os << buf;
                firstPoint = false;
            }
        }
        os << "\n    ]}" << (n + 1 < std::size(nets) ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    if (!out.empty())
        std::fprintf(stderr, "wrote %s\n", out.c_str());
    return 0;
}
