/**
 * @file
 * Byte pins for route consolidation and degree repair: FNV-1a digests
 * of a full methodology design and of the routes left behind by direct
 * consolidateRoutes / repairDegrees calls. tests/golden/ pins summary
 * stats only; these digests pin every route, so a rewrite of the
 * hop-pricing code that changes any tie-break fails here.
 *
 * The digests were recorded from the implementation that built a
 * per-call pipe baseline table; a change that moves them is a model
 * change, not an optimization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/design_io.hpp"
#include "core/methodology.hpp"
#include "core/route_optimizer.hpp"
#include "dse/cache.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "util/rng.hpp"

using namespace minnoc;
using namespace minnoc::core;

namespace {

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

CliqueSet
nasCliques(trace::Benchmark bench, std::uint32_t ranks)
{
    trace::NasConfig cfg;
    cfg.ranks = ranks;
    cfg.iterations = 1;
    cfg.seed = 1;
    return trace::analyzeByCall(trace::generateBenchmark(bench, cfg));
}

/** Random clique set: @p phases partial permutations of @p procs. */
CliqueSet
randomCliques(std::uint32_t procs, std::uint32_t phases, std::uint64_t seed)
{
    CliqueSet ks(procs);
    Rng rng(seed);
    std::vector<ProcId> perm(procs);
    for (ProcId p = 0; p < procs; ++p)
        perm[p] = p;
    for (std::uint32_t k = 0; k < phases; ++k) {
        rng.shuffle(perm);
        std::vector<Comm> comms;
        for (ProcId p = 0; p < procs; ++p) {
            if (perm[p] != p && rng.chance(0.8))
                comms.emplace_back(p, perm[p]);
        }
        if (!comms.empty())
            ks.addClique(comms);
    }
    return ks;
}

/** Split the most populated switch until @p switches exist. */
void
splitTo(DesignNetwork &net, std::size_t switches, Rng &rng)
{
    while (net.numSwitches() < switches) {
        SwitchId big = 0;
        for (SwitchId s = 1; s < net.numSwitches(); ++s) {
            if (net.procsOf(s).size() > net.procsOf(big).size())
                big = s;
        }
        net.splitSwitch(big, rng);
    }
}

/**
 * Turn switch 0 into a hub: detour every third communication between
 * two other switches through it, so repair has something to shed.
 */
void
detourThroughHub(DesignNetwork &net)
{
    for (CommId c = 0; c < net.cliques().numComms(); c += 3) {
        const auto r = net.route(c);
        if (r.size() == 2 && r[0] != 0 && r[1] != 0)
            net.setRoute(c, {r[0], 0, r[1]});
    }
}

/** Digest of every route plus the pass statistics. */
std::string
routesDigest(const DesignNetwork &net, const RouteOptStats &stats)
{
    std::ostringstream oss;
    oss << stats.triedMoves << " " << stats.committedMoves << " "
        << stats.linksSaved << "\n";
    for (CommId c = 0; c < net.cliques().numComms(); ++c) {
        for (const SwitchId s : net.route(c))
            oss << s << " ";
        oss << "\n";
    }
    return hex(dse::fnv1a64(oss.str()));
}

std::string
designDigest(std::uint32_t threads)
{
    MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    cfg.partitioner.seed = 1;
    cfg.restarts = 16;
    cfg.threads = threads;
    const auto outcome =
        runMethodology(nasCliques(trace::Benchmark::BT, 36), cfg);
    std::ostringstream oss;
    saveDesign(outcome.design, oss);
    return hex(dse::fnv1a64(oss.str()));
}

} // namespace

TEST(RouteBytes, DesignBT36OneThread)
{
    EXPECT_EQ(designDigest(1), "3831479271074523");
}

TEST(RouteBytes, DesignBT36TwoThreads)
{
    EXPECT_EQ(designDigest(2), "3831479271074523");
}

TEST(RouteBytes, ConsolidateDuplexMirroredPairs)
{
    // BT's exchanges are mirrored, so direct routes pair every comm with
    // its reverse and the joint (c, rev) pricing path runs.
    const CliqueSet ks = nasCliques(trace::Benchmark::BT, 16);
    DesignNetwork net(ks);
    Rng rng(7);
    splitTo(net, 8, rng);
    const auto stats = consolidateRoutes(net, 8, 5, &rng, false);
    EXPECT_GT(stats.committedMoves, 0u);
    net.checkInvariants();
    EXPECT_EQ(routesDigest(net, stats), "05b9293714cf6031");
}

TEST(RouteBytes, ConsolidateUnidirectionalCost)
{
    const CliqueSet ks = nasCliques(trace::Benchmark::CG, 16);
    DesignNetwork net(ks);
    Rng rng(11);
    splitTo(net, 8, rng);
    const auto stats = consolidateRoutes(net, 8, 5, &rng, true);
    EXPECT_GT(stats.committedMoves, 0u);
    net.checkInvariants();
    EXPECT_EQ(routesDigest(net, stats), "ab3a336d5cdb29cf");
}

TEST(RouteBytes, RepairDenseRelaxation)
{
    // <= 64 procs: every popped switch offers a pipe to every other.
    const CliqueSet ks = nasCliques(trace::Benchmark::BT, 16);
    DesignNetwork net(ks);
    Rng rng(13);
    splitTo(net, 8, rng);
    detourThroughHub(net);
    const auto stats = repairDegrees(net, 8, 4, &rng);
    EXPECT_GT(stats.committedMoves, 0u);
    net.checkInvariants();
    EXPECT_EQ(routesDigest(net, stats), "436548610a846ed9");
}

TEST(RouteBytes, RepairSparseRelaxation)
{
    // > 64 procs: existing pipes plus one new-pipe broadcast per class.
    const CliqueSet ks = randomCliques(80, 6, 17);
    DesignNetwork net(ks);
    Rng rng(19);
    splitTo(net, 24, rng);
    detourThroughHub(net);
    const auto stats = repairDegrees(net, 16, 4, &rng);
    EXPECT_GT(stats.committedMoves, 0u);
    net.checkInvariants();
    EXPECT_EQ(routesDigest(net, stats), "aab8ff5393a118bb");
}
