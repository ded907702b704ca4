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

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/design_io.hpp"
#include "core/methodology.hpp"
#include "core/route_optimizer.hpp"
#include "dse/cache.hpp"
#include "obs/metrics.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "trace/scale_patterns.hpp"
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

/**
 * Detour every second single-hop communication through a random third
 * switch, so repair can shed load onto switches off the old route.
 */
void
detourThroughRandom(DesignNetwork &net, Rng &rng)
{
    for (CommId c = 0; c < net.cliques().numComms(); c += 2) {
        const auto r = net.route(c);
        if (r.size() != 2)
            continue;
        const auto w = static_cast<SwitchId>(rng.below(net.numSwitches()));
        if (w != r[0] && w != r[1])
            net.setRoute(c, {r[0], w, r[1]});
    }
}

/**
 * Detour every second single-hop communication through two random
 * switches, so consolidation can shorten a route by one hop at the
 * same link and overload price.
 */
void
detourTwice(DesignNetwork &net, Rng &rng)
{
    for (CommId c = 0; c < net.cliques().numComms(); c += 2) {
        const auto r = net.route(c);
        if (r.size() != 2)
            continue;
        const auto w1 = static_cast<SwitchId>(rng.below(net.numSwitches()));
        const auto w2 = static_cast<SwitchId>(rng.below(net.numSwitches()));
        if (w1 != w2 && w1 != r[0] && w1 != r[1] && w2 != r[0] && w2 != r[1])
            net.setRoute(c, {r[0], w1, w2, r[1]});
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

/** Digest of the design runMethodology makes of @p ks at degree 5. */
std::string
designDigest(const CliqueSet &ks, std::uint32_t restarts,
             std::uint32_t threads, obs::MetricsRegistry *metrics = nullptr)
{
    MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    cfg.partitioner.seed = 1;
    cfg.restarts = restarts;
    cfg.threads = threads;
    cfg.metrics = metrics;
    const auto outcome = runMethodology(ks, cfg);
    std::ostringstream oss;
    saveDesign(outcome.design, oss);
    return hex(dse::fnv1a64(oss.str()));
}

std::string
designDigest(std::uint32_t threads, obs::MetricsRegistry *metrics = nullptr)
{
    return designDigest(nasCliques(trace::Benchmark::BT, 36), 16, threads,
                        metrics);
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

TEST(RouteBytes, MergeScanBT36)
{
    // The merge scan draws every candidate's consolidation shuffles from
    // one Rng, so its candidate count pins how much of that stream the
    // scan consumes, not just the design it ends on.
    if (!obs::kEnabled)
        GTEST_SKIP() << "metrics compiled out (MINNOC_OBS=OFF)";
    obs::MetricsRegistry metrics;
    EXPECT_EQ(designDigest(1, &metrics), "3831479271074523");
    EXPECT_EQ(metrics.counter("methodology/merge/candidates").value(), 1433u);
    EXPECT_EQ(metrics.counter("methodology/merge/accepted").value(), 4u);
}

TEST(RouteBytes, DesignNeighbor256)
{
    // Large N: hierarchical pre-partition, sparse repair, and no seed
    // meets degree 5, so every restart runs and repair works hard.
    const CliqueSet ks = trace::nearestNeighborPattern(256);
    EXPECT_EQ(designDigest(ks, 3, 1), "b00760c98a6c081f");
    EXPECT_EQ(designDigest(ks, 3, 4), "b00760c98a6c081f");
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

TEST(RouteBytes, ConsolidateDegreeFreeMultiPass)
{
    // max_degree 0: no overload surcharge and no degree revert. The
    // hub detours leave work for three committing passes and a quiet
    // fourth.
    const CliqueSet ks = nasCliques(trace::Benchmark::FFT, 16);
    DesignNetwork net(ks);
    Rng rng(37);
    splitTo(net, 8, rng);
    detourThroughHub(net);
    const auto stats = consolidateRoutes(net, 8, 0, &rng, false);
    EXPECT_GT(stats.committedMoves, 0u);
    EXPECT_GT(stats.triedMoves, ks.numComms()); // more than one pass
    net.checkInvariants();
    EXPECT_EQ(routesDigest(net, stats), "de5dee705e8558b0");
}

TEST(RouteBytes, ConsolidateStopsAtPassCap)
{
    // Two passes that both commit, so the cap and not a quiet pass
    // ends the call: one more pass still finds a move.
    const CliqueSet ks = nasCliques(trace::Benchmark::FFT, 16);
    DesignNetwork net(ks);
    Rng rng(29);
    splitTo(net, 12, rng);
    detourThroughHub(net);
    const auto stats = consolidateRoutes(net, 2, 5, &rng, false);
    EXPECT_EQ(stats.triedMoves, 2 * ks.numComms());
    net.checkInvariants();
    EXPECT_EQ(routesDigest(net, stats), "bac63e48c7d44695");
    EXPECT_GT(consolidateRoutes(net, 1, 5, &rng, false).committedMoves, 0u);
}

TEST(RouteBytes, ConsolidateTowardOverloadedSwitches)
{
    // Degree 5 leaves 10 of the 12 switches over budget, destinations
    // among them, so a hop into one pays the overload surcharge. Some
    // committed reroutes beat their route by one hop alone; a search
    // bound that overcharges the rest of a path by a hop, or by a
    // second surcharge at the destination, loses them.
    const CliqueSet ks = nasCliques(trace::Benchmark::CG, 16);
    DesignNetwork net(ks);
    Rng rng(43);
    splitTo(net, 12, rng);
    detourTwice(net, rng);
    EXPECT_EQ(std::ranges::count_if(net.estimatedDegrees(),
                                    [](std::uint32_t d) { return d > 5; }),
              10);
    const auto stats = consolidateRoutes(net, 8, 5, &rng, false);
    EXPECT_GT(stats.committedMoves, 0u);
    net.checkInvariants();
    EXPECT_EQ(routesDigest(net, stats), "7c8770f38921dc07");
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

TEST(RouteBytes, RepairDenseRelaxationOpensAPipe)
{
    // <= 64 procs again, but the repair has to open a pipe the detoured
    // network lacks, so a committed route runs through a switch that
    // was not on the route it replaced.
    const CliqueSet ks = nasCliques(trace::Benchmark::CG, 32);
    DesignNetwork net(ks);
    Rng rng(13);
    splitTo(net, 12, rng);
    detourThroughRandom(net, rng);
    const auto before = net.pipes();
    const auto stats = repairDegrees(net, 8, 4, &rng);
    EXPECT_GT(stats.committedMoves, 0u);
    EXPECT_TRUE(std::ranges::any_of(net.pipes(), [&](const PipeKey &k) {
        return std::ranges::find(before, k) == before.end();
    }));
    net.checkInvariants();
    EXPECT_EQ(routesDigest(net, stats), "2510be2982c86d3f");
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
