/**
 * @file
 * Byte pins for design evaluation: FNV-1a digests of a phase-window
 * explore report and of a phase-gain report on the three-epoch
 * phaseShift fixture. Both reports route every number through
 * floorplan → build → simulate → energy, classic and time-multiplexed,
 * so any change in how a design is evaluated, or in the order the
 * per-phase results are folded, moves a digest.
 *
 * Two classic explore reports are pinned as well: the default grid on
 * NAS CG-16 and a directionality × VC grid on a one-way ring. The ring
 * is asymmetric, so its unidirectional design differs from its duplex
 * one; any sharing of work between jobs that would mix the two moves
 * its digest.
 *
 * The digests were recorded before the evaluation chains were merged
 * into one step; a change that moves them is a model change, not a
 * refactor.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/design_io.hpp"
#include "core/methodology.hpp"
#include "dse/cache.hpp"
#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "trace/scale_patterns.hpp"
#include "trace/synthetic.hpp"

using namespace minnoc;

namespace {

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

trace::Trace
shiftTrace()
{
    return trace::phaseShift({trace::Pattern::Neighbor,
                              trace::Pattern::Transpose,
                              trace::Pattern::Hotspot});
}

/** Classic and phase-window jobs side by side, cache off. */
std::string
exploreDigest(std::uint32_t threads)
{
    dse::ExploreConfig cfg;
    cfg.grid.maxDegrees = {5};
    cfg.grid.vcs = {2, 3};
    cfg.grid.unidirectional = {0};
    cfg.grid.phaseWindows = {0, 64};
    cfg.grid.restarts = {4};
    cfg.useCache = false;
    cfg.threads = threads;
    return hex(dse::fnv1a64(dse::explore(shiftTrace(), cfg).toJson()));
}

/** The default classic grid (12 jobs) on NAS CG-16, cache off. */
std::string
cg16Digest(std::uint32_t threads)
{
    trace::NasConfig ncfg;
    ncfg.ranks = 16;
    ncfg.iterations = 3;
    ncfg.seed = 1;
    dse::ExploreConfig cfg;
    cfg.useCache = false;
    cfg.threads = threads;
    return hex(dse::fnv1a64(
        dse::explore(trace::generateBenchmark(trace::Benchmark::CG, ncfg),
                     cfg)
            .toJson()));
}

/** An 8-rank ring that only sends forward: (i, i + 1 mod 8). */
trace::Trace
oneWayRing()
{
    const auto ring = trace::ringPattern(8);
    std::vector<core::Comm> forward;
    for (const auto c : ring.cliques().front().comms)
        forward.push_back(ring.comm(c));
    core::CliqueSet cliques(8);
    cliques.addClique(forward);
    return trace::traceFromCliques(cliques, "ring-8-one-way", 256, 2);
}

dse::ExploreConfig
ringConfig(std::uint32_t threads)
{
    dse::ExploreConfig cfg;
    cfg.grid.maxDegrees = {4};
    cfg.grid.restarts = {4};
    cfg.grid.unidirectional = {0, 1};
    cfg.grid.vcs = {2, 3};
    cfg.useCache = false;
    cfg.threads = threads;
    return cfg;
}

std::string
ringDigest(std::uint32_t threads)
{
    return hex(
        dse::fnv1a64(dse::explore(oneWayRing(), ringConfig(threads)).toJson()));
}

} // namespace

TEST(EvalBytes, ExplorePhaseWindowsOneThread)
{
    EXPECT_EQ(exploreDigest(1), "1b5ce149fd812741");
}

TEST(EvalBytes, ExplorePhaseWindowsTwoThreads)
{
    EXPECT_EQ(exploreDigest(2), "1b5ce149fd812741");
}

TEST(EvalBytes, ExploreCg16DefaultGridOneThread)
{
    EXPECT_EQ(cg16Digest(1), "754b97112dcbfa32");
}

TEST(EvalBytes, ExploreCg16DefaultGridTwoThreads)
{
    EXPECT_EQ(cg16Digest(2), "754b97112dcbfa32");
}

TEST(EvalBytes, OneWayRingDirectionalityChangesTheDesign)
{
    // The ring grid's unidirectional and duplex jobs must not share a
    // network: their designs differ even with the directionality flag
    // itself left out of the bytes.
    const auto cliques = trace::analyzeByCall(oneWayRing());
    const auto designBytes = [&cliques](bool unidirectional) {
        core::MethodologyConfig mcfg;
        mcfg.partitioner.constraints.maxDegree = 4;
        mcfg.partitioner.seed = 1;
        mcfg.restarts = 4;
        mcfg.finalize.unidirectional = unidirectional;
        mcfg.threads = 1;
        auto design = core::runMethodology(cliques, mcfg).design;
        design.unidirectional = false;
        std::ostringstream os;
        core::saveDesign(design, os);
        return os.str();
    };
    EXPECT_NE(designBytes(false), designBytes(true));
}

TEST(EvalBytes, ExploreOneWayRingOneThread)
{
    EXPECT_EQ(ringDigest(1), "d323042bf310bee5");
}

TEST(EvalBytes, ExploreOneWayRingTwoThreads)
{
    EXPECT_EQ(ringDigest(2), "d323042bf310bee5");
}

TEST(EvalBytes, PhaseReport)
{
    phase::PhaseEvalConfig cfg;
    cfg.methodology.partitioner.constraints.maxDegree = 5;
    cfg.methodology.restarts = 4;
    cfg.threads = 1;
    EXPECT_EQ(hex(dse::fnv1a64(
                  phase::evaluatePhases(shiftTrace(), cfg).toJson())),
              "a22f5c1a04f3f156");
}
