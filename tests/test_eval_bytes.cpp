/**
 * @file
 * Byte pins for design evaluation: FNV-1a digests of a phase-window
 * explore report and of a phase-gain report on the three-epoch
 * phaseShift fixture. Both reports route every number through
 * floorplan → build → simulate → energy, classic and time-multiplexed,
 * so any change in how a design is evaluated, or in the order the
 * per-phase results are folded, moves a digest.
 *
 * The digests were recorded before the evaluation chains were merged
 * into one step; a change that moves them is a model change, not a
 * refactor.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "dse/cache.hpp"
#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"
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

} // namespace

TEST(EvalBytes, ExplorePhaseWindowsOneThread)
{
    EXPECT_EQ(exploreDigest(1), "1b5ce149fd812741");
}

TEST(EvalBytes, ExplorePhaseWindowsTwoThreads)
{
    EXPECT_EQ(exploreDigest(2), "1b5ce149fd812741");
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
