/**
 * @file
 * Property-based contention tests: ~200 fixed-seed random well-behaved
 * communication patterns (phases of random partial permutations, paper
 * Definition 3) checked against the invariants the methodology's
 * correctness rests on:
 *
 *  - the maximum-clique-set reduction (Definition 5) never changes the
 *    potential contention relation (Definition 4);
 *  - the explicit contention set is exactly the symmetric closure of
 *    clique co-occurrence (clique-cover consistency);
 *  - Theorem 1 holds on every generated design: no two contending
 *    communications share a link channel, and each pipe direction
 *    provisions at least as many links as any single clique routes
 *    through it (the clique lower bound that makes the coloring tight).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <vector>

#include "core/methodology.hpp"
#include "core/verify.hpp"
#include "util/rng.hpp"

using namespace minnoc;
using namespace minnoc::core;

namespace {

constexpr int kPatterns = 200;

/**
 * Random well-behaved pattern: each phase is a random partial
 * permutation, so within a clique every processor sends at most once
 * and receives at most once.
 */
CliqueSet
randomPattern(std::uint64_t seed, std::uint32_t *procsOut)
{
    Rng rng(seed * 0x9e3779b9ULL + 1);
    const auto procs =
        4 + static_cast<std::uint32_t>(rng.below(8)); // 4..11
    const auto phases =
        1 + static_cast<std::uint32_t>(rng.below(4)); // 1..4
    *procsOut = procs;

    CliqueSet ks(procs);
    for (std::uint32_t k = 0; k < phases; ++k) {
        std::vector<ProcId> perm(procs);
        for (ProcId p = 0; p < procs; ++p)
            perm[p] = p;
        rng.shuffle(perm);
        std::vector<Comm> comms;
        for (ProcId p = 0; p < procs; ++p) {
            if (perm[p] != p && rng.chance(0.75))
                comms.emplace_back(p, perm[p]);
        }
        if (!comms.empty())
            ks.addClique(comms);
    }
    if (ks.numCliques() == 0)
        ks.addClique({Comm(0, 1), Comm(2, 3)});
    return ks;
}

/** Naive contention relation recomputed directly from the cliques. */
std::set<std::pair<CommId, CommId>>
naiveContend(const CliqueSet &ks)
{
    std::set<std::pair<CommId, CommId>> pairs;
    for (const auto &clique : ks.cliques()) {
        for (std::size_t i = 0; i < clique.comms.size(); ++i) {
            for (std::size_t j = i + 1; j < clique.comms.size(); ++j) {
                const auto a = clique.comms[i];
                const auto b = clique.comms[j];
                pairs.emplace(std::min(a, b), std::max(a, b));
            }
        }
    }
    return pairs;
}

} // namespace

TEST(PropertyContention, PatternsAreWellBehaved)
{
    // The generator itself must uphold Definition 3: within a clique no
    // processor sends twice or receives twice.
    for (int seed = 1; seed <= kPatterns; ++seed) {
        std::uint32_t procs = 0;
        const auto ks = randomPattern(seed, &procs);
        for (const auto &clique : ks.cliques()) {
            std::set<ProcId> srcs;
            std::set<ProcId> dsts;
            for (const auto c : clique.comms) {
                const auto &comm = ks.comm(c);
                EXPECT_LT(comm.src, procs);
                EXPECT_LT(comm.dst, procs);
                EXPECT_NE(comm.src, comm.dst);
                EXPECT_TRUE(srcs.insert(comm.src).second)
                    << "seed " << seed << ": duplicate source";
                EXPECT_TRUE(dsts.insert(comm.dst).second)
                    << "seed " << seed << ": duplicate destination";
            }
        }
    }
}

TEST(PropertyContention, ReductionPreservesContendRelation)
{
    for (int seed = 1; seed <= kPatterns; ++seed) {
        std::uint32_t procs = 0;
        const auto ks = randomPattern(seed, &procs);
        auto reduced = ks;
        reduced.reduceToMaximum();
        ASSERT_EQ(ks.numComms(), reduced.numComms());
        EXPECT_LE(reduced.numCliques(), ks.numCliques());

        for (CommId a = 0; a < ks.numComms(); ++a) {
            for (CommId b = a + 1; b < ks.numComms(); ++b) {
                EXPECT_EQ(ks.contend(a, b), reduced.contend(a, b))
                    << "seed " << seed << " comms " << a << "," << b;
            }
        }
    }
}

TEST(PropertyContention, ContentionSetMatchesCliqueCover)
{
    for (int seed = 1; seed <= kPatterns; ++seed) {
        std::uint32_t procs = 0;
        const auto ks = randomPattern(seed, &procs);
        const auto expected = naiveContend(ks);

        // contend() agrees with direct clique co-occurrence.
        for (CommId a = 0; a < ks.numComms(); ++a) {
            for (CommId b = a + 1; b < ks.numComms(); ++b) {
                EXPECT_EQ(ks.contend(a, b), expected.count({a, b}) > 0)
                    << "seed " << seed << " comms " << a << "," << b;
            }
        }

        // The explicit 4-tuple set is the symmetric closure of the same
        // relation expressed on endpoint pairs.
        std::set<std::array<ProcId, 4>> tuples;
        for (const auto &t : ks.contentionSet())
            tuples.insert(t);
        for (const auto &[a, b] : expected) {
            const auto &ca = ks.comm(a);
            const auto &cb = ks.comm(b);
            EXPECT_TRUE(tuples.count({ca.src, ca.dst, cb.src, cb.dst}))
                << "seed " << seed;
            EXPECT_TRUE(tuples.count({cb.src, cb.dst, ca.src, ca.dst}))
                << "seed " << seed << " (symmetric closure)";
        }
        EXPECT_EQ(tuples.size(), expected.size() * 2) << "seed " << seed;
    }
}

TEST(PropertyContention, Theorem1HoldsOnEveryDesign)
{
    for (int seed = 1; seed <= kPatterns; ++seed) {
        std::uint32_t procs = 0;
        const auto ks = randomPattern(seed, &procs);

        MethodologyConfig cfg;
        cfg.partitioner.constraints.maxDegree = 6;
        cfg.partitioner.seed = 1;
        cfg.restarts = 2;
        cfg.threads = 1;
        const auto outcome = runMethodology(ks, cfg);

        // Theorem 1: C intersect R is empty, independent of
        // feasibility of the degree constraint.
        EXPECT_TRUE(outcome.violations.empty()) << "seed " << seed;
        EXPECT_TRUE(
            checkContentionFree(outcome.design, ks).empty())
            << "seed " << seed;

        // Clique lower bound: each pipe direction provisions at least
        // as many links as any one clique routes through it, and the
        // clique's members occupy pairwise-distinct link indices.
        for (const auto &clique : ks.cliques()) {
            for (const auto &pipe : outcome.design.pipes) {
                std::set<std::uint32_t> fwd;
                std::set<std::uint32_t> bwd;
                for (const auto c : clique.comms) {
                    if (auto it = pipe.fwdLink.find(c);
                        it != pipe.fwdLink.end()) {
                        EXPECT_TRUE(fwd.insert(it->second).second)
                            << "seed " << seed
                            << ": contending comms share a fwd link";
                    }
                    if (auto it = pipe.bwdLink.find(c);
                        it != pipe.bwdLink.end()) {
                        EXPECT_TRUE(bwd.insert(it->second).second)
                            << "seed " << seed
                            << ": contending comms share a bwd link";
                    }
                }
                EXPECT_GE(pipe.linksFwd, fwd.size()) << "seed " << seed;
                EXPECT_GE(pipe.linksBwd, bwd.size()) << "seed " << seed;
            }
        }
    }
}
