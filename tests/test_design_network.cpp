/**
 * @file
 * Unit tests for the design-time network, including a faithful replay
 * of the paper's Cut 1 / Cut 2 example (Figures 1, 2 and 5a-b): the
 * same CG-16 clique set, the same processor moves, the same Fast_Color
 * link estimates (4, then 3, then 2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/design_network.hpp"
#include "util/rng.hpp"

using namespace minnoc::core;
using minnoc::Rng;

namespace {

/**
 * The CG-16 communication clique set of the paper's Figure 1
 * (0-based ranks, rank = row * 4 + col on the 4x4 process grid):
 * two reduce-exchange periods (column XOR 1, column XOR 2) and the
 * matrix-transpose period with a silent diagonal.
 */
CliqueSet
figure1Cliques()
{
    CliqueSet ks(16);
    auto rankAt = [](std::uint32_t row, std::uint32_t col) {
        return static_cast<ProcId>(row * 4 + col);
    };
    for (const std::uint32_t bit : {1u, 2u}) {
        std::vector<Comm> comms;
        for (std::uint32_t row = 0; row < 4; ++row) {
            for (std::uint32_t col = 0; col < 4; ++col)
                comms.emplace_back(rankAt(row, col),
                                   rankAt(row, col ^ bit));
        }
        ks.addClique(comms);
    }
    std::vector<Comm> transpose;
    for (std::uint32_t row = 0; row < 4; ++row) {
        for (std::uint32_t col = 0; col < 4; ++col) {
            if (row != col)
                transpose.emplace_back(rankAt(row, col),
                                       rankAt(col, row));
        }
    }
    ks.addClique(transpose);
    return ks;
}

} // namespace

TEST(DesignNetwork, MegaswitchInitialState)
{
    CliqueSet ks = figure1Cliques();
    DesignNetwork net(ks);
    EXPECT_EQ(net.numSwitches(), 1u);
    EXPECT_EQ(net.numProcs(), 16u);
    EXPECT_EQ(net.procsOf(0).size(), 16u);
    EXPECT_TRUE(net.pipes().empty());
    EXPECT_EQ(net.totalEstimatedLinks(), 0u);
    EXPECT_EQ(net.estimatedDegree(0), 16u);
    for (CommId c = 0; c < ks.numComms(); ++c)
        EXPECT_EQ(net.route(c), std::vector<SwitchId>{0});
    net.checkInvariants();
}

TEST(DesignNetwork, PaperCut1NeedsFourLinks)
{
    CliqueSet ks = figure1Cliques();
    DesignNetwork net(ks);
    Rng rng(1);
    const SwitchId sj = net.splitSwitch(0, rng);

    // Force the paper's Cut 1: processors 0-7 on S0, 8-15 on S1.
    for (ProcId p = 0; p < 8; ++p)
        net.moveProc(p, 0);
    for (ProcId p = 8; p < 16; ++p)
        net.moveProc(p, sj);
    net.checkInvariants();

    const PipeKey cut(0, sj);
    const Pipe &pipe = net.pipe(cut);
    // Eight transpose messages cross the cut, four per direction.
    EXPECT_EQ(pipe.fwd.size(), 4u);
    EXPECT_EQ(pipe.bwd.size(), 4u);
    EXPECT_EQ(net.fastColor(cut), 4u);
}

TEST(DesignNetwork, PaperCut2NeedsThreeLinks)
{
    CliqueSet ks = figure1Cliques();
    DesignNetwork net(ks);
    Rng rng(1);
    const SwitchId sj = net.splitSwitch(0, rng);
    for (ProcId p = 0; p < 8; ++p)
        net.moveProc(p, 0);
    for (ProcId p = 8; p < 16; ++p)
        net.moveProc(p, sj);

    // The paper moves node 9 (0-based processor 8) across: now five
    // communications go forward but at most three share a period.
    net.moveProc(8, 0);
    net.checkInvariants();

    const PipeKey cut(0, sj);
    const Pipe &pipe = net.pipe(cut);
    EXPECT_EQ(pipe.fwd.size(), 5u);
    EXPECT_EQ(pipe.bwd.size(), 5u);
    EXPECT_EQ(net.fastColor(cut), 3u);
}

TEST(DesignNetwork, PaperSecondMoveNeedsTwoLinks)
{
    CliqueSet ks = figure1Cliques();
    DesignNetwork net(ks);
    Rng rng(1);
    const SwitchId sj = net.splitSwitch(0, rng);
    for (ProcId p = 0; p < 8; ++p)
        net.moveProc(p, 0);
    for (ProcId p = 8; p < 16; ++p)
        net.moveProc(p, sj);
    net.moveProc(8, 0);
    // Figure 5(b): processor 8 of the paper (0-based 7) moves the other
    // way; the estimate drops to two links.
    net.moveProc(7, sj);
    net.checkInvariants();

    EXPECT_EQ(net.fastColor(PipeKey(0, sj)), 2u);
}

TEST(DesignNetwork, SplitMovesRoughlyHalf)
{
    CliqueSet ks = figure1Cliques();
    DesignNetwork net(ks);
    Rng rng(3);
    const SwitchId sj = net.splitSwitch(0, rng);
    EXPECT_EQ(net.procsOf(0).size(), 8u);
    EXPECT_EQ(net.procsOf(sj).size(), 8u);
    net.checkInvariants();
}

TEST(DesignNetwork, IntraSwitchCommNeedsNoPipe)
{
    CliqueSet ks(4);
    ks.addClique({Comm(0, 1)});
    DesignNetwork net(ks);
    EXPECT_TRUE(net.pipes().empty());
    EXPECT_EQ(net.route(0), std::vector<SwitchId>{0});
}

TEST(DesignNetwork, MoveRestoresExactlyOnRoundTrip)
{
    CliqueSet ks = figure1Cliques();
    DesignNetwork net(ks);
    Rng rng(7);
    const SwitchId sj = net.splitSwitch(0, rng);

    const auto linksBefore = net.totalEstimatedLinks();
    const auto pipesBefore = net.pipes();
    const ProcId victim = net.procsOf(0).front();
    net.moveProc(victim, sj);
    net.moveProc(victim, 0);
    EXPECT_EQ(net.totalEstimatedLinks(), linksBefore);
    EXPECT_EQ(net.pipes(), pipesBefore);
    net.checkInvariants();
}

TEST(DesignNetwork, SetRouteUpdatesPipes)
{
    CliqueSet ks(6);
    ks.addClique({Comm(0, 5)});
    DesignNetwork net(ks);
    Rng rng(1);
    // Split twice to get three switches.
    const SwitchId s1 = net.splitSwitch(0, rng);
    const SwitchId s2 = net.splitSwitch(0, rng);

    const CommId c = ks.findComm(Comm(0, 5));
    ASSERT_NE(c, CliqueSet::kNoComm);
    const SwitchId from = net.homeOf(0);
    const SwitchId to = net.homeOf(5);
    if (from != to) {
        // Detour through the third switch.
        SwitchId mid = 0;
        for (const SwitchId s : {SwitchId(0), s1, s2}) {
            if (s != from && s != to)
                mid = s;
        }
        net.setRoute(c, {from, mid, to});
        EXPECT_EQ(net.route(c),
                  (std::vector<SwitchId>{from, mid, to}));
        EXPECT_EQ(net.pipe(PipeKey(from, to)).fwd.size() +
                      net.pipe(PipeKey(from, to)).bwd.size(),
                  0u);
        net.checkInvariants();
    }
}

TEST(DesignNetwork, SetRouteRejectsBadAnchors)
{
    CliqueSet ks(4);
    ks.addClique({Comm(0, 3)});
    DesignNetwork net(ks);
    Rng rng(1);
    net.splitSwitch(0, rng);
    const CommId c = ks.findComm(Comm(0, 3));
    EXPECT_DEATH(net.setRoute(c, {99}), "endpoints");
}

TEST(DesignNetwork, SplitSingleProcSwitchPanics)
{
    CliqueSet ks(2);
    ks.addClique({Comm(0, 1)});
    DesignNetwork net(ks);
    Rng rng(1);
    net.splitSwitch(0, rng); // 1 proc each now
    EXPECT_DEATH(net.splitSwitch(0, rng), "fewer than two");
}

TEST(DesignNetwork, FastColorEmptyPipeZero)
{
    CliqueSet ks = figure1Cliques();
    DesignNetwork net(ks);
    EXPECT_EQ(net.fastColor(PipeKey(5, 9)), 0u);
}

TEST(DesignNetwork, EstimatedDegreeCountsProcsAndLinks)
{
    CliqueSet ks = figure1Cliques();
    DesignNetwork net(ks);
    Rng rng(1);
    const SwitchId sj = net.splitSwitch(0, rng);
    for (ProcId p = 0; p < 8; ++p)
        net.moveProc(p, 0);
    for (ProcId p = 8; p < 16; ++p)
        net.moveProc(p, sj);
    EXPECT_EQ(net.estimatedDegree(0), 8u + 4u);
    EXPECT_EQ(net.estimatedDegree(sj), 8u + 4u);
}

namespace {

/** checkInvariants plus the key-order contract of pipes(). */
void
expectConsistent(const DesignNetwork &net)
{
    net.checkInvariants();
    const auto keys = net.pipes();
    for (std::size_t i = 1; i < keys.size(); ++i)
        ASSERT_LT(keys[i - 1], keys[i]) << "pipes() not strictly ascending";
}

/** Every route, in comm order: what a restored network must match. */
std::vector<std::vector<SwitchId>>
allRoutes(const DesignNetwork &net)
{
    std::vector<std::vector<SwitchId>> out;
    for (CommId c = 0; c < net.cliques().numComms(); ++c)
        out.push_back(net.route(c));
    return out;
}

} // namespace

TEST(DesignNetwork, SlotChurnKeepsInvariants)
{
    // Pipes come and go in every step below, so freed slots are reused
    // out of key order; the invariants, the sorted pipes() and copies
    // taken along the way must not notice.
    const CliqueSet ks = figure1Cliques();
    DesignNetwork net(ks);
    Rng rng(2024);
    const auto numComms = static_cast<CommId>(ks.numComms());
    for (int step = 0; step < 400; ++step) {
        const DesignNetwork copy = net;
        const std::string copyDump = copy.toString();
        const auto copyRoutes = allRoutes(copy);

        switch (rng.below(4)) {
        case 0: { // split the fullest switch, up to eight switches
            SwitchId big = 0;
            for (SwitchId s = 1; s < net.numSwitches(); ++s) {
                if (net.procsOf(s).size() > net.procsOf(big).size())
                    big = s;
            }
            if (net.numSwitches() < 8 && net.procsOf(big).size() >= 2)
                net.splitSwitch(big, rng);
            break;
        }
        case 1: // move a processor
            net.moveProc(static_cast<ProcId>(rng.below(net.numProcs())),
                         static_cast<SwitchId>(
                             rng.below(net.numSwitches())));
            break;
        case 2: { // detour a comm through a switch off its route, and
                  // sometimes revert
            const auto c = static_cast<CommId>(rng.below(numComms));
            const auto old = net.route(c);
            const auto mid =
                static_cast<SwitchId>(rng.below(net.numSwitches()));
            if (old.size() < 2 ||
                std::find(old.begin(), old.end(), mid) != old.end())
                break;
            auto detour = old;
            detour.insert(detour.begin() + 1, mid);
            net.setRoute(c, detour);
            expectConsistent(net);
            if (rng.chance(0.5))
                net.setRoute(c, old);
            break;
        }
        default: { // the merge's snapshot / mutate / restore cycle
            const auto s = static_cast<SwitchId>(rng.below(net.numSwitches()));
            const auto t = static_cast<SwitchId>(rng.below(net.numSwitches()));
            const DesignNetwork snapshot = net;
            for (const ProcId p : std::vector<ProcId>(net.procsOf(t)))
                net.moveProc(p, s);
            expectConsistent(net);
            net = snapshot;
            EXPECT_EQ(net.toString(), copyDump);
            EXPECT_EQ(allRoutes(net), copyRoutes);
            break;
        }
        }
        expectConsistent(net);
        // The copy owns its slots: mutating the original leaves it be.
        expectConsistent(copy);
        ASSERT_EQ(copy.toString(), copyDump) << "step " << step;
        ASSERT_EQ(allRoutes(copy), copyRoutes) << "step " << step;
    }
    EXPECT_GT(net.pipes().size(), 0u);
}
