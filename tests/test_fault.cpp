/**
 * @file
 * Unit tests for fault injection: deterministic seeding, disconnection
 * detection, bounded corruption retries, fault-aware rerouting, and
 * graceful degradation of the trace driver.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/fault.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "trace/trace.hpp"

using namespace minnoc;
using namespace minnoc::sim;

namespace {

/** Step the network until idle or the cycle budget runs out. */
Cycle
runUntilIdle(Network &net, Cycle start = 0, Cycle budget = 200000)
{
    Cycle now = start;
    while (!net.idle() && now < start + budget)
        net.step(++now);
    EXPECT_TRUE(net.idle()) << "network failed to drain";
    return now;
}

/** First inter-switch link of @p topo (panics if none). */
topo::LinkId
firstSwitchLink(const topo::Topology &topo)
{
    for (topo::LinkId l = 0; l < topo.numLinks(); ++l) {
        if (!topo.isProc(topo.link(l).from) &&
            !topo.isProc(topo.link(l).to)) {
            return l;
        }
    }
    ADD_FAILURE() << "topology has no inter-switch link";
    return topo::kNoLink;
}

/** A two-rank trace: 0 sends one message, 1 receives it. */
trace::Trace
oneMessageTrace(std::uint32_t ranks, core::ProcId src, core::ProcId dst,
                std::uint64_t bytes)
{
    trace::Trace t("one-message", ranks);
    t.push(src, trace::TraceOp::send(dst, bytes, 0));
    t.push(dst, trace::TraceOp::recv(src, bytes, 0));
    return t;
}

} // namespace

TEST(FaultModel, RandomSelectionIsDeterministic)
{
    const auto built = topo::buildMesh(16);
    FaultConfig cfg;
    cfg.randomFailLinks = 3;
    cfg.seed = 42;
    const FaultModel a(*built.topo, cfg);
    const FaultModel b(*built.topo, cfg);
    EXPECT_EQ(a.failedLinks(), b.failedLinks());
    EXPECT_EQ(a.failedLinks().size(), 3u);

    cfg.seed = 43;
    const FaultModel c(*built.topo, cfg);
    EXPECT_NE(a.failedLinks(), c.failedLinks());
}

TEST(FaultModel, RandomSelectionPrefersInterSwitchLinks)
{
    const auto built = topo::buildMesh(16);
    FaultConfig cfg;
    cfg.randomFailLinks = 5;
    cfg.seed = 9;
    const FaultModel m(*built.topo, cfg);
    for (const auto l : m.failedLinks()) {
        EXPECT_FALSE(built.topo->isProc(built.topo->link(l).from));
        EXPECT_FALSE(built.topo->isProc(built.topo->link(l).to));
    }
}

TEST(FaultModel, BackoffGrowsAndCaps)
{
    FaultConfig cfg;
    cfg.backoffBase = 64;
    cfg.backoffCap = 1000;
    const auto built = topo::buildCrossbar(2);
    FaultModel m(*built.topo, cfg);
    EXPECT_EQ(m.backoff(0), 64);
    EXPECT_EQ(m.backoff(1), 128);
    EXPECT_EQ(m.backoff(2), 256);
    EXPECT_EQ(m.backoff(10), 1000); // capped
    EXPECT_EQ(m.backoff(63), 1000); // shift clamp: no UB, still capped
}

TEST(FaultRerouting, SingleMeshLinkFailureKeepsAllPairsConnected)
{
    const auto built = topo::buildMesh(16);
    const auto failed = firstSwitchLink(*built.topo);
    std::vector<bool> mask(built.topo->numLinks(), false);
    mask[failed] = true;

    const auto degraded = rerouteAroundFaults(*built.topo, mask);
    EXPECT_TRUE(degraded.disconnected.empty());
    ASSERT_NE(degraded.routing, nullptr);
    // Every pair has a path, no path crosses the failed link, and the
    // table is walkable end to end.
    topo::validateRouting(*built.topo, *degraded.routing);
    for (core::ProcId s = 0; s < 16; ++s) {
        for (core::ProcId d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            ASSERT_TRUE(degraded.routing->hasPath(s, d));
            for (const auto l : degraded.routing->path(s, d))
                EXPECT_NE(l, failed);
        }
    }
}

TEST(FaultRerouting, EjectionLinkFailureDisconnectsExactlyOneColumn)
{
    const auto built = topo::buildMesh(16);
    std::vector<bool> mask(built.topo->numLinks(), false);
    mask[built.topo->ejectionLink(5)] = true;

    const auto degraded = rerouteAroundFaults(*built.topo, mask);
    // Nobody can reach proc 5; everything else still works.
    EXPECT_EQ(degraded.disconnected.size(), 15u);
    for (const auto &[s, d] : degraded.disconnected)
        EXPECT_EQ(d, 5u);
}

TEST(FaultRerouting, PathsAreMinimalOverSurvivingLinks)
{
    const auto built = topo::buildMesh(256); // 16x16
    const auto &topo = *built.topo;
    const core::ProcId dead = 37;
    FaultConfig cfg;
    cfg.failLinks = {topo.ejectionLink(dead)};
    cfg.randomFailLinks = 8;
    cfg.seed = 3;
    const FaultModel faults(topo, cfg);
    const auto &mask = faults.failedMask();
    const auto degraded = rerouteAroundFaults(topo, mask);

    // Switch-to-switch hop distances over the surviving inter-switch
    // links, by a plain BFS from every switch.
    const std::uint32_t sw = topo.numSwitches();
    std::vector<std::vector<topo::NodeIdx>> next(sw);
    for (topo::LinkId l = 0; l < topo.numLinks(); ++l) {
        const auto &link = topo.link(l);
        if (!mask[l] && !topo.isProc(link.from) && !topo.isProc(link.to))
            next[topo.switchOf(link.from)].push_back(
                topo.switchOf(link.to));
    }
    std::vector<std::vector<int>> hops(sw, std::vector<int>(sw, -1));
    for (std::uint32_t root = 0; root < sw; ++root) {
        std::vector<std::uint32_t> queue{root};
        hops[root][root] = 0;
        for (std::size_t i = 0; i < queue.size(); ++i) {
            for (const auto w : next[queue[i]]) {
                if (hops[root][w] < 0) {
                    hops[root][w] = hops[root][queue[i]] + 1;
                    queue.push_back(w);
                }
            }
        }
    }

    std::vector<std::pair<core::ProcId, core::ProcId>> expectDisconnected;
    std::size_t detours = 0;
    for (core::ProcId s = 0; s < 256; ++s) {
        for (core::ProcId d = 0; d < 256; ++d) {
            if (s == d)
                continue;
            if (d == dead) {
                expectDisconnected.emplace_back(s, d);
                EXPECT_FALSE(degraded.routing->hasPath(s, d));
                continue;
            }
            ASSERT_TRUE(degraded.routing->hasPath(s, d)) << s << "->" << d;
            const auto &path = degraded.routing->path(s, d);
            for (const auto l : path)
                ASSERT_FALSE(mask[l]) << s << "->" << d;
            const auto from = topo.switchOf(topo.link(path.front()).to);
            const auto to = topo.switchOf(topo.link(path.back()).from);
            ASSERT_GE(hops[from][to], 0);
            EXPECT_EQ(path.size() - 2,
                      static_cast<std::size_t>(hops[from][to]))
                << s << "->" << d;
            const auto manhattan = std::abs(int(from % 16) - int(to % 16)) +
                                   std::abs(int(from / 16) - int(to / 16));
            detours += hops[from][to] > manhattan;
        }
    }
    EXPECT_EQ(degraded.disconnected, expectDisconnected);
    // The failures force some pairs off their healthy minimal length.
    EXPECT_GT(detours, 0u);
}

TEST(FaultNetwork, TransientCorruptionRetransmitsAndDelivers)
{
    const auto built = topo::buildMesh(16);
    FaultConfig fcfg;
    // Low enough that even 8-traversal corner paths get a clean attempt
    // within the retry budget, high enough that 16 packets see several
    // corruption events under this seed.
    fcfg.flitErrorRate = 0.05;
    fcfg.maxRetransmits = 16;
    fcfg.seed = 11;
    Network net(*built.topo, *built.routing, SimConfig{},
                FaultModel(*built.topo, fcfg));
    for (core::ProcId p = 0; p < 16; ++p)
        net.enqueue(p, static_cast<core::ProcId>(15 - p), 256, 0, 0);
    runUntilIdle(net);
    EXPECT_EQ(net.stats().packetsDelivered, 16u);
    EXPECT_GT(net.stats().retransmissions, 0u);
    EXPECT_GT(net.stats().corruptedFlits, 0u);
    EXPECT_EQ(net.stats().packetsDropped, 0u);
    EXPECT_GT(net.stats().latencyInflation(), 1.0);
}

TEST(FaultNetwork, RetryBudgetExhaustionDropsPacket)
{
    const auto built = topo::buildCrossbar(4);
    FaultConfig fcfg;
    fcfg.flitErrorRate = 1.0; // every traversal corrupts
    fcfg.maxRetransmits = 2;
    Network net(*built.topo, *built.routing, SimConfig{},
                FaultModel(*built.topo, fcfg));
    const auto id = net.enqueue(0, 1, 64, 0, 0);
    runUntilIdle(net);
    EXPECT_TRUE(net.packet(id).dropped);
    EXPECT_EQ(net.stats().packetsDelivered, 0u);
    EXPECT_EQ(net.stats().packetsDropped, 1u);
    EXPECT_EQ(net.stats().retryExhaustions, 1u);
    EXPECT_EQ(net.stats().retransmissions, 2u);
    // The receiver is told the message is lost rather than left waiting.
    EXPECT_FALSE(net.hasDelivered(net.flow(1, 0)));
    EXPECT_TRUE(net.nextDeliveryLost(net.flow(1, 0)));
    net.skipLostDelivery(net.flow(1, 0));
    EXPECT_FALSE(net.nextDeliveryLost(net.flow(1, 0)));
}

TEST(FaultNetwork, FailedFromStartDisconnectsChannel)
{
    const auto built = topo::buildMesh(16);
    FaultConfig fcfg;
    fcfg.failLinks = {built.topo->injectionLink(3)};
    Network net(*built.topo, *built.routing, SimConfig{},
                FaultModel(*built.topo, fcfg));
    EXPECT_TRUE(net.channelDisconnected(3, 7));
    EXPECT_FALSE(net.channelDisconnected(7, 3));
    const auto dead = net.enqueue(3, 7, 64, 0, 0);
    const auto live = net.enqueue(7, 3, 64, 0, 0);
    runUntilIdle(net);
    EXPECT_TRUE(net.packet(dead).dropped);
    EXPECT_TRUE(net.packet(live).delivered());
    EXPECT_TRUE(net.injected(dead)) << "sender must not block on a drop";
    EXPECT_EQ(net.stats().disconnectedPairs, 15u);
    EXPECT_LT(net.stats().deliveredFraction(), 1.0);
}

TEST(FaultNetwork, MidRunFailureReroutesInFlightTraffic)
{
    const auto built = topo::buildMesh(16);
    const auto failed = firstSwitchLink(*built.topo);
    FaultConfig fcfg;
    fcfg.failLinks = {failed};
    fcfg.failAtCycle = 20;
    Network net(*built.topo, *built.routing, SimConfig{},
                FaultModel(*built.topo, fcfg));
    // Long corner-to-corner packets certain to be in flight at cycle 20.
    net.enqueue(0, 15, 2048, 0, 0);
    net.enqueue(15, 0, 2048, 0, 0);
    EXPECT_EQ(net.stats().failedLinks, 0u);
    runUntilIdle(net);
    EXPECT_EQ(net.stats().failedLinks, 1u);
    EXPECT_EQ(net.stats().packetsDelivered, 2u);
    EXPECT_EQ(net.stats().packetsDropped, 0u);
    // The activation purge retransmits whatever was in the network.
    EXPECT_GT(net.stats().retransmissions, 0u);
}

TEST(FaultNetwork, SameSeedReproducesIdenticalStats)
{
    const auto built = topo::buildMesh(16);
    FaultConfig fcfg;
    fcfg.randomFailLinks = 2;
    fcfg.flitErrorRate = 0.2;
    fcfg.seed = 77;
    auto run = [&]() {
        Network net(*built.topo, *built.routing, SimConfig{},
                    FaultModel(*built.topo, fcfg));
        for (core::ProcId p = 0; p < 16; ++p)
            net.enqueue(p, static_cast<core::ProcId>((p + 3) % 16), 192,
                        0, 0);
        runUntilIdle(net);
        return net.stats();
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.corruptedFlits, b.corruptedFlits);
    EXPECT_EQ(a.packetsDropped, b.packetsDropped);
    EXPECT_EQ(a.packetLatency.mean(), b.packetLatency.mean());
    EXPECT_EQ(a.linkFlits, b.linkFlits);
}

TEST(FaultTraceDriver, LostMessageSkipsRecvInsteadOfHanging)
{
    const auto built = topo::buildMesh(4);
    const auto tr = oneMessageTrace(4, 0, 1, 256);
    FaultConfig fcfg;
    fcfg.failLinks = {built.topo->injectionLink(0)};
    const auto res = sim::runTrace(tr, *built.topo, *built.routing,
                                   SimConfig{}, fcfg);
    EXPECT_EQ(res.recvsLost, 1u);
    EXPECT_EQ(res.packetsDropped, 1u);
    EXPECT_LT(res.deliveredFraction, 1.0);
    ASSERT_EQ(res.undeliverableChannels.size(), 1u);
    EXPECT_EQ(res.undeliverableChannels[0].first, 0u);
    EXPECT_EQ(res.undeliverableChannels[0].second, 1u);
}

TEST(FaultTraceDriver, DropMidInjectionReleasesSenderThatCycle)
{
    // Proc 0's injection link fails at cycle 100 while its 1025-flit
    // packet is still leaving the NI: the packet is dropped then, and
    // the blocked sender (send issued at cycle 1) and the receiver move
    // on in that same cycle, long before the last flit could have left.
    const auto built = topo::buildMesh(4);
    const auto tr = oneMessageTrace(4, 0, 1, 4096);
    FaultConfig fcfg;
    fcfg.failLinks = {built.topo->injectionLink(0)};
    fcfg.failAtCycle = 100;
    const auto res = sim::runTrace(tr, *built.topo, *built.routing,
                                   SimConfig{}, fcfg);
    EXPECT_EQ(res.packetsDropped, 1u);
    EXPECT_EQ(res.recvsLost, 1u);
    EXPECT_EQ(res.finishTime[0], 100);
    EXPECT_EQ(res.commTime[0], 99);
    EXPECT_EQ(res.finishTime[1], 100);
}

TEST(FaultTraceDriver, CleanNetworkReportsFullDelivery)
{
    const auto built = topo::buildMesh(4);
    const auto tr = oneMessageTrace(4, 2, 3, 256);
    const auto res = sim::runTrace(tr, *built.topo, *built.routing,
                                   SimConfig{}, FaultConfig{});
    EXPECT_EQ(res.recvsLost, 0u);
    EXPECT_EQ(res.deliveredFraction, 1.0);
    EXPECT_EQ(res.latencyInflation, 1.0);
    EXPECT_TRUE(res.undeliverableChannels.empty());
}

TEST(FaultModel, RejectsBadConfig)
{
    const auto built = topo::buildCrossbar(4);
    FaultConfig bad;
    bad.flitErrorRate = 1.5;
    EXPECT_DEATH(FaultModel(*built.topo, bad), "flit error rate");
    FaultConfig badLink;
    badLink.failLinks = {static_cast<topo::LinkId>(10000)};
    EXPECT_DEATH(FaultModel(*built.topo, badLink), "link");
}
