/**
 * @file
 * Unit tests for the flit-level network model: latency arithmetic,
 * wormhole serialization, virtual channels, credit backpressure, FIFO
 * delivery, and regressive deadlock recovery.
 */

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/sim_observer.hpp"
#include "sim/network.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"

using namespace minnoc;
using namespace minnoc::sim;

namespace {

/** Step the network until idle or the cycle budget runs out. */
Cycle
runUntilIdle(Network &net, Cycle start = 0, Cycle budget = 100000)
{
    Cycle now = start;
    while (!net.idle() && now < start + budget)
        net.step(++now);
    EXPECT_TRUE(net.idle()) << "network failed to drain";
    return now;
}

} // namespace

TEST(NetworkSim, SinglePacketLatencyOnCrossbar)
{
    const auto built = topo::buildCrossbar(4);
    SimConfig cfg;
    Network net(*built.topo, *built.routing, cfg);

    // 60 bytes = 15 payload flits + head = 16 flits; path: proc ->
    // switch (delay 1) -> proc (delay 1).
    const auto id = net.enqueue(0, 1, 60, 0, 0);
    runUntilIdle(net);
    const auto &pkt = net.packet(id);
    EXPECT_TRUE(pkt.delivered());
    EXPECT_EQ(pkt.numFlits, 16u);
    // Serialization: head needs ~2 wire hops + route/SA stages; tail
    // follows 15 cycles behind. Latency must be close to flits + 2*wire
    // and strictly more than the pure serialization time.
    EXPECT_GE(pkt.deliveredAt - pkt.enqueuedAt, 16 + 2);
    EXPECT_LE(pkt.deliveredAt - pkt.enqueuedAt, 16 + 12);
    EXPECT_TRUE(net.hasDelivered(net.flow(1, 0)));
    EXPECT_EQ(net.consumeDelivered(net.flow(1, 0)), id);
    EXPECT_FALSE(net.hasDelivered(net.flow(1, 0)));
}

TEST(NetworkSim, ZeroByteMessageIsOneFlit)
{
    const auto built = topo::buildCrossbar(2);
    Network net(*built.topo, *built.routing, SimConfig{});
    const auto id = net.enqueue(0, 1, 0, 0, 0);
    runUntilIdle(net);
    EXPECT_EQ(net.packet(id).numFlits, 1u);
    EXPECT_TRUE(net.packet(id).delivered());
}

TEST(NetworkSim, EnqueueValidation)
{
    const auto built = topo::buildCrossbar(2);
    Network net(*built.topo, *built.routing, SimConfig{});
    EXPECT_DEATH(net.enqueue(0, 0, 4, 0, 0), "src == dst");
    EXPECT_DEATH(net.enqueue(0, 9, 4, 0, 0), "out of range");
}

TEST(NetworkSim, CrossbarIsNonBlockingForDisjointPairs)
{
    const auto built = topo::buildCrossbar(4);
    Network net(*built.topo, *built.routing, SimConfig{});
    // Two packets to different destinations: both should complete in
    // essentially single-packet time.
    const auto a = net.enqueue(0, 1, 400, 0, 0);
    const auto b = net.enqueue(2, 3, 400, 0, 0);
    runUntilIdle(net);
    const auto la = net.packet(a).deliveredAt;
    const auto lb = net.packet(b).deliveredAt;
    EXPECT_LE(std::max(la, lb) - std::min(la, lb), 2);
}

TEST(NetworkSim, SharedDestinationSerializes)
{
    const auto built = topo::buildCrossbar(4);
    Network net(*built.topo, *built.routing, SimConfig{});
    // Both to proc 3: the ejection link is the bottleneck. Round-robin
    // switch allocation interleaves the two wormholes on separate VCs,
    // so both complete at roughly double the single-packet latency —
    // the link still moves only one flit per cycle in total.
    const auto a = net.enqueue(0, 3, 400, 0, 0); // 101 flits each
    const auto b = net.enqueue(1, 3, 400, 0, 0);
    runUntilIdle(net);
    const auto last =
        std::max(net.packet(a).deliveredAt, net.packet(b).deliveredAt);
    // 202 flits through one link: at least 202 cycles end to end.
    EXPECT_GE(last, 202);
    // And well under twice that (no lost bandwidth).
    EXPECT_LE(last, 240);

    // Contrast: disjoint destinations complete in single-packet time.
    Network net2(*built.topo, *built.routing, SimConfig{});
    const auto c = net2.enqueue(0, 3, 400, 0, 0);
    runUntilIdle(net2);
    EXPECT_LE(net2.packet(c).deliveredAt, 130);
}

TEST(NetworkSim, SourceInjectionSerializes)
{
    const auto built = topo::buildCrossbar(4);
    Network net(*built.topo, *built.routing, SimConfig{});
    // Same source, different destinations: injection link serializes.
    const auto a = net.enqueue(0, 1, 400, 0, 0);
    const auto b = net.enqueue(0, 2, 400, 0, 0);
    runUntilIdle(net);
    EXPECT_GE(net.packet(b).deliveredAt - net.packet(a).deliveredAt, 90);
    EXPECT_TRUE(net.injected(a));
    EXPECT_TRUE(net.injected(b));
}

TEST(NetworkSim, FifoDeliveryPerChannel)
{
    const auto built = topo::buildCrossbar(2);
    Network net(*built.topo, *built.routing, SimConfig{});
    const auto a = net.enqueue(0, 1, 40, 0, 0);
    const auto b = net.enqueue(0, 1, 40, 1, 0);
    runUntilIdle(net);
    EXPECT_EQ(net.consumeDelivered(net.flow(1, 0)), a);
    EXPECT_EQ(net.consumeDelivered(net.flow(1, 0)), b);
}

TEST(NetworkSim, MeshMultiHopDelivers)
{
    const auto built = topo::buildMesh(16);
    Network net(*built.topo, *built.routing, SimConfig{});
    // Corner to corner: 6 mesh hops.
    const auto id = net.enqueue(0, 15, 256, 0, 0);
    runUntilIdle(net);
    EXPECT_TRUE(net.packet(id).delivered());
    EXPECT_EQ(net.stats().packetsDelivered, 1u);
}

TEST(NetworkSim, TorusAdaptiveDelivers)
{
    const auto built = topo::buildTorus(16);
    Network net(*built.topo, *built.routing, SimConfig{});
    for (core::ProcId p = 0; p < 16; ++p)
        net.enqueue(p, static_cast<core::ProcId>((p + 5) % 16), 128, 0, 0);
    runUntilIdle(net);
    EXPECT_EQ(net.stats().packetsDelivered, 16u);
    EXPECT_EQ(net.stats().deadlockRecoveries, 0u);
}

TEST(NetworkSim, HeavyLoadDrainsWithoutDeadlock)
{
    const auto built = topo::buildMesh(16);
    SimConfig cfg;
    Network net(*built.topo, *built.routing, cfg);
    // All-to-all burst: 240 packets through a 4x4 mesh with DOR (which
    // is deadlock-free); everything must drain with no recoveries.
    for (core::ProcId s = 0; s < 16; ++s) {
        for (core::ProcId d = 0; d < 16; ++d) {
            if (s != d)
                net.enqueue(s, d, 512, 0, 0);
        }
    }
    runUntilIdle(net, 0, 2'000'000);
    EXPECT_EQ(net.stats().packetsDelivered, 240u);
    EXPECT_EQ(net.stats().deadlockRecoveries, 0u);
    EXPECT_GT(net.stats().packetLatency.mean(), 0.0);
}

TEST(NetworkSim, DeadlockRecoveryKillsAndRedelivers)
{
    // Force a circular wait on a 2-switch topology with custom routing:
    // (0 -> 1) routes via S0 then S1; (1 -> 0) via S1 then S0 — on a
    // single-VC, tiny-buffer configuration with a long packet, the two
    // wormholes can block on each other's credits only transiently, so
    // instead build a true cycle: route (0->1) via S0,S1 and (2->3)
    // via S1,S0 where the destinations' ejection is never an issue but
    // an artificial 3-switch ring with unidirectional routing creates
    // the classic cyclic dependency.
    topo::Topology ring(3, 3, "ring3");
    for (core::ProcId p = 0; p < 3; ++p)
        ring.addDuplex(ring.procNode(p), ring.switchNode(p), 1);
    // Unidirectional ring links S0->S1->S2->S0.
    const auto l01 = ring.addLink(ring.switchNode(0), ring.switchNode(1), 1);
    const auto l12 = ring.addLink(ring.switchNode(1), ring.switchNode(2), 1);
    const auto l20 = ring.addLink(ring.switchNode(2), ring.switchNode(0), 1);

    topo::TableRouting routing(ring, "ring");
    // Each proc sends two hops around the ring: 0->2 uses S0,S1,S2;
    // 1->0 uses S1,S2,S0; 2->1 uses S2,S0,S1. With one VC these three
    // wormholes form a cyclic wait once their heads block.
    routing.setPath(0, 2, {ring.injectionLink(0), l01, l12,
                           ring.ejectionLink(2)});
    routing.setPath(1, 0, {ring.injectionLink(1), l12, l20,
                           ring.ejectionLink(0)});
    routing.setPath(2, 1, {ring.injectionLink(2), l20, l01,
                           ring.ejectionLink(1)});

    SimConfig cfg;
    cfg.numVcs = 1;
    cfg.vcDepth = 1;
    cfg.deadlockTimeout = 200;
    cfg.deadlockScanInterval = 64;
    cfg.deadlockPenalty = 50;
    Network net(ring, routing, cfg);
    net.enqueue(0, 2, 4000, 0, 0); // 1001 flits each: long wormholes
    net.enqueue(1, 0, 4000, 0, 0);
    net.enqueue(2, 1, 4000, 0, 0);

    Cycle now = 0;
    while (!net.idle() && now < 500000)
        net.step(++now);
    EXPECT_TRUE(net.idle());
    // All three eventually delivered, with at least one recovery.
    EXPECT_EQ(net.stats().packetsDelivered, 3u);
    EXPECT_GE(net.stats().deadlockRecoveries, 1u);
}

namespace {

/** The 3-switch unidirectional ring whose three 2-hop routes form the
 *  classic cyclic wait under a single VC. Returns the topology; the
 *  caller installs the ring routing via makeRingRouting. */
topo::Topology
makeDeadlockRing()
{
    topo::Topology ring(3, 3, "ring3");
    for (core::ProcId p = 0; p < 3; ++p)
        ring.addDuplex(ring.procNode(p), ring.switchNode(p), 1);
    ring.addLink(ring.switchNode(0), ring.switchNode(1), 1);
    ring.addLink(ring.switchNode(1), ring.switchNode(2), 1);
    ring.addLink(ring.switchNode(2), ring.switchNode(0), 1);
    return ring;
}

topo::TableRouting
makeRingRouting(const topo::Topology &ring)
{
    const auto l01 = static_cast<topo::LinkId>(6);
    const auto l12 = static_cast<topo::LinkId>(7);
    const auto l20 = static_cast<topo::LinkId>(8);
    topo::TableRouting routing(ring, "ring");
    routing.setPath(0, 2, {ring.injectionLink(0), l01, l12,
                           ring.ejectionLink(2)});
    routing.setPath(1, 0, {ring.injectionLink(1), l12, l20,
                           ring.ejectionLink(0)});
    routing.setPath(2, 1, {ring.injectionLink(2), l20, l01,
                           ring.ejectionLink(1)});
    return routing;
}

} // namespace

TEST(NetworkSim, TinyTimeoutRecoveryRestoresCreditsAndDelivers)
{
    // An aggressive timeout fires recovery on packets that are merely
    // slow, not just truly deadlocked: the kill-and-retransmit path must
    // still converge, and the purge must restore every credit so the
    // network keeps working afterwards.
    const auto ring = makeDeadlockRing();
    const auto routing = makeRingRouting(ring);
    SimConfig cfg;
    cfg.numVcs = 1;
    cfg.vcDepth = 1;
    cfg.deadlockTimeout = 40; // far below a 1001-flit serialization
    cfg.deadlockScanInterval = 16;
    cfg.deadlockPenalty = 50;
    Network net(ring, routing, cfg);
    net.enqueue(0, 2, 4000, 0, 0);
    net.enqueue(1, 0, 4000, 0, 0);
    net.enqueue(2, 1, 4000, 0, 0);

    Cycle now = 0;
    while (!net.idle() && now < 500000)
        net.step(++now);
    ASSERT_TRUE(net.idle());
    EXPECT_EQ(net.stats().packetsDelivered, 3u);
    EXPECT_GT(net.stats().deadlockRecoveries, 0u);
    EXPECT_EQ(net.stats().recoveryExhaustions, 0u);

    // Credits restored: a second wave over the same links also drains.
    net.enqueue(0, 2, 4000, 0, now);
    net.enqueue(1, 0, 4000, 0, now);
    net.enqueue(2, 1, 4000, 0, now);
    const auto resume = now;
    while (!net.idle() && now < resume + 500000)
        net.step(++now);
    ASSERT_TRUE(net.idle());
    EXPECT_EQ(net.stats().packetsDelivered, 6u);
}

TEST(NetworkSim, RecoveryBudgetExhaustionDropsInsteadOfLivelock)
{
    const auto ring = makeDeadlockRing();
    const auto routing = makeRingRouting(ring);
    SimConfig cfg;
    cfg.numVcs = 1;
    cfg.vcDepth = 1;
    cfg.deadlockTimeout = 200;
    cfg.deadlockScanInterval = 64;
    cfg.deadlockPenalty = 50;
    cfg.maxRecoveries = 0; // first recovery immediately exhausts
    Network net(ring, routing, cfg);
    net.enqueue(0, 2, 4000, 0, 0);
    net.enqueue(1, 0, 4000, 0, 0);
    net.enqueue(2, 1, 4000, 0, 0);

    Cycle now = 0;
    while (!net.idle() && now < 500000)
        net.step(++now);
    ASSERT_TRUE(net.idle()) << "drops must break the cycle, not hang";
    EXPECT_GE(net.stats().recoveryExhaustions, 1u);
    EXPECT_EQ(net.stats().packetsDropped,
              static_cast<std::uint64_t>(net.stats().recoveryExhaustions));
    // Killing one victim unblocks the other two (or they drop too);
    // either way every packet is accounted for.
    EXPECT_EQ(net.stats().packetsDelivered + net.stats().packetsDropped,
              3u);
}

TEST(NetworkSim, MonotoneClockEnforced)
{
    const auto built = topo::buildCrossbar(2);
    Network net(*built.topo, *built.routing, SimConfig{});
    net.step(1);
    EXPECT_DEATH(net.step(1), "non-monotone");
}

TEST(NetworkSim, IdleReflectsState)
{
    const auto built = topo::buildCrossbar(2);
    Network net(*built.topo, *built.routing, SimConfig{});
    EXPECT_TRUE(net.idle());
    net.enqueue(0, 1, 4, 0, 0);
    EXPECT_FALSE(net.idle());
    runUntilIdle(net);
    EXPECT_TRUE(net.idle());
}

TEST(NetworkSim, SteppedCyclesCountsStepCalls)
{
    const auto built = topo::buildCrossbar(2);
    Network net(*built.topo, *built.routing, SimConfig{});
    EXPECT_EQ(net.steppedCycles(), 0u);
    // Gaps in the clock are not steps.
    for (const Cycle now : {1, 2, 3, 100, 101})
        net.step(now);
    EXPECT_EQ(net.steppedCycles(), 5u);
}

TEST(NetworkSim, ObserverReportsSteppedCycles)
{
    // Both ranks compute for a long stretch before one message: the
    // driver fast-forwards over it, so far fewer cycles are stepped
    // than simulated, and the observer reports exactly the stepped
    // ones.
    trace::Trace tr("stepped", 2);
    for (core::ProcId r = 0; r < 2; ++r)
        tr.push(r, trace::TraceOp::compute(100000));
    tr.push(0, trace::TraceOp::send(1, 64, 0));
    tr.push(1, trace::TraceOp::recv(0, 64, 0));
    const auto built = topo::buildMesh(2);
    Network net(*built.topo, *built.routing, SimConfig{});
    obs::SimObserver observer;
    net.setObserver(&observer);
    const auto result = runTrace(tr, net);

    obs::MetricsRegistry registry;
    observer.exportTo(registry);
    const auto stepped = registry.counter("sim/stepped_cycles").value();
    EXPECT_EQ(stepped, net.steppedCycles());
    EXPECT_GT(stepped, 0u);
    EXPECT_LT(stepped, static_cast<std::uint64_t>(result.execTime) / 10);
}

TEST(NetworkSim, ObserverReportsThroughputAsTimingMetrics)
{
    // The replay's wall time is a timing metric: present on request,
    // absent from the default dump that byte-identity checks compare.
    trace::Trace tr("throughput", 2);
    tr.push(0, trace::TraceOp::send(1, 4096, 0));
    tr.push(1, trace::TraceOp::recv(0, 4096, 0));
    const auto built = topo::buildMesh(2);
    obs::SimObserver observer;
    runTrace(tr, *built.topo, *built.routing, SimConfig{}, &observer);

    obs::MetricsRegistry registry;
    observer.exportTo(registry);
    const char *names[] = {"sim/time/run_us", "sim/time/cycles_per_s",
                           "sim/time/flit_hops_per_s"};
    for (const char *name : names) {
        EXPECT_EQ(registry.toJson().find(name), std::string::npos);
        if (obs::kEnabled) {
            EXPECT_NE(registry.toJson(true).find(name), std::string::npos);
            EXPECT_GT(registry.gauge(name, true).value(), 0.0) << name;
        }
    }
}
