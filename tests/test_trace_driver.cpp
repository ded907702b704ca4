/**
 * @file
 * Unit tests for the trace-driven workload engine.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/design_io.hpp"
#include "dse/cache.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "topo/floorplan.hpp"
#include "trace/nas_generators.hpp"
#include "trace/scale_patterns.hpp"

using namespace minnoc;
using namespace minnoc::sim;
using minnoc::trace::OpKind;
using minnoc::trace::Trace;
using minnoc::trace::TraceOp;

TEST(TraceDriver, ComputeOnlyFinishesOnTime)
{
    Trace t("compute", 2);
    t.push(0, TraceOp::compute(5000));
    t.push(1, TraceOp::compute(700));
    const auto built = topo::buildCrossbar(2);
    const auto res = runTrace(t, *built.topo, *built.routing);
    // Fast-forward makes this cheap; finish = compute time (+epsilon).
    EXPECT_GE(res.execTime, 5000);
    EXPECT_LE(res.execTime, 5010);
    EXPECT_EQ(res.commTime[0], 0);
    EXPECT_EQ(res.commTime[1], 0);
    EXPECT_EQ(res.packetsDelivered, 0u);
}

TEST(TraceDriver, PingPongAccounting)
{
    Trace t("pingpong", 2);
    t.push(0, TraceOp::send(1, 400, 0));
    t.push(1, TraceOp::recv(0, 400, 0));
    t.push(1, TraceOp::send(0, 400, 1));
    t.push(0, TraceOp::recv(1, 400, 1));
    const auto built = topo::buildCrossbar(2);
    const auto res = runTrace(t, *built.topo, *built.routing);

    EXPECT_EQ(res.packetsDelivered, 2u);
    EXPECT_EQ(res.deadlockRecoveries, 0u);
    // Each rank spends its whole run communicating.
    EXPECT_GT(res.commTime[0], 0);
    EXPECT_GT(res.commTime[1], 0);
    EXPECT_LE(res.commTime[0], res.execTime);
    // Round trip of two 101-flit packets plus overheads.
    EXPECT_GE(res.execTime, 2 * 101);
    EXPECT_LE(res.execTime, 2 * 101 + 80);
}

TEST(TraceDriver, SendBlocksUntilInjected)
{
    // One long send: the sender's comm time covers the injection of all
    // flits, not just the overhead.
    Trace t("block", 2);
    t.push(0, TraceOp::send(1, 4000, 0)); // 1001 flits
    t.push(1, TraceOp::recv(0, 4000, 0));
    const auto built = topo::buildCrossbar(2);
    const auto res = runTrace(t, *built.topo, *built.routing);
    EXPECT_GE(res.commTime[0], 1001);
}

TEST(TraceDriver, RecvWaitCountsAsCommTime)
{
    Trace t("wait", 2);
    t.push(0, TraceOp::compute(10000));
    t.push(0, TraceOp::send(1, 4, 0));
    t.push(1, TraceOp::recv(0, 4, 0)); // waits ~10k cycles
    const auto built = topo::buildCrossbar(2);
    const auto res = runTrace(t, *built.topo, *built.routing);
    EXPECT_GE(res.commTime[1], 10000);
    EXPECT_EQ(res.commTime[0] > 0, true);
    EXPECT_LT(res.commTime[0], 100);
}

TEST(TraceDriver, RankCountMismatchFatal)
{
    Trace t("mismatch", 3);
    const auto built = topo::buildCrossbar(2);
    EXPECT_EXIT(runTrace(t, *built.topo, *built.routing),
                ::testing::ExitedWithCode(1), "ranks");
}

TEST(TraceDriver, DeadlockedTraceFatal)
{
    Trace t("dead", 2);
    t.push(0, TraceOp::recv(1, 4, 0));
    t.push(1, TraceOp::recv(0, 4, 1));
    t.push(0, TraceOp::send(1, 4, 1));
    t.push(1, TraceOp::send(0, 4, 0));
    const auto built = topo::buildCrossbar(2);
    EXPECT_EXIT(runTrace(t, *built.topo, *built.routing),
                ::testing::ExitedWithCode(1), "deadlocked");
}

TEST(TraceDriver, DropAtEnqueueWakeIsNotADeadlock)
{
    // Proc 2's injection is dead. Its send to rank 0 is dropped as it
    // is enqueued, which wakes rank 0 (below 2) for the next cycle, and
    // rank 2 then blocks in its own receive. The network is idle and
    // every live rank waits in a receive, but rank 0 is due: the run
    // must go on, lose that receive and finish.
    Trace t("drop-wake", 3);
    t.push(0, TraceOp::recv(2, 64, 0));
    t.push(0, TraceOp::send(1, 64, 1));
    t.push(1, TraceOp::recv(0, 64, 1));
    t.push(1, TraceOp::send(2, 64, 2));
    t.push(2, TraceOp::compute(50));
    t.push(2, TraceOp::send(0, 64, 0));
    t.push(2, TraceOp::recv(1, 64, 2));
    const auto built = topo::buildCrossbar(3);
    FaultConfig faults;
    faults.failLinks = {built.topo->injectionLink(2)};
    const auto res =
        runTrace(t, *built.topo, *built.routing, SimConfig{}, faults);
    EXPECT_EQ(res.recvsLost, 1u);
    EXPECT_EQ(res.packetsDropped, 1u);
    EXPECT_EQ(res.packetsDelivered, 2u);
    EXPECT_DOUBLE_EQ(res.deliveredFraction, 2.0 / 3.0);
}

TEST(TraceDriver, ResultAggregates)
{
    SimResult res;
    res.commTime = {10, 20, 30};
    EXPECT_DOUBLE_EQ(res.commTimeMean(), 20.0);
    EXPECT_EQ(res.commTimeMax(), 30);
    SimResult empty;
    EXPECT_DOUBLE_EQ(empty.commTimeMean(), 0.0);
    EXPECT_EQ(empty.commTimeMax(), 0);
}

/** Full benchmark traces on every baseline topology. */
class DriverBenchmarkSweep
    : public ::testing::TestWithParam<minnoc::trace::Benchmark>
{
};

TEST_P(DriverBenchmarkSweep, RunsOnAllBaselines)
{
    minnoc::trace::NasConfig cfg;
    cfg.ranks = minnoc::trace::smallConfigRanks(GetParam());
    cfg.iterations = 1;
    const auto tr = generateBenchmark(GetParam(), cfg);

    const auto xbar = topo::buildCrossbar(cfg.ranks);
    const auto mesh = topo::buildMesh(cfg.ranks);
    const auto torus = topo::buildTorus(cfg.ranks);

    const auto rx = runTrace(tr, *xbar.topo, *xbar.routing);
    const auto rm = runTrace(tr, *mesh.topo, *mesh.routing);
    const auto rt = runTrace(tr, *torus.topo, *torus.routing);

    EXPECT_EQ(rx.packetsDelivered, tr.numSends());
    EXPECT_EQ(rm.packetsDelivered, tr.numSends());
    EXPECT_EQ(rt.packetsDelivered, tr.numSends());

    // The non-blocking crossbar is the performance reference: nothing
    // beats it by more than scheduling noise.
    EXPECT_LE(rx.execTime, rm.execTime + 5);
    EXPECT_LE(rx.execTime, rt.execTime + 5);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, DriverBenchmarkSweep,
                         ::testing::Values(minnoc::trace::Benchmark::BT,
                                           minnoc::trace::Benchmark::CG,
                                           minnoc::trace::Benchmark::FFT,
                                           minnoc::trace::Benchmark::MG,
                                           minnoc::trace::Benchmark::SP),
                         [](const auto &info) {
                             return minnoc::trace::benchmarkName(
                                 info.param);
                         });

TEST(TraceDriver, DeterministicAcrossRuns)
{
    minnoc::trace::NasConfig cfg;
    cfg.ranks = 8;
    cfg.iterations = 1;
    const auto tr = generateBenchmark(minnoc::trace::Benchmark::CG, cfg);
    const auto mesh = topo::buildMesh(8);
    const auto a = runTrace(tr, *mesh.topo, *mesh.routing);
    const auto b = runTrace(tr, *mesh.topo, *mesh.routing);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.commTime, b.commTime);
}

namespace {

/**
 * Digest of what the driver's schedule decides: each rank's finish and
 * communication time, the cycles the network was stepped and the
 * flits each link carried. A rank woken a cycle early or late moves it.
 */
std::string
scheduleDigest(const Trace &tr, const topo::BuiltNetwork &net,
               const FaultConfig &faults = {})
{
    Network network(*net.topo, *net.routing, SimConfig{},
                    FaultModel(*net.topo, faults));
    const auto res = runTrace(tr, network);
    std::ostringstream oss;
    const auto list = [&](const char *key, const auto &values) {
        oss << key << "=";
        for (std::size_t i = 0; i < values.size(); ++i)
            oss << (i ? "," : "") << values[i];
        oss << "\n";
    };
    list("finish_times", res.finishTime);
    list("comm_times", res.commTime);
    oss << "stepped_cycles=" << network.steppedCycles() << "\n";
    list("link_flits", res.linkFlits);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(dse::fnv1a64(oss.str())));
    return buf;
}

} // namespace

TEST(ScheduleBytes, Neighbor128Mesh)
{
    // More ranks than one 64-bit word holds: a rank set spans words.
    const auto tr = minnoc::trace::traceFromCliques(
        minnoc::trace::makeScalePattern("neighbor", 128), "neighbor-128",
        1024, 2);
    EXPECT_EQ(scheduleDigest(tr, topo::buildMesh(128)), "badf14527b7e67ad");
}

TEST(ScheduleBytes, DisconnectedFromStart)
{
    // Proc 5's ejection and proc 9's injection fail before the first
    // cycle: every send to 5 and every send from 9 is dropped as it is
    // enqueued, so channels with receivers below and above their
    // senders are lost.
    minnoc::trace::NasConfig cfg;
    cfg.ranks = 16;
    cfg.iterations = 1;
    cfg.seed = 1;
    const auto tr = generateBenchmark(minnoc::trace::Benchmark::CG, cfg);
    const auto mesh = topo::buildMesh(16);
    FaultConfig faults;
    faults.failLinks = {mesh.topo->ejectionLink(5),
                        mesh.topo->injectionLink(9)};
    const auto res = runTrace(tr, *mesh.topo, *mesh.routing, SimConfig{},
                              faults);
    bool lowerDst = false;
    bool higherDst = false;
    for (const auto &[src, dst] : res.undeliverableChannels) {
        lowerDst |= dst < src;
        higherDst |= dst > src;
    }
    EXPECT_TRUE(lowerDst);
    EXPECT_TRUE(higherDst);
    EXPECT_EQ(scheduleDigest(tr, mesh, faults), "d9bc757cd3abfe4a");
}

TEST(ScheduleBytes, MidPassWakes)
{
    // Proc 2's injection fails before the first cycle. Ranks 0, 5 and 70
    // already wait on it when it sends, so each send is dropped as it is
    // enqueued and wakes a receiver in the middle of the ranks' pass:
    // 5 (above 2, same 64-rank word) and 70 (above, next word) in the
    // same pass, 0 (below) in the next cycle.
    Trace t("mid-pass", 72);
    for (const core::ProcId r : {0u, 5u, 70u}) {
        t.push(r, TraceOp::recv(2, 64, r));
        t.push(r, TraceOp::send(1, 64, 100 + r));
    }
    t.push(2, TraceOp::compute(100));
    for (const core::ProcId r : {5u, 0u, 70u})
        t.push(2, TraceOp::send(r, 64, r));
    for (const core::ProcId r : {0u, 5u, 70u})
        t.push(1, TraceOp::recv(r, 64, 100 + r));
    const auto net = topo::buildCrossbar(72);
    FaultConfig faults;
    faults.failLinks = {net.topo->injectionLink(2)};
    const auto res =
        runTrace(t, *net.topo, *net.routing, SimConfig{}, faults);
    EXPECT_EQ(res.recvsLost, 3u);
    EXPECT_EQ(res.packetsDelivered, 3u);
    EXPECT_EQ(scheduleDigest(t, net, faults), "41e3cb504d8910c2");
}

TEST(ScheduleBytes, CG64PerfbenchDesign)
{
    // Contended: 64 ranks on the 64-switch generated design, where
    // senders spend most cycles waiting for their tail to inject.
    std::ifstream file(std::string(MINNOC_TESTS_DIR) +
                       "/../perfbench/data/cg64_design.txt");
    ASSERT_TRUE(file);
    const auto design = core::loadDesign(file);
    minnoc::trace::NasConfig cfg;
    cfg.ranks = 64;
    cfg.iterations = 1;
    cfg.seed = 1;
    const auto tr = generateBenchmark(minnoc::trace::Benchmark::CG, cfg);
    const auto net = topo::buildFromDesign(design, topo::planFloor(design));
    EXPECT_EQ(scheduleDigest(tr, net), "589e1e1871ef73ed");
}
