/**
 * @file
 * Multi-process distributed exploration tests: the job result round
 * trip, byte-identity of the coordinator's merged report against the
 * in-process explorer (across forked-lane counts, warm shared caches,
 * injected lane crashes and hangs), the abort on a shard's second
 * failure, Ctrl-C propagation, and the distributed phases evaluation.
 *
 * Fault injection uses the serve-side test hooks: setting
 * MINNOC_DIST_TEST_CRASH=<slot> (or _HANG) makes that forked lane die
 * with _exit(42) (or go unresponsive) after its first result on its
 * first attempt, so every crash test exercises the real requeue path
 * with part of the shard already delivered.
 */

#include <gtest/gtest.h>

#include "dist/coordinator.hpp"
#include "dist_test_harness.hpp"
#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"
#include "serve/jobwire.hpp"
#include "trace/scale_patterns.hpp"
#include "trace/synthetic.hpp"
#include "util/cancel.hpp"

using namespace minnoc;
using namespace minnoc::dist;
using disttest::cgTrace;
using disttest::DaemonProc;
using disttest::EnvGuard;
using disttest::smallConfig;
using disttest::tempCacheDir;

TEST(DistProtocol, WorkerResultRoundTripsDoublesExactly)
{
    dse::JobMetrics m;
    m.switches = 7;
    m.avgHops = 2.7142857142857144; // not exactly representable in %g
    m.energy = 1.2345678901234567e6;
    m.maxLinkUtil = 0.33333333333333331;

    std::string err;
    const auto msg = serve::parseWorkerMsg(
        serve::encodeResult(11, true, 12345, m), err);
    ASSERT_TRUE(msg.has_value()) << err;
    EXPECT_FALSE(msg->isPhaseRow);
    EXPECT_EQ(msg->index, 11u);
    EXPECT_TRUE(msg->cached);
    EXPECT_EQ(msg->wallUs, 12345);
    EXPECT_EQ(msg->metrics.switches, 7u);
    EXPECT_EQ(msg->metrics.avgHops, m.avgHops);   // bit-exact
    EXPECT_EQ(msg->metrics.energy, m.energy);     // bit-exact
    EXPECT_EQ(msg->metrics.maxLinkUtil, m.maxLinkUtil);
}

TEST(DistExplore, ByteIdenticalAcrossWorkerCounts)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);
    const auto base = dse::explore(tr, cfg);

    for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
        DistOptions opt;
        opt.workers = workers; // 8 > jobs exercises the min() clamp
        DistStats stats;
        const auto report = exploreDistributed(tr, cfg, opt, &stats);
        EXPECT_EQ(base.toJson(), report.toJson())
            << "workers=" << workers;
        std::uint64_t jobs = 0;
        for (const auto n : stats.jobs)
            jobs += n;
        EXPECT_EQ(jobs, base.points.size()) << "workers=" << workers;
        EXPECT_TRUE(stats.failures.empty());
    }
}

TEST(DistExplore, WarmRerunAcrossWorkerCountsIsAllHits)
{
    const auto tr = cgTrace();
    const auto dir = tempCacheDir("dist-warm");

    DistOptions two;
    two.workers = 2;
    const auto cold =
        exploreDistributed(tr, smallConfig(dir, true), two);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, cold.points.size());

    // Warm rerun at a different worker count: every job must land on
    // the shared disk cache entries the first run stored.
    DistOptions four;
    four.workers = 4;
    const auto warm =
        exploreDistributed(tr, smallConfig(dir, true), four);
    EXPECT_EQ(warm.cacheHits, warm.points.size());
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(cold.toJson(), warm.toJson());

    // And the in-process explorer agrees byte-for-byte on the same
    // cache — the merge argument: keys are content-hashed, so sharing
    // a directory between processes cannot change any result.
    const auto inproc = dse::explore(tr, smallConfig(dir, true));
    EXPECT_EQ(inproc.cacheHits, inproc.points.size());
    EXPECT_EQ(cold.toJson(), inproc.toJson());
}

TEST(DistExplore, CrashedWorkerIsRequeuedAndReportUnchanged)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);
    const auto base = dse::explore(tr, cfg);

    const EnvGuard crash("MINNOC_DIST_TEST_CRASH", "0");
    DistOptions opt;
    opt.workers = 2;
    DistStats stats;
    const auto report = exploreDistributed(tr, cfg, opt, &stats);

    EXPECT_EQ(base.toJson(), report.toJson());
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].worker, 0u);
    EXPECT_EQ(stats.failures[0].reason, "exit 42");
    EXPECT_FALSE(stats.failures[0].requeuedJobs.empty());
    EXPECT_NE(stats.toJson("explore").find("\"worker_failed\""),
              std::string::npos);
    EXPECT_NE(stats.toJson("explore").find("exit 42"),
              std::string::npos);
}

TEST(DistExplore, HungWorkerIsReapedOnTimeoutAndReportUnchanged)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);
    const auto base = dse::explore(tr, cfg);

    const EnvGuard hang("MINNOC_DIST_TEST_HANG", "0");
    DistOptions opt;
    opt.workers = 2;
    opt.workerTimeoutMs = 1500; // long enough for real results
    DistStats stats;
    const auto report = exploreDistributed(tr, cfg, opt, &stats);

    EXPECT_EQ(base.toJson(), report.toJson());
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].reason, "timeout");
}

TEST(DistExplore, SecondFailureOfSameShardAborts)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);

    // Two live daemons that refuse every job (queue capacity 0, so
    // each request is answered `queue_full`) and no forked lanes.
    // Whichever lane fails first requeues its shard onto the other
    // host at attempt 2, where it fails again: the run must abort.
    DaemonProc::Options dopt;
    dopt.queueCapacity = 0;
    DaemonProc a(dopt), b(dopt);
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);
    DistOptions opt;
    opt.workers = 0;
    opt.hosts = parseHostList(a.hostSpec() + "," + b.hostSpec());

    DistStats stats;
    try {
        exploreDistributed(tr, cfg, opt, &stats);
        FAIL() << "a shard failed twice but the run did not abort";
    } catch (const CancelledError &) {
        FAIL() << "aborted as cancelled, not as a double failure";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("shard failed twice"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("queue_full"),
                  std::string::npos)
            << e.what();
    }
    ASSERT_GE(stats.failures.size(), 2u);
    for (const auto &f : stats.failures)
        EXPECT_FALSE(f.host.empty());
}

TEST(DistExplore, CancelTokenDrainsWorkers)
{
    const auto tr = cgTrace();
    auto cfg = smallConfig("", false);
    // Enough work that the deadline fires mid-run on any machine.
    cfg.grid.maxDegrees = {4, 5, 6};
    cfg.grid.seeds = {1, 2, 3};
    cfg.grid.restarts = {8};

    CancelToken token;
    cfg.cancel = &token;
    token.setDeadlineIn(250'000); // 250 ms

    DistOptions opt;
    opt.workers = 2;
    EXPECT_THROW(exploreDistributed(tr, cfg, opt), CancelledError);
}

TEST(DistPhases, ByteIdenticalToInProcessEvaluation)
{
    const auto tr = trace::phaseShift({trace::Pattern::Neighbor,
                                       trace::Pattern::Transpose,
                                       trace::Pattern::Hotspot});
    phase::PhaseEvalConfig cfg;
    cfg.methodology.partitioner.constraints.maxDegree = 5;
    cfg.methodology.restarts = 4;
    cfg.threads = 1;

    const auto base = phase::evaluatePhases(tr, cfg);

    DistOptions opt;
    opt.workers = 3;
    DistStats stats;
    const auto report =
        evaluatePhasesDistributed(tr, cfg, opt, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    std::uint64_t jobs = 0;
    for (const auto n : stats.jobs)
        jobs += n;
    EXPECT_EQ(jobs, report.phases.size());
}

TEST(DistPhases, CrashedWorkerStillYieldsIdenticalReport)
{
    const auto tr = trace::phaseShift(
        {trace::Pattern::Neighbor, trace::Pattern::Transpose});
    phase::PhaseEvalConfig cfg;
    cfg.methodology.partitioner.constraints.maxDegree = 5;
    cfg.methodology.restarts = 2;
    cfg.threads = 1;

    const auto base = phase::evaluatePhases(tr, cfg);

    const EnvGuard crash("MINNOC_DIST_TEST_CRASH", "0");
    DistOptions opt;
    opt.workers = 2;
    DistStats stats;
    const auto report = evaluatePhasesDistributed(tr, cfg, opt, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
}

TEST(DistStatsJson, ReportsPerWorkerRowsAndFailures)
{
    DistStats stats;
    stats.workers = 2;
    stats.jobs = {3, 1};
    stats.cacheHits = {1, 0};
    stats.wallUsSum = {1000, 2000};
    WorkerFailure local;
    local.worker = 1;
    local.reason = "signal 9";
    local.requeuedJobs = {5, 6};
    stats.failures.push_back(local);

    const auto json = stats.toJson("explore");
    EXPECT_NE(json.find("\"report\": \"minnoc-dist-status\""),
              std::string::npos);
    EXPECT_NE(json.find("\"task\": \"explore\""), std::string::npos);
    EXPECT_NE(json.find("\"per_worker\""), std::string::npos);
    EXPECT_NE(json.find("\"worker_failed\""), std::string::npos);
    EXPECT_NE(json.find("signal 9"), std::string::npos);
    // A local failure must never surface in the host_failed array.
    EXPECT_NE(json.find("\"host_failed\": []"), std::string::npos);

    stats.workers = 3;
    stats.jobs.push_back(2);
    stats.cacheHits.push_back(0);
    stats.wallUsSum.push_back(500);
    stats.hostOf = {"", "", "127.0.0.1:9999"};
    WorkerFailure remote;
    remote.worker = 2;
    remote.host = "127.0.0.1:9999";
    remote.reason = "connection closed";
    stats.failures.push_back(remote);

    const auto both = stats.toJson("explore");
    EXPECT_NE(both.find("\"host\": \"127.0.0.1:9999\""),
              std::string::npos);
    EXPECT_NE(both.find("\"host_failed\": [{"), std::string::npos);
    EXPECT_NE(both.find("connection closed"), std::string::npos);
    // And the split is exclusive: the local failure stays in
    // worker_failed, the remote one in host_failed.
    const auto wf = both.find("\"worker_failed\"");
    const auto hf = both.find("\"host_failed\"");
    ASSERT_NE(wf, std::string::npos);
    ASSERT_NE(hf, std::string::npos);
    EXPECT_EQ(both.find("signal 9", wf) < hf, true);
    EXPECT_EQ(both.find("connection closed", wf) > hf, true);
}
