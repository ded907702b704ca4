/**
 * @file
 * Distributed exploration tests: the shard result round trip, the
 * pinned bytes of a shard and a phase-row result, the check that a
 * result document is of the kind its request asked for,
 * byte-identity of the coordinator's merged report against the
 * in-process explorer (across lane counts, warm shared caches, and a
 * crashed lane whose shards fall back in-process), lanes that run only
 * whole shards, grids dealt point by point (phase windows, runs past
 * the request limits), the abort on a shard's second failure, Ctrl-C during
 * the in-process fallback, and the distributed phases evaluation.
 * Every lane is a real `minnoc serve` daemon on loopback (a forked
 * DaemonProc).
 *
 * Fault injection uses the serve-side test hooks: a daemon started
 * with MINNOC_DIST_TEST_CRASH=serve dies with _exit(42) at its second
 * request on a first attempt, so every crash test exercises the real
 * requeue path with part of the lane's work already delivered.
 */

#include <gtest/gtest.h>

#include <memory>

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
using disttest::smallConfig;
using disttest::tempCacheDir;

namespace {

/** @p n live cache-less daemons and the DistOptions driving them. */
struct Fleet
{
    std::vector<std::unique_ptr<DaemonProc>> daemons;
    DistOptions options;

    Fleet(std::size_t n, const DaemonProc::Options &dopt)
    {
        std::string spec;
        for (std::size_t i = 0; i < n; ++i) {
            daemons.push_back(std::make_unique<DaemonProc>(dopt));
            if (i)
                spec += ',';
            spec += daemons.back()->hostSpec();
        }
        options.hosts = parseHostList(spec);
    }

    bool up() const
    {
        for (const auto &d : daemons)
            if (d->port() <= 0)
                return false;
        return true;
    }
};

DaemonProc::Options
noCache()
{
    DaemonProc::Options dopt;
    dopt.useCache = false;
    return dopt;
}

/** A loopback address nothing listens on any more. */
std::string
deadHostSpec()
{
    DaemonProc d(noCache());
    const auto spec = d.hostSpec();
    d.kill(SIGKILL);
    d.await();
    return spec;
}

std::uint64_t
totalJobs(const DistStats &stats)
{
    std::uint64_t jobs = 0;
    for (const auto n : stats.jobs)
        jobs += n;
    return jobs;
}

} // namespace

TEST(DistProtocol, WorkerResultRoundTripsDoublesExactly)
{
    // A multi-point shard document: every point keeps its index, its
    // cached flag and its doubles bit for bit.
    serve::WorkerReply shard;
    shard.wallUs = 12345;
    for (std::uint32_t k = 0; k < 3; ++k) {
        auto &msg = shard.results.emplace_back();
        msg.index = 11 + k;
        msg.cached = k == 1;
        msg.metrics.switches = 7 + k;
        msg.metrics.execTime = 9007199254740992 - k; // 2^53 - k
        // Not exactly representable in %g.
        msg.metrics.avgHops = 2.7142857142857144 + k;
        msg.metrics.energy = 1.2345678901234567e6 * (k + 1);
        msg.metrics.maxLinkUtil = 0.33333333333333331 / (k + 1);
    }

    std::string err;
    const auto reply = serve::parseWorkerReply(
        serve::encodeShardResult(shard), serve::Cmd::DseShard, err);
    ASSERT_TRUE(reply.has_value()) << err;
    EXPECT_EQ(reply->wallUs, 12345);
    ASSERT_EQ(reply->results.size(), shard.results.size());
    for (std::size_t k = 0; k < shard.results.size(); ++k) {
        const auto &in = shard.results[k];
        const auto &out = reply->results[k];
        EXPECT_EQ(out.index, in.index);
        EXPECT_EQ(out.cached, in.cached);
        EXPECT_EQ(out.metrics, in.metrics); // doubles bit-exact
    }
}

TEST(DistProtocol, ShardResultBytesArePinned)
{
    // One cached point that met its constraints and one computed point
    // that did not; avg_hops is a double %g would round.
    serve::WorkerReply shard;
    shard.wallUs = 250;
    for (std::uint32_t k = 0; k < 2; ++k) {
        auto &msg = shard.results.emplace_back();
        auto &m = msg.metrics;
        msg.index = 3 + k;
        msg.cached = k == 0;
        m.switches = 7 + k;
        m.links = 12;
        m.channels = 24;
        m.constraintsMet = k == 0;
        m.violations = k;
        m.rounds = 3;
        m.switchArea = 7;
        m.linkArea = 12;
        m.procLinkArea = 5;
        m.execTime = 123456789;
        m.avgLatency = 41.125;
        m.avgHops = 2.7142857142857144;
        m.maxLinkUtil = 0.33333333333333331;
        m.energy = 1.2345678901234567e6;
    }
    const std::string pinned =
        "{\"type\": \"result\", \"wall_us\": 250, \"points\": ["
        "{\"index\": 3, \"cached\": true, \"metrics\": {"
        "\"switches\": 7, \"links\": 12, \"channels\": 24, "
        "\"constraints_met\": true, \"violations\": 0, \"rounds\": 3, "
        "\"switch_area\": 7, \"link_area\": 12, \"proc_link_area\": 5, "
        "\"exec_time\": 123456789, \"avg_latency\": 41.125, "
        "\"avg_hops\": 2.7142857142857144, "
        "\"max_link_util\": 0.33333333333333331, "
        "\"energy\": 1234567.8901234567}}, "
        "{\"index\": 4, \"cached\": false, \"metrics\": {"
        "\"switches\": 8, \"links\": 12, \"channels\": 24, "
        "\"constraints_met\": false, \"violations\": 1, \"rounds\": 3, "
        "\"switch_area\": 7, \"link_area\": 12, \"proc_link_area\": 5, "
        "\"exec_time\": 123456789, \"avg_latency\": 41.125, "
        "\"avg_hops\": 2.7142857142857144, "
        "\"max_link_util\": 0.33333333333333331, "
        "\"energy\": 1234567.8901234567}}]}";
    EXPECT_EQ(serve::encodeShardResult(shard), pinned);

    std::string err;
    const auto reply =
        serve::parseWorkerReply(pinned, serve::Cmd::DseShard, err);
    ASSERT_TRUE(reply.has_value()) << err;
    EXPECT_EQ(reply->wallUs, shard.wallUs);
    ASSERT_EQ(reply->results.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(reply->results[k].index, shard.results[k].index);
        EXPECT_EQ(reply->results[k].cached, shard.results[k].cached);
        EXPECT_EQ(reply->results[k].metrics, shard.results[k].metrics);
    }
}

TEST(DistProtocol, PhaseResultBytesArePinned)
{
    phase::PhaseRowEval row;
    auto &v = row.network;
    v.switches = 6;
    v.links = 9;
    v.channels = 18;
    v.area = 31;
    v.execTime = 4567;
    v.avgLatency = 2.7142857142857144;
    v.energy = 1.2345678901234567e6;
    v.packetsDelivered = 880;
    v.violations = 1;
    row.reconfigIdleEnergy = 0.33333333333333331;
    const std::string pinned =
        "{\"type\": \"result\", \"index\": 2, \"wall_us\": 99, "
        "\"row\": {\"switches\": 6, \"links\": 9, \"channels\": 18, "
        "\"area\": 31, \"exec_time\": 4567, "
        "\"avg_latency\": 2.7142857142857144, "
        "\"energy\": 1234567.8901234567, \"packets\": 880, "
        "\"violations\": 1, "
        "\"reconfig_idle_energy\": 0.33333333333333331}}";
    EXPECT_EQ(serve::encodePhaseResult(2, 99, row), pinned);

    std::string err;
    const auto reply =
        serve::parseWorkerReply(pinned, serve::Cmd::PhaseJob, err);
    ASSERT_TRUE(reply.has_value()) << err;
    EXPECT_EQ(reply->wallUs, 99);
    ASSERT_EQ(reply->results.size(), 1u);
    const auto &out = reply->results[0];
    EXPECT_EQ(out.index, 2u);
    EXPECT_EQ(out.row.network.toJson(), v.toJson());
    EXPECT_EQ(out.row.reconfigIdleEnergy, row.reconfigIdleEnergy);
}

TEST(DistProtocol, PhaseRowIsNotAShardResult)
{
    phase::PhaseRowEval row;
    row.network.switches = 3;
    row.network.energy = 42.5;
    std::string err;
    EXPECT_FALSE(serve::parseWorkerReply(serve::encodePhaseResult(2, 10, row),
                                         serve::Cmd::DseShard, err)
                     .has_value());
    EXPECT_NE(err.find("points"), std::string::npos) << err;
    // The same document is a well-formed phase row.
    err.clear();
    const auto ok = serve::parseWorkerReply(
        serve::encodePhaseResult(2, 10, row), serve::Cmd::PhaseJob, err);
    ASSERT_TRUE(ok.has_value()) << err;
    ASSERT_EQ(ok->results.size(), 1u);
    EXPECT_EQ(ok->results[0].index, 2u);
    EXPECT_EQ(ok->results[0].row.network.energy, 42.5);
}

TEST(DistProtocol, ShardResultIsNotAPhaseRow)
{
    serve::WorkerReply shard;
    shard.results.emplace_back().index = 4;
    std::string err;
    EXPECT_FALSE(serve::parseWorkerReply(serve::encodeShardResult(shard),
                                         serve::Cmd::PhaseJob, err)
                     .has_value());
    EXPECT_NE(err.find("row"), std::string::npos) << err;
}

TEST(DistExplore, ByteIdenticalAcrossWorkerCounts)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);
    const auto base = dse::explore(tr, cfg);

    // Two shards of two points each: degree 4 and degree 5.
    const std::size_t shards = base.points.size() / 2;
    for (const std::size_t lanes : {1u, 2u, 5u}) {
        Fleet fleet(lanes, noCache()); // 5 > shards exercises the clamp
        ASSERT_TRUE(fleet.up());
        DistStats stats;
        const auto report =
            exploreDistributed(tr, cfg, fleet.options, &stats);
        EXPECT_EQ(base.toJson(), report.toJson()) << "lanes=" << lanes;
        EXPECT_EQ(totalJobs(stats), base.points.size())
            << "lanes=" << lanes;
        EXPECT_EQ(stats.workers, std::min(lanes, shards));
        EXPECT_TRUE(stats.failures.empty());
    }
}

TEST(DistExplore, LanesRunWholeShards)
{
    // The default grid on CG-16: 3 degrees x 1 restarts x 1 seed
    // shards of 2 directionalities x 2 VC counts = 4 points each.
    trace::NasConfig ncfg;
    ncfg.ranks = 16;
    ncfg.iterations = 1;
    const auto tr = trace::generateCG(ncfg);
    dse::ExploreConfig cfg;
    cfg.threads = 1;
    cfg.useCache = false;
    const auto base = dse::explore(tr, cfg);
    ASSERT_EQ(base.points.size(), 12u);

    Fleet fleet(2, noCache());
    ASSERT_TRUE(fleet.up());
    DistStats stats;
    const auto report = exploreDistributed(tr, cfg, fleet.options, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    ASSERT_EQ(stats.workers, 2u);
    EXPECT_TRUE(stats.failures.empty());
    for (const auto jobs : stats.jobs) {
        EXPECT_GT(jobs, 0u);
        EXPECT_EQ(jobs % 4, 0u) << "a lane ran part of a shard";
    }
    EXPECT_EQ(totalJobs(stats), base.points.size());
}

TEST(DistExplore, ShardPastTheWireLimitsGoesPointByPoint)
{
    // One (degree, restarts, seed) run of 2 x 64 x 9 = 1152 points:
    // more than a request may carry (kMaxGridJobs), so it travels as
    // 1152 one-point shards. A 4-rank ring keeps each cheap.
    const auto tr = trace::traceFromCliques(trace::ringPattern(4),
                                            "ring-4", 64, 1);
    auto cfg = smallConfig("", false);
    cfg.grid.maxDegrees = {4};
    cfg.grid.unidirectional = {0, 1};
    cfg.grid.vcs.clear();
    for (int i = 0; i < 32; ++i)
        cfg.grid.vcs.insert(cfg.grid.vcs.end(), {2, 3});
    cfg.grid.phaseWindows.assign(9, 0);
    const auto base = dse::explore(tr, cfg);
    ASSERT_EQ(base.points.size(), 1152u);
    ASSERT_GT(base.points.size(), serve::kMaxGridJobs);

    Fleet fleet(2, noCache());
    ASSERT_TRUE(fleet.up());
    DistStats stats;
    const auto report = exploreDistributed(tr, cfg, fleet.options, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    EXPECT_TRUE(stats.failures.empty());
    EXPECT_EQ(stats.jobs, (std::vector<std::uint64_t>{576, 576}));
}

TEST(DistExplore, PhaseWindowPointsAreDealtOneByOne)
{
    // Phase-window points share no work: a one-seed grid of two
    // windows is two one-point shards, one per host, not one shard.
    const auto tr = cgTrace();
    auto cfg = smallConfig("", false);
    cfg.grid.maxDegrees = {4};
    cfg.grid.vcs = {2};
    cfg.grid.phaseWindows = {4, 8};
    const auto base = dse::explore(tr, cfg);

    Fleet fleet(2, noCache());
    ASSERT_TRUE(fleet.up());
    DistStats stats;
    const auto report = exploreDistributed(tr, cfg, fleet.options, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    EXPECT_TRUE(stats.failures.empty());
    EXPECT_EQ(stats.jobs, (std::vector<std::uint64_t>{1, 1}));
}

TEST(DistExplore, WarmRerunAcrossWorkerCountsIsAllHits)
{
    const auto tr = cgTrace();
    const auto dir = tempCacheDir("dist-warm");
    // The daemons share one disk cache; the coordinator's is off.
    const auto cfg = smallConfig("", false);
    DaemonProc::Options shared;
    shared.cacheDir = dir;

    Fleet two(2, shared);
    ASSERT_TRUE(two.up());
    const auto cold = exploreDistributed(tr, cfg, two.options);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, cold.points.size());

    // Warm rerun at a different lane count: the shards move, but every
    // job must land on the shared entries the first run stored.
    Fleet three(3, shared);
    ASSERT_TRUE(three.up());
    const auto warm = exploreDistributed(tr, cfg, three.options);
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

    // The only host dies after its first result: no host survives, so
    // the coordinator runs the undelivered jobs in-process.
    auto armed = noCache();
    armed.env = {{"MINNOC_DIST_TEST_CRASH", "serve"}};
    armed.threads = 1; // the hook needs one request at a time
    Fleet fleet(1, armed);
    ASSERT_TRUE(fleet.up());
    DistStats stats;
    const auto report = exploreDistributed(tr, cfg, fleet.options, &stats);

    EXPECT_EQ(base.toJson(), report.toJson());
    EXPECT_EQ(fleet.daemons[0]->await(), 42);
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].worker, 0u);
    EXPECT_EQ(stats.failures[0].reason, "connection closed");
    const auto requeued = stats.failures[0].requeuedJobs.size();
    EXPECT_GT(requeued, 0u);
    EXPECT_LT(requeued, base.points.size());
    ASSERT_EQ(stats.hostOf.size(), 2u);
    EXPECT_EQ(stats.hostOf[1], "local");
    EXPECT_EQ(stats.jobs[1], requeued);
    EXPECT_EQ(totalJobs(stats), base.points.size());
    EXPECT_NE(stats.toJson("explore").find("\"host\": \"local\""),
              std::string::npos);
}

TEST(DistExplore, SecondFailureOfSameShardAborts)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);

    // Two live daemons that refuse every job (queue capacity 0, so
    // each request is answered `queue_full`). Whichever lane fails
    // first requeues its shard onto the other host at attempt 2,
    // where it fails again: the run must abort, not fall back.
    DaemonProc::Options dopt;
    dopt.queueCapacity = 0;
    Fleet fleet(2, dopt);
    ASSERT_TRUE(fleet.up());

    DistStats stats;
    try {
        exploreDistributed(tr, cfg, fleet.options, &stats);
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

TEST(DistExplore, CancelTokenStopsInProcessFallback)
{
    const auto tr = cgTrace();
    auto cfg = smallConfig("", false);
    // Enough work that the deadline fires mid-fallback on any machine:
    // 3 degrees x 32 seeds x 2 VC counts = 192 jobs, several seconds
    // of work on a fast host.
    cfg.grid.maxDegrees = {4, 5, 6};
    cfg.grid.seeds.clear();
    for (std::uint64_t s = 1; s <= 32; ++s)
        cfg.grid.seeds.push_back(s);
    cfg.grid.restarts = {8};

    // The dead host's connect retries back off for 1.5 s; the deadline
    // lands one second into the in-process fallback that follows.
    DistOptions opt;
    opt.hosts = parseHostList(deadHostSpec());
    CancelToken token;
    cfg.cancel = &token;
    token.setDeadlineIn(2'500'000); // 2.5 s

    DistStats stats;
    EXPECT_THROW(exploreDistributed(tr, cfg, opt, &stats),
                 CancelledError);
    ASSERT_EQ(stats.hostOf.size(), 2u);
    EXPECT_EQ(stats.hostOf[1], "local");
    EXPECT_LT(stats.jobs[1], 192u);
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

    // One live host and one dead one: the dead lane's phases fail
    // over to the live daemon.
    DaemonProc live(noCache());
    ASSERT_GT(live.port(), 0);
    DistOptions opt;
    opt.hosts = parseHostList(live.hostSpec() + "," + deadHostSpec());
    DistStats stats;
    const auto report =
        evaluatePhasesDistributed(tr, cfg, opt, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    EXPECT_EQ(totalJobs(stats), report.phases.size());
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].host, opt.hosts[1].label());
    EXPECT_EQ(stats.hostOf.back(), live.hostSpec());
}

TEST(DistPhases, FourThreadsByteIdenticalToInProcessEvaluation)
{
    // At --threads 4 the whole-trace half runs its monolithic restarts
    // on a pool of the coordinator beside the dispatch loop.
    const auto tr = trace::phaseShift({trace::Pattern::Neighbor,
                                       trace::Pattern::Transpose,
                                       trace::Pattern::Hotspot});
    phase::PhaseEvalConfig cfg;
    cfg.methodology.partitioner.constraints.maxDegree = 5;
    cfg.methodology.restarts = 4;
    cfg.threads = 1;
    const auto base = phase::evaluatePhases(tr, cfg);

    DaemonProc live(noCache());
    ASSERT_GT(live.port(), 0);
    DistOptions opt;
    opt.hosts = parseHostList(live.hostSpec());
    cfg.threads = 4;
    DistStats stats;
    const auto report =
        evaluatePhasesDistributed(tr, cfg, opt, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    EXPECT_EQ(totalJobs(stats), report.phases.size());
    EXPECT_TRUE(stats.failures.empty());
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

    // The only host dies after its first phase; the rest run
    // in-process.
    auto armed = noCache();
    armed.env = {{"MINNOC_DIST_TEST_CRASH", "serve"}};
    armed.threads = 1; // the hook needs one request at a time
    Fleet fleet(1, armed);
    ASSERT_TRUE(fleet.up());
    DistStats stats;
    const auto report =
        evaluatePhasesDistributed(tr, cfg, fleet.options, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.hostOf.back(), "local");
    EXPECT_EQ(totalJobs(stats), report.phases.size());
}

TEST(DistStatsJson, ReportsPerWorkerRowsAndFailures)
{
    DistStats stats;
    stats.workers = 2;
    stats.jobs = {3, 1};
    stats.cacheHits = {1, 0};
    stats.wallUsSum = {1000, 2000};
    stats.hostOf = {"127.0.0.1:9999", "local"};

    const auto clean = stats.toJson("explore");
    EXPECT_NE(clean.find("\"report\": \"minnoc-dist-status\""),
              std::string::npos);
    EXPECT_NE(clean.find("\"task\": \"explore\""), std::string::npos);
    EXPECT_NE(clean.find("\"per_worker\""), std::string::npos);
    EXPECT_NE(clean.find("\"host\": \"127.0.0.1:9999\""),
              std::string::npos);
    EXPECT_NE(clean.find("\"host\": \"local\""), std::string::npos);
    EXPECT_NE(clean.find("\"host_failed\": []"), std::string::npos);

    WorkerFailure remote;
    remote.worker = 0;
    remote.host = "127.0.0.1:9999";
    remote.reason = "connection closed";
    remote.requeuedJobs = {5, 6};
    stats.failures.push_back(remote);

    const auto failed = stats.toJson("explore");
    EXPECT_NE(failed.find("\"host_failed\": [{\"worker\": 0, "
                          "\"host\": \"127.0.0.1:9999\", "
                          "\"reason\": \"connection closed\", "
                          "\"requeued_jobs\": [5, 6]}]"),
              std::string::npos)
        << failed;
}
