/**
 * @file
 * Cross-host conformance and chaos tests for `--hosts`: the
 * coordinator drives real `minnoc serve` daemons on loopback (each a
 * forked DaemonProc) and the merged report must be byte-identical to
 * the in-process explorer — cold, warm, at any host mix, and under
 * injected daemon failures.
 *
 * Chaos coverage reuses the dist fault hooks with the value "serve":
 * MINNOC_DIST_TEST_CRASH=serve makes a daemon _exit(42) at the start
 * of its second request's compute (so part of the lane's work is
 * already delivered, exercising the real partial-requeue path), and
 * _HANG parks it in an unresponsive loop for the coordinator's
 * activity timeout to catch. Harder failures — SIGKILL mid-run, a
 * dead address, a host that accepts connections but never reads them,
 * an all-hosts-dead fallback that runs every shard in-process — are
 * induced directly. A value past the wire's bounds must be refused
 * before any host is contacted.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include "dist/coordinator.hpp"
#include "dist_test_harness.hpp"
#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"
#include "serve/protocol.hpp"
#include "trace/synthetic.hpp"
#include "util/cancel.hpp"

using namespace minnoc;
using namespace minnoc::dist;
using namespace minnoc::disttest;

namespace {

DistOptions
hostsOnly(const std::vector<HostSpec> &hosts)
{
    DistOptions opt;
    opt.hosts = hosts;
    return opt;
}

std::vector<HostSpec>
specsOf(std::initializer_list<const DaemonProc *> daemons)
{
    std::vector<HostSpec> hosts;
    for (const auto *d : daemons)
        hosts.push_back(parseHostList(d->hostSpec())[0]);
    return hosts;
}

/**
 * A loopback listener that never accepts or reads: a connect to it
 * succeeds (the kernel completes the handshake into the backlog), and
 * every send stalls once the socket buffers are full.
 */
class DeafListener
{
  public:
    DeafListener()
    {
        _fd = ::socket(AF_INET, SOCK_STREAM, 0);
        // Accepted sockets inherit the small receive buffer.
        const int small = 4096;
        ::setsockopt(_fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        auto *sa = reinterpret_cast<sockaddr *>(&addr);
        socklen_t len = sizeof addr;
        if (::bind(_fd, sa, len) == 0 && ::listen(_fd, 4) == 0 &&
            ::getsockname(_fd, sa, &len) == 0)
            _port = ntohs(addr.sin_port);
    }
    ~DeafListener() { ::close(_fd); }

    DeafListener(const DeafListener &) = delete;
    DeafListener &operator=(const DeafListener &) = delete;

    std::uint16_t port() const { return _port; }
    HostSpec host() const { return {"127.0.0.1", _port}; }

  private:
    int _fd = -1;
    std::uint16_t _port = 0;
};

/**
 * CG-8 padded to ~3 MB: rank 0 ends with 250k one-cycle compute ops,
 * which still evaluate in a fraction of a second per point. Four
 * seeds make four one-point shards, so the first window is ~12 MB,
 * more than the kernel buffers for a peer that never reads.
 */
trace::Trace
paddedTrace()
{
    auto tr = cgTrace();
    for (int i = 0; i < 250'000; ++i)
        tr.push(0, trace::TraceOp::compute(1));
    return tr;
}

dse::ExploreConfig
fourShardConfig()
{
    auto cfg = smallConfig("", false);
    cfg.grid.maxDegrees = {4};
    cfg.grid.vcs = {2};
    cfg.grid.seeds = {1, 2, 3, 4};
    return cfg;
}

} // namespace

TEST(DistHosts, ByteIdenticalAcrossBackendMixes)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);
    const auto base = dse::explore(tr, cfg);

    DaemonProc::Options dopt;
    dopt.useCache = false;
    DaemonProc a(dopt), b(dopt);
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);

    // All-remote: every lane is a daemon.
    {
        DistStats stats;
        const auto report = exploreDistributed(
            tr, cfg, hostsOnly(specsOf({&a, &b})), &stats);
        EXPECT_EQ(base.toJson(), report.toJson());
        ASSERT_EQ(stats.hostOf.size(), 2u);
        EXPECT_EQ(stats.hostOf[0], a.hostSpec());
        EXPECT_EQ(stats.hostOf[1], b.hostSpec());
        EXPECT_TRUE(stats.failures.empty());
        std::uint64_t jobs = 0;
        for (const auto n : stats.jobs)
            jobs += n;
        EXPECT_EQ(jobs, base.points.size());
    }

    // Mixed: one live daemon ahead of one dead address. The dead
    // lane's shard fails over to the live host.
    {
        DaemonProc c(dopt);
        ASSERT_GT(c.port(), 0);
        const auto hosts = specsOf({&a, &c});
        c.kill(SIGKILL);
        c.await();
        DistStats stats;
        const auto report =
            exploreDistributed(tr, cfg, hostsOnly(hosts), &stats);
        EXPECT_EQ(base.toJson(), report.toJson());
        ASSERT_EQ(stats.failures.size(), 1u);
        EXPECT_EQ(stats.failures[0].host, hosts[1].label());
        ASSERT_EQ(stats.hostOf.size(), 3u);
        EXPECT_EQ(stats.hostOf[2], a.hostSpec()); // the requeue lane
    }
}

TEST(DistHosts, TimeoutPastTheDeadlineCeilingStillDispatches)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);
    const auto base = dse::explore(tr, cfg);

    DaemonProc::Options dopt;
    dopt.useCache = false;
    DaemonProc a(dopt);
    ASSERT_GT(a.port(), 0);

    // The activity timeout doubles as the request deadline, but a
    // daemon refuses any deadline_ms past the protocol's ceiling; the
    // coordinator must clamp it rather than lose every job.
    auto opt = hostsOnly(specsOf({&a}));
    opt.workerTimeoutMs = serve::kMaxDeadlineMs + 1;
    DistStats stats;
    const auto report = exploreDistributed(tr, cfg, opt, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    EXPECT_TRUE(stats.failures.empty());
}

TEST(DistHosts, WarmRerunOnDaemonCachesIsAllHits)
{
    const auto tr = cgTrace();
    // The coordinator never touches a disk cache on an all-remote
    // run; each daemon owns its cache directory (the socket is the
    // trust boundary), so the coordinator-side config disables it.
    const auto cfg = smallConfig("", false);

    DaemonProc::Options da;
    da.cacheDir = tempCacheDir("hosts-warm-a");
    DaemonProc::Options db;
    db.cacheDir = tempCacheDir("hosts-warm-b");
    DaemonProc a(da), b(db);
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);
    const auto opt = hostsOnly(specsOf({&a, &b}));

    const auto cold = exploreDistributed(tr, cfg, opt);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, cold.points.size());

    // Same hosts, same shards: every job lands on the entry its
    // daemon stored the first time.
    const auto warm = exploreDistributed(tr, cfg, opt);
    EXPECT_EQ(warm.cacheHits, warm.points.size());
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(cold.toJson(), warm.toJson());

    // And the in-process explorer agrees byte-for-byte.
    EXPECT_EQ(cold.toJson(), dse::explore(tr, cfg).toJson());
}

TEST(DistHosts, CrashedDaemonFailsOverAndReportUnchanged)
{
    const auto tr = cgTrace();
    auto cfg = smallConfig("", false);
    cfg.grid.seeds = {1, 2}; // 4 shards: two requests per daemon
    const auto base = dse::explore(tr, cfg);

    DaemonProc::Options armed;
    armed.useCache = false;
    armed.env = {{"MINNOC_DIST_TEST_CRASH", "serve"}};
    armed.threads = 1; // the hook needs one request at a time
    DaemonProc::Options clean;
    clean.useCache = false;
    DaemonProc a(armed), b(clean);
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);

    DistStats stats;
    const auto report = exploreDistributed(
        tr, cfg, hostsOnly(specsOf({&a, &b})), &stats);

    EXPECT_EQ(base.toJson(), report.toJson());
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].host, a.hostSpec());
    EXPECT_EQ(stats.failures[0].reason, "connection closed");
    // The hook fires at the second request, so the requeue is
    // partial: the delivered shard is never recomputed.
    EXPECT_FALSE(stats.failures[0].requeuedJobs.empty());
    EXPECT_LT(stats.failures[0].requeuedJobs.size(),
              base.points.size());
    // The daemon really died on the injected _exit(42).
    EXPECT_EQ(a.await(), 42);

    const auto json = stats.toJson("explore");
    EXPECT_NE(json.find("\"host_failed\": [{"), std::string::npos);
    EXPECT_NE(json.find(a.hostSpec()), std::string::npos);
}

TEST(DistHosts, HungDaemonTimesOutAndFailsOver)
{
    const auto tr = cgTrace();
    auto cfg = smallConfig("", false);
    cfg.grid.seeds = {1, 2}; // 4 shards: two requests per daemon
    const auto base = dse::explore(tr, cfg);

    DaemonProc::Options armed;
    armed.useCache = false;
    armed.env = {{"MINNOC_DIST_TEST_HANG", "serve"}};
    armed.threads = 1; // the hook needs one request at a time
    DaemonProc::Options clean;
    clean.useCache = false;
    DaemonProc a(armed), b(clean);
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);

    auto opt = hostsOnly(specsOf({&a, &b}));
    opt.workerTimeoutMs = 2'500; // long enough for real results
    DistStats stats;
    const auto report = exploreDistributed(tr, cfg, opt, &stats);

    EXPECT_EQ(base.toJson(), report.toJson());
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].host, a.hostSpec());
    EXPECT_EQ(stats.failures[0].reason, "timeout");
}

TEST(DistHosts, DeadAddressFailsOverToSurvivor)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);
    const auto base = dse::explore(tr, cfg);

    DaemonProc::Options dopt;
    dopt.useCache = false;
    DaemonProc a(dopt), b(dopt);
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);
    const auto hosts = specsOf({&a, &b});

    // Kill A before the run: its lane is born dead (connect refused
    // after the bounded retries) and its whole shard requeues onto B.
    a.kill(SIGKILL);
    ASSERT_EQ(a.await(), 128 + SIGKILL);

    DistStats stats;
    const auto report =
        exploreDistributed(tr, cfg, hostsOnly(hosts), &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].host, hosts[0].label());
    EXPECT_NE(stats.failures[0].reason.find("connect"),
              std::string::npos);
    EXPECT_EQ(stats.failures[0].requeuedJobs.size(),
              base.points.size() / 2);
}

TEST(DistHosts, AllHostsDeadFallsBackInProcess)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);
    const auto base = dse::explore(tr, cfg);

    DaemonProc::Options dopt;
    dopt.useCache = false;
    DaemonProc a(dopt);
    ASSERT_GT(a.port(), 0);
    const auto hosts = specsOf({&a});
    a.kill(SIGKILL);
    a.await();

    // Single (dead) host: the requeue has no surviving host, so the
    // coordinator runs every shard itself on one `local` lane.
    DistStats stats;
    const auto report =
        exploreDistributed(tr, cfg, hostsOnly(hosts), &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].host, hosts[0].label());
    ASSERT_EQ(stats.hostOf.size(), 2u);
    EXPECT_EQ(stats.hostOf.back(), "local");
    EXPECT_EQ(stats.jobs.back(), base.points.size());
}

TEST(DistHosts, FallbackResultsLandInTheRunCache)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig(tempCacheDir("hosts-fallback"), true);

    DaemonProc::Options dopt;
    dopt.useCache = false;
    DaemonProc a(dopt);
    ASSERT_GT(a.port(), 0);
    const auto hosts = specsOf({&a});
    a.kill(SIGKILL);
    a.await();

    // Every shard runs in-process against config.cacheDir, cold...
    const auto cold = exploreDistributed(tr, cfg, hostsOnly(hosts));
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, cold.points.size());

    // ...so a warm in-process rerun hits every job the fallback ran.
    const auto warm = dse::explore(tr, cfg);
    EXPECT_EQ(warm.cacheHits, warm.points.size());
    EXPECT_EQ(cold.toJson(), warm.toJson());
}

TEST(DistHosts, SigkillMidRunStillConverges)
{
    const auto tr = cgTrace();
    auto cfg = smallConfig("", false);
    cfg.grid.seeds = {1, 2}; // 8 jobs: enough runway for the kill
    const auto base = dse::explore(tr, cfg);

    DaemonProc::Options dopt;
    dopt.useCache = false;
    DaemonProc a(dopt), b(dopt);
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);

    // A real SIGKILL from outside, racing the sweep. Whichever side
    // of the race wins, the report bytes must not change; the failure
    // record appears exactly when the kill landed mid-shard.
    std::thread killer([&a] {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        a.kill(SIGKILL);
    });
    DistStats stats;
    const auto report = exploreDistributed(
        tr, cfg, hostsOnly(specsOf({&a, &b})), &stats);
    killer.join();

    EXPECT_EQ(base.toJson(), report.toJson());
    for (const auto &f : stats.failures)
        EXPECT_EQ(f.host, a.hostSpec());
    EXPECT_EQ(a.await(), 128 + SIGKILL);
}

TEST(DistHosts, CancelTokenUnwindsAndDaemonsSurvive)
{
    const auto tr = cgTrace();
    auto cfg = smallConfig("", false);
    // Enough work that the deadline fires mid-run on any machine:
    // 3 degrees x 32 seeds x 2 VC counts = 192 jobs, several seconds
    // of work on a fast host. (Raising restarts adds nothing, since
    // the methodology stops after four feasible restarts.)
    cfg.grid.maxDegrees = {4, 5, 6};
    cfg.grid.seeds.clear();
    for (std::uint64_t s = 1; s <= 32; ++s)
        cfg.grid.seeds.push_back(s);
    cfg.grid.restarts = {8};

    DaemonProc::Options dopt;
    dopt.useCache = false;
    DaemonProc a(dopt), b(dopt);
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);

    CancelToken token;
    cfg.cancel = &token;
    token.setDeadlineIn(250'000); // 250 ms

    EXPECT_THROW(
        exploreDistributed(tr, cfg, hostsOnly(specsOf({&a, &b}))),
        CancelledError);

    // The daemons outlive their cancelled client: the dropped
    // connections Disconnect-cancel the in-flight jobs, and both
    // daemons still drain gracefully on SIGTERM.
    EXPECT_EQ(::kill(a.pid(), 0), 0);
    EXPECT_EQ(::kill(b.pid(), 0), 0);
    EXPECT_EQ(a.terminate(), 0);
    EXPECT_EQ(b.terminate(), 0);
}

TEST(DistHosts, CancelTokenUnwindsASendToADeafHost)
{
    const auto tr = paddedTrace();
    auto cfg = fourShardConfig();
    DeafListener deaf;
    ASSERT_GT(deaf.port(), 0);

    // The default activity timeout is ten minutes; only the token can
    // end this send in time.
    CancelToken token;
    cfg.cancel = &token;
    token.setDeadlineIn(1'000'000); // 1 s
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(exploreDistributed(tr, cfg, hostsOnly({deaf.host()})),
                 CancelledError);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(10));
}

TEST(DistHosts, DeafHostTimesOutAndFallsBackInProcess)
{
    const auto tr = paddedTrace();
    const auto cfg = fourShardConfig();
    const auto base = dse::explore(tr, cfg);
    DeafListener deaf;
    ASSERT_GT(deaf.port(), 0);

    auto opt = hostsOnly({deaf.host()});
    opt.workerTimeoutMs = 1'000;
    DistStats stats;
    const auto report = exploreDistributed(tr, cfg, opt, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].host, deaf.host().label());
    EXPECT_EQ(stats.failures[0].reason, "timeout");
    EXPECT_EQ(stats.failures[0].requeuedJobs.size(), base.points.size());
    ASSERT_EQ(stats.hostOf.back(), "local");
    EXPECT_EQ(stats.jobs.back(), base.points.size());
}

TEST(DistHosts, OutOfWireRangeValueIsRefusedBeforeDispatch)
{
    // An in-process run takes a reconfiguration cost or a seed past the
    // wire's bounds; a --hosts run refuses it with the daemon's own
    // message before any host is contacted, so no host is marked failed.
    DaemonProc::Options dopt;
    dopt.useCache = false;
    DaemonProc a(dopt), b(dopt);
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);
    const auto opt = hostsOnly(specsOf({&a, &b}));
    DistStats stats;
    const auto expectRefused = [&](const auto &run,
                                   const std::string &why) {
        try {
            run();
            ADD_FAILURE() << "dispatched: " << why;
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "dist: the serve wire cannot carry this config: " +
                          why);
        }
        EXPECT_TRUE(stats.failures.empty());
        EXPECT_EQ(stats.workers, 0u);
    };

    const auto tr = cgTrace();
    auto cfg = smallConfig("", false);
    cfg.phaseReconfigCost = 2'000'000'000;
    EXPECT_NO_THROW(dse::explore(tr, cfg));
    const auto explore = [&] { exploreDistributed(tr, cfg, opt, &stats); };
    expectRefused(explore, "'reconfig_cost' must be an integer in [0, 1e9]");
    // 2^53 + 2 is past the seeds' bound; 2^53 + 1 is within it as a
    // double but would reach the daemons as 2^53.
    cfg = smallConfig("", false);
    cfg.grid.seeds = {1, (1ull << 53) + 2};
    expectRefused(explore, "'seeds' must be a non-empty array of "
                           "non-negative integers");
    cfg.grid.seeds = {(1ull << 53) + 1};
    expectRefused(explore, "a seed above 2^53 reads back rounded");

    const auto shift = trace::phaseShift(
        {trace::Pattern::Neighbor, trace::Pattern::Transpose});
    phase::PhaseEvalConfig pcfg;
    pcfg.methodology.restarts = 2;
    pcfg.threads = 1;
    pcfg.reconfigCost = 2'000'000'000;
    EXPECT_NO_THROW(phase::evaluatePhases(shift, pcfg));
    const auto phases = [&] {
        evaluatePhasesDistributed(shift, pcfg, opt, &stats);
    };
    expectRefused(phases, "'reconfig_cost' must be an integer in [0, 1e9]");
    pcfg.reconfigCost = 0;
    pcfg.methodology.partitioner.seed = (1ull << 53) + 1;
    expectRefused(phases, "a seed above 2^53 reads back rounded");

    // Both daemons still take the next sweep.
    const auto base = dse::explore(tr, smallConfig("", false));
    const auto report =
        exploreDistributed(tr, smallConfig("", false), opt, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    EXPECT_TRUE(stats.failures.empty());
}

TEST(DistHostsPhases, ByteIdenticalToInProcessEvaluation)
{
    const auto tr = trace::phaseShift({trace::Pattern::Neighbor,
                                       trace::Pattern::Transpose,
                                       trace::Pattern::Hotspot});
    phase::PhaseEvalConfig cfg;
    cfg.methodology.partitioner.constraints.maxDegree = 5;
    cfg.methodology.restarts = 4;
    cfg.threads = 1;

    const auto base = phase::evaluatePhases(tr, cfg);

    DaemonProc::Options dopt;
    dopt.useCache = false;
    DaemonProc a(dopt), b(dopt);
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);

    DistStats stats;
    const auto report = evaluatePhasesDistributed(
        tr, cfg, hostsOnly(specsOf({&a, &b})), &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    std::uint64_t jobs = 0;
    for (const auto n : stats.jobs)
        jobs += n;
    EXPECT_EQ(jobs, report.phases.size());
    EXPECT_TRUE(stats.failures.empty());
}

TEST(DistHostsPhases, CrashedDaemonStillYieldsIdenticalReport)
{
    const auto tr = trace::phaseShift(
        {trace::Pattern::Neighbor, trace::Pattern::Transpose,
         trace::Pattern::Hotspot});
    phase::PhaseEvalConfig cfg;
    cfg.methodology.partitioner.constraints.maxDegree = 5;
    cfg.methodology.restarts = 2;
    cfg.threads = 1;

    const auto base = phase::evaluatePhases(tr, cfg);

    DaemonProc::Options armed;
    armed.useCache = false;
    armed.env = {{"MINNOC_DIST_TEST_CRASH", "serve"}};
    armed.threads = 1; // the hook needs one request at a time
    DaemonProc::Options clean;
    clean.useCache = false;
    DaemonProc a(armed), b(clean);
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);

    DistStats stats;
    const auto report = evaluatePhasesDistributed(
        tr, cfg, hostsOnly(specsOf({&a, &b})), &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].host, a.hostSpec());
}

TEST(DistHostsPhases, AllHostsDeadFallsBackInProcess)
{
    const auto tr = trace::phaseShift({trace::Pattern::Neighbor,
                                       trace::Pattern::Transpose,
                                       trace::Pattern::Hotspot});
    phase::PhaseEvalConfig cfg;
    cfg.methodology.partitioner.constraints.maxDegree = 5;
    cfg.methodology.restarts = 2;
    cfg.threads = 1;

    const auto base = phase::evaluatePhases(tr, cfg);

    DaemonProc::Options dopt;
    dopt.useCache = false;
    DaemonProc a(dopt), b(dopt);
    ASSERT_GT(a.port(), 0);
    ASSERT_GT(b.port(), 0);
    const auto hosts = specsOf({&a, &b});
    a.kill(SIGKILL);
    b.kill(SIGKILL);
    a.await();
    b.await();

    DistStats stats;
    const auto report =
        evaluatePhasesDistributed(tr, cfg, hostsOnly(hosts), &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    EXPECT_EQ(stats.failures.size(), 2u);
    ASSERT_EQ(stats.hostOf.back(), "local");
    EXPECT_EQ(stats.jobs.back(), report.phases.size());
}

namespace {

/** One request/reply round trip on a fresh connection. */
std::optional<serve::Reply>
roundTripLine(const HostSpec &host, const std::string &line)
{
    std::string err;
    const int fd = connectHost(host, err, 2);
    if (fd < 0)
        return std::nullopt;
    // This helper blocks for its one reply.
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) & ~O_NONBLOCK);
    std::optional<serve::Reply> reply;
    const std::string out = line + "\n";
    if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(out.size())) {
        std::string buf;
        char c = 0;
        while (::read(fd, &c, 1) == 1 && c != '\n')
            buf.push_back(c);
        reply = serve::parseReply(buf);
    }
    ::close(fd);
    return reply;
}

} // namespace

TEST(DistHostsProtocol, DaemonSurvivesHostileDseShardLines)
{
    DaemonProc::Options dopt;
    dopt.useCache = false;
    DaemonProc d(dopt);
    ASSERT_GT(d.port(), 0);
    const auto host = parseHostList(d.hostSpec())[0];

    const std::string hostiles[] = {
        // Garbage bytes.
        "not json at all",
        // Truncated object.
        "{\"id\": \"x\", \"cmd\": \"dse_shard\", \"sig",
        // Missing mandatory sig.
        "{\"id\": \"x\", \"cmd\": \"dse_shard\", \"trace\": \"t\"}",
        // Out-of-range attempt.
        "{\"id\": \"x\", \"cmd\": \"dse_shard\", \"trace\": \"t\","
        " \"sig\": \"s\", \"attempt\": 7}",
        // Misplaced scalar of design/phases/phase_job.
        "{\"id\": \"x\", \"cmd\": \"dse_shard\", \"trace\": \"t\","
        " \"sig\": \"s\", \"max_degree\": 4}",
        // Well-formed request whose trace bytes are garbage: the
        // compute-side fatal must come back structured, not kill the
        // daemon.
        "{\"id\": \"x\", \"cmd\": \"dse_shard\", \"trace\": \"t\","
        " \"sig\": \"s\"}",
        // Oversized line: rejected at the framing layer.
        "{\"id\": \"x\", \"cmd\": \"dse_shard\", \"pad\": \"" +
            std::string(serve::kMaxRequestBytes + 1, 'a') + "\"}",
    };
    for (const auto &line : hostiles) {
        const auto reply = roundTripLine(host, line);
        ASSERT_TRUE(reply.has_value())
            << "no structured reply for a "
            << line.size() << "-byte hostile line";
        EXPECT_FALSE(reply->ok);
        EXPECT_FALSE(reply->code.empty());
        EXPECT_FALSE(reply->message.empty());
    }

    // After everything above the daemon still answers health checks
    // and still drains gracefully.
    const auto pong =
        roundTripLine(host, "{\"id\": \"p\", \"cmd\": \"ping\"}");
    ASSERT_TRUE(pong.has_value());
    EXPECT_TRUE(pong->ok);
    EXPECT_EQ(d.terminate(), 0);
}

TEST(DistHostsProtocol, StatusReportsJobCounters)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);

    DaemonProc::Options dopt;
    dopt.useCache = false;
    DaemonProc d(dopt);
    ASSERT_GT(d.port(), 0);
    const auto hosts = specsOf({&d});

    (void)exploreDistributed(tr, cfg, hostsOnly(hosts));

    const auto status =
        roundTripLine(hosts[0], "{\"id\": \"s\", \"cmd\": \"status\"}");
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->ok);
    EXPECT_NE(status->result.find("\"dse_jobs\": 4"),
              std::string::npos)
        << status->result;
    EXPECT_NE(status->result.find("\"job_cache_hits\""),
              std::string::npos);
    EXPECT_EQ(d.terminate(), 0);
}

TEST(DistHostsParse, HostListParsing)
{
    EXPECT_TRUE(parseHostList("").empty());
    const auto one = parseHostList("127.0.0.1:8841");
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].host, "127.0.0.1");
    EXPECT_EQ(one[0].port, 8841);
    EXPECT_EQ(one[0].label(), "127.0.0.1:8841");

    const auto two = parseHostList("localhost:1,[::1]:65535");
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0].host, "localhost");
    EXPECT_EQ(two[0].port, 1);
    EXPECT_EQ(two[1].host, "[::1]");
    EXPECT_EQ(two[1].port, 65535);
}
