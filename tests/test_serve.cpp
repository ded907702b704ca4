/**
 * @file
 * End-to-end tests for the `minnoc serve` daemon: the robustness
 * properties the server header promises, each exercised over a real
 * socket against a live in-process Server.
 *
 *  - Responses are byte-identical to the CLI pipeline's output for the
 *    same trace and parameters, whether served cold, warm via the
 *    in-memory LRU, or warm via the on-disk DSE cache (a second server
 *    instance sharing the cache directory).
 *  - A request whose deadline has expired is cancelled and answered
 *    with a structured `timeout` error, never computed to completion.
 *  - `phases` runs on the daemon's shared inner pool, byte-identical to
 *    the CLI even with another `phases` request beside it, and a
 *    deadline cancels it.
 *  - A daemon on a one-thread pool still answers requests whose
 *    restarts and phase rows nest on that pool.
 *  - N concurrent identical submissions trigger exactly one
 *    computation and all receive byte-identical responses, and a
 *    request differing in any field that changes the result misses
 *    the response LRU.
 *  - Admission control rejects work past the queue high-water mark
 *    with `queue_full` while the daemon keeps answering `ping`.
 *  - stop() drains in-flight work: a response already being computed
 *    is delivered before the listener goes away.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "core/design_io.hpp"
#include "core/methodology.hpp"
#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "trace/synthetic.hpp"
#include "util/json.hpp"

using namespace minnoc;
using namespace minnoc::serve;

namespace {

/** The request id @p prefix followed by @p i, such as "w3". */
std::string
requestId(char prefix, int i)
{
    std::string id(1, prefix);
    id += std::to_string(i);
    return id;
}

std::string
traceText(trace::Benchmark bench, std::uint32_t ranks)
{
    trace::NasConfig cfg;
    cfg.ranks = ranks;
    cfg.iterations = 1;
    cfg.seed = 1;
    const auto tr = trace::generateBenchmark(bench, cfg);
    std::ostringstream os;
    tr.save(os);
    return os.str();
}

trace::Trace
loadTrace(const std::string &text)
{
    std::istringstream in(text);
    return trace::Trace::load(in);
}

std::string
tempPath(const char *leaf)
{
    const auto p = std::filesystem::path(::testing::TempDir()) / leaf;
    std::filesystem::remove_all(p);
    return p.string();
}

/** `design` request mirroring the CLI defaults except restarts. */
std::string
designRequest(const std::string &id, const std::string &trace,
              std::uint32_t restarts, std::int64_t deadlineMs = 0,
              std::uint64_t seed = 1)
{
    std::ostringstream os;
    os << "{\"id\": \"" << id << "\", \"cmd\": \"design\", \"trace\": \""
       << json::escape(trace) << "\", \"restarts\": " << restarts
       << ", \"seed\": " << seed;
    if (deadlineMs > 0)
        os << ", \"deadline_ms\": " << deadlineMs;
    os << "}";
    return os.str();
}

/** A @p cmd request on @p trace with the extra JSON @p fields. */
std::string
request(const char *cmd, const std::string &id, const std::string &trace,
        const std::string &fields)
{
    return "{\"id\": \"" + id + "\", \"cmd\": \"" + cmd +
           "\", \"trace\": \"" + json::escape(trace) + "\", " + fields +
           "}";
}

/** Small 2-job `explore` request (degrees {4,5}, restarts 2). */
std::string
exploreRequest(const std::string &id, const std::string &trace,
               std::int64_t deadlineMs = 0)
{
    std::ostringstream os;
    os << "{\"id\": \"" << id
       << "\", \"cmd\": \"explore\", \"trace\": \"" << json::escape(trace)
       << "\", \"degrees\": [4, 5], \"restarts\": [2], \"vcs\": [2]"
       << ", \"unidirectional\": [0]";
    if (deadlineMs > 0)
        os << ", \"deadline_ms\": " << deadlineMs;
    os << "}";
    return os.str();
}

/** What the CLI (and therefore the daemon) must produce for design. */
std::string
expectedDesign(const std::string &traceStr, std::uint32_t restarts,
               std::uint64_t seed = 1)
{
    const auto tr = loadTrace(traceStr);
    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = 5;
    mcfg.restarts = restarts;
    mcfg.partitioner.seed = seed;
    const auto outcome =
        core::runMethodology(trace::analyzeByCall(tr), mcfg);
    std::ostringstream os;
    core::saveDesign(outcome.design, os);
    return os.str();
}

/** What the CLI must produce for the exploreRequest() grid. */
std::string
expectedExplore(const std::string &traceStr, const std::string &cacheDir)
{
    const auto tr = loadTrace(traceStr);
    dse::ExploreConfig cfg;
    cfg.grid.maxDegrees = {4, 5};
    cfg.grid.restarts = {2};
    cfg.grid.seeds = {1};
    cfg.grid.vcs = {2};
    cfg.grid.unidirectional = {0};
    cfg.threads = 1;
    cfg.cacheDir = cacheDir;
    return dse::explore(tr, cfg).toJson();
}

/** A three-epoch phase-shift trace (neighbor, transpose, hotspot). */
std::string
phaseShiftText()
{
    const auto tr = trace::phaseShift({trace::Pattern::Neighbor,
                                       trace::Pattern::Transpose,
                                       trace::Pattern::Hotspot});
    std::ostringstream os;
    tr.save(os);
    return os.str();
}

/** `phases` request at the daemon's defaults except restarts 2. */
std::string
phasesRequest(const std::string &id, const std::string &trace,
              std::uint64_t seed, std::int64_t deadlineMs = 0)
{
    std::ostringstream os;
    os << "{\"id\": \"" << id << "\", \"cmd\": \"phases\", \"trace\": \""
       << json::escape(trace) << "\", \"restarts\": 2, \"seed\": " << seed;
    if (deadlineMs > 0)
        os << ", \"deadline_ms\": " << deadlineMs;
    os << "}";
    return os.str();
}

/** What the CLI must produce for phasesRequest(). */
std::string
expectedPhases(const std::string &traceStr, std::uint64_t seed)
{
    phase::PhaseEvalConfig cfg;
    cfg.methodology.partitioner.constraints.maxDegree = 5;
    cfg.methodology.restarts = 2;
    cfg.methodology.partitioner.seed = seed;
    cfg.threads = 1;
    return phase::evaluatePhases(loadTrace(traceStr), cfg).toJson();
}

Reply
roundTrip(Client &client, const std::string &request)
{
    EXPECT_TRUE(client.sendLine(request));
    const auto line = client.recvLine();
    EXPECT_TRUE(line.has_value()) << "no response to: " << request;
    if (!line)
        return {};
    const auto reply = parseReply(*line);
    EXPECT_TRUE(reply.has_value()) << "unparseable reply: " << *line;
    return reply.value_or(Reply{});
}

/** A Server bound to a fresh unix socket, torn down with the test. */
struct LiveServer
{
    std::string socketPath;
    std::unique_ptr<Server> server;

    explicit LiveServer(const char *leaf,
                        ServerConfig config = ServerConfig{})
    {
        socketPath = tempPath((std::string(leaf) + ".sock").c_str());
        config.socketPath = socketPath;
        if (config.cacheDir.empty())
            config.cacheDir =
                tempPath((std::string(leaf) + ".cache").c_str());
        server = std::make_unique<Server>(std::move(config));
        std::string error;
        if (!server->start(error))
            ADD_FAILURE() << "server failed to start: " << error;
    }

    ~LiveServer()
    {
        if (server)
            server->stop();
    }

    Client
    client() const
    {
        Client c;
        EXPECT_TRUE(c.connectUnix(socketPath));
        return c;
    }

    double
    counter(const std::string &name) const
    {
        return server->metrics().counter(name).value();
    }
};

} // namespace

TEST(Serve, TcpListenerAnswersPingAndStatus)
{
    ServerConfig cfg;
    cfg.port = 0; // ephemeral
    Server server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_GT(server.boundPort(), 0);

    Client client;
    ASSERT_TRUE(client.connectTcp(server.boundPort()));
    const auto pong =
        roundTrip(client, "{\"id\": \"p1\", \"cmd\": \"ping\"}");
    EXPECT_TRUE(pong.ok);
    EXPECT_EQ(pong.id, "p1");
    EXPECT_EQ(pong.result, "pong");

    const auto status =
        roundTrip(client, "{\"id\": \"s1\", \"cmd\": \"status\"}");
    EXPECT_TRUE(status.ok);
    EXPECT_NE(status.result.find("\"queue_depth\""), std::string::npos);
    EXPECT_NE(status.result.find("\"in_flight\""), std::string::npos);
    EXPECT_NE(status.result.find("\"cache_hit_ratio\""),
              std::string::npos);

    server.stop();
}

TEST(Serve, MalformedInputGetsStructuredErrorsAndDaemonSurvives)
{
    LiveServer live("serve-errors");
    auto client = live.client();

    // Not JSON at all.
    auto r = roundTrip(client, "{nonsense");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, "parse_error");

    // Well-formed JSON, unknown knob: fail fast, not silently ignore.
    r = roundTrip(client,
                  "{\"id\": \"u1\", \"cmd\": \"design\", "
                  "\"trace\": \"x\", \"bogus_knob\": 1}");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, "validation_error");
    EXPECT_EQ(r.id, "u1");

    // Valid request whose trace bytes are garbage: the pipeline's
    // fatal() is converted to a structured error, not a dead daemon.
    r = roundTrip(client,
                  "{\"id\": \"t1\", \"cmd\": \"design\", "
                  "\"trace\": \"not a trace\"}");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, "validation_error");
    EXPECT_EQ(r.id, "t1");

    // The daemon is still healthy.
    const auto pong =
        roundTrip(client, "{\"id\": \"p\", \"cmd\": \"ping\"}");
    EXPECT_TRUE(pong.ok);
    EXPECT_EQ(live.counter("serve/errors_parse_error"), 1.0);
    EXPECT_EQ(live.counter("serve/errors_validation_error"), 2.0);
}

TEST(Serve, DesignByteIdenticalToCliColdAndWarm)
{
    const auto trace = traceText(trace::Benchmark::CG, 8);
    const auto expected = expectedDesign(trace, 2);

    LiveServer live("serve-design");
    auto client = live.client();

    const auto cold = roundTrip(client, designRequest("c", trace, 2));
    ASSERT_TRUE(cold.ok) << cold.code << ": " << cold.message;
    EXPECT_EQ(cold.result, expected);
    EXPECT_EQ(live.counter("serve/computations"), 1.0);

    // Second identical request is served from the response LRU —
    // exact same bytes, no second computation.
    const auto warm = roundTrip(client, designRequest("w", trace, 2));
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.result, expected);
    EXPECT_EQ(live.counter("serve/computations"), 1.0);
}

TEST(Serve, DesignKeepsSeedsBeyond32Bits)
{
    const auto trace = traceText(trace::Benchmark::CG, 8);
    constexpr std::uint64_t kWide = (1ull << 32) + 1;
    const auto narrow = expectedDesign(trace, 2, 1);
    const auto wide = expectedDesign(trace, 2, kWide);
    ASSERT_NE(narrow, wide); // the seeds differ only above bit 31

    LiveServer live("serve-wide-seed");
    auto client = live.client();
    const auto reply =
        roundTrip(client, designRequest("s", trace, 2, 0, kWide));
    ASSERT_TRUE(reply.ok) << reply.code << ": " << reply.message;
    EXPECT_EQ(reply.result, wide);
}

TEST(Serve, ExploreByteIdenticalAcrossAllThreeTiers)
{
    const auto trace = traceText(trace::Benchmark::CG, 8);
    const auto expected =
        expectedExplore(trace, tempPath("serve-explore-ref.cache"));

    const auto sharedCache = tempPath("serve-explore.cache");
    ServerConfig cfg;
    cfg.cacheDir = sharedCache;
    std::string coldPayload;
    {
        LiveServer live("serve-explore-a", cfg);
        auto client = live.client();
        const auto cold =
            roundTrip(client, exploreRequest("c", trace));
        ASSERT_TRUE(cold.ok) << cold.code << ": " << cold.message;
        EXPECT_EQ(cold.result, expected); // cold == CLI
        coldPayload = cold.result;
        EXPECT_EQ(live.counter("serve/disk_cache_misses"), 2.0);

        // Warm via LRU within the same server.
        const auto lru = roundTrip(client, exploreRequest("l", trace));
        ASSERT_TRUE(lru.ok);
        EXPECT_EQ(lru.result, expected);
        EXPECT_EQ(live.counter("serve/computations"), 1.0);
    }

    // A fresh server (cold LRU) sharing the cache directory serves the
    // same bytes from disk: crash-safe warm restarts.
    LiveServer live("serve-explore-b", cfg);
    auto client = live.client();
    const auto disk = roundTrip(client, exploreRequest("d", trace));
    ASSERT_TRUE(disk.ok);
    EXPECT_EQ(disk.result, expected);
    EXPECT_EQ(disk.result, coldPayload);
    EXPECT_EQ(live.counter("serve/disk_cache_hits"), 2.0);
}

TEST(Serve, ExpiredDeadlineCancelsJobWithTimeoutError)
{
    const auto trace = traceText(trace::Benchmark::MG, 16);
    LiveServer live("serve-deadline");
    auto client = live.client();

    // A 1 ms deadline covers queue wait + compute; by the first
    // cooperative checkpoint it has expired.
    const auto r =
        roundTrip(client, exploreRequest("d1", trace, /*deadline*/ 1));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, "timeout");
    EXPECT_EQ(r.id, "d1");
    EXPECT_EQ(live.counter("serve/errors_timeout"), 1.0);

    // The daemon is healthy and fully quiesced afterwards.
    const auto pong =
        roundTrip(client, "{\"id\": \"p\", \"cmd\": \"ping\"}");
    EXPECT_TRUE(pong.ok);
}

TEST(Serve, PhasesOnSharedInnerPoolByteIdenticalToCli)
{
    const auto trace = phaseShiftText();
    ServerConfig cfg;
    cfg.innerThreads = 4;
    LiveServer live("serve-phases", cfg);

    // Two different requests at once: their monolithic restarts and
    // phase rows interleave on the one inner pool.
    std::vector<Reply> replies(2);
    {
        std::vector<std::jthread> wave;
        for (std::size_t i = 0; i < replies.size(); ++i) {
            wave.emplace_back([&, i] {
                auto client = live.client();
                replies[i] = roundTrip(
                    client, phasesRequest(requestId('p', i), trace,
                                          i + 1));
            });
        }
    }
    for (std::size_t i = 0; i < replies.size(); ++i) {
        ASSERT_TRUE(replies[i].ok)
            << replies[i].code << ": " << replies[i].message;
        EXPECT_EQ(replies[i].result, expectedPhases(trace, i + 1));
    }
}

TEST(Serve, ExpiredDeadlineCancelsPhasesWithTimeoutError)
{
    const auto trace = phaseShiftText();
    ServerConfig cfg;
    cfg.innerThreads = 2;
    LiveServer live("serve-phases-deadline", cfg);
    auto client = live.client();

    const auto r = roundTrip(client, phasesRequest("d1", trace, 1, 1));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, "timeout");
    EXPECT_EQ(r.id, "d1");

    // The inner pool holds nothing of the cancelled request.
    const auto ok = roundTrip(client, phasesRequest("d2", trace, 1));
    ASSERT_TRUE(ok.ok) << ok.code << ": " << ok.message;
    EXPECT_EQ(ok.result, expectedPhases(trace, 1));
}

TEST(Serve, NestedWorkOnOneThreadPoolMatchesCli)
{
    // Each request task waits on its own one-worker pool for its
    // restarts (and phase rows); only the helping wait lets it finish.
    ServerConfig cfg;
    cfg.innerThreads = 1;
    LiveServer live("serve-one-thread", cfg);
    auto client = live.client();

    const auto cg = traceText(trace::Benchmark::CG, 8);
    const auto design = roundTrip(client, designRequest("d", cg, 4));
    ASSERT_TRUE(design.ok) << design.code << ": " << design.message;
    EXPECT_EQ(design.result, expectedDesign(cg, 4));

    const auto shift = phaseShiftText();
    const auto phases = roundTrip(client, phasesRequest("p", shift, 1));
    ASSERT_TRUE(phases.ok) << phases.code << ": " << phases.message;
    EXPECT_EQ(phases.result, expectedPhases(shift, 1));
}

TEST(Serve, ChangingAnyResultFieldMissesTheLru)
{
    const auto trace = traceText(trace::Benchmark::CG, 8);
    LiveServer live("serve-lru-key");
    auto client = live.client();

    // Each request differs from the first of its command in one field.
    const std::vector<std::pair<const char *, std::string>> requests = {
        {"design", "\"restarts\": 2"},
        {"design", "\"restarts\": 2, \"max_degree\": 6"},
        {"design", "\"restarts\": 3"},
        {"design", "\"restarts\": 2, \"seed\": 2"},
        {"phases", "\"restarts\": 2"},
        {"phases", "\"restarts\": 2, \"window\": 32"},
        {"phases", "\"restarts\": 2, \"threshold\": 0.5"},
        {"phases", "\"restarts\": 2, \"min_phase_windows\": 3"},
        {"phases", "\"restarts\": 2, \"reconfig_cost\": 100"},
        {"phases", "\"restarts\": 2, \"power\": \"activity\""},
    };
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto &[cmd, fields] = requests[i];
        const auto r = roundTrip(
            client, request(cmd, std::to_string(i), trace, fields));
        ASSERT_TRUE(r.ok) << fields << ": " << r.code << ": " << r.message;
        EXPECT_EQ(live.counter("serve/computations"),
                  static_cast<double>(i + 1))
            << cmd << " " << fields;
    }

    // Asked again, every one of them is an LRU hit.
    for (const auto &[cmd, fields] : requests)
        ASSERT_TRUE(
            roundTrip(client, request(cmd, "again", trace, fields)).ok);
    EXPECT_EQ(live.counter("serve/computations"),
              static_cast<double>(requests.size()));
}

TEST(Serve, ConcurrentIdenticalSubmissionsComputeExactlyOnce)
{
    const auto trace = traceText(trace::Benchmark::MG, 16);
    ServerConfig cfg;
    cfg.innerThreads = 4;
    LiveServer live("serve-dedup", cfg);

    constexpr int kWave = 6;
    std::vector<Reply> replies(kWave);
    {
        std::vector<std::jthread> wave;
        wave.reserve(kWave);
        for (int i = 0; i < kWave; ++i) {
            wave.emplace_back([&, i] {
                auto client = live.client();
                replies[static_cast<std::size_t>(i)] = roundTrip(
                    client,
                    designRequest(requestId('w', i), trace, 2));
            });
        }
    }

    for (int i = 0; i < kWave; ++i) {
        ASSERT_TRUE(replies[static_cast<std::size_t>(i)].ok)
            << replies[static_cast<std::size_t>(i)].code;
        EXPECT_EQ(replies[static_cast<std::size_t>(i)].id,
                  requestId('w', i));
        EXPECT_EQ(replies[static_cast<std::size_t>(i)].result,
                  replies[0].result); // byte-identical fan-out
    }
    EXPECT_EQ(live.counter("serve/computations"), 1.0);
    EXPECT_EQ(live.counter("serve/responses_ok"),
              static_cast<double>(kWave));
}

TEST(Serve, AdmissionControlRejectsPastHighWaterMark)
{
    const auto trace = traceText(trace::Benchmark::MG, 16);
    ServerConfig cfg;
    cfg.innerThreads = 1;
    cfg.queueCapacity = 1;
    LiveServer live("serve-backpressure", cfg);
    auto client = live.client();

    // Occupy the pool's single worker with a request that outlasts the
    // pause below by far (the MG-16 grid can finish inside it, leaving
    // the flood a free worker and no queue to fill). Its deadline caps
    // how long it holds the worker on a slow build, such as a sanitized
    // one, so the flood request queued behind it still runs inside its
    // own default deadline; q0 itself may finish or time out.
    ASSERT_TRUE(client.sendLine(exploreRequest(
        "q0", traceText(trace::Benchmark::BT, 36), 5000)));
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    // ...then flood: one fits the queue, the rest must be rejected
    // immediately with queue_full (not stall, not queue unboundedly).
    constexpr int kFlood = 4;
    for (int i = 1; i <= kFlood; ++i)
        ASSERT_TRUE(client.sendLine(
            exploreRequest(requestId('q', i), trace)));

    // Replies come in completion order; match them by id.
    int ok = 0, queueFull = 0, occupying = 0;
    for (int i = 0; i <= kFlood; ++i) {
        const auto line = client.recvLine();
        ASSERT_TRUE(line.has_value());
        const auto reply = parseReply(*line);
        ASSERT_TRUE(reply.has_value());
        if (reply->id == "q0") {
            ++occupying;
            EXPECT_TRUE(reply->ok || reply->code == "timeout")
                << "unexpected reply: " << *line;
        } else if (reply->ok) {
            ++ok;
        } else if (reply->code == "queue_full") {
            ++queueFull;
        } else {
            FAIL() << "unexpected reply: " << *line;
        }
    }
    EXPECT_EQ(occupying, 1);
    EXPECT_GE(queueFull, 1);
    EXPECT_GE(ok, 1);
    EXPECT_EQ(ok + queueFull, kFlood);

    // Health checks bypass the queue even under backpressure.
    const auto pong =
        roundTrip(client, "{\"id\": \"p\", \"cmd\": \"ping\"}");
    EXPECT_TRUE(pong.ok);
}

TEST(Serve, StopDrainsInFlightWorkBeforeTearingDown)
{
    const auto trace = traceText(trace::Benchmark::CG, 8);
    const auto expected = expectedDesign(trace, 2);

    LiveServer live("serve-drain");
    auto client = live.client();
    ASSERT_TRUE(client.sendLine(designRequest("d", trace, 2)));
    // Let the request reach a worker, then shut down mid-compute.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    live.server->stop();

    // The drain finished the job and delivered the response before
    // closing the connection.
    const auto line = client.recvLine();
    ASSERT_TRUE(line.has_value())
        << "drain dropped an in-flight response";
    const auto reply = parseReply(*line);
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->ok);
    EXPECT_EQ(reply->result, expected);

    // After the drain the socket is gone.
    EXPECT_FALSE(client.recvLine().has_value());
    Client again;
    EXPECT_FALSE(again.connectUnix(live.socketPath));
}
