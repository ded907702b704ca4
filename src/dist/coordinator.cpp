#include "coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <numeric>
#include <optional>
#include <poll.h>
#include <sys/socket.h>
#include <sstream>
#include <unistd.h>

#include "dse/cache.hpp"
#include "remote.hpp"
#include "serve/jobwire.hpp"
#include "serve/protocol.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace minnoc::dist {

namespace {

using serve::WorkerMsg;
using serve::WorkerReply;

/** Scheduler tick; also the cancellation-polling period. */
constexpr int kPollMs = 100;
/** Requests kept in flight per lane (pipelined dispatch). */
constexpr std::size_t kWindow = 8;

/** One lane: a connection to a remote daemon. */
struct Lane
{
    int fd = -1;      ///< socket (non-blocking); -1 = closed
    int hostIdx = -1; ///< index into DistOptions::hosts
    std::string lineBuf; ///< NDJSON reply buffer
    /** Assigned requests not yet answered (dispatched or queued). */
    std::vector<std::uint32_t> pending;
    /** Assigned requests not yet begun (dispatch window); ⊆ pending. */
    std::deque<std::uint32_t> unsent;
    std::string out; ///< unwritten rest of the request line begun
    std::uint32_t attempt = 1;
    std::int64_t lastActivityUs = 0; ///< last reply or byte written
    bool timedOut = false;
    std::string errorText; ///< "code: message" of the first failure

    bool failed() const { return timedOut || !errorText.empty(); }
};

/**
 * Point @p req at request @p r: its id, job index and, for a shard,
 * its sub-grid and signature. Everything else is the run's.
 */
using RequestSetter =
    std::function<void(serve::Request &req, std::uint32_t r)>;
/** Run one request in-process, as a daemon would. */
using LocalRunner = std::function<WorkerReply(std::uint32_t r)>;
using ResultHandler = std::function<void(const WorkerMsg &msg)>;

/**
 * Refuse what the serve wire cannot carry before any host is
 * contacted: run @p req's line through the daemon's own parser, and
 * throw std::runtime_error with its message on an error, or when the
 * parsed request does not encode back to the same line. The line
 * carries a one-byte stand-in for the trace: lines differ only in
 * their field values, and parsing the trace once per shard would cost
 * shards x trace. (runShards sets the deadline, which is always in
 * range.)
 */
void
checkRequest(const serve::Request &req)
{
    const std::string refusal =
        "dist: the serve wire cannot carry this config: ";
    const auto line = serve::requestLine(req, "t");
    serve::RequestError error;
    const auto parsed = serve::parseRequest(line, error);
    if (!parsed)
        throw std::runtime_error(refusal + error.message);
    // Only the seeds are bounded at 2^53, where a double stops holding
    // every integer: 2^53 + 1 is in range but reads back as 2^53.
    if (serve::requestLine(*parsed, "t") != line)
        throw std::runtime_error(refusal +
                                 "a seed above 2^53 reads back rounded");
}

/**
 * Drive every lane to completion. @p requests lists the job indices
 * each request covers, in dealing order; they are dealt round-robin
 * over the hosts. Request r is sent as the line of @p req after
 * @p setRequest points it at r. Each lane sends its requests (at
 * most kWindow in flight) whenever its socket takes bytes, polls it,
 * dispatches the result documents, and is closed when it fails or
 * hangs (neither answers nor takes a byte for the activity timeout),
 * its unanswered requests requeued (at most once per shard) onto a
 * surviving host.
 * Requests no host is left to take go to @p runLocal, one at a time
 * on a `local` lane, once every connection is done. Throws
 * CancelledError when @p cancel fires, std::runtime_error when a
 * shard fails twice.
 */
void
runShards(const std::vector<std::vector<std::uint32_t>> &requests,
          const DistOptions &options, const CancelToken *cancel,
          serve::Request &req, const RequestSetter &setRequest,
          const LocalRunner &runLocal, const ResultHandler &onResult,
          DistStats &stats, obs::TraceEventLog *traceLog)
{
    const std::int64_t timeoutMs =
        std::max<std::int64_t>(options.workerTimeoutMs, 1);
    // The activity timeout doubles as the request deadline (within
    // the protocol's ceiling).
    req.deadlineMs = std::min(timeoutMs, serve::kMaxDeadlineMs);
    const std::string traceJson = json::escape(req.traceText);
    const auto &hosts = options.hosts;
    // A host that failed once is never retried: its replacement lane
    // must not inherit the same fault.
    std::vector<char> hostDead(hosts.size(), 0);

    std::vector<Lane> lanes;
    // However this function ends, close every lane: each daemon's
    // reader sees EOF and Disconnect-cancels the lane's in-flight
    // requests, so a Ctrl-C or an abort leaves no orphaned work on any
    // host.
    struct CloseLanes
    {
        explicit CloseLanes(std::vector<Lane> &l) : lanes(l) {}
        CloseLanes(const CloseLanes &) = delete;
        CloseLanes &operator=(const CloseLanes &) = delete;
        ~CloseLanes()
        {
            for (auto &w : lanes)
                if (w.fd >= 0)
                    ::close(w.fd);
        }
        std::vector<Lane> &lanes;
    } closeLanes(lanes);
    std::vector<std::uint32_t> local; ///< requests for the in-process lane

    // Write what the socket takes without blocking: the request line in
    // progress, then the next ones while fewer than kWindow are in
    // flight. A peer that stops reading leaves the rest in `out` for
    // the next POLLOUT and, past the timeout, gets the lane reaped.
    const auto pump = [&](Lane &w) {
        while (!w.failed()) {
            if (w.out.empty()) {
                if (w.unsent.empty() ||
                    w.pending.size() - w.unsent.size() >= kWindow)
                    return;
                setRequest(req, w.unsent.front());
                req.attempt = w.attempt;
                w.out = serve::requestLine(req, traceJson);
                w.unsent.pop_front();
            }
            const ssize_t n =
                ::send(w.fd, w.out.data(), w.out.size(), MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                if (errno != EAGAIN && errno != EWOULDBLOCK)
                    w.errorText =
                        "send " +
                        hosts[static_cast<std::size_t>(w.hostIdx)].label() +
                        ": " + std::strerror(errno);
                return;
            }
            w.lastActivityUs = CancelToken::nowUs();
            w.out.erase(0, static_cast<std::size_t>(n));
        }
    };

    const auto openStatsRow = [&](const std::string &label) {
        const auto slot = stats.workers++;
        stats.jobs.push_back(0);
        stats.cacheHits.push_back(0);
        stats.wallUsSum.push_back(0);
        stats.hostOf.push_back(label);
        if constexpr (obs::kEnabled) {
            if (traceLog)
                traceLog->threadName(obs::kPidDist, slot,
                                     label == "local" ? label
                                                      : "host " + label);
        }
        return slot;
    };

    /**
     * Open a lane on hosts[hostIdx] and start sending its first kWindow
     * requests; the rest queue in `unsent` and flow as results land, so
     * a lane always has work without a failure losing more than a
     * window of in-flight requests. A lane that cannot connect or send
     * is left failed() for the caller to route through reap().
     */
    const auto addSlot = [&](const std::vector<std::uint32_t> &assigned,
                             std::uint32_t attempt, int hostIdx) {
        const auto &host = hosts[static_cast<std::size_t>(hostIdx)];
        const auto slot = openStatsRow(host.label());
        auto &w = lanes.emplace_back();
        w.fd = connectHost(host, w.errorText);
        if (w.fd < 0) // never a requeue target, even before its reap
            hostDead[static_cast<std::size_t>(hostIdx)] = 1;
        w.hostIdx = hostIdx;
        w.attempt = attempt;
        w.pending = assigned;
        w.unsent.assign(assigned.begin(), assigned.end());
        w.lastActivityUs = CancelToken::nowUs();
        if (w.fd >= 0)
            pump(w);
        return slot;
    };

    // Close one lane, decide clean vs failed, requeue. std::function
    // so the failed-at-birth replacement path can recurse (depth
    // bounded by the two-attempt cap).
    std::function<void(std::uint32_t)> reap =
        [&](std::uint32_t slot) {
        auto &w = lanes[slot];
        if (w.fd >= 0) {
            ::close(w.fd);
            w.fd = -1;
        }
        if (w.pending.empty() && !w.failed())
            return; // finished cleanly

        const std::string reason = w.timedOut ? "timeout"
                                   : !w.errorText.empty()
                                       ? w.errorText
                                       : "connection closed";

        // Lost work: results never arrive for dispatched-but-unanswered
        // requests nor for the queued window tail (both are in pending).
        const std::vector<std::uint32_t> lost = w.pending;

        hostDead[static_cast<std::size_t>(w.hostIdx)] = 1;
        WorkerFailure failure;
        failure.worker = slot;
        failure.host = stats.hostOf[slot];
        failure.reason = reason;
        for (const auto r : lost)
            failure.requeuedJobs.insert(failure.requeuedJobs.end(),
                                        requests[r].begin(),
                                        requests[r].end());
        std::sort(failure.requeuedJobs.begin(), failure.requeuedJobs.end());
        warn("dist: host lane ", slot, " (", failure.host, ") failed (",
             reason, "), ", failure.requeuedJobs.size(),
             " job(s) to requeue");
        stats.failures.push_back(std::move(failure));

        if (lost.empty())
            return; // every assigned request already answered
        if (w.attempt >= 2)
            throw std::runtime_error("dist: shard failed twice (last: " +
                                     reason + "); aborting");
        const auto nextAttempt = w.attempt + 1;
        w.pending.clear();
        w.unsent.clear();

        // Requeue onto the first surviving host, else keep the requests
        // for the in-process lane — the run converges either way.
        const auto alive =
            std::find(hostDead.begin(), hostDead.end(), 0);
        if (alive == hostDead.end()) {
            local.insert(local.end(), lost.begin(), lost.end());
            return;
        }
        const auto fresh = addSlot(
            lost, nextAttempt, static_cast<int>(alive - hostDead.begin()));
        if (lanes[fresh].failed())
            reap(fresh); // failed at birth (connect/send): recurse
    };

    // Book one answered request on @p slot and hand its results to
    // onResult; the request's wall time is counted once.
    const auto book = [&](std::uint32_t slot, const WorkerReply &reply) {
        std::uint64_t hits = 0;
        for (const auto &msg : reply.results) {
            hits += msg.cached ? 1 : 0;
            onResult(msg);
        }
        stats.jobs[slot] += reply.results.size();
        stats.cacheHits[slot] += hits;
        stats.wallUsSum[slot] += reply.wallUs;
        if constexpr (obs::kEnabled) {
            if (traceLog) {
                const std::int64_t arrival = obs::wallMicros();
                traceLog->complete(
                    std::string(req.cmd == serve::Cmd::PhaseJob ? "phase "
                                                                : "shard ") +
                        std::to_string(reply.results.front().index),
                    obs::kPidDist, slot, arrival - reply.wallUs,
                    std::max<std::int64_t>(reply.wallUs, 1),
                    "\"jobs\": " + std::to_string(reply.results.size()) +
                        ", \"cache_hits\": " + std::to_string(hits));
            }
        }
    };

    // One result document. It must answer a pending request exactly,
    // the same job indices in the same order; otherwise errorText gets
    // a "protocol: " prefix and the lane is reaped.
    const auto dispatch = [&](std::uint32_t slot, const WorkerReply &reply) {
        auto &w = lanes[slot];
        w.lastActivityUs = CancelToken::nowUs();
        const auto it = std::find_if(
            w.pending.begin(), w.pending.end(), [&](std::uint32_t r) {
                return std::equal(
                    requests[r].begin(), requests[r].end(),
                    reply.results.begin(), reply.results.end(),
                    [](std::uint32_t job, const WorkerMsg &msg) {
                        return job == msg.index;
                    });
            });
        if (it == w.pending.end()) {
            w.errorText = "protocol: unexpected result for job " +
                          std::to_string(reply.results.front().index);
            return;
        }
        w.pending.erase(it);
        book(slot, reply);
        pump(w); // keep the window full
    };

    // Deal round-robin: request k goes to lane k % N, N = hosts
    // clamped to the request count.
    const auto n = std::max<std::size_t>(
        1, std::min(hosts.size(), requests.size()));
    std::vector<std::vector<std::uint32_t>> dealt(n);
    for (std::uint32_t r = 0; r < requests.size(); ++r)
        dealt[r % n].push_back(r);
    for (std::size_t i = 0; i < n; ++i) {
        if (i < hosts.size())
            addSlot(dealt[i], 1, static_cast<int>(i));
        else
            local.insert(local.end(), dealt[i].begin(), dealt[i].end());
    }
    // Route lanes that failed at birth through the failure path now.
    // (pending nonempty distinguishes an unprocessed one from one
    // reap() already requeued recursively.)
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(lanes.size()); ++i)
        if (lanes[i].failed() && !lanes[i].pending.empty())
            reap(i);

    while (true) {
        checkCancel(cancel);

        std::vector<pollfd> fds;
        std::vector<std::uint32_t> slotOf;
        for (std::uint32_t i = 0; i < lanes.size(); ++i) {
            const auto &w = lanes[i];
            if (w.fd >= 0) {
                fds.push_back({w.fd,
                               static_cast<short>(
                                   POLLIN | (w.out.empty() ? 0 : POLLOUT)),
                               0});
                slotOf.push_back(i);
            }
        }
        if (fds.empty())
            break;

        const int rc = ::poll(fds.data(),
                              static_cast<nfds_t>(fds.size()), kPollMs);
        if (rc < 0 && errno != EINTR)
            fatal("dist: poll: ", std::strerror(errno));

        for (std::size_t k = 0; k < fds.size(); ++k) {
            const std::uint32_t slot = slotOf[k];
            auto &w = lanes[slot];
            if (w.fd < 0)
                continue; // already reaped this tick
            if (fds[k].revents & POLLOUT)
                pump(w);
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) {
                if (w.failed())
                    reap(slot);
                continue;
            }

            bool eof = false;
            char buf[65536];
            for (;;) {
                const ssize_t got = ::read(w.fd, buf, sizeof buf);
                if (got > 0) {
                    w.lineBuf.append(buf, static_cast<std::size_t>(got));
                    continue;
                }
                if (got < 0 && errno == EINTR)
                    continue;
                eof = got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
                break;
            }

            // One serve reply per line; an ok reply to the command sent
            // wraps the job-wire result document of that command.
            std::size_t start = 0;
            while (!w.failed()) {
                const auto nl = w.lineBuf.find('\n', start);
                if (nl == std::string::npos)
                    break;
                const std::string line =
                    w.lineBuf.substr(start, nl - start);
                start = nl + 1;
                if (line.empty())
                    continue;
                const auto reply = serve::parseReply(line);
                std::string err;
                std::optional<WorkerReply> result;
                if (!reply)
                    w.errorText = "protocol: unparseable reply";
                else if (!reply->ok)
                    w.errorText = reply->code + ": " + reply->message;
                else if (reply->cmd != serve::cmdName(req.cmd))
                    w.errorText = "protocol: '" + reply->cmd +
                                  "' reply to a '" +
                                  serve::cmdName(req.cmd) + "' request";
                else if (!(result = serve::parseWorkerReply(
                               reply->result, req.cmd, err)))
                    w.errorText = "protocol: " + err;
                else
                    dispatch(slot, *result);
            }
            w.lineBuf.erase(0, start);
            if (!w.failed() && w.lineBuf.size() > serve::kMaxRequestBytes)
                w.errorText = "protocol: oversized reply line";
            // An empty pending set is this lane's `done`.
            if (w.failed() || eof || w.pending.empty())
                reap(slot);
        }

        // Hang detection: no reply and no byte taken for the timeout.
        const std::int64_t now = CancelToken::nowUs();
        for (std::uint32_t i = 0; i < lanes.size(); ++i) {
            auto &w = lanes[i];
            if (w.fd >= 0 && now - w.lastActivityUs > timeoutMs * 1000) {
                w.timedOut = true;
                reap(i);
            }
        }
    }

    if (local.empty())
        return;
    const auto slot = openStatsRow("local");
    for (const auto r : local) {
        checkCancel(cancel);
        book(slot, runLocal(r));
    }
}

/** One `dse_shard` request: grid indices [first, first + size). */
struct Shard
{
    std::uint32_t first = 0;
    std::uint32_t size = 0;
    dse::ExploreConfig config; ///< the run's, on the shard's sub-grid
};

/**
 * Cut @p config's grid (expanded as @p jobs) into shards, in grid
 * order. A shard is a run of points sharing one (degree, restarts,
 * seed) — expand() nests those outermost, so the run is contiguous —
 * and itself a cross-product sub-grid, which one dse::explore call
 * runs, sharing its methodology and evaluation stages. Phase-window
 * points share no work, and a run one request cannot carry
 * (serve::kMaxGridJobs points, serve::kMaxGridList values a list)
 * would be refused, so either grid is cut into one-point shards
 * instead, which spread over every host as its points would over
 * threads. The coordinator records every point's telemetry, so shards
 * get no sinks.
 */
std::vector<Shard>
splitShards(const dse::ExploreConfig &config,
            const std::vector<dse::JobParams> &jobs)
{
    const auto &grid = config.grid;
    const std::size_t run = grid.unidirectional.size() *
                            grid.vcs.size() * grid.phaseWindows.size();
    const bool whole =
        std::none_of(grid.phaseWindows.begin(), grid.phaseWindows.end(),
                     [](std::uint32_t w) { return w > 0; }) &&
        grid.unidirectional.size() <= serve::kMaxGridDirections &&
        grid.vcs.size() <= serve::kMaxGridList &&
        grid.phaseWindows.size() <= serve::kMaxGridList &&
        run <= serve::kMaxGridJobs;
    const auto size = static_cast<std::uint32_t>(whole ? run : 1);

    std::vector<Shard> shards;
    for (std::uint32_t first = 0; first < jobs.size(); first += size) {
        const auto &p = jobs[first];
        auto &shard = shards.emplace_back(Shard{first, size, config});
        shard.config.metrics = nullptr;
        shard.config.traceLog = nullptr;
        auto &g = shard.config.grid;
        g.maxDegrees = {p.maxDegree};
        g.restarts = {p.restarts};
        g.seeds = {p.seed};
        if (!whole) {
            g.unidirectional = {p.unidirectional};
            g.vcs = {p.numVcs};
            g.phaseWindows = {p.phaseWindow};
        }
    }
    return shards;
}

/** Post-run telemetry shared by both distributed entry points. */
void
recordDistTelemetry(obs::MetricsRegistry *metrics,
                    obs::TraceEventLog *traceLog, const DistStats &stats)
{
    if constexpr (obs::kEnabled) {
        if (metrics) {
            auto &m = *metrics;
            for (std::uint32_t w = 0; w < stats.workers; ++w) {
                const std::string prefix =
                    "dist/worker/" + std::to_string(w) + "/";
                m.counter(prefix + "jobs").add(stats.jobs[w]);
                m.counter(prefix + "cache_hits")
                    .add(stats.cacheHits[w]);
            }
            m.counter("dist/host_failures").add(stats.failures.size());
            m.gauge("dist/workers")
                .set(static_cast<double>(stats.workers));
        }
        if (traceLog)
            traceLog->processName(obs::kPidDist, "minnoc dist");
    }
}

} // namespace

std::string
DistStats::toJson(const std::string &task) const
{
    std::ostringstream oss;
    oss << "{\n"
        << "  \"report\": \"minnoc-dist-status\",\n"
        << "  \"task\": \"" << task << "\",\n"
        << "  \"workers\": " << workers << ",\n"
        << "  \"per_worker\": [\n";
    for (std::uint32_t w = 0; w < workers; ++w) {
        oss << "    {\"worker\": " << w;
        if (w < hostOf.size() && !hostOf[w].empty())
            oss << ", \"host\": \"" << json::escape(hostOf[w])
                << "\"";
        oss << ", \"jobs\": " << jobs[w]
            << ", \"cache_hits\": " << cacheHits[w]
            << ", \"wall_us\": " << wallUsSum[w] << "}"
            << (w + 1 < workers ? "," : "") << "\n";
    }
    oss << "  ],\n"
        << "  \"host_failed\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const auto &f = failures[i];
        oss << (i ? ", " : "") << "{\"worker\": " << f.worker
            << ", \"host\": \"" << json::escape(f.host)
            << "\", \"reason\": \"" << json::escape(f.reason)
            << "\", \"requeued_jobs\": [";
        for (std::size_t j = 0; j < f.requeuedJobs.size(); ++j)
            oss << (j ? ", " : "") << f.requeuedJobs[j];
        oss << "]}";
    }
    oss << "]\n}\n";
    return oss.str();
}

dse::ExploreReport
exploreDistributed(const trace::Trace &trace,
                   const dse::ExploreConfig &config,
                   const DistOptions &options, DistStats *statsOut)
{
    std::ostringstream patternStream;
    trace.save(patternStream);
    const std::string patternBytes = patternStream.str();

    const auto jobs = config.grid.expand();

    dse::ExploreReport report;
    report.pattern = trace.name();
    report.ranks = trace.numRanks();
    report.points.resize(jobs.size());

    DistStats localStats;
    DistStats &stats = statsOut ? *statsOut : localStats;
    stats = DistStats{};

    if (!jobs.empty()) {
        // Deal shards in the order of their first point's cache key
        // (ties by index), so the assignment depends only on workload
        // content and grid, never on timing.
        auto byIndex = splitShards(config, jobs);
        std::vector<std::pair<std::string, std::uint32_t>> dealing;
        for (std::uint32_t k = 0; k < byIndex.size(); ++k)
            dealing.emplace_back(
                dse::jobKey(patternBytes,
                            dse::jobSignature(jobs[byIndex[k].first],
                                              config)),
                k);
        std::sort(dealing.begin(), dealing.end());
        std::vector<std::vector<std::uint32_t>> shards;
        std::vector<dse::ExploreConfig> shardConfigs;
        for (const auto &[key, k] : dealing) {
            shardConfigs.push_back(std::move(byIndex[k].config));
            auto &shard = shards.emplace_back(byIndex[k].size);
            std::iota(shard.begin(), shard.end(), byIndex[k].first);
        }

        // One `dse_shard` per shard, its sub-grid in the explore grid
        // fields. `cache_dir` never crosses the socket: a daemon uses
        // its own disk cache, the in-process lane the run's.
        serve::Request req;
        req.cmd = serve::Cmd::DseShard;
        req.traceText = patternBytes;
        const auto setRequest = [&](serve::Request &q, std::uint32_t r) {
            q.id = std::to_string(r);
            q.jobIndex = shards[r].front();
            q.explore = shardConfigs[r];
            q.sig = serve::shardSignature(q.explore);
        };
        // Shards differ in their grid values, so every line is checked.
        for (std::uint32_t r = 0; r < shards.size(); ++r) {
            setRequest(req, r);
            checkRequest(req);
        }
        const auto runLocal = [&](std::uint32_t r) {
            return serve::runDseShard(trace, shardConfigs[r],
                                      shards[r].front(), nullptr);
        };
        const auto onResult = [&](const WorkerMsg &msg) {
            auto &pt = report.points[msg.index];
            pt.params = jobs[msg.index];
            pt.metrics = msg.metrics;
            pt.fromCache = msg.cached;
            dse::recordJobPoint(config, msg.index, pt);
        };
        runShards(shards, options, config.cancel, req, setRequest, runLocal,
                  onResult, stats, config.traceLog);
    }

    dse::finalizeReport(report, config);
    recordDistTelemetry(config.metrics, config.traceLog, stats);
    return report;
}

phase::PhaseReport
evaluatePhasesDistributed(const trace::Trace &trace,
                          const phase::PhaseEvalConfig &config,
                          const DistOptions &options, DistStats *statsOut)
{
    DistStats localStats;
    DistStats &stats = statsOut ? *statsOut : localStats;
    stats = DistStats{};

    std::ostringstream patternStream;
    trace.save(patternStream);
    serve::Request req;
    req.cmd = serve::Cmd::PhaseJob;
    req.traceText = patternStream.str();
    req.phases = config;
    req.sig = serve::phasesSignature(config);
    // Checked before the pipeline runs: the phase lines differ only in
    // their index and phase count, in range for any trace a line can
    // carry.
    checkRequest(req);

    // The hosts are the rows' lanes. The whole-trace half needs the
    // full workload, so it stays in-process beside the dispatch loop,
    // both on one pool of config.threads workers with every restart,
    // or inline, the whole-trace half first (DESIGN.md §5j).
    const auto pool = makePool(config.threads);
    const auto rows = [&](const phase::Segmentation &seg,
                          const phase::PhaseCliques &cliques) {
        const auto nPhases = static_cast<std::uint32_t>(seg.phases.size());
        std::vector<phase::PhaseRowEval> phaseRows(nPhases);
        if (nPhases == 0)
            return phaseRows;
        // One `phase_job` per phase, dealt in phase order.
        std::vector<std::vector<std::uint32_t>> requests(nPhases);
        for (std::uint32_t p = 0; p < nPhases; ++p)
            requests[p] = {p};

        req.expectedPhases = nPhases;
        const auto setRequest = [](serve::Request &q, std::uint32_t p) {
            q.id = std::to_string(p);
            q.jobIndex = p;
        };
        const auto runLocal = [&](std::uint32_t p) {
            const std::int64_t t0 = CancelToken::nowUs();
            WorkerReply reply;
            auto &msg = reply.results.emplace_back();
            msg.index = p;
            msg.row = phase::evalPhaseStandalone(
                trace, seg, cliques.standalone[p], p, config, pool.get());
            reply.wallUs = CancelToken::nowUs() - t0;
            return reply;
        };
        const auto onResult = [&](const WorkerMsg &msg) {
            phaseRows.at(msg.index) = msg.row;
        };
        runShards(requests, options, config.methodology.cancel, req,
                  setRequest, runLocal, onResult, stats, config.traceLog);
        return phaseRows;
    };

    auto report = phase::runPhasePipeline(trace, config, pool.get(), rows);
    recordDistTelemetry(config.metrics, config.traceLog, stats);
    return report;
}

} // namespace minnoc::dist
