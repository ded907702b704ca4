#include "coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <functional>
#include <numeric>
#include <optional>
#include <poll.h>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "dse/cache.hpp"
#include "phase/multi_design.hpp"
#include "remote.hpp"
#include "serve/jobwire.hpp"
#include "serve/protocol.hpp"
#include "trace/analyzer.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace minnoc::dist {

namespace {

using serve::WorkerMsg;

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
    /** Assigned jobs not yet resulted (dispatched or queued). */
    std::vector<std::uint32_t> pending;
    /** Assigned jobs not yet sent (dispatch window); ⊆ pending. */
    std::deque<std::uint32_t> unsent;
    std::uint32_t attempt = 1;
    std::int64_t lastActivityUs = 0;
    bool timedOut = false;
    std::string errorText; ///< "code: message" of the first failure
};

/**
 * One serve request line for one job, up to (not including) the
 * `deadline_ms` and `trace` fields, which runShards appends.
 */
using JobBuilder = std::function<std::string(std::uint32_t job,
                                             std::uint32_t attempt)>;
/** Run one job in-process, as a daemon would. */
using LocalRunner = std::function<WorkerMsg(std::uint32_t job)>;
using ResultHandler = std::function<void(const WorkerMsg &msg)>;

/**
 * Close every lane. Each daemon's reader sees EOF and
 * Disconnect-cancels the lane's in-flight jobs, so a Ctrl-C here
 * leaves no orphaned work on any host.
 */
void
closeAll(std::vector<Lane> &lanes)
{
    for (auto &w : lanes) {
        if (w.fd >= 0)
            ::close(w.fd);
        w.fd = -1;
    }
}

/**
 * Drive every lane to completion: send each lane its jobs as
 * `dse_job`/`phase_job` request lines (at most kWindow in flight),
 * poll the sockets, dispatch the result documents, close failed or
 * hung lanes and requeue their unfinished jobs (at most once per
 * shard) onto a surviving host. Jobs no host is left to take go to
 * @p runLocal, one at a time on a `local` lane, once every
 * connection is done. Throws CancelledError when @p cancel fires,
 * std::runtime_error when a shard fails twice.
 */
void
runShards(const std::vector<std::vector<std::uint32_t>> &shards,
          const DistOptions &options, const CancelToken *cancel,
          const std::string &traceText, const JobBuilder &makeJob,
          const LocalRunner &runLocal, const ResultHandler &onResult,
          DistStats &stats, obs::TraceEventLog *traceLog,
          const char *jobLabel)
{
    const std::int64_t timeoutMs =
        std::max<std::int64_t>(options.workerTimeoutMs, 1);
    const std::string traceJson = serve::jsonEscape(traceText);
    const auto &hosts = options.hosts;
    // A host that failed once is never retried: its replacement lane
    // must not inherit the same fault.
    std::vector<char> hostDead(hosts.size(), 0);

    std::vector<Lane> lanes;
    std::vector<std::uint32_t> local; ///< jobs for the in-process lane

    // The activity timeout doubles as the request deadline (within
    // the protocol's ceiling).
    const std::string deadlineField =
        ", \"deadline_ms\": " +
        std::to_string(std::min(timeoutMs, serve::kMaxDeadlineMs));
    const auto sendJob = [&](const Lane &w, std::uint32_t job) {
        const std::string line = makeJob(job, w.attempt) +
                                 deadlineField + ", \"trace\": \"" +
                                 traceJson + "\"}\n";
        return sendAll(w.fd, line);
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
     * Open a lane on hosts[hostIdx] and send the first kWindow jobs;
     * the rest queue in `unsent` and flow as results land, so a lane
     * always has work without a failure losing more than a window of
     * in-flight requests. A lane that cannot connect or send is left
     * born dead (fd == -1, errorText set) for the caller to route
     * through reap().
     */
    const auto addSlot = [&](const std::vector<std::uint32_t> &jobs,
                             std::uint32_t attempt, int hostIdx) {
        const auto &host = hosts[static_cast<std::size_t>(hostIdx)];
        const auto slot = openStatsRow(host.label());
        Lane w;
        w.fd = connectHost(host, w.errorText);
        if (w.fd < 0) // never a requeue target, even before its reap
            hostDead[static_cast<std::size_t>(hostIdx)] = 1;
        w.hostIdx = hostIdx;
        w.attempt = attempt;
        w.pending = jobs;
        w.unsent.assign(jobs.begin(), jobs.end());
        w.lastActivityUs = CancelToken::nowUs();
        const std::size_t window = std::min(jobs.size(), kWindow);
        for (std::size_t k = 0; k < window && w.fd >= 0; ++k) {
            if (!sendJob(w, w.unsent.front())) {
                w.errorText = "send " + host.label() + ": " +
                              std::strerror(errno);
                ::close(w.fd);
                w.fd = -1;
                break;
            }
            w.unsent.pop_front();
        }
        if (w.fd >= 0) {
            const int flags = ::fcntl(w.fd, F_GETFL, 0);
            ::fcntl(w.fd, F_SETFL, flags | O_NONBLOCK);
        }
        lanes.push_back(std::move(w));
        return slot;
    };

    // Close one lane, decide clean vs failed, requeue. std::function
    // so the born-dead replacement path can recurse (depth bounded by
    // the two-attempt cap).
    std::function<void(std::uint32_t)> reap =
        [&](std::uint32_t slot) {
        auto &w = lanes[slot];
        if (w.fd >= 0) {
            ::close(w.fd);
            w.fd = -1;
        }
        if (w.pending.empty() && w.errorText.empty() && !w.timedOut)
            return; // finished cleanly

        const std::string reason = w.timedOut ? "timeout"
                                   : !w.errorText.empty()
                                       ? w.errorText
                                       : "connection closed";

        // Lost work: results never arrive for dispatched-but-unfinished
        // jobs nor for the queued window tail (both are in pending).
        std::vector<std::uint32_t> lost = w.pending;
        std::sort(lost.begin(), lost.end());

        hostDead[static_cast<std::size_t>(w.hostIdx)] = 1;
        WorkerFailure failure;
        failure.worker = slot;
        failure.host = stats.hostOf[slot];
        failure.reason = reason;
        failure.requeuedJobs = lost;
        stats.failures.push_back(failure);
        warn("dist: host lane ", slot, " (", failure.host, ") failed (",
             reason, "), ", lost.size(), " job(s) to requeue");

        if (lost.empty())
            return; // every assigned job already landed; nothing lost
        if (w.attempt >= 2) {
            closeAll(lanes);
            throw std::runtime_error(
                "dist: shard failed twice (last: " + reason +
                "); aborting");
        }
        const auto nextAttempt = w.attempt + 1;
        w.pending.clear();
        w.unsent.clear();

        // Requeue onto the first surviving host, else keep the jobs
        // for the in-process lane — the run converges either way.
        const auto alive =
            std::find(hostDead.begin(), hostDead.end(), 0);
        if (alive == hostDead.end()) {
            local.insert(local.end(), lost.begin(), lost.end());
            return;
        }
        const auto fresh = addSlot(
            lost, nextAttempt,
            static_cast<int>(alive - hostDead.begin()));
        if (lanes[fresh].fd < 0)
            reap(fresh); // born dead (connect/send failed): recurse
    };

    // Book one result on @p slot and hand it to onResult.
    const auto book = [&](std::uint32_t slot, const WorkerMsg &msg) {
        ++stats.jobs[slot];
        if (msg.cached)
            ++stats.cacheHits[slot];
        stats.wallUsSum[slot] += msg.wallUs;
        if constexpr (obs::kEnabled) {
            if (traceLog) {
                const std::int64_t arrival = obs::wallMicros();
                traceLog->complete(
                    std::string(jobLabel) + " " +
                        std::to_string(msg.index),
                    obs::kPidDist, slot, arrival - msg.wallUs,
                    std::max<std::int64_t>(msg.wallUs, 1),
                    "\"cached\": " +
                        std::string(msg.cached ? "true" : "false"));
            }
        }
        onResult(msg);
    };

    // One result document. On a protocol violation errorText gets a
    // "protocol: " prefix and the lane is reaped.
    const auto dispatch = [&](std::uint32_t slot,
                              const WorkerMsg &msg) {
        auto &w = lanes[slot];
        w.lastActivityUs = CancelToken::nowUs();
        const auto it =
            std::find(w.pending.begin(), w.pending.end(), msg.index);
        if (it == w.pending.end()) {
            w.errorText = "protocol: unexpected result for job " +
                          std::to_string(msg.index);
            return;
        }
        w.pending.erase(it);
        book(slot, msg);
        // Keep the window full.
        if (!w.unsent.empty()) {
            if (sendJob(w, w.unsent.front()))
                w.unsent.pop_front();
            else
                w.errorText =
                    std::string("send: ") + std::strerror(errno);
        }
    };

    for (std::size_t i = 0; i < shards.size(); ++i) {
        if (i < hosts.size())
            addSlot(shards[i], 1, static_cast<int>(i));
        else
            local.insert(local.end(), shards[i].begin(),
                         shards[i].end());
    }
    // Route lanes that were born dead through the failure path now.
    // (pending nonempty distinguishes an unprocessed born-dead lane
    // from one reap() already requeued recursively.)
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(lanes.size()); ++i)
        if (lanes[i].fd < 0 && !lanes[i].errorText.empty() &&
            !lanes[i].pending.empty())
            reap(i);

    while (true) {
        if (cancel && cancel->cancelled()) {
            closeAll(lanes);
            throw CancelledError(cancel->reason());
        }

        std::vector<pollfd> fds;
        std::vector<std::uint32_t> slotOf;
        for (std::uint32_t i = 0; i < lanes.size(); ++i) {
            if (lanes[i].fd >= 0) {
                fds.push_back({lanes[i].fd, POLLIN, 0});
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
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const std::uint32_t slot = slotOf[k];
            auto &w = lanes[slot];
            if (w.fd < 0)
                continue; // already reaped this tick

            bool eof = false;
            char buf[65536];
            for (;;) {
                const ssize_t n = ::read(w.fd, buf, sizeof buf);
                if (n > 0) {
                    w.lineBuf.append(buf, static_cast<std::size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR)
                    continue;
                eof = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
                break;
            }

            // One serve reply per line; an ok reply wraps the job-wire
            // result document.
            std::size_t start = 0;
            while (w.errorText.empty()) {
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
                std::optional<WorkerMsg> msg;
                if (!reply)
                    w.errorText = "protocol: unparseable reply";
                else if (!reply->ok)
                    w.errorText = reply->code + ": " + reply->message;
                else if (!(msg = serve::parseWorkerMsg(reply->result,
                                                       err)))
                    w.errorText = "protocol: " + err;
                else
                    dispatch(slot, *msg);
            }
            w.lineBuf.erase(0, start);
            if (w.errorText.empty() &&
                w.lineBuf.size() > serve::kMaxRequestBytes)
                w.errorText = "protocol: oversized reply line";
            // An empty pending set is this lane's `done`.
            if (!w.errorText.empty() || eof || w.pending.empty())
                reap(slot);
        }

        // Hang detection: no result for the whole window.
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
    std::sort(local.begin(), local.end());
    const auto slot = openStatsRow("local");
    for (const auto job : local) {
        if (cancel && cancel->cancelled())
            throw CancelledError(cancel->reason());
        book(slot, runLocal(job));
    }
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
            oss << ", \"host\": \"" << serve::jsonEscape(hostOf[w])
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
            << ", \"host\": \"" << serve::jsonEscape(f.host)
            << "\", \"reason\": \"" << serve::jsonEscape(f.reason)
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
        for (const auto seed : config.grid.seeds)
            if (seed > (1ull << 53))
                fatal("dist: seed ", seed,
                      " exceeds the wire's exact integer range");

        std::vector<std::string> sigs(jobs.size());
        std::vector<std::string> keys(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            sigs[i] = dse::jobSignature(jobs[i], config);
            keys[i] = dse::jobKey(patternBytes, sigs[i]);
        }

        // Content-hash sharding: order jobs by cache key (ties by grid
        // index) and deal them round-robin, so shards are balanced to
        // ±1 job and the assignment depends only on workload content
        // and grid, never on timing.
        std::vector<std::uint32_t> order(jobs.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return keys[a] != keys[b] ? keys[a] < keys[b]
                                                : a < b;
                  });
        const auto n = std::max<std::size_t>(
            1, std::min(options.hosts.size(), jobs.size()));
        std::vector<std::vector<std::uint32_t>> shards(n);
        for (std::size_t k = 0; k < order.size(); ++k)
            shards[k % n].push_back(order[k]);
        for (auto &shard : shards)
            std::sort(shard.begin(), shard.end());

        // One `dse_job` per grid point. `cache_dir` never crosses the
        // socket: a daemon uses its own disk cache, the in-process
        // lane the run's.
        const auto makeJob = [&](std::uint32_t job,
                                 std::uint32_t attempt) {
            const auto &p = jobs[job];
            std::string out = "{\"id\": \"" + std::to_string(job) +
                              "\", \"cmd\": \"dse_job\"";
            out += ", \"attempt\": " + std::to_string(attempt);
            out += ", \"job_index\": " + std::to_string(job);
            out += ", \"sig\": \"" + serve::jsonEscape(sigs[job]) +
                   "\"";
            out += ", \"max_degree\": " + std::to_string(p.maxDegree);
            out += ", \"restarts\": " + std::to_string(p.restarts);
            out += ", \"seed\": " + std::to_string(p.seed);
            out += std::string(", \"unidirectional\": ") +
                   (p.unidirectional ? "1" : "0");
            out += ", \"vcs\": " + std::to_string(p.numVcs);
            out += ", \"vc_depth\": " + std::to_string(p.vcDepth);
            out += ", \"phase_window\": " +
                   std::to_string(p.phaseWindow);
            out += ", \"reconfig_cost\": " +
                   std::to_string(config.phaseReconfigCost);
            out += ", \"threshold\": " +
                   json::fmtDouble(config.phaseSegmenter.mergeThreshold);
            out += ", \"min_phase_windows\": " +
                   std::to_string(config.phaseSegmenter.minPhaseWindows);
            out += ", \"matrix_weight\": " +
                   json::fmtDouble(config.phaseSegmenter.matrixWeight);
            // Only off the default tier: static requests stay
            // byte-identical to what pre-power daemons accept.
            if (config.power.kind != topo::PowerModelKind::Static)
                out += std::string(", \"power\": \"") +
                       topo::powerModelKindName(config.power.kind) +
                       "\"";
            return out;
        };
        std::optional<core::CliqueSet> cliques;
        const auto runLocal = [&](std::uint32_t job) {
            if (!cliques) {
                cliques = trace::analyzeByCall(trace);
                cliques->prepareCaches();
            }
            return serve::runDseJob(trace, *cliques, job, jobs[job],
                                    config, keys[job], sigs[job]);
        };
        const auto onResult = [&](const WorkerMsg &msg) {
            dse::DsePoint pt;
            pt.params = jobs[msg.index];
            pt.metrics = msg.metrics;
            pt.fromCache = msg.cached;
            dse::recordJobPoint(config, msg.index, pt);
            report.points[msg.index] = std::move(pt);
        };
        runShards(shards, options, config.cancel, patternBytes, makeJob,
                  runLocal, onResult, stats, config.traceLog, "job");
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
    const phase::Segmentation seg =
        phase::segmentTrace(trace, config.segmenter);

    DistStats localStats;
    DistStats &stats = statsOut ? *statsOut : localStats;
    stats = DistStats{};

    // Whole-trace artifacts stay in-process: the monolithic and union
    // designs need the full workload, and the per-phase standalone
    // designs (the bulk of the work) never feed into them — see
    // DESIGN.md §5j.
    phase::MultiPhaseResult multi;
    {
        std::uint32_t threads =
            config.threads ? config.threads
                           : std::thread::hardware_concurrency();
        threads = std::max(threads, 1u);
        std::optional<ThreadPool> pool;
        if (threads > 1)
            pool.emplace(threads);
        multi = phase::synthesizeMultiPhase(
            trace, seg, config.methodology, pool ? &*pool : nullptr,
            /*withPhaseDesigns=*/false);
    }

    const auto nPhases = static_cast<std::uint32_t>(seg.phases.size());
    std::vector<phase::PhaseRowEval> rows(nPhases);
    if (nPhases > 0) {
        if (config.methodology.partitioner.seed > (1ull << 53))
            fatal("dist: seed ", config.methodology.partitioner.seed,
                  " exceeds the wire's exact integer range");
        std::ostringstream patternStream;
        trace.save(patternStream);
        const std::string traceText = patternStream.str();
        const std::string sig = serve::phasesSignature(config);

        const auto n = std::max<std::size_t>(
            1, std::min<std::size_t>(options.hosts.size(), nPhases));
        std::vector<std::vector<std::uint32_t>> shards(n);
        for (std::uint32_t p = 0; p < nPhases; ++p)
            shards[p % n].push_back(p);

        const auto makeJob = [&](std::uint32_t job,
                                 std::uint32_t attempt) {
            std::string out = "{\"id\": \"" + std::to_string(job) +
                              "\", \"cmd\": \"phase_job\"";
            out += ", \"attempt\": " + std::to_string(attempt);
            out += ", \"job_index\": " + std::to_string(job);
            out += ", \"sig\": \"" + serve::jsonEscape(sig) + "\"";
            out += ", \"window\": " +
                   std::to_string(config.segmenter.windowMessages);
            out += ", \"threshold\": " +
                   json::fmtDouble(config.segmenter.mergeThreshold);
            out += ", \"min_phase_windows\": " +
                   std::to_string(config.segmenter.minPhaseWindows);
            out += ", \"matrix_weight\": " +
                   json::fmtDouble(config.segmenter.matrixWeight);
            out += ", \"max_degree\": " +
                   std::to_string(config.methodology.partitioner
                                      .constraints.maxDegree);
            out += ", \"restarts\": " +
                   std::to_string(config.methodology.restarts);
            out += ", \"seed\": " +
                   std::to_string(config.methodology.partitioner.seed);
            out += ", \"reconfig_cost\": " +
                   std::to_string(config.reconfigCost);
            out += ", \"expected_phases\": " + std::to_string(nPhases);
            if (config.power.kind != topo::PowerModelKind::Static)
                out += std::string(", \"power\": \"") +
                       topo::powerModelKindName(config.power.kind) +
                       "\"";
            return out;
        };
        const auto runLocal = [&](std::uint32_t p) {
            const std::int64_t t0 = CancelToken::nowUs();
            WorkerMsg msg;
            msg.index = p;
            msg.isPhaseRow = true;
            msg.row = phase::evalPhaseStandalone(
                trace, seg, multi.cliques.standalone[p], p, config);
            msg.wallUs = CancelToken::nowUs() - t0;
            return msg;
        };
        const auto onResult = [&](const WorkerMsg &msg) {
            rows.at(msg.index) = msg.row;
        };
        runShards(shards, options, config.methodology.cancel, traceText,
                  makeJob, runLocal, onResult, stats, config.traceLog,
                  "phase");
    }

    auto report =
        phase::assemblePhaseReport(trace, config, seg, multi, rows);
    recordDistTelemetry(config.metrics, config.traceLog, stats);
    return report;
}

} // namespace minnoc::dist
