#include "server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/design_io.hpp"
#include "core/methodology.hpp"
#include "dse/cache.hpp"
#include "dse/explorer.hpp"
#include "jobwire.hpp"
#include "phase/evaluator.hpp"
#include "phase/segmenter.hpp"
#include "trace/analyzer.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace minnoc::serve {

namespace {

/**
 * True when the dist test hook @p env is set to "serve", this is the
 * request's first dispatch attempt, and this server has already
 * completed a request — so the fault lands on the second request,
 * after the first result.
 */
bool
serveHookFires(const char *env, std::uint32_t attempt,
               std::uint64_t jobsDone)
{
    if (attempt != 1 || jobsDone == 0)
        return false;
    const char *v = std::getenv(env);
    return v && std::string(v) == "serve";
}

/** Simulated daemon crash / stalled socket, for the chaos tests. */
void
maybeInjectServeFault(std::uint32_t attempt, obs::MetricsRegistry &m)
{
    const auto jobsDone = m.counter("serve/dse_jobs").value() +
                          m.counter("serve/phase_jobs").value();
    if (serveHookFires("MINNOC_DIST_TEST_CRASH", attempt, jobsDone))
        ::_exit(42);
    if (serveHookFires("MINNOC_DIST_TEST_HANG", attempt, jobsDone)) {
        // Stop responding; only the coordinator's activity timeout
        // (or killing the daemon) ends this.
        for (;;)
            ::usleep(50'000);
    }
}

/** Best-effort id extraction for error responses to invalid lines. */
std::string
bestEffortId(const std::string &line)
{
    const auto v = json::parse(line);
    if (!v || !v->isObject())
        return "";
    if (const auto *id = v->find("id");
        id && id->isString() && id->asString().size() <= 256)
        return id->asString();
    return "";
}

/** Map a fired token onto the structured error it owes the client. */
std::pair<ErrorCode, const char *>
cancelError(CancelReason reason)
{
    switch (reason) {
      case CancelReason::Deadline:
        return {ErrorCode::Timeout, "deadline exceeded"};
      case CancelReason::Disconnect:
        return {ErrorCode::Cancelled, "client disconnected"};
      case CancelReason::Shutdown:
        return {ErrorCode::ShuttingDown, "server shutting down"};
      case CancelReason::None:
        break;
    }
    return {ErrorCode::Internal, "cancelled"};
}

/**
 * Bounded socket waits keep readers stop-aware (recv) and keep a
 * stalled client from pinning a worker forever (send).
 */
void
setSocketTimeouts(int fd)
{
    timeval rcv{0, 200'000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv, sizeof rcv);
    timeval snd{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof snd);
}

/**
 * Response-LRU key of a `design`, `explore` or `phases` request: the
 * command, the signature of the config it carries (the one the disk
 * cache and the drift guards trust), then the raw trace bytes, chained
 * through FNV-1a. Deadline and id never change the result.
 */
std::uint64_t
requestKey(const Request &req)
{
    std::string sig = cmdName(req.cmd);
    if (req.cmd == Cmd::Design)
        sig += '|' + req.phases.methodology.signature();
    else if (req.cmd == Cmd::Explore)
        sig += '|' + shardSignature(req.explore);
    else
        sig += '|' + phasesSignature(req.phases);
    return dse::fnv1a64(req.traceText, dse::fnv1a64(sig));
}

} // namespace

Server::Server(ServerConfig config)
    : _config(std::move(config)), _lru(_config.lruCapacity)
{
}

Server::~Server()
{
    if (_started.load())
        stop();
}

bool
Server::start(std::string &error)
{
    if (_started.exchange(true)) {
        error = "server already started";
        return false;
    }

    // Convert pipeline fatal()s (malformed traces, simulator aborts)
    // into exceptions for the daemon's lifetime: a request may fail,
    // the process may not.
    LogConfig::instance().fatalThrows(true);

    if (::pipe(_stopPipe) != 0) {
        error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }

    if (!_config.socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (_config.socketPath.size() >= sizeof addr.sun_path) {
            error = "socket path too long: " + _config.socketPath;
            return false;
        }
        std::strncpy(addr.sun_path, _config.socketPath.c_str(),
                     sizeof addr.sun_path - 1);
        _listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (_listenFd < 0) {
            error = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        ::unlink(_config.socketPath.c_str());
        if (::bind(_listenFd,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof addr) != 0) {
            error = "bind " + _config.socketPath + ": " +
                    std::strerror(errno);
            return false;
        }
    } else if (_config.port >= 0) {
        _listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (_listenFd < 0) {
            error = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        const int one = 1;
        ::setsockopt(_listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(_config.port));
        if (::bind(_listenFd,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof addr) != 0) {
            error = "bind 127.0.0.1:" + std::to_string(_config.port) +
                    ": " + std::strerror(errno);
            return false;
        }
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        ::getsockname(_listenFd,
                      reinterpret_cast<sockaddr *>(&bound), &len);
        _boundPort = ntohs(bound.sin_port);
    } else {
        error = "no listener configured (need socketPath or port)";
        return false;
    }

    if (::listen(_listenFd, 64) != 0) {
        error = std::string("listen: ") + std::strerror(errno);
        return false;
    }

    const unsigned inner = _config.innerThreads
                               ? _config.innerThreads
                               : std::thread::hardware_concurrency();
    _innerPool = std::make_unique<ThreadPool>(inner);
    _acceptThread = std::jthread([this] { acceptLoop(); });
    return true;
}

void
Server::requestStop()
{
    // Async-signal-safe: one relaxed store plus one pipe write.
    _stopRequested.store(true, std::memory_order_relaxed);
    if (_stopPipe[1] >= 0) {
        const char b = 's';
        [[maybe_unused]] const auto n = ::write(_stopPipe[1], &b, 1);
    }
}

void
Server::serveForever()
{
    pollfd p{_stopPipe[0], POLLIN, 0};
    while (!_stopRequested.load(std::memory_order_relaxed)) {
        const int r = ::poll(&p, 1, 200);
        if (r < 0 && errno != EINTR)
            break;
        if (r > 0 && (p.revents & POLLIN))
            break;
    }
    stop();
}

void
Server::stop()
{
    if (_stopped.exchange(true))
        return;
    _stopRequested.store(true);
    _draining.store(true);

    // Wake and retire the accept thread; no new connections.
    if (_stopPipe[1] >= 0) {
        const char b = 's';
        [[maybe_unused]] const auto n = ::write(_stopPipe[1], &b, 1);
    }
    if (_acceptThread.joinable())
        _acceptThread.join();

    // Phase 1: let in-flight and queued work finish inside the drain
    // budget. Readers stay alive so responses still reach clients.
    const auto pred = [this] { return _queued == 0 && _inFlight == 0; };
    const auto budget = std::chrono::milliseconds(
        _config.drainMs > 0 ? _config.drainMs : 0);
    bool drained = false;
    {
        std::unique_lock lock(_queueMutex);
        drained = _queueDrained.wait_until(
            lock, std::chrono::steady_clock::now() + budget, pred);
    }

    // Phase 2: past the budget, cancel every outstanding token with
    // Shutdown — requests unwind at the next checkpoint and answer
    // `shutting_down`, so no request is silently dropped. The wait has
    // no deadline: no request task may outlive the pool below.
    if (!drained) {
        {
            const std::scoped_lock lock(_connsMutex);
            for (auto &[conn, thread] : _conns) {
                const std::scoped_lock tokens(conn->tokenMutex);
                for (auto &weak : conn->inflight)
                    if (const auto token = weak.lock())
                        token->cancel(CancelReason::Shutdown);
            }
        }
        std::unique_lock lock(_queueMutex);
        _queueDrained.wait(lock, pred);
    }

    // Every admitted request is answered, and handleLine admits none
    // once _draining is set (it checks under _queueMutex), so the pool
    // holds no request task: this joins its idle workers.
    _innerPool.reset();

    closeAllConnections();

    if (_listenFd >= 0) {
        ::close(_listenFd);
        _listenFd = -1;
    }
    if (!_config.socketPath.empty())
        ::unlink(_config.socketPath.c_str());
    for (const int fd : _stopPipe)
        if (fd >= 0)
            ::close(fd);
    _stopPipe[0] = _stopPipe[1] = -1;

    if (!_config.metricsOut.empty()) {
        // Snapshot the LRU tier into the registry so the dump carries
        // the full cache story, then include timing metrics (latency
        // histogram) — this artifact is about observed behavior.
        _metrics.counter("serve/lru_hits").add(_lru.hits());
        _metrics.counter("serve/lru_lookups").add(_lru.lookups());
        std::ofstream os(_config.metricsOut);
        if (os)
            os << _metrics.toJson(true);
    }

    LogConfig::instance().fatalThrows(false);
}

void
Server::acceptLoop()
{
    for (;;) {
        pollfd fds[2] = {{_listenFd, POLLIN, 0},
                         {_stopPipe[0], POLLIN, 0}};
        const int r = ::poll(fds, 2, -1);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (fds[1].revents & POLLIN)
            return;
        if (!(fds[0].revents & POLLIN))
            continue;
        const int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;

        setSocketTimeouts(fd);

        auto conn = std::make_shared<Conn>();
        conn->fd = fd;

        // Reap connections whose readers already exited: join the
        // reader, then close the fd under the write mutex so no
        // worker can race a response onto a recycled descriptor.
        std::vector<std::pair<std::shared_ptr<Conn>, std::jthread>>
            dead;
        {
            const std::scoped_lock lock(_connsMutex);
            for (auto it = _conns.begin(); it != _conns.end();) {
                if (!it->first->open.load()) {
                    dead.push_back(std::move(*it));
                    it = _conns.erase(it);
                } else {
                    ++it;
                }
            }
            _conns.emplace_back(conn, std::jthread([this, conn] {
                                    readerLoop(conn);
                                }));
        }
        for (auto &[deadConn, thread] : dead) {
            if (thread.joinable())
                thread.join();
            const std::scoped_lock write(deadConn->writeMutex);
            if (deadConn->fd >= 0) {
                ::close(deadConn->fd);
                deadConn->fd = -1;
            }
        }
    }
}

void
Server::readerLoop(std::shared_ptr<Conn> conn)
{
    std::string buffer;
    char chunk[4096];
    auto lastByteUs = CancelToken::nowUs();

    while (conn->open.load()) {
        const auto n = ::recv(conn->fd, chunk, sizeof chunk, 0);
        if (n > 0) {
            buffer.append(chunk, static_cast<std::size_t>(n));
            lastByteUs = CancelToken::nowUs();
            std::size_t start = 0;
            for (;;) {
                const auto nl = buffer.find('\n', start);
                if (nl == std::string::npos)
                    break;
                std::string line =
                    buffer.substr(start, nl - start);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                start = nl + 1;
                if (!line.empty())
                    handleLine(conn, line);
            }
            buffer.erase(0, start);
            if (buffer.size() > kMaxRequestBytes) {
                respondError(conn, "", ErrorCode::ParseError,
                             "request line exceeds " +
                                 std::to_string(kMaxRequestBytes) +
                                 " bytes");
                break;
            }
        } else if (n == 0) {
            break; // orderly EOF
        } else if (errno == EINTR) {
            continue;
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
            // Slow-writer guard: a connection stuck mid-line holds a
            // reader thread; bound that with the idle timeout. Idle
            // connections *between* requests are left alone.
            if (!buffer.empty() && _config.idleTimeoutMs > 0 &&
                CancelToken::nowUs() - lastByteUs >
                    _config.idleTimeoutMs * 1000) {
                respondError(conn, "", ErrorCode::ParseError,
                             "idle mid-request for over " +
                                 std::to_string(
                                     _config.idleTimeoutMs) +
                                 " ms");
                break;
            }
        } else {
            break; // hard socket error
        }
    }

    conn->open.store(false);
    // Kill both directions so a client blocked mid-send unblocks
    // immediately instead of waiting out the daemon's lifetime. The
    // fd itself is closed later (reap/shutdown) under the write
    // mutex, after this thread is joined.
    ::shutdown(conn->fd, SHUT_RDWR);
    // Abandon this connection's outstanding work: nobody is left to
    // read the results.
    const std::scoped_lock lock(conn->tokenMutex);
    for (auto &weak : conn->inflight)
        if (const auto token = weak.lock())
            token->cancel(CancelReason::Disconnect);
}

void
Server::handleLine(const std::shared_ptr<Conn> &conn,
                   const std::string &line)
{
    _metrics.counter("serve/requests_total").add();

    RequestError error;
    auto parsed = parseRequest(line, error);
    if (!parsed) {
        respondError(conn, bestEffortId(line), error.code,
                     error.message);
        return;
    }

    // Liveness probes are answered inline by the reader thread —
    // health checks must work while the queue is full.
    if (parsed->cmd == Cmd::Ping) {
        _metrics.counter("serve/responses_ok").add();
        respond(conn, okResponse(parsed->id, Cmd::Ping, "pong"));
        return;
    }
    if (parsed->cmd == Cmd::Status) {
        _metrics.counter("serve/responses_ok").add();
        respond(conn,
                okResponse(parsed->id, Cmd::Status, statusJson()));
        return;
    }

    Job job;
    job.req = std::move(*parsed);
    job.conn = conn;
    job.token = std::make_shared<CancelToken>();
    // The deadline covers queue wait too: a request that sat behind a
    // busy pool for its whole budget times out instead of running.
    const auto deadlineMs =
        job.req.deadlineMs > 0
            ? std::min(job.req.deadlineMs, _config.maxDeadlineMs)
            : _config.defaultDeadlineMs;
    if (deadlineMs > 0)
        job.token->setDeadlineIn(deadlineMs * 1000);
    job.enqueuedUs = CancelToken::nowUs();

    {
        const std::scoped_lock tokens(conn->tokenMutex);
        std::erase_if(conn->inflight,
                      [](const auto &w) { return w.expired(); });
        conn->inflight.push_back(job.token);
    }

    {
        // Checked under the lock stop() drains with, so no request is
        // submitted once stop() has begun.
        const std::scoped_lock lock(_queueMutex);
        if (!_draining.load() && _queued < _config.queueCapacity) {
            ++_queued;
            _innerPool->submit([this, job = std::move(job)] {
                {
                    // Queued to in flight in one step, so the drain
                    // never sees both counts at zero in between.
                    const std::scoped_lock started(_queueMutex);
                    --_queued;
                    ++_inFlight;
                }
                handleJob(job);
                {
                    const std::scoped_lock done(_queueMutex);
                    --_inFlight;
                }
                _queueDrained.notify_all();
            });
            return;
        }
    }
    if (_draining.load())
        respondError(conn, job.req.id, ErrorCode::ShuttingDown,
                     "server shutting down");
    else
        respondError(conn, job.req.id, ErrorCode::QueueFull,
                     "work queue is full (" +
                         std::to_string(_config.queueCapacity) +
                         " pending requests)");
}

void
Server::handleJob(const Job &job)
{
    // Coordinator job dispatch bypasses the response LRU and the
    // single-flight tier: the `cached` flag inside the result document
    // must tell the truth about this daemon's disk cache, and the
    // shared disk cache already dedups identical jobs across requests.
    if (job.req.cmd == Cmd::DseShard || job.req.cmd == Cmd::PhaseJob) {
        answer(job, job.token->cancelled() ? Outcome::cancellation()
                                           : tryCompute(job));
        recordLatency(job);
        return;
    }

    const auto key = requestKey(job.req);
    for (;;) {
        if (job.token->cancelled()) {
            answer(job, Outcome::cancellation());
            break;
        }

        // Tier 1: response LRU — the exact bytes of the first
        // computation for this content hash.
        if (auto hit = _lru.get(key)) {
            answer(job, Outcome::success(std::move(*hit)));
            break;
        }

        // Single-flight: one computation per key, however many
        // identical requests are in the building.
        std::shared_ptr<Flight> flight;
        bool leader = false;
        {
            const std::scoped_lock lock(_flightsMutex);
            const auto it = _flights.find(key);
            if (it == _flights.end()) {
                flight = std::make_shared<Flight>();
                _flights.emplace(key, flight);
                leader = true;
            } else {
                flight = it->second;
            }
        }

        if (leader) {
            // Re-check the LRU now that we hold the flight: a prior
            // leader for this key publishes to the LRU before retiring
            // its flight, so a request that missed the LRU, found no
            // flight and got here either predates that leader (true
            // miss) or is guaranteed to hit now — exactly-once compute
            // with no window in between.
            Outcome outcome;
            if (auto hit = _lru.get(key)) {
                outcome = Outcome::success(std::move(*hit));
            } else {
                // A cancellation is the leader's own (its deadline,
                // its client): followers re-elect instead of
                // inheriting it.
                outcome = tryCompute(job);
                if (outcome.ok)
                    _metrics.counter("serve/computations").add();
            }

            // Publish to the LRU before retiring the flight (see the
            // leader re-check above), and erase the flight BEFORE
            // marking it done: a retrying follower must find either
            // no flight (become leader) or a live one — never a
            // completed husk.
            if (outcome.ok)
                _lru.put(key, outcome.payload);
            {
                const std::scoped_lock lock(_flightsMutex);
                _flights.erase(key);
            }
            {
                const std::scoped_lock lock(flight->mutex);
                flight->done = true;
                flight->outcome = outcome;
            }
            flight->cv.notify_all();
            answer(job, outcome);
            break;
        }

        // Follower: wait for the leader, slicing against our own
        // deadline/disconnect — a follower's fate is its own. It holds
        // a pool worker meanwhile; the leader is already running, so
        // the wait ends.
        _metrics.counter("serve/dedup_joins").add();
        bool done = false;
        Outcome outcome;
        {
            std::unique_lock lock(flight->mutex);
            while (!flight->done) {
                flight->cv.wait_for(
                    lock, std::chrono::milliseconds(20));
                if (!flight->done && job.token->cancelled())
                    break;
            }
            done = flight->done;
            outcome = flight->outcome;
        }
        if (!done) {
            answer(job, Outcome::cancellation());
            break;
        }
        if (outcome.cancelled)
            continue; // retry: maybe become the leader this time
        answer(job, outcome);
        break;
    }

    recordLatency(job);
}

Server::Outcome
Server::tryCompute(const Job &job)
{
    try {
        return Outcome::success(compute(job));
    } catch (const CancelledError &) {
        return Outcome::cancellation();
    } catch (const FatalError &e) {
        return Outcome::failure(ErrorCode::ValidationError, e.what());
    } catch (const std::exception &e) {
        return Outcome::failure(ErrorCode::Internal, e.what());
    }
}

void
Server::answer(const Job &job, const Outcome &outcome)
{
    const auto &req = job.req;
    if (outcome.ok) {
        // Count before the socket write: a client that has seen the
        // reply must never observe a stale counter.
        _metrics.counter("serve/responses_ok").add();
        respond(job.conn, okResponse(req.id, req.cmd, outcome.payload));
    } else if (outcome.cancelled) {
        const auto [code, message] = cancelError(job.token->reason());
        respondError(job.conn, req.id, code, message);
    } else {
        respondError(job.conn, req.id, outcome.code, outcome.message);
    }
}

std::string
Server::compute(const Job &job)
{
    const auto &req = job.req;

    std::istringstream in(req.traceText);
    const auto tr = trace::Trace::load(in); // FatalError on malformed
    if (tr.numRanks() < 2 || tr.numRanks() > kMaxTraceRanks)
        throw FatalError("trace must have between 2 and " +
                         std::to_string(kMaxTraceRanks) +
                         " ranks, got " +
                         std::to_string(tr.numRanks()));
    if (tr.numSends() == 0)
        throw FatalError("trace has no messages");
    checkCancel(job.token.get());

    switch (req.cmd) {
      case Cmd::Design: {
        // The pool overload shards restarts across the shared pool;
        // the wave selection keeps the design byte-identical to the
        // CLI's at any concurrency.
        auto cfg = req.phases.methodology;
        cfg.cancel = job.token.get();
        const auto partStart = CancelToken::nowUs();
        const auto outcome = core::runMethodology(
            trace::analyzeByCall(tr), cfg, _innerPool.get());
        const auto partUs = CancelToken::nowUs() - partStart;
        _metrics.counter("serve/designs_total").add();
        _metrics.counter("serve/design_restarts_used")
            .add(outcome.restartsUsed);
        {
            // Same single-writer contract as the latency histogram.
            const std::scoped_lock lock(_latencyMutex);
            _metrics.histogram("serve/partitioner_wall_us", true)
                .record(partUs > 0
                            ? static_cast<std::uint64_t>(partUs)
                            : 0);
        }
        std::ostringstream os;
        core::saveDesign(outcome.design, os);
        return os.str();
      }
      case Cmd::Explore:
      case Cmd::DseShard: {
        if (req.cmd == Cmd::DseShard)
            maybeInjectServeFault(req.attempt, _metrics);
        // Always the daemon's OWN disk cache, never a client path: the
        // socket is the trust boundary.
        auto cfg = req.explore;
        cfg.cacheDir = _config.cacheDir;
        cfg.useCache = _config.useCache;
        cfg.cancel = job.token.get();
        // The grid's methodologies and evaluations run on the shared
        // inner pool, so a shard fills an idle daemon while concurrent
        // requests share its threads (reports are byte-identical at
        // any thread count, so this is invisible to clients).
        if (req.cmd == Cmd::Explore) {
            const auto report = dse::explore(tr, cfg, _innerPool.get());
            _metrics.counter("serve/disk_cache_hits")
                .add(report.cacheHits);
            _metrics.counter("serve/disk_cache_misses")
                .add(report.cacheMisses);
            return report.toJson();
        }

        const auto sig = shardSignature(cfg);
        if (sig != req.sig)
            throw FatalError(
                "shard signature drift: coordinator expects '" + req.sig +
                "', daemon computes '" + sig + "'");
        const auto reply =
            runDseShard(tr, cfg, req.jobIndex, _innerPool.get());
        for (const auto &point : reply.results)
            _metrics
                .counter(point.cached ? "serve/job_cache_hits"
                                      : "serve/job_cache_misses")
                .add();
        _metrics.counter("serve/dse_jobs").add(reply.results.size());
        return encodeShardResult(reply);
      }
      case Cmd::Phases:
      case Cmd::PhaseJob: {
        auto cfg = req.phases;
        cfg.methodology.cancel = job.token.get();
        cfg.sim.cancel = job.token.get();
        // The phase rows and every methodology's restarts run as
        // tasks on the shared inner pool, like a shard's.
        if (req.cmd == Cmd::Phases)
            return phase::evaluatePhases(tr, cfg, _innerPool.get())
                .toJson();

        maybeInjectServeFault(req.attempt, _metrics);
        const auto sig = phasesSignature(cfg);
        if (sig != req.sig)
            throw FatalError(
                "phases signature drift: coordinator expects '" +
                req.sig + "', daemon computes '" + sig + "'");

        const phase::Segmentation seg =
            phase::segmentTrace(tr, cfg.segmenter);
        if (seg.phases.size() != req.expectedPhases)
            throw FatalError(
                "segmentation drift: coordinator detected " +
                std::to_string(req.expectedPhases) +
                " phases, daemon detected " +
                std::to_string(seg.phases.size()));
        if (req.jobIndex >= seg.phases.size())
            throw FatalError("job references phase " +
                             std::to_string(req.jobIndex) + " of " +
                             std::to_string(seg.phases.size()));
        const phase::PhaseCliques cliques =
            phase::buildPhaseCliques(tr, seg);

        const std::int64_t t0 = CancelToken::nowUs();
        const auto row = phase::evalPhaseStandalone(
            tr, seg, cliques.standalone[req.jobIndex], req.jobIndex,
            cfg, _innerPool.get());
        const std::int64_t wallUs = CancelToken::nowUs() - t0;
        _metrics.counter("serve/phase_jobs").add();
        return encodePhaseResult(req.jobIndex, wallUs, row);
      }
      case Cmd::Ping:
      case Cmd::Status:
        break;
    }
    throw FatalError("not a compute command");
}

void
Server::respond(const std::shared_ptr<Conn> &conn,
                const std::string &line)
{
    if (!conn->open.load())
        return;
    const std::scoped_lock lock(conn->writeMutex);
    if (conn->fd < 0)
        return; // reaped while we waited for the mutex
    const char *p = line.data();
    auto left = line.size();
    while (left > 0) {
        // MSG_NOSIGNAL: a vanished client is a closed connection,
        // never a SIGPIPE for the daemon.
        const auto n = ::send(conn->fd, p, left, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            conn->open.store(false);
            return;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
}

void
Server::respondError(const std::shared_ptr<Conn> &conn,
                     const std::string &id, ErrorCode code,
                     const std::string &message)
{
    countError(code);
    respond(conn, errorResponse(id, code, message));
}

void
Server::countError(ErrorCode code)
{
    _metrics
        .counter(std::string("serve/errors_") + errorCodeName(code))
        .add();
}

void
Server::recordLatency(const Job &job)
{
    const auto us = CancelToken::nowUs() - job.enqueuedUs;
    // The histogram is single-writer by contract; serialize requests.
    const std::scoped_lock lock(_latencyMutex);
    _metrics.histogram("serve/request_latency_us", true)
        .record(us > 0 ? static_cast<std::uint64_t>(us) : 0);
}

std::string
Server::statusJson()
{
    std::size_t depth = 0, inFlight = 0;
    {
        const std::scoped_lock lock(_queueMutex);
        depth = _queued;
        inFlight = _inFlight;
    }
    const auto counter = [this](const char *name) {
        return _metrics.counter(name).value();
    };
    const auto errorCounter = [this](ErrorCode code) {
        return _metrics
            .counter(std::string("serve/errors_") +
                     errorCodeName(code))
            .value();
    };

    const auto lruHits = _lru.hits();
    const auto lruLookups = _lru.lookups();
    const auto diskHits = counter("serve/disk_cache_hits");
    const auto diskMisses = counter("serve/disk_cache_misses");
    const auto cacheLookups = lruLookups + diskHits + diskMisses;
    const double hitRatio =
        cacheLookups
            ? static_cast<double>(lruHits + diskHits) /
                  static_cast<double>(cacheLookups)
            : 0.0;

    std::uint64_t latCount = 0, p50 = 0, p90 = 0, p99 = 0, latMax = 0;
    std::uint64_t partCount = 0, partP50 = 0, partP99 = 0, partMax = 0;
    {
        const std::scoped_lock lock(_latencyMutex);
        auto &h =
            _metrics.histogram("serve/request_latency_us", true);
        latCount = h.count();
        p50 = h.quantile(0.5);
        p90 = h.quantile(0.9);
        p99 = h.quantile(0.99);
        latMax = h.max();
        auto &ph =
            _metrics.histogram("serve/partitioner_wall_us", true);
        partCount = ph.count();
        partP50 = ph.quantile(0.5);
        partP99 = ph.quantile(0.99);
        partMax = ph.max();
    }

    std::ostringstream os;
    os << "{\"queue_depth\": " << depth
       << ", \"queue_capacity\": " << _config.queueCapacity
       << ", \"in_flight\": " << inFlight
       << ", \"draining\": "
       << (_draining.load() ? "true" : "false")
       << ", \"requests_total\": " << counter("serve/requests_total")
       << ", \"responses_ok\": " << counter("serve/responses_ok")
       << ", \"errors\": {";
    constexpr ErrorCode kCodes[] = {
        ErrorCode::ParseError,   ErrorCode::ValidationError,
        ErrorCode::Timeout,      ErrorCode::QueueFull,
        ErrorCode::Cancelled,    ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    };
    for (std::size_t i = 0; i < std::size(kCodes); ++i)
        os << (i ? ", " : "") << '"' << errorCodeName(kCodes[i])
           << "\": " << errorCounter(kCodes[i]);
    os << "}, \"computations\": " << counter("serve/computations")
       << ", \"dse_jobs\": " << counter("serve/dse_jobs")
       << ", \"phase_jobs\": " << counter("serve/phase_jobs")
       << ", \"job_cache_hits\": " << counter("serve/job_cache_hits")
       << ", \"job_cache_misses\": "
       << counter("serve/job_cache_misses")
       << ", \"dedup_joins\": " << counter("serve/dedup_joins")
       << ", \"lru_hits\": " << lruHits
       << ", \"lru_lookups\": " << lruLookups
       << ", \"disk_cache_hits\": " << diskHits
       << ", \"disk_cache_misses\": " << diskMisses
       << ", \"cache_hit_ratio\": " << std::fixed
       << std::setprecision(4) << hitRatio
       << ", \"latency_us\": {\"count\": " << latCount
       << ", \"p50\": " << p50 << ", \"p90\": " << p90
       << ", \"p99\": " << p99 << ", \"max\": " << latMax << "}"
       << ", \"designs_total\": " << counter("serve/designs_total")
       << ", \"design_restarts_used\": "
       << counter("serve/design_restarts_used")
       << ", \"partitioner_wall_us\": {\"count\": " << partCount
       << ", \"p50\": " << partP50 << ", \"p99\": " << partP99
       << ", \"max\": " << partMax << "}}";
    return os.str();
}

void
Server::closeAllConnections()
{
    std::vector<std::pair<std::shared_ptr<Conn>, std::jthread>> conns;
    {
        const std::scoped_lock lock(_connsMutex);
        conns.swap(_conns);
    }
    for (auto &[conn, thread] : conns) {
        conn->open.store(false);
        if (conn->fd >= 0)
            ::shutdown(conn->fd, SHUT_RDWR);
    }
    for (auto &[conn, thread] : conns) {
        if (thread.joinable())
            thread.join();
        const std::scoped_lock write(conn->writeMutex);
        if (conn->fd >= 0) {
            ::close(conn->fd);
            conn->fd = -1;
        }
    }
}

} // namespace minnoc::serve
