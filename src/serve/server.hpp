/**
 * @file
 * The `minnoc serve` daemon: synthesis-as-a-service over a local
 * socket.
 *
 * Architecture (one box per thread kind):
 *
 *   accept thread ──► reader thread per connection ──► shared pool
 *                       │  (parse, admit, inline            │
 *                       │   ping/status, backpressure)      ▼
 *                       │                      one task per request
 *                       │                      (its restarts, grid jobs
 *                       │                       and phase rows nest on
 *                       │                       the same pool)
 *                       ◄── responses (per-conn write mutex) ──┘
 *
 * Robustness properties, each load-bearing:
 *
 *  - **Admission control**: at most `queueCapacity` admitted requests
 *    wait for a pool worker; a request arriving past that high-water
 *    mark is rejected immediately with `queue_full` instead of
 *    queueing unboundedly. `ping` and `status` are answered inline by
 *    the reader and never queued, so health checks work under full
 *    load.
 *  - **Deadlines**: every compute request gets a CancelToken whose
 *    deadline covers queue wait plus compute; the token is polled
 *    cooperatively at partitioner-restart, DSE-job and simulator-epoch
 *    granularity, so a poisonously slow job stops within one
 *    checkpoint interval, not at completion.
 *  - **Cancellation on disconnect**: a reader seeing EOF fires every
 *    in-flight token of its connection with Disconnect — abandoned
 *    work is unwound, not finished into the void.
 *  - **Crash-safe two-tier caching**: an in-memory response LRU
 *    (exact bytes of the first computation) sits in front of the
 *    checksummed, quarantine-on-corruption on-disk DSE result cache.
 *    Responses are byte-identical to the CLI's output for the same
 *    request whether served cold, warm-via-LRU or warm-via-disk.
 *  - **Single-flight dedup**: concurrent identical submissions share
 *    one computation; followers block on the leader's flight and all
 *    receive byte-identical responses.
 *  - **Structured errors**: every failure — malformed bytes, invalid
 *    parameters, deadline expiry, backpressure, drain — maps onto the
 *    protocol's error taxonomy. User-level fatal()s inside the
 *    pipeline are converted to exceptions for the request's lifetime
 *    (LogConfig::fatalThrows), so no submission can kill the daemon.
 *  - **Graceful drain**: stop() (or SIGTERM/SIGINT via the
 *    async-signal-safe requestStop()) stops admitting, finishes
 *    in-flight work within the drain budget, then cancels stragglers
 *    with Shutdown, joins every thread and flushes metrics.
 */

#ifndef MINNOC_SERVE_SERVER_HPP
#define MINNOC_SERVE_SERVER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lru.hpp"
#include "obs/metrics.hpp"
#include "protocol.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace minnoc::serve {

/** Listener, capacity and policy knobs of one Server. */
struct ServerConfig
{
    /** Unix-domain socket path; takes precedence when non-empty. */
    std::string socketPath;
    /** TCP loopback port; 0 = ephemeral (see Server::boundPort()). */
    int port = -1;

    /**
     * Admitted requests that may wait for a pool worker; past it
     * requests get `queue_full`.
     */
    std::size_t queueCapacity = 64;

    /** Deadline applied when a request does not ask for one (ms). */
    std::int64_t defaultDeadlineMs = 30'000;
    /** Hard ceiling a request's own deadline is clamped to (ms). */
    std::int64_t maxDeadlineMs = 120'000;
    /** Graceful-drain budget before stragglers are cancelled (ms). */
    std::int64_t drainMs = 5'000;
    /** Close a connection stuck mid-request-line this long (ms). */
    std::int64_t idleTimeoutMs = 30'000;

    /** Response-LRU capacity in entries (0 disables the tier). */
    std::size_t lruCapacity = 128;
    /** DSE disk-cache directory; empty = dse::defaultCacheDir(). */
    std::string cacheDir;
    /** Disable the disk tier entirely. */
    bool useCache = true;

    /**
     * Threads of the shared pool (0 = hardware): it bounds both how
     * many requests run at once and the restarts, grid jobs and phase
     * rows nested inside them.
     */
    std::uint32_t innerThreads = 0;

    /** When non-empty, stop() dumps the metrics registry here. */
    std::string metricsOut;
};

class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the listener, build the shared pool and spawn the accept
     * thread.
     * Returns false (with a description in @p error) when the socket
     * cannot be bound.
     */
    bool start(std::string &error);

    /** Bound TCP port (after start(); 0 for unix-socket servers). */
    int boundPort() const { return _boundPort; }

    /**
     * Ask the server to stop. Async-signal-safe: one atomic store and
     * one self-pipe write, no locks. serveForever() (or stop()) then
     * performs the actual drain.
     */
    void requestStop();

    /** Block until requestStop(), then drain and tear down. */
    void serveForever();

    /**
     * Graceful shutdown: stop admitting, drain in-flight work within
     * the drain budget, cancel stragglers (Shutdown), join all
     * threads, flush metrics. Idempotent.
     */
    void stop();

    /** Deterministic one-line status/health JSON document. */
    std::string statusJson();

    /** The registry behind `status` (counters, latency histogram). */
    obs::MetricsRegistry &metrics() { return _metrics; }

  private:
    struct Conn
    {
        int fd = -1;
        std::atomic<bool> open{true};
        std::mutex writeMutex;
        /** Tokens of this connection's queued/running jobs. */
        std::mutex tokenMutex;
        std::vector<std::weak_ptr<CancelToken>> inflight;
    };

    struct Job
    {
        Request req;
        std::shared_ptr<Conn> conn;
        std::shared_ptr<CancelToken> token;
        std::int64_t enqueuedUs = 0;
    };

    /** What compute() made of a job: its payload, or why there is none. */
    struct Outcome
    {
        bool ok = false;
        /** The job's token fired; the error is its reason. */
        bool cancelled = false;
        std::string payload;
        ErrorCode code = ErrorCode::Internal;
        std::string message;

        static Outcome success(std::string payload)
        {
            return {true, false, std::move(payload), {}, {}};
        }
        static Outcome cancellation() { return {false, true, {}, {}, {}}; }
        static Outcome failure(ErrorCode code, std::string message)
        {
            return {false, false, {}, code, std::move(message)};
        }
    };

    /** One deduplicated computation; followers wait on the leader. */
    struct Flight
    {
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        /** outcome.cancelled: the leader was; followers re-elect. */
        Outcome outcome;
    };

    void acceptLoop();
    void readerLoop(std::shared_ptr<Conn> conn);

    /** Parse + admit one request line from @p conn. */
    void handleLine(const std::shared_ptr<Conn> &conn,
                    const std::string &line);
    /** Answer one admitted job; runs as a task on the shared pool. */
    void handleJob(const Job &job);

    /** Run the actual pipeline for @p job; returns the payload. */
    std::string compute(const Job &job);
    /** compute(), with every failure mapped onto an error code. */
    Outcome tryCompute(const Job &job);
    /** Send @p job's response for @p outcome. */
    void answer(const Job &job, const Outcome &outcome);

    void respond(const std::shared_ptr<Conn> &conn,
                 const std::string &line);
    void respondError(const std::shared_ptr<Conn> &conn,
                      const std::string &id, ErrorCode code,
                      const std::string &message);
    void countError(ErrorCode code);
    void recordLatency(const Job &job);

    void closeAllConnections();

    ServerConfig _config;
    int _listenFd = -1;
    int _boundPort = 0;
    int _stopPipe[2] = {-1, -1};

    std::atomic<bool> _started{false};
    std::atomic<bool> _stopRequested{false};
    std::atomic<bool> _draining{false};
    std::atomic<bool> _stopped{false};

    /** Guards the two counts below and admission to the pool. */
    std::mutex _queueMutex;
    std::condition_variable _queueDrained;
    std::size_t _queued = 0;   ///< admitted, not started
    std::size_t _inFlight = 0; ///< started, not answered

    std::mutex _flightsMutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<Flight>> _flights;

    LruCache _lru;
    /** Shared pool: every request, and all the work nested in it. */
    std::unique_ptr<ThreadPool> _innerPool;

    obs::MetricsRegistry _metrics;
    std::mutex _latencyMutex; ///< histogram is single-writer by design

    std::mutex _connsMutex;
    std::vector<std::pair<std::shared_ptr<Conn>, std::jthread>> _conns;

    std::jthread _acceptThread;
};

} // namespace minnoc::serve

#endif // MINNOC_SERVE_SERVER_HPP
