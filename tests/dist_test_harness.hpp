/**
 * @file
 * Shared fixtures for the distributed-exploration test suites.
 *
 * Both suites (test_dist.cpp and test_dist_hosts.cpp) need the same
 * small deterministic workload and real `minnoc serve` daemons living
 * in their own processes so they can be SIGKILLed, crashed via the
 * chaos hooks, or drained without taking the test runner down with
 * them.
 *
 * DaemonProc forks a child that builds a serve::Server on an ephemeral
 * loopback port, reports the bound port back through a pipe, and then
 * serves until SIGTERM (graceful drain) or a harsher signal from the
 * test. The child never returns into gtest: every exit path is
 * _exit(), so a forked daemon cannot double-report test results or
 * flush the parent's buffers.
 */

#ifndef MINNOC_TESTS_DIST_TEST_HARNESS_HPP
#define MINNOC_TESTS_DIST_TEST_HARNESS_HPP

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "dse/explorer.hpp"
#include "serve/server.hpp"
#include "trace/nas_generators.hpp"
#include "trace/synthetic.hpp"

namespace minnoc::disttest {

/** Fresh (removed) per-test scratch directory under TempDir. */
inline std::string
tempCacheDir(const char *leaf)
{
    const auto dir = std::filesystem::path(::testing::TempDir()) / leaf;
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** 2 x 2 = 4-job grid on CG-8, mirroring test_dse's smallConfig. */
inline dse::ExploreConfig
smallConfig(const std::string &cacheDir, bool useCache)
{
    dse::ExploreConfig cfg;
    cfg.grid.maxDegrees = {4, 5};
    cfg.grid.restarts = {2};
    cfg.grid.seeds = {1};
    cfg.grid.unidirectional = {0};
    cfg.grid.vcs = {2, 3};
    cfg.threads = 1;
    cfg.cacheDir = cacheDir;
    cfg.useCache = useCache;
    return cfg;
}

inline trace::Trace
cgTrace()
{
    trace::NasConfig ncfg;
    ncfg.ranks = 8;
    ncfg.iterations = 1;
    return trace::generateCG(ncfg);
}

namespace detail {
/** The forked child's server, for the SIGTERM drain handler. */
inline serve::Server *gChildServer = nullptr;

inline void
onChildTerm(int)
{
    if (gChildServer)
        gChildServer->requestStop(); // async-signal-safe
}
} // namespace detail

/**
 * A real `minnoc serve` daemon in a forked child process, bound to an
 * ephemeral loopback port.
 *
 * The child applies Options::env before constructing the server, so
 * the serve-side chaos hooks (MINNOC_DIST_TEST_CRASH/HANG = "serve")
 * can be armed per daemon without leaking into the test process.
 */
class DaemonProc
{
  public:
    struct Options
    {
        /**
         * Pool threads (0 = hardware concurrency). A daemon armed with
         * a serve-side chaos hook needs 1, one request at a time: the
         * hook fires on the request after the first one completes.
         */
        std::uint32_t threads = 0;
        std::size_t queueCapacity = 64;
        std::string cacheDir;
        bool useCache = true;
        /**
         * Generous ceilings: the coordinator forwards its worker
         * timeout as the request deadline, and chaos tests must see
         * the coordinator's timeout fire, never the daemon's.
         */
        std::int64_t defaultDeadlineMs = 600'000;
        std::int64_t maxDeadlineMs = 600'000;
        /** (name, value) pairs set in the child before start(). */
        std::vector<std::pair<std::string, std::string>> env;
    };

    explicit DaemonProc(const Options &opt) { launch(opt); }
    DaemonProc() : DaemonProc(Options{}) {}

    ~DaemonProc()
    {
        if (_pid > 0) {
            kill(SIGKILL);
            await();
        }
    }

    DaemonProc(const DaemonProc &) = delete;
    DaemonProc &operator=(const DaemonProc &) = delete;

    /** Bound TCP port; 0 when the daemon failed to come up. */
    int port() const { return _port; }
    pid_t pid() const { return _pid; }
    std::string hostSpec() const
    {
        return "127.0.0.1:" + std::to_string(_port);
    }

    void kill(int sig)
    {
        if (_pid > 0)
            ::kill(_pid, sig);
    }

    /**
     * Reap the child; returns its exit code, or 128+signal when it
     * died on one. Idempotent (returns the cached status after the
     * first reap).
     */
    int await()
    {
        if (_pid <= 0)
            return _status;
        int status = 0;
        while (::waitpid(_pid, &status, 0) < 0 && errno == EINTR) {
        }
        _pid = -1;
        _status = WIFEXITED(status) ? WEXITSTATUS(status)
                  : WIFSIGNALED(status)
                      ? 128 + WTERMSIG(status)
                      : -1;
        return _status;
    }

    /** SIGTERM (graceful drain) then reap. */
    int terminate()
    {
        kill(SIGTERM);
        return await();
    }

  private:
    void launch(const Options &options)
    {
        int portPipe[2] = {-1, -1};
        if (::pipe(portPipe) != 0)
            return;
        _pid = ::fork();
        if (_pid == 0) {
            ::close(portPipe[0]);
            for (const auto &[name, value] : options.env)
                ::setenv(name.c_str(), value.c_str(), 1);
            serve::ServerConfig cfg;
            cfg.port = 0; // ephemeral
            cfg.innerThreads = options.threads;
            cfg.queueCapacity = options.queueCapacity;
            cfg.cacheDir = options.cacheDir;
            cfg.useCache = options.useCache;
            cfg.defaultDeadlineMs = options.defaultDeadlineMs;
            cfg.maxDeadlineMs = options.maxDeadlineMs;
            cfg.drainMs = 2'000;
            serve::Server server(std::move(cfg));
            detail::gChildServer = &server;
            std::signal(SIGTERM, detail::onChildTerm);
            std::signal(SIGPIPE, SIG_IGN);
            std::string err;
            if (!server.start(err)) {
                ::close(portPipe[1]);
                ::_exit(3);
            }
            const std::int32_t port = server.boundPort();
            (void)!::write(portPipe[1], &port, sizeof port);
            ::close(portPipe[1]);
            server.serveForever();
            detail::gChildServer = nullptr;
            ::_exit(0);
        }
        ::close(portPipe[1]);
        if (_pid > 0) {
            std::int32_t port = 0;
            ssize_t n;
            while ((n = ::read(portPipe[0], &port, sizeof port)) < 0 &&
                   errno == EINTR) {
            }
            if (n == sizeof port)
                _port = port;
        }
        ::close(portPipe[0]);
    }

    pid_t _pid = -1;
    int _port = 0;
    int _status = -1;
};

} // namespace minnoc::disttest

#endif // MINNOC_TESTS_DIST_TEST_HARNESS_HPP
