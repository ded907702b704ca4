/**
 * @file
 * Lightweight logging and error-reporting helpers.
 *
 * Modeled after the gem5 logging discipline: panic() for internal
 * invariant violations (aborts), fatal() for unrecoverable user errors
 * (clean exit), warn()/inform() for status messages. All helpers accept
 * printf-free, ostream-style formatting via variadic streaming.
 */

#ifndef MINNOC_UTIL_LOG_HPP
#define MINNOC_UTIL_LOG_HPP

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace minnoc {

/**
 * Thrown by fatal() instead of exiting when fatalThrows mode is on.
 * Long-running processes (the serve daemon) enable the mode once at
 * startup so a malformed submission surfaces as a structured error on
 * one request instead of killing every in-flight request with it.
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(std::string message)
        : std::runtime_error(std::move(message))
    {
    }
};

/** Verbosity levels for runtime log filtering. */
enum class LogLevel : int {
    Silent = 0,
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
};

/**
 * Global log configuration. A single process-wide instance controls
 * the verbosity of inform()/debug() output; errors are always shown.
 */
class LogConfig
{
  public:
    /** Access the process-wide configuration. */
    static LogConfig &
    instance()
    {
        static LogConfig cfg;
        return cfg;
    }

    LogLevel level() const { return _level; }
    void level(LogLevel lvl) { _level = lvl; }

    /**
     * When on, fatal() throws FatalError instead of calling exit().
     * Process-wide; meant to be flipped once at daemon startup, before
     * worker threads exist.
     */
    bool fatalThrows() const
    {
        return _fatalThrows.load(std::memory_order_relaxed);
    }
    void fatalThrows(bool on)
    {
        _fatalThrows.store(on, std::memory_order_relaxed);
    }

    /** True if messages at @p lvl should be emitted. */
    bool
    enabled(LogLevel lvl) const
    {
        return static_cast<int>(lvl) <= static_cast<int>(_level);
    }

  private:
    LogConfig() = default;
    LogLevel _level = LogLevel::Warn;
    std::atomic<bool> _fatalThrows{false};
};

namespace detail {

/** Fold a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/**
 * Write @p prefix, the message and a newline to @p os as one insertion,
 * so lines from concurrent threads never interleave.
 */
template <typename... Args>
void
writeLine(std::ostream &os, const char *prefix, Args &&...args)
{
    os << concat(prefix, std::forward<Args>(args)..., '\n') << std::flush;
}

} // namespace detail

/**
 * Report an internal invariant violation and abort.
 * Use only for conditions that indicate a bug in this library.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::writeLine(std::cerr, "panic: ", std::forward<Args>(args)...);
    std::abort();
}

/**
 * Report an unrecoverable user-level error (bad configuration, invalid
 * arguments) and exit with a failure code — or, in fatalThrows mode
 * (see LogConfig), throw FatalError so a serving process can turn the
 * condition into a per-request structured error instead of dying.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    auto message = detail::concat(std::forward<Args>(args)...);
    if (LogConfig::instance().fatalThrows())
        throw FatalError(std::move(message));
    detail::writeLine(std::cerr, "fatal: ", message);
    std::exit(1);
}

/** Warn about suspicious but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (LogConfig::instance().enabled(LogLevel::Warn))
        detail::writeLine(std::cerr, "warn: ", std::forward<Args>(args)...);
}

/** Emit an informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (LogConfig::instance().enabled(LogLevel::Info))
        detail::writeLine(std::cout, "info: ", std::forward<Args>(args)...);
}

/** Emit a debug trace message. */
template <typename... Args>
void
debugLog(Args &&...args)
{
    if (LogConfig::instance().enabled(LogLevel::Debug))
        detail::writeLine(std::cout, "debug: ", std::forward<Args>(args)...);
}

} // namespace minnoc

#endif // MINNOC_UTIL_LOG_HPP
