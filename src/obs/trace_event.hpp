/**
 * @file
 * Chrome trace-event (Perfetto-loadable) timeline log.
 *
 * Emits the JSON object format — {"traceEvents": [...]} — with three
 * event phases:
 *  - "X" complete events (named spans with ts + dur),
 *  - "C" counter events (stacked time series in the trace viewer),
 *  - "M" metadata events (process / thread names).
 *
 * Timestamps are microseconds by convention. Simulator spans map one
 * simulated cycle to one microsecond so epoch boundaries land on exact
 * ticks; methodology / DSE phases use wall-clock microseconds. The two
 * domains are kept apart with distinct pid values so Perfetto renders
 * them as separate process tracks.
 */

#ifndef MINNOC_OBS_TRACE_EVENT_HPP
#define MINNOC_OBS_TRACE_EVENT_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace minnoc::obs {

/** Well-known process ids used for track grouping. */
inline constexpr std::uint32_t kPidSim = 1;
inline constexpr std::uint32_t kPidMethodology = 2;
inline constexpr std::uint32_t kPidDse = 3;
inline constexpr std::uint32_t kPidPhase = 4;
inline constexpr std::uint32_t kPidDist = 5;

/**
 * Wall-clock microseconds since the first call in this process — the
 * timestamp base for methodology / DSE phase spans. Never feed these
 * into metrics that must be byte-reproducible; they belong in the
 * trace timeline and in timing-flagged metrics only.
 */
std::int64_t wallMicros();

/** Thread-safe, append-only trace-event collector. */
class TraceEventLog
{
  public:
    /** "X" span: [ts, ts + dur] on track (pid, tid). */
    void complete(const std::string &name, std::uint32_t pid,
                  std::uint32_t tid, std::int64_t ts, std::int64_t dur,
                  const std::string &argsJson = "");

    /** "C" counter sample at @p ts on track pid. */
    void counter(const std::string &name, std::uint32_t pid,
                 std::int64_t ts, double value);

    /** "M" process_name metadata. */
    void processName(std::uint32_t pid, const std::string &name);

    /** "M" thread_name metadata. */
    void threadName(std::uint32_t pid, std::uint32_t tid,
                    const std::string &name);

    std::size_t size() const;

    /**
     * Serialize as {"traceEvents": [...]} with events sorted by
     * (ts, insertion order) so the output is stable for a given set of
     * recorded events.
     */
    std::string toJson() const;

  private:
    struct Event
    {
        char phase;
        std::string name;
        std::uint32_t pid = 0;
        std::uint32_t tid = 0;
        std::int64_t ts = 0;
        std::int64_t dur = 0;
        double value = 0.0;        // counter payload
        std::string argsJson;      // pre-rendered args object body
        std::uint64_t seq = 0;     // insertion order tie-break
    };

    void push(Event e);

    mutable std::mutex _mutex;
    std::vector<Event> _events;
    std::uint64_t _nextSeq = 0;
};

/** Start of a wall-clock span; 0 when there is no log to close it in. */
inline std::int64_t
spanStart(const TraceEventLog *log)
{
    return log ? wallMicros() : 0;
}

/**
 * Close a wall-clock span opened at @p start on DSE track @p tid of
 * @p log; a no-op without a log or under -DMINNOC_OBS=OFF.
 */
void dseSpanEnd(TraceEventLog *log, const std::string &name,
                std::size_t tid, std::int64_t start,
                const std::string &argsJson = "");

} // namespace minnoc::obs

#endif // MINNOC_OBS_TRACE_EVENT_HPP
