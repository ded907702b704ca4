#include "trace_event.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "metrics.hpp"
#include "util/json.hpp"

namespace minnoc::obs {

std::int64_t
wallMicros()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return std::chrono::duration_cast<std::chrono::microseconds>(
               clock::now() - epoch)
        .count();
}

void
dseSpanEnd(TraceEventLog *log, const std::string &name, std::size_t tid,
           std::int64_t start, const std::string &argsJson)
{
    if constexpr (kEnabled) {
        if (log)
            log->complete(name, kPidDse, static_cast<std::uint32_t>(tid),
                          start, wallMicros() - start, argsJson);
    }
}

void
TraceEventLog::push(Event e)
{
    const std::lock_guard lock(_mutex);
    e.seq = _nextSeq++;
    _events.push_back(std::move(e));
}

void
TraceEventLog::complete(const std::string &name, std::uint32_t pid,
                        std::uint32_t tid, std::int64_t ts,
                        std::int64_t dur, const std::string &argsJson)
{
    Event e;
    e.phase = 'X';
    e.name = name;
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.dur = dur < 0 ? 0 : dur;
    e.argsJson = argsJson;
    push(std::move(e));
}

void
TraceEventLog::counter(const std::string &name, std::uint32_t pid,
                       std::int64_t ts, double value)
{
    Event e;
    e.phase = 'C';
    e.name = name;
    e.pid = pid;
    e.ts = ts;
    e.value = value;
    push(std::move(e));
}

void
TraceEventLog::processName(std::uint32_t pid, const std::string &name)
{
    Event e;
    e.phase = 'M';
    e.name = "process_name";
    e.pid = pid;
    e.argsJson = "\"name\": \"" + json::escape(name) + "\"";
    push(std::move(e));
}

void
TraceEventLog::threadName(std::uint32_t pid, std::uint32_t tid,
                          const std::string &name)
{
    Event e;
    e.phase = 'M';
    e.name = "thread_name";
    e.pid = pid;
    e.tid = tid;
    e.argsJson = "\"name\": \"" + json::escape(name) + "\"";
    push(std::move(e));
}

std::size_t
TraceEventLog::size() const
{
    const std::lock_guard lock(_mutex);
    return _events.size();
}

std::string
TraceEventLog::toJson() const
{
    std::vector<Event> events;
    {
        const std::lock_guard lock(_mutex);
        events = _events;
    }
    // Metadata first, then time order; insertion order breaks ties so
    // the serialization is stable for a fixed set of recorded events.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         const bool am = a.phase == 'M';
                         const bool bm = b.phase == 'M';
                         if (am != bm)
                             return am;
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         return a.seq < b.seq;
                     });

    std::ostringstream oss;
    oss << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &e = events[i];
        oss << "  {\"ph\": \"" << e.phase << "\", \"name\": \""
            << json::escape(e.name) << "\", \"pid\": " << e.pid
            << ", \"tid\": " << e.tid << ", \"ts\": " << e.ts;
        if (e.phase == 'X')
            oss << ", \"dur\": " << e.dur;
        if (e.phase == 'C')
            oss << ", \"args\": {\"value\": " << json::fmtDouble(e.value)
                << "}";
        else if (!e.argsJson.empty())
            oss << ", \"args\": {" << e.argsJson << "}";
        oss << "}" << (i + 1 < events.size() ? "," : "") << "\n";
    }
    oss << "], \"displayTimeUnit\": \"ms\"}\n";
    return oss.str();
}

} // namespace minnoc::obs
