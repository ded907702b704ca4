#include "metrics.hpp"

#include <cmath>
#include <sstream>

#include "util/json.hpp"
#include "util/log.hpp"

namespace minnoc::obs {

std::uint64_t
LatencyHistogram::quantile(double q) const
{
    if (_count == 0)
        return 0;
    if (q >= 1.0)
        return _max;
    if (q <= 0.0)
        return _min;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(_count)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < _counts.size(); ++b) {
        seen += _counts[b];
        if (seen >= rank)
            return std::min(bucketHi(b), _max);
    }
    return _max;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
LatencyHistogram::buckets() const
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (std::size_t b = 0; b < _counts.size(); ++b)
        if (_counts[b])
            out.emplace_back(bucketLo(b), _counts[b]);
    return out;
}

MetricsRegistry::Entry &
MetricsRegistry::entry(const std::string &name, bool timing)
{
    auto &e = _entries[name];
    e.timing = e.timing || timing;
    return e;
}

Counter &
MetricsRegistry::counter(const std::string &name, bool timing)
{
    const std::lock_guard lock(_mutex);
    auto &e = entry(name, timing);
    if (e.gauge || e.series || e.histogram)
        fatal("metric '", name, "' already registered with another kind");
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, bool timing)
{
    const std::lock_guard lock(_mutex);
    auto &e = entry(name, timing);
    if (e.counter || e.series || e.histogram)
        fatal("metric '", name, "' already registered with another kind");
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

Series &
MetricsRegistry::series(const std::string &name, bool timing)
{
    const std::lock_guard lock(_mutex);
    auto &e = entry(name, timing);
    if (e.counter || e.gauge || e.histogram)
        fatal("metric '", name, "' already registered with another kind");
    if (!e.series)
        e.series = std::make_unique<Series>();
    return *e.series;
}

LatencyHistogram &
MetricsRegistry::histogram(const std::string &name, bool timing)
{
    const std::lock_guard lock(_mutex);
    auto &e = entry(name, timing);
    if (e.counter || e.gauge || e.series)
        fatal("metric '", name, "' already registered with another kind");
    if (!e.histogram)
        e.histogram = std::make_unique<LatencyHistogram>();
    return *e.histogram;
}

std::size_t
MetricsRegistry::size() const
{
    const std::lock_guard lock(_mutex);
    return _entries.size();
}

std::string
MetricsRegistry::toJson(bool includeTimings) const
{
    const std::lock_guard lock(_mutex);
    std::ostringstream oss;
    oss << "{\n  \"report\": \"minnoc-metrics\",\n"
        << "  \"schema\": \"minnoc-metrics-v1\",\n"
        << "  \"metrics\": [\n";
    bool first = true;
    for (const auto &[name, e] : _entries) {
        if (e.timing && !includeTimings)
            continue;
        oss << (first ? "" : ",\n") << "    {\"name\": \""
            << json::escape(name) << "\", ";
        if (e.counter) {
            oss << "\"type\": \"counter\", \"value\": "
                << e.counter->value() << "}";
        } else if (e.gauge) {
            oss << "\"type\": \"gauge\", \"value\": "
                << json::fmtDouble(e.gauge->value()) << "}";
        } else if (e.series) {
            oss << "\"type\": \"series\", \"points\": [";
            const auto &pts = e.series->points();
            for (std::size_t i = 0; i < pts.size(); ++i)
                oss << (i ? ", " : "") << "[" << pts[i].first << ", "
                    << json::fmtDouble(pts[i].second) << "]";
            oss << "]}";
        } else if (e.histogram) {
            const auto &h = *e.histogram;
            oss << "\"type\": \"histogram\", \"count\": " << h.count()
                << ", \"sum\": " << h.sum() << ", \"min\": " << h.min()
                << ", \"max\": " << h.max()
                << ", \"mean\": " << json::fmtDouble(h.mean())
                << ", \"p50\": " << h.quantile(0.50)
                << ", \"p90\": " << h.quantile(0.90)
                << ", \"p99\": " << h.quantile(0.99)
                << ", \"buckets\": [";
            const auto bs = h.buckets();
            for (std::size_t i = 0; i < bs.size(); ++i)
                oss << (i ? ", " : "") << "[" << bs[i].first << ", "
                    << bs[i].second << "]";
            oss << "]}";
        } else {
            // Registered but never materialized (cannot happen via the
            // public API); emit a null so the dump stays parseable.
            oss << "\"type\": \"null\"}";
        }
        first = false;
    }
    oss << "\n  ]\n}\n";
    return oss.str();
}

} // namespace minnoc::obs
