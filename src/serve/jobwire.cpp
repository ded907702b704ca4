#include "jobwire.hpp"

#include <cmath>

#include "dse/cache.hpp"
#include "topo/floorplan.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"

namespace minnoc::serve {

namespace {

/** Largest integer a JSON double carries exactly. */
constexpr double kMaxExact = 9007199254740992.0; // 2^53

// Strict typed field extraction: every getter rejects missing keys,
// wrong types, non-integral numbers and values beyond the exact-int
// range, filling @p err with the offending key.

bool
getU32(const json::Value &obj, const char *key, std::uint32_t &out,
       std::string &err)
{
    const auto *v = obj.find(key);
    if (!v || !v->isNumber()) {
        err = std::string("missing or non-numeric '") + key + "'";
        return false;
    }
    const double d = v->asNumber();
    if (d < 0 || d > 4294967295.0 || d != std::floor(d)) {
        err = std::string("'") + key + "' out of u32 range";
        return false;
    }
    out = static_cast<std::uint32_t>(d);
    return true;
}

bool
getU64(const json::Value &obj, const char *key, std::uint64_t &out,
       std::string &err)
{
    const auto *v = obj.find(key);
    if (!v || !v->isNumber()) {
        err = std::string("missing or non-numeric '") + key + "'";
        return false;
    }
    const double d = v->asNumber();
    if (d < 0 || d > kMaxExact || d != std::floor(d)) {
        err = std::string("'") + key + "' out of exact-u64 range";
        return false;
    }
    out = static_cast<std::uint64_t>(d);
    return true;
}

bool
getI64(const json::Value &obj, const char *key, std::int64_t &out,
       std::string &err)
{
    const auto *v = obj.find(key);
    if (!v || !v->isNumber()) {
        err = std::string("missing or non-numeric '") + key + "'";
        return false;
    }
    const double d = v->asNumber();
    if (d < -kMaxExact || d > kMaxExact || d != std::floor(d)) {
        err = std::string("'") + key + "' out of exact-i64 range";
        return false;
    }
    out = static_cast<std::int64_t>(d);
    return true;
}

bool
getDouble(const json::Value &obj, const char *key, double &out,
          std::string &err)
{
    const auto *v = obj.find(key);
    if (!v || !v->isNumber()) {
        err = std::string("missing or non-numeric '") + key + "'";
        return false;
    }
    out = v->asNumber();
    return true;
}

bool
getBool(const json::Value &obj, const char *key, bool &out,
        std::string &err)
{
    const auto *v = obj.find(key);
    if (!v || !v->isBool()) {
        err = std::string("missing or non-bool '") + key + "'";
        return false;
    }
    out = v->asBool();
    return true;
}

bool
getString(const json::Value &obj, const char *key, std::string &out,
          std::string &err)
{
    const auto *v = obj.find(key);
    if (!v || !v->isString()) {
        err = std::string("missing or non-string '") + key + "'";
        return false;
    }
    out = v->asString();
    return true;
}

} // namespace

std::string
encodeShardResult(const WorkerReply &reply)
{
    std::string out = "{\"type\": \"result\", \"wall_us\": " +
                      std::to_string(reply.wallUs) + ", \"points\": [";
    for (std::size_t k = 0; k < reply.results.size(); ++k) {
        const auto &r = reply.results[k];
        const auto &m = r.metrics;
        out += k ? ", " : "";
        out += "{\"index\": " + std::to_string(r.index);
        out += std::string(", \"cached\": ") + (r.cached ? "true" : "false");
        out += ", \"metrics\": {";
        out += "\"switches\": " + std::to_string(m.switches);
        out += ", \"links\": " + std::to_string(m.links);
        out += ", \"channels\": " + std::to_string(m.channels);
        out += std::string(", \"constraints_met\": ") +
               (m.constraintsMet ? "true" : "false");
        out += ", \"violations\": " + std::to_string(m.violations);
        out += ", \"rounds\": " + std::to_string(m.rounds);
        out += ", \"switch_area\": " + std::to_string(m.switchArea);
        out += ", \"link_area\": " + std::to_string(m.linkArea);
        out += ", \"proc_link_area\": " + std::to_string(m.procLinkArea);
        out += ", \"exec_time\": " + std::to_string(m.execTime);
        out += ", \"avg_latency\": " + json::fmtDouble(m.avgLatency);
        out += ", \"avg_hops\": " + json::fmtDouble(m.avgHops);
        out += ", \"max_link_util\": " + json::fmtDouble(m.maxLinkUtil);
        out += ", \"energy\": " + json::fmtDouble(m.energy);
        out += "}}";
    }
    out += "]}";
    return out;
}

WorkerReply
runDseShard(const trace::Trace &trace, const dse::ExploreConfig &config,
            std::uint32_t firstIndex, ThreadPool *pool)
{
    const std::int64_t t0 = CancelToken::nowUs();
    const auto report = pool ? dse::explore(trace, config, pool)
                             : dse::explore(trace, config);
    WorkerReply reply;
    for (std::size_t k = 0; k < report.points.size(); ++k) {
        const auto &pt = report.points[k];
        WorkerMsg msg;
        msg.index = firstIndex + static_cast<std::uint32_t>(k);
        msg.cached = pt.fromCache;
        msg.metrics = pt.metrics;
        reply.results.push_back(msg);
    }
    reply.wallUs = CancelToken::nowUs() - t0;
    return reply;
}

std::string
shardSignature(const dse::ExploreConfig &config)
{
    std::uint64_t h = dse::fnv1a64({});
    for (const auto &params : config.grid.expand())
        h = dse::fnv1a64(dse::jobSignature(params, config) + '\n', h);
    return std::to_string(h);
}

std::string
encodePhaseResult(std::uint32_t index, std::int64_t wallUs,
                  const phase::PhaseRowEval &row)
{
    const auto &v = row.network;
    std::string out = "{\"type\": \"result\", \"index\": " +
                      std::to_string(index);
    out += ", \"wall_us\": " + std::to_string(wallUs);
    out += ", \"row\": {";
    out += "\"switches\": " + std::to_string(v.switches);
    out += ", \"links\": " + std::to_string(v.links);
    out += ", \"channels\": " + std::to_string(v.channels);
    out += ", \"area\": " + std::to_string(v.area);
    out += ", \"exec_time\": " + std::to_string(v.execTime);
    out += ", \"avg_latency\": " + json::fmtDouble(v.avgLatency);
    out += ", \"energy\": " + json::fmtDouble(v.energy);
    out += ", \"packets\": " + std::to_string(v.packetsDelivered);
    out += ", \"violations\": " + std::to_string(v.violations);
    out += ", \"reconfig_idle_energy\": " +
           json::fmtDouble(row.reconfigIdleEnergy);
    out += "}}";
    return out;
}

std::string
phasesSignature(const phase::PhaseEvalConfig &config)
{
    return config.methodology.signature() + "|" +
           topo::FloorplanConfig{}.signature() + "|" +
           config.power.signature() + "|" + config.sim.signature() +
           "|" + config.segmenter.signature() +
           ";rc=" + std::to_string(config.reconfigCost);
}

std::optional<WorkerReply>
parseWorkerReply(const std::string &text, Cmd cmd, std::string &err)
{
    const auto doc = json::parse(text);
    if (!doc || !doc->isObject()) {
        err = "job result is not a JSON object";
        return std::nullopt;
    }
    std::string type;
    if (!getString(*doc, "type", type, err))
        return std::nullopt;
    if (type != "result") {
        err = "unknown job message type '" + type + "'";
        return std::nullopt;
    }
    WorkerReply reply;
    if (!getI64(*doc, "wall_us", reply.wallUs, err))
        return std::nullopt;

    if (cmd == Cmd::PhaseJob) {
        const auto *r = doc->find("row");
        if (!r) {
            err = "phase_job result lacks 'row'";
            return std::nullopt;
        }
        WorkerMsg msg;
        auto &v = msg.row.network;
        std::uint64_t packets = 0;
        std::uint64_t violations = 0;
        std::int64_t exec = 0;
        if (!getU32(*doc, "index", msg.index, err) ||
            !getU32(*r, "switches", v.switches, err) ||
            !getU32(*r, "links", v.links, err) ||
            !getU32(*r, "channels", v.channels, err) ||
            !getU32(*r, "area", v.area, err) ||
            !getI64(*r, "exec_time", exec, err) ||
            !getDouble(*r, "avg_latency", v.avgLatency, err) ||
            !getDouble(*r, "energy", v.energy, err) ||
            !getU64(*r, "packets", packets, err) ||
            !getU64(*r, "violations", violations, err) ||
            !getDouble(*r, "reconfig_idle_energy",
                       msg.row.reconfigIdleEnergy, err))
            return std::nullopt;
        v.execTime = exec;
        v.packetsDelivered = packets;
        v.violations = static_cast<std::size_t>(violations);
        reply.results.push_back(msg);
        return reply;
    }

    const auto *points = doc->find("points");
    if (!points || !points->isArray() || points->asArray().empty()) {
        err = "dse_shard result lacks a non-empty 'points' list";
        return std::nullopt;
    }
    for (const auto &pt : points->asArray()) {
        WorkerMsg msg;
        const auto *m = pt.find("metrics");
        if (!m) {
            err = "dse_shard point lacks 'metrics'";
            return std::nullopt;
        }
        auto &metrics = msg.metrics;
        if (!getU32(pt, "index", msg.index, err) ||
            !getBool(pt, "cached", msg.cached, err) ||
            !getU32(*m, "switches", metrics.switches, err) ||
            !getU32(*m, "links", metrics.links, err) ||
            !getU32(*m, "channels", metrics.channels, err) ||
            !getBool(*m, "constraints_met", metrics.constraintsMet, err) ||
            !getU32(*m, "violations", metrics.violations, err) ||
            !getU32(*m, "rounds", metrics.rounds, err) ||
            !getU32(*m, "switch_area", metrics.switchArea, err) ||
            !getU32(*m, "link_area", metrics.linkArea, err) ||
            !getU32(*m, "proc_link_area", metrics.procLinkArea, err) ||
            !getI64(*m, "exec_time", metrics.execTime, err) ||
            !getDouble(*m, "avg_latency", metrics.avgLatency, err) ||
            !getDouble(*m, "avg_hops", metrics.avgHops, err) ||
            !getDouble(*m, "max_link_util", metrics.maxLinkUtil, err) ||
            !getDouble(*m, "energy", metrics.energy, err))
            return std::nullopt;
        reply.results.push_back(msg);
    }
    return reply;
}

} // namespace minnoc::serve
