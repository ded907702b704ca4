#include "jobwire.hpp"

#include <cmath>

#include "dse/cache.hpp"
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
encodeResult(std::uint32_t index, bool cached, std::int64_t wallUs,
             const dse::JobMetrics &m)
{
    std::string out = "{\"type\": \"result\", \"index\": " +
                      std::to_string(index);
    out += std::string(", \"cached\": ") + (cached ? "true" : "false");
    out += ", \"wall_us\": " + std::to_string(wallUs);
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
    return out;
}

WorkerMsg
runDseJob(const trace::Trace &trace, const core::CliqueSet &cliques,
          std::uint32_t index, const dse::JobParams &params,
          const dse::ExploreConfig &config, const std::string &key,
          const std::string &sig)
{
    const dse::ResultCache cache(config.cacheDir, config.useCache);
    const std::int64_t t0 = CancelToken::nowUs();
    WorkerMsg msg;
    msg.index = index;
    if (auto hit = cache.load(key, sig)) {
        msg.metrics = *hit;
        msg.cached = true;
    } else {
        msg.metrics = dse::evaluateJob(trace, cliques, params, config);
        cache.store(key, sig, msg.metrics);
    }
    msg.wallUs = CancelToken::nowUs() - t0;
    return msg;
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
           config.floorplan.signature() + "|" +
           config.power.signature() + "|" + config.sim.signature() +
           "|" + config.segmenter.signature() +
           ";rc=" + std::to_string(config.reconfigCost);
}

std::optional<WorkerMsg>
parseWorkerMsg(const std::string &text, std::string &err)
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
    WorkerMsg msg;
    if (!getU32(*doc, "index", msg.index, err) ||
        !getI64(*doc, "wall_us", msg.wallUs, err))
        return std::nullopt;
    if (const auto *m = doc->find("metrics")) {
        std::uint32_t violations = 0;
        if (!getU32(*m, "switches", msg.metrics.switches, err) ||
            !getU32(*m, "links", msg.metrics.links, err) ||
            !getU32(*m, "channels", msg.metrics.channels, err) ||
            !getBool(*m, "constraints_met", msg.metrics.constraintsMet,
                     err) ||
            !getU32(*m, "violations", violations, err) ||
            !getU32(*m, "rounds", msg.metrics.rounds, err) ||
            !getU32(*m, "switch_area", msg.metrics.switchArea, err) ||
            !getU32(*m, "link_area", msg.metrics.linkArea, err) ||
            !getU32(*m, "proc_link_area", msg.metrics.procLinkArea, err) ||
            !getI64(*m, "exec_time", msg.metrics.execTime, err) ||
            !getDouble(*m, "avg_latency", msg.metrics.avgLatency, err) ||
            !getDouble(*m, "avg_hops", msg.metrics.avgHops, err) ||
            !getDouble(*m, "max_link_util", msg.metrics.maxLinkUtil, err) ||
            !getDouble(*m, "energy", msg.metrics.energy, err) ||
            !getBool(*doc, "cached", msg.cached, err))
            return std::nullopt;
        msg.metrics.violations = violations;
    } else if (const auto *r = doc->find("row")) {
        msg.isPhaseRow = true;
        auto &v = msg.row.network;
        std::uint64_t packets = 0;
        std::uint64_t violations = 0;
        std::int64_t exec = 0;
        if (!getU32(*r, "switches", v.switches, err) ||
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
    } else {
        err = "job result lacks both 'metrics' and 'row'";
        return std::nullopt;
    }
    return msg;
}

} // namespace minnoc::serve
