#include "jobwire.hpp"

#include "dse/cache.hpp"
#include "topo/floorplan.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"

namespace minnoc::serve {

std::string
encodeShardResult(const WorkerReply &reply)
{
    std::string out = "{\"type\": \"result\", \"wall_us\": " +
                      std::to_string(reply.wallUs) + ", \"points\": [";
    for (std::size_t k = 0; k < reply.results.size(); ++k) {
        const auto &r = reply.results[k];
        out += k ? ", " : "";
        out += "{\"index\": " + std::to_string(r.index) +
               ", \"cached\": " + json::fmtValue(r.cached) +
               ", \"metrics\": {";
        const char *sep = "";
        dse::forEachField(r.metrics, [&](const char *name, auto v) {
            out += std::string(sep) + "\"" + name +
                   "\": " + json::fmtValue(v);
            sep = ", ";
        });
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
    std::string network = row.network.toJson();
    network.pop_back(); // reopened for the idle energy
    return "{\"type\": \"result\", \"index\": " + std::to_string(index) +
           ", \"wall_us\": " + std::to_string(wallUs) + ", \"row\": " +
           network + ", \"reconfig_idle_energy\": " +
           json::fmtDouble(row.reconfigIdleEnergy) + "}}";
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
    if (!json::readField(*doc, "type", type, err))
        return std::nullopt;
    if (type != "result") {
        err = "unknown job message type '" + type + "'";
        return std::nullopt;
    }
    WorkerReply reply;
    if (!json::readField(*doc, "wall_us", reply.wallUs, err))
        return std::nullopt;

    if (cmd == Cmd::PhaseJob) {
        const auto *r = doc->find("row");
        if (!r) {
            err = "phase_job result lacks 'row'";
            return std::nullopt;
        }
        WorkerMsg msg;
        auto network = phase::VariantResult::fromJson(*r, err);
        if (!json::readField(*doc, "index", msg.index, err) || !network ||
            !json::readField(*r, "reconfig_idle_energy",
                             msg.row.reconfigIdleEnergy, err))
            return std::nullopt;
        msg.row.network = *network;
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
        bool ok = json::readField(pt, "index", msg.index, err) &&
                  json::readField(pt, "cached", msg.cached, err);
        dse::forEachField(msg.metrics, [&](const char *name, auto &v) {
            ok = ok && json::readField(*m, name, v, err);
        });
        if (!ok)
            return std::nullopt;
        reply.results.push_back(msg);
    }
    return reply;
}

} // namespace minnoc::serve
