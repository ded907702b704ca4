#include "protocol.hpp"

#include <sstream>

#include "topo/power.hpp"
#include "util/json.hpp"

namespace minnoc::serve {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::ParseError: return "parse_error";
      case ErrorCode::ValidationError: return "validation_error";
      case ErrorCode::Timeout: return "timeout";
      case ErrorCode::QueueFull: return "queue_full";
      case ErrorCode::Cancelled: return "cancelled";
      case ErrorCode::ShuttingDown: return "shutting_down";
      case ErrorCode::Internal: return "internal";
    }
    return "internal";
}

const char *
cmdName(Cmd cmd)
{
    switch (cmd) {
      case Cmd::Ping: return "ping";
      case Cmd::Status: return "status";
      case Cmd::Design: return "design";
      case Cmd::Explore: return "explore";
      case Cmd::Phases: return "phases";
      case Cmd::DseShard: return "dse_shard";
      case Cmd::PhaseJob: return "phase_job";
    }
    return "ping";
}

namespace {

/** Set @p error and return nullopt — the single failure-path helper. */
std::optional<Request>
fail(RequestError &error, ErrorCode code, std::string message)
{
    error.code = code;
    error.message = std::move(message);
    return std::nullopt;
}

/** Extract a non-negative integer <= @p max from a JSON number. */
bool
asUint(const json::Value &v, std::uint64_t max, std::uint64_t &out)
{
    if (!json::isExactInt(v, 0.0, static_cast<double>(max)))
        return false;
    out = static_cast<std::uint64_t>(v.asNumber());
    return true;
}

/** Extract a bounded, non-empty array of integers in [min, max]. */
bool
asUintList(const json::Value &v, std::uint64_t minV, std::uint64_t maxV,
           std::size_t maxLen, std::vector<std::uint64_t> &out)
{
    if (!v.isArray())
        return false;
    const auto &arr = v.asArray();
    if (arr.empty() || arr.size() > maxLen)
        return false;
    out.clear();
    for (const auto &item : arr) {
        std::uint64_t u = 0;
        if (!asUint(item, maxV, u) || u < minV)
            return false;
        out.push_back(u);
    }
    return true;
}

std::vector<std::uint32_t>
narrow32(const std::vector<std::uint64_t> &values)
{
    std::vector<std::uint32_t> out;
    out.reserve(values.size());
    for (const auto v : values)
        out.push_back(static_cast<std::uint32_t>(v));
    return out;
}

} // namespace

std::optional<Request>
parseRequest(const std::string &line, RequestError &error)
{
    if (line.size() > kMaxRequestBytes)
        return fail(error, ErrorCode::ParseError,
                    "request exceeds " +
                        std::to_string(kMaxRequestBytes) + " bytes");

    const auto root = json::parse(line);
    if (!root)
        return fail(error, ErrorCode::ParseError, "malformed JSON");
    if (!root->isObject())
        return fail(error, ErrorCode::ParseError,
                    "request must be a JSON object");
    const auto &obj = root->asObject();

    Request req;

    // id: optional, echoed back verbatim (escaped) in the response.
    if (const auto *id = root->find("id")) {
        if (!id->isString() || id->asString().size() > 256)
            return fail(error, ErrorCode::ValidationError,
                        "'id' must be a string of at most 256 bytes");
        req.id = id->asString();
    }

    const auto *cmd = root->find("cmd");
    if (!cmd || !cmd->isString())
        return fail(error, ErrorCode::ValidationError,
                    "missing or non-string 'cmd'");
    const auto &name = cmd->asString();
    if (name == "ping")
        req.cmd = Cmd::Ping;
    else if (name == "status")
        req.cmd = Cmd::Status;
    else if (name == "design")
        req.cmd = Cmd::Design;
    else if (name == "explore")
        req.cmd = Cmd::Explore;
    else if (name == "phases")
        req.cmd = Cmd::Phases;
    else if (name == "dse_shard")
        req.cmd = Cmd::DseShard;
    else if (name == "phase_job")
        req.cmd = Cmd::PhaseJob;
    else
        return fail(error, ErrorCode::ValidationError,
                    "unknown cmd '" + name + "'");

    const bool compute = req.cmd != Cmd::Ping && req.cmd != Cmd::Status;
    // Which parameter families a command takes: scalar methodology
    // knobs, an explore grid, the priced-run knobs, the phase
    // segmenter, and the coordinator's job dispatch fields.
    const bool scalars = req.cmd == Cmd::Design ||
                         req.cmd == Cmd::Phases ||
                         req.cmd == Cmd::PhaseJob;
    const bool grid = req.cmd == Cmd::Explore || req.cmd == Cmd::DseShard;
    const bool job = req.cmd == Cmd::DseShard || req.cmd == Cmd::PhaseJob;
    const bool priced = grid || req.cmd == Cmd::Phases ||
                        req.cmd == Cmd::PhaseJob;
    const bool segmented = job || req.cmd == Cmd::Phases;
    const bool windowed =
        req.cmd == Cmd::Phases || req.cmd == Cmd::PhaseJob;

    // Strict field set: every key must be known AND applicable to the
    // command — a typoed or misplaced parameter is an error, not a
    // silently-ignored no-op.
    for (const auto &[key, value] : obj) {
        (void)value;
        const bool known =
            key == "id" || key == "cmd" ||
            (compute && (key == "trace" || key == "deadline_ms")) ||
            (scalars && (key == "max_degree" || key == "restarts" ||
                         key == "seed")) ||
            (grid && (key == "degrees" || key == "restarts" ||
                      key == "seeds" || key == "vcs" ||
                      key == "unidirectional" || key == "vc_depth" ||
                      key == "phase_windows")) ||
            (priced && (key == "reconfig_cost" || key == "power")) ||
            (segmented &&
             (key == "threshold" || key == "min_phase_windows")) ||
            (windowed && key == "window") ||
            (job && (key == "attempt" || key == "job_index" ||
                     key == "sig")) ||
            (req.cmd == Cmd::PhaseJob && key == "expected_phases");
        if (!known)
            return fail(error, ErrorCode::ValidationError,
                        "unknown field '" + key + "' for cmd '" + name +
                            "'");
    }

    if (!compute)
        return req;

    const auto *tr = root->find("trace");
    if (!tr || !tr->isString() || tr->asString().empty())
        return fail(error, ErrorCode::ValidationError,
                    "missing or empty 'trace'");
    req.traceText = tr->asString();

    std::uint64_t u = 0;
    if (const auto *dl = root->find("deadline_ms")) {
        if (!asUint(*dl, kMaxDeadlineMs, u))
            return fail(error, ErrorCode::ValidationError,
                        "'deadline_ms' must be an integer in "
                        "[0, 86400000]");
        req.deadlineMs = static_cast<std::int64_t>(u);
    }

    const auto badField = [&](const char *field, const char *what) {
        return fail(error, ErrorCode::ValidationError,
                    std::string("'") + field + "' " + what);
    };

    if (scalars) {
        if (const auto *v = root->find("max_degree")) {
            if (!asUint(*v, 64, u) || u < 1)
                return badField("max_degree",
                                "must be an integer in [1, 64]");
            req.maxDegree = static_cast<std::uint32_t>(u);
        }
        if (const auto *v = root->find("restarts")) {
            if (!asUint(*v, 1024, u) || u < 1)
                return badField("restarts",
                                "must be an integer in [1, 1024]");
            req.restarts = static_cast<std::uint32_t>(u);
        }
        if (const auto *v = root->find("seed")) {
            if (!asUint(*v, static_cast<std::uint64_t>(json::kMaxExactInt),
                        u))
                return badField("seed", "must be a non-negative integer");
            req.seed = u;
        }
    }

    // Energy accounting tier and reconfiguration penalty: every
    // command that prices a simulated run takes them (design emits no
    // energy numbers). The field check above already rejected them
    // anywhere else, as it did every key parsed below.
    if (const auto *v = root->find("power")) {
        if (!v->isString() || !topo::powerModelKindFromName(v->asString()))
            return badField("power", "must be 'static' or 'activity'");
        req.power = v->asString();
    }
    if (const auto *v = root->find("reconfig_cost")) {
        if (!asUint(*v, 1'000'000'000, u))
            return badField("reconfig_cost",
                            "must be an integer in [0, 1e9]");
        req.reconfigCost = static_cast<std::int64_t>(u);
    }

    if (grid) {
        std::vector<std::uint64_t> list;
        if (const auto *v = root->find("degrees")) {
            if (!asUintList(*v, 1, 64, kMaxGridList, list))
                return badField("degrees",
                                "must be a non-empty array of integers "
                                "in [1, 64]");
            req.grid.maxDegrees = narrow32(list);
        }
        if (const auto *v = root->find("restarts")) {
            if (!asUintList(*v, 1, 1024, kMaxGridList, list))
                return badField("restarts",
                                "must be a non-empty array of integers "
                                "in [1, 1024]");
            req.grid.restarts = narrow32(list);
        }
        if (const auto *v = root->find("seeds")) {
            if (!asUintList(*v, 0,
                            static_cast<std::uint64_t>(json::kMaxExactInt),
                            kMaxGridList, list))
                return badField("seeds",
                                "must be a non-empty array of "
                                "non-negative integers");
            req.grid.seeds = list;
        }
        if (const auto *v = root->find("vcs")) {
            if (!asUintList(*v, 1, 32, kMaxGridList, list))
                return badField("vcs",
                                "must be a non-empty array of integers "
                                "in [1, 32]");
            req.grid.vcs = narrow32(list);
        }
        if (const auto *v = root->find("unidirectional")) {
            if (!asUintList(*v, 0, 1, kMaxGridDirections, list))
                return badField("unidirectional",
                                "must be a non-empty array of 0/1");
            req.grid.unidirectional = narrow32(list);
        }
        if (const auto *v = root->find("vc_depth")) {
            if (!asUint(*v, 64, u) || u < 1)
                return badField("vc_depth",
                                "must be an integer in [1, 64]");
            req.grid.vcDepth = static_cast<std::uint32_t>(u);
        }
        if (const auto *v = root->find("phase_windows")) {
            if (!asUintList(*v, 0, 1'000'000, kMaxGridList, list))
                return badField("phase_windows",
                                "must be a non-empty array of integers "
                                "in [0, 1000000]");
            req.grid.phaseWindows = narrow32(list);
        }

        // Admission-time DoS guard: a request's grid expands
        // multiplicatively, so bound the job count before any work.
        const std::size_t jobs = req.grid.maxDegrees.size() *
                                 req.grid.restarts.size() *
                                 req.grid.seeds.size() *
                                 req.grid.unidirectional.size() *
                                 req.grid.vcs.size() *
                                 req.grid.phaseWindows.size();
        if (jobs == 0 || jobs > kMaxGridJobs)
            return fail(error, ErrorCode::ValidationError,
                        "grid expands to " + std::to_string(jobs) +
                            " jobs (limit " +
                            std::to_string(kMaxGridJobs) + ")");
    }

    if (const auto *v = root->find("window")) {
        if (!asUint(*v, 1'000'000'000, u) || u < 1)
            return badField("window", "must be an integer in [1, 1e9]");
        req.window = static_cast<std::uint32_t>(u);
    }
    if (const auto *v = root->find("threshold")) {
        if (!v->isNumber() || !(v->asNumber() >= 0.0) ||
            !(v->asNumber() <= 1e6))
            return badField("threshold", "must be a number in [0, 1e6]");
        req.threshold = v->asNumber();
    }
    if (const auto *v = root->find("min_phase_windows")) {
        if (!asUint(*v, 1'000'000, u) || u < 1)
            return badField("min_phase_windows",
                            "must be an integer in [1, 1e6]");
        req.minPhaseWindows = static_cast<std::uint32_t>(u);
    }

    if (job) {
        if (const auto *v = root->find("attempt")) {
            if (!asUint(*v, 2, u) || u < 1)
                return badField("attempt",
                                "must be an integer in [1, 2]");
            req.attempt = static_cast<std::uint32_t>(u);
        }
        if (const auto *v = root->find("job_index")) {
            if (!asUint(*v, 4294967295ull, u))
                return badField("job_index",
                                "must be an integer in [0, 2^32)");
            req.jobIndex = static_cast<std::uint32_t>(u);
        }
        // The signature is the drift guard between coordinator and
        // backend; a job without one cannot be checked, so require it.
        const auto *sig = root->find("sig");
        if (!sig || !sig->isString() || sig->asString().empty() ||
            sig->asString().size() > 1024)
            return fail(error, ErrorCode::ValidationError,
                        "'sig' must be a non-empty string of at most "
                        "1024 bytes");
        req.sig = sig->asString();
    }

    if (const auto *v = root->find("expected_phases")) {
        if (!asUint(*v, 1'000'000, u))
            return badField("expected_phases",
                            "must be an integer in [0, 1e6]");
        req.expectedPhases = static_cast<std::uint32_t>(u);
    }

    return req;
}

std::string
okResponse(const std::string &id, Cmd cmd, std::string_view payload)
{
    std::string out = "{\"id\": \"" + json::escape(id) +
                      "\", \"status\": \"ok\", \"cmd\": \"" +
                      cmdName(cmd) + "\", \"result\": \"" +
                      json::escape(payload) + "\"}\n";
    return out;
}

std::string
errorResponse(const std::string &id, ErrorCode code,
              std::string_view message)
{
    std::string out = "{\"id\": \"" + json::escape(id) +
                      "\", \"status\": \"error\", \"code\": \"" +
                      errorCodeName(code) + "\", \"message\": \"" +
                      json::escape(message) + "\"}\n";
    return out;
}

std::optional<Reply>
parseReply(const std::string &line)
{
    const auto root = json::parse(line);
    if (!root || !root->isObject())
        return std::nullopt;
    const auto *status = root->find("status");
    if (!status || !status->isString())
        return std::nullopt;

    Reply reply;
    if (const auto *id = root->find("id"); id && id->isString())
        reply.id = id->asString();
    if (status->asString() == "ok") {
        reply.ok = true;
        const auto *cmd = root->find("cmd");
        const auto *result = root->find("result");
        if (!cmd || !cmd->isString() || !result || !result->isString())
            return std::nullopt;
        reply.cmd = cmd->asString();
        reply.result = result->asString();
        return reply;
    }
    if (status->asString() != "error")
        return std::nullopt;
    const auto *code = root->find("code");
    const auto *message = root->find("message");
    if (!code || !code->isString() || !message || !message->isString())
        return std::nullopt;
    reply.code = code->asString();
    reply.message = message->asString();
    return reply;
}

} // namespace minnoc::serve
