#include "protocol.hpp"

#include <type_traits>

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

/** @p cmd's bit in a Field's command mask. */
constexpr unsigned
bit(Cmd cmd)
{
    return 1u << static_cast<unsigned>(cmd);
}

constexpr unsigned kGridCmds = bit(Cmd::Explore) | bit(Cmd::DseShard);
constexpr unsigned kPhaseCmds = bit(Cmd::Phases) | bit(Cmd::PhaseJob);
constexpr unsigned kJobCmds = bit(Cmd::DseShard) | bit(Cmd::PhaseJob);
constexpr unsigned kScalarCmds = bit(Cmd::Design) | kPhaseCmds;
constexpr unsigned kComputeCmds = kScalarCmds | kGridCmds;

/**
 * One request field: its JSON name, the commands that take it, the
 * bounds of its value (of each element, for a list; of the length,
 * for a string) and the error text that follows its quoted name.
 */
struct Field
{
    const char *name;
    unsigned cmds;
    double min;
    double max;
    const char *what;
    std::size_t maxLen = kMaxGridList; ///< longest list
    bool required = false;
};

/**
 * Visit every request field of @p req (const or not) as f(field,
 * member), in wire order: the member is the config value the field
 * sets. parseRequest reads and requestLine writes through this one
 * list. `restarts` is a list for a grid and a scalar otherwise, and
 * `reconfig_cost` keeps its place in each command's line, so both
 * appear twice.
 */
template <class R, class F>
void
forEachRequestField(R &req, F &&f)
{
    const bool grid = bit(req.cmd) & kGridCmds;
    auto &g = req.explore.grid;
    auto &m = req.phases.methodology;
    auto &segmenter =
        grid ? req.explore.phaseSegmenter : req.phases.segmenter;
    constexpr double kSeedMax = json::kMaxExactInt;
    const char *reconfig = "must be an integer in [0, 1e9]";

    f(Field{"attempt", kJobCmds, 1, 2, "must be an integer in [1, 2]"},
      req.attempt);
    f(Field{"job_index", kJobCmds, 0, 4294967295.0,
            "must be an integer in [0, 2^32)"},
      req.jobIndex);
    // The drift guard between coordinator and backend; a job without
    // one cannot be checked, so it is required.
    f(Field{"sig", kJobCmds, 1, 1024,
            "must be a non-empty string of at most 1024 bytes",
            kMaxGridList, true},
      req.sig);
    f(Field{"degrees", kGridCmds, 1, 64,
            "must be a non-empty array of integers in [1, 64]"},
      g.maxDegrees);
    f(Field{"restarts", kGridCmds, 1, 1024,
            "must be a non-empty array of integers in [1, 1024]"},
      g.restarts);
    f(Field{"seeds", kGridCmds, 0, kSeedMax,
            "must be a non-empty array of non-negative integers"},
      g.seeds);
    f(Field{"unidirectional", kGridCmds, 0, 1,
            "must be a non-empty array of 0/1", kMaxGridDirections},
      g.unidirectional);
    f(Field{"vcs", kGridCmds, 1, 32,
            "must be a non-empty array of integers in [1, 32]"},
      g.vcs);
    f(Field{"vc_depth", kGridCmds, 1, 64, "must be an integer in [1, 64]"},
      g.vcDepth);
    f(Field{"phase_windows", kGridCmds, 0, 1'000'000,
            "must be a non-empty array of integers in [0, 1000000]"},
      g.phaseWindows);
    f(Field{"reconfig_cost", kGridCmds, 0, 1e9, reconfig},
      req.explore.phaseReconfigCost);
    f(Field{"window", kPhaseCmds, 1, 1e9, "must be an integer in [1, 1e9]"},
      req.phases.segmenter.windowMessages);
    f(Field{"threshold", bit(Cmd::DseShard) | kPhaseCmds, 0, 1e6,
            "must be a number in [0, 1e6]"},
      segmenter.mergeThreshold);
    f(Field{"min_phase_windows", bit(Cmd::DseShard) | kPhaseCmds, 1, 1e6,
            "must be an integer in [1, 1e6]"},
      segmenter.minPhaseWindows);
    f(Field{"max_degree", kScalarCmds, 1, 64,
            "must be an integer in [1, 64]"},
      m.partitioner.constraints.maxDegree);
    f(Field{"restarts", kScalarCmds, 1, 1024,
            "must be an integer in [1, 1024]"},
      m.restarts);
    f(Field{"seed", kScalarCmds, 0, kSeedMax,
            "must be a non-negative integer"},
      m.partitioner.seed);
    f(Field{"reconfig_cost", kPhaseCmds, 0, 1e9, reconfig},
      req.phases.reconfigCost);
    f(Field{"expected_phases", bit(Cmd::PhaseJob), 0, 1e6,
            "must be an integer in [0, 1e6]"},
      req.expectedPhases);
    // Every command that prices a simulated run takes the energy tier
    // (design emits no energy numbers).
    f(Field{"power", kGridCmds | kPhaseCmds, 0, 0,
            "must be 'static' or 'activity'"},
      grid ? req.explore.power.kind : req.phases.power.kind);
    f(Field{"deadline_ms", kComputeCmds, 0,
            static_cast<double>(kMaxDeadlineMs),
            "must be an integer in [0, 86400000]"},
      req.deadlineMs);
}

/** Read @p v into @p out within @p field's bounds; false if it does not fit. */
template <class T>
bool
readValue(const json::Value &v, const Field &field, T &out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        if (!v.isString() || v.asString().size() < field.min ||
            v.asString().size() > field.max)
            return false;
        out = v.asString();
    } else if constexpr (std::is_same_v<T, topo::PowerModelKind>) {
        const auto kind = v.isString()
                              ? topo::powerModelKindFromName(v.asString())
                              : std::nullopt;
        if (!kind)
            return false;
        out = *kind;
    } else if constexpr (std::is_floating_point_v<T>) {
        if (!v.isNumber() || !(v.asNumber() >= field.min) ||
            !(v.asNumber() <= field.max))
            return false;
        out = v.asNumber();
    } else if constexpr (std::is_integral_v<T>) {
        if (!json::isExactInt(v, field.min, field.max))
            return false;
        out = static_cast<T>(v.asNumber());
    } else { // a grid list
        if (!v.isArray() || v.asArray().empty() ||
            v.asArray().size() > field.maxLen)
            return false;
        T list;
        for (const auto &item : v.asArray())
            if (!readValue(item, field, list.emplace_back()))
                return false;
        out = std::move(list);
    }
    return true;
}

/** Append @p v to @p out as the JSON value readValue reads back. */
template <class T>
void
writeValue(std::string &out, const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out += '"' + json::escape(v) + '"';
    } else if constexpr (std::is_same_v<T, topo::PowerModelKind>) {
        out += std::string("\"") + topo::powerModelKindName(v) + '"';
    } else if constexpr (std::is_arithmetic_v<T>) {
        out += json::fmtValue(v);
    } else {
        out += '[';
        for (std::size_t i = 0; i < v.size(); ++i)
            out += (i ? ", " : "") + json::fmtValue(v[i]);
        out += ']';
    }
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
    auto c = static_cast<unsigned>(Cmd::Ping);
    while (c <= static_cast<unsigned>(Cmd::PhaseJob) &&
           name != cmdName(static_cast<Cmd>(c)))
        ++c;
    if (c > static_cast<unsigned>(Cmd::PhaseJob))
        return fail(error, ErrorCode::ValidationError,
                    "unknown cmd '" + name + "'");
    req.cmd = static_cast<Cmd>(c);
    const bool compute = bit(req.cmd) & kComputeCmds;

    // Strict field set: every key must be known AND applicable to the
    // command — a typoed or misplaced parameter is an error, not a
    // silently-ignored no-op.
    for (const auto &[key, value] : obj) {
        (void)value;
        bool known = key == "id" || key == "cmd" ||
                     (compute && key == "trace");
        forEachRequestField(req, [&](const Field &field, const auto &) {
            known = known ||
                    (key == field.name && (field.cmds & bit(req.cmd)));
        });
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

    std::optional<Field> bad;
    forEachRequestField(req, [&](const Field &field, auto &member) {
        if (bad || !(field.cmds & bit(req.cmd)))
            return;
        const auto *v = root->find(field.name);
        if (v ? !readValue(*v, field, member) : field.required)
            bad = field;
    });
    if (bad)
        return fail(error, ErrorCode::ValidationError,
                    std::string("'") + bad->name + "' " + bad->what);

    // Admission-time DoS guard: a request's grid expands
    // multiplicatively, so bound the job count before any work.
    if (bit(req.cmd) & kGridCmds) {
        const auto &g = req.explore.grid;
        const std::size_t jobs = g.maxDegrees.size() * g.restarts.size() *
                                 g.seeds.size() * g.unidirectional.size() *
                                 g.vcs.size() * g.phaseWindows.size();
        if (jobs == 0 || jobs > kMaxGridJobs)
            return fail(error, ErrorCode::ValidationError,
                        "grid expands to " + std::to_string(jobs) +
                            " jobs (limit " +
                            std::to_string(kMaxGridJobs) + ")");
    }
    return req;
}

std::string
requestLine(const Request &req, std::string_view traceJson)
{
    std::string out = "{\"id\": \"" + json::escape(req.id) +
                      "\", \"cmd\": \"" + cmdName(req.cmd) + "\"";
    forEachRequestField(req, [&](const Field &field, const auto &v) {
        if (!(field.cmds & bit(req.cmd)))
            return;
        // The static tier is the default and stays off the line, as it
        // did before the activity tier existed.
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                     topo::PowerModelKind>)
            if (v == topo::PowerModelKind::Static)
                return;
        out += std::string(", \"") + field.name + "\": ";
        writeValue(out, v);
    });
    out += ", \"trace\": \"";
    out += traceJson;
    return out + "\"}\n";
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
