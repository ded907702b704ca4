/**
 * @file
 * Wire protocol of the `minnoc serve` daemon.
 *
 * Newline-delimited JSON over a local socket: every request is one
 * JSON object on one line, every response is one JSON object on one
 * line, matched to its request by the client-chosen `id`. Multi-line
 * artifacts (trace submissions, report JSON) travel as JSON strings
 * with standard escaping, so the framing never depends on payload
 * content.
 *
 * Request shape:
 *
 *   {"id": "r1", "cmd": "explore", "trace": "trace CG-8 8\n...",
 *    "degrees": [4,5], "vcs": [2,3], "deadline_ms": 5000}
 *
 * Commands: `ping` and `status` (immediate, never queued), `design`,
 * `explore`, `phases` (admitted into the bounded work queue). Compute
 * parameters mirror the CLI flags of the same name and default to the
 * same values, so a serve response is byte-identical to the
 * corresponding CLI command's output for the same trace. Two more
 * queued commands are the `--hosts` coordinator's unit of remote work
 * (see jobwire.hpp): `dse_shard`, an explore sub-grid given in the
 * explore grid fields, and `phase_job`, one standalone phase row. Each
 * carries the coordinator's `attempt`, `job_index` and expected
 * signature `sig`.
 *
 * Response shape:
 *
 *   {"id": "r1", "status": "ok", "cmd": "explore", "result": "..."}
 *   {"id": "r1", "status": "error", "code": "timeout",
 *    "message": "deadline exceeded"}
 *
 * Parsing is strict and total: any byte sequence maps to either a
 * Request or a structured (code, message) error — never an abort, a
 * hang, or a partially-populated request. Unknown fields are errors
 * (fail fast beats silently ignoring a typoed parameter), as are
 * wrong types, out-of-range values, and parameter grids large enough
 * to be a denial of service.
 */

#ifndef MINNOC_SERVE_PROTOCOL_HPP
#define MINNOC_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"

namespace minnoc::serve {

/** Hard framing limits; anything past them is a structured error. */
inline constexpr std::size_t kMaxRequestBytes = 8u << 20; ///< one line
inline constexpr std::uint32_t kMaxTraceRanks = 4096;
inline constexpr std::size_t kMaxGridJobs = 1024;
/** Longest grid list a request may carry; `unidirectional`: two. */
inline constexpr std::size_t kMaxGridList = 64;
inline constexpr std::size_t kMaxGridDirections = 2;
/** Largest `deadline_ms` a request may carry (24 h). */
inline constexpr std::int64_t kMaxDeadlineMs = 86'400'000;

/** The structured error taxonomy every failure maps onto. */
enum class ErrorCode : std::uint8_t {
    ParseError,      ///< not a JSON object / framing violation
    ValidationError, ///< well-formed but semantically invalid
    Timeout,         ///< per-request deadline expired
    QueueFull,       ///< admission control rejected (backpressure)
    Cancelled,       ///< client disconnected mid-request
    ShuttingDown,    ///< server draining, not admitting
    Internal,        ///< unexpected server-side failure
};

/** Stable wire name of @p code (`"parse_error"`, ...). */
const char *errorCodeName(ErrorCode code);

/** What a request asks for (parseRequest walks Ping..PhaseJob). */
enum class Cmd : std::uint8_t {
    Ping,    ///< liveness probe, answered inline
    Status,  ///< health/metrics snapshot, answered inline
    Design,  ///< full methodology run -> design file bytes
    Explore, ///< DSE grid sweep -> explore report JSON
    Phases,  ///< phase segmentation + evaluation -> phases report JSON
    DseShard, ///< one explore shard -> job-wire result document
    PhaseJob, ///< one phase standalone row -> job-wire result document
};

/** Stable wire name of @p cmd (`"design"`, ...). */
const char *cmdName(Cmd cmd);

/**
 * A fully validated request. The daemon runs the configs it carries as
 * they are, setting only their cache and cancellation: `explore` for
 * `explore` and `dse_shard`, `phases` for `phases` and `phase_job`,
 * and `phases.methodology` for `design`. Their defaults are the CLI's,
 * so an empty parameter set reproduces the CLI's output.
 */
struct Request
{
    std::string id;
    Cmd cmd = Cmd::Ping;

    /** Submitted trace bytes (Trace::save format). */
    std::string traceText;

    /** Requested deadline in ms; 0 = server default. */
    std::int64_t deadlineMs = 0;

    /** The sweep of an `explore` or `dse_shard` request. */
    dse::ExploreConfig explore;
    /** The evaluation of a `phases` or `phase_job` request. */
    phase::PhaseEvalConfig phases;

    // dse_shard / phase_job scalars — the multi-host coordinator's
    // dispatch.
    /** Coordinator's dispatch attempt for this request (2 on requeue). */
    std::uint32_t attempt = 1;
    /** Shard's first grid index / phase index of the result document. */
    std::uint32_t jobIndex = 0;
    /** Coordinator's expected parameter signature (drift guard). */
    std::string sig;
    /** phase_job segmentation cross-check (phases the caller saw). */
    std::uint32_t expectedPhases = 0;
};

/** A (code, message) pair — the payload of every error response. */
struct RequestError
{
    ErrorCode code = ErrorCode::ParseError;
    std::string message;
};

/**
 * Parse one request line. Returns the request on success; on failure
 * fills @p error and returns nullopt. Total: never throws, never
 * aborts, regardless of input bytes.
 */
std::optional<Request> parseRequest(const std::string &line,
                                    RequestError &error);

/**
 * The request line of compute request @p req, newline included: `id`,
 * `cmd`, then every field its command takes, from the same field list
 * parseRequest reads (`power` only when it is not `static`), then
 * `trace`: @p traceJson, the trace already JSON-escaped
 * (req.traceText is not read), so a coordinator escapes its trace once
 * per run, not once per line. The `--hosts` coordinator sends its
 * `dse_shard` and `phase_job` requests through this.
 */
std::string requestLine(const Request &req, std::string_view traceJson);

/** One-line success response carrying @p payload as a JSON string. */
std::string okResponse(const std::string &id, Cmd cmd,
                       std::string_view payload);

/** One-line structured error response. */
std::string errorResponse(const std::string &id, ErrorCode code,
                          std::string_view message);

/**
 * Parsed view of a response line — the client half of the protocol,
 * shared by the test suite and the chaos harness.
 */
struct Reply
{
    std::string id;
    bool ok = false;
    std::string cmd;     ///< ok replies only
    std::string result;  ///< ok replies only (unescaped payload)
    std::string code;    ///< error replies only
    std::string message; ///< error replies only
};

/** Parse a response line; nullopt when it is not a valid reply. */
std::optional<Reply> parseReply(const std::string &line);

} // namespace minnoc::serve

#endif // MINNOC_SERVE_PROTOCOL_HPP
