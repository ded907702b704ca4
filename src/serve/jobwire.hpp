/**
 * @file
 * Result-payload wire layer shared by the serve daemon and the
 * distributed coordinator.
 *
 * The result of one coordinator request crosses a process boundary as
 * one JSON document: the `result` string of a `dse_shard`/`phase_job`
 * serve reply. A `dse_shard` document lists one point per grid index
 * of the shard; a `phase_job` document carries one phase row. Keeping
 * the encoders, the strict parser and the shard body in one place
 * (below the dist layer, which links against serve) is what makes a
 * `--hosts` run byte-identical to an in-process one by construction:
 * every daemon, and the coordinator's own in-process fallback, runs
 * each shard through runDseShard, which is dse::explore on the
 * shard's sub-grid, and feeds the coordinator the same values.
 *
 * Determinism contract (inherited by every user): integers cross as
 * decimal and are rejected beyond 2^53; doubles cross as %.17g, which
 * strtod round-trips bit-exactly.
 */

#ifndef MINNOC_SERVE_JOBWIRE_HPP
#define MINNOC_SERVE_JOBWIRE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"
#include "protocol.hpp"

namespace minnoc::serve {

/** One job result: an explore grid point or a phase row. */
struct WorkerMsg
{
    std::uint32_t index = 0; ///< grid index / phase index
    bool cached = false;     ///< explore only
    dse::JobMetrics metrics; ///< explore payload
    phase::PhaseRowEval row; ///< phases payload
};

/** A job backend's answer to one request. */
struct WorkerReply
{
    std::int64_t wallUs = 0; ///< backend-side wall time of the request
    std::vector<WorkerMsg> results; ///< one per job, ascending index
};

/** The `dse_shard` result document: every point of @p reply. */
std::string encodeShardResult(const WorkerReply &reply);
std::string encodePhaseResult(std::uint32_t index, std::int64_t wallUs,
                              const phase::PhaseRowEval &row);

/**
 * Parse the result document of a @p cmd request (Cmd::DseShard or
 * Cmd::PhaseJob). A document of the other kind is an error, so a
 * phase row can never land as grid-point metrics or the reverse. On
 * failure fills @p err and returns nullopt.
 */
std::optional<WorkerReply> parseWorkerReply(const std::string &text,
                                            Cmd cmd, std::string &err);

/**
 * One shard as a job backend runs it: dse::explore over @p config's
 * (sub-)grid, against the cache @p config names, its tasks on
 * @p pool (the daemon's shared pool) or, when null, on
 * config.threads threads of its own. Result k is grid index
 * @p firstIndex + k, its `cached` flag the cache's answer. Serve's
 * `dse_shard` and the coordinator's in-process fallback both call
 * this. wallUs covers the whole shard.
 */
WorkerReply runDseShard(const trace::Trace &trace,
                        const dse::ExploreConfig &config,
                        std::uint32_t firstIndex, ThreadPool *pool);

/**
 * The drift guard of a shard: FNV-1a over the job signatures of
 * @p config's grid, in grid order. The coordinator sends it, the
 * daemon recomputes it from the wire fields and refuses the shard on
 * inequality rather than produce a silently different report.
 */
std::string shardSignature(const dse::ExploreConfig &config);

/**
 * Combined signature of one phases evaluation — every stage signature
 * concatenated plus the reconfiguration cost. The coordinator sends
 * it, the backend recomputes it from the wire scalars and refuses on
 * inequality, as for a shard.
 */
std::string phasesSignature(const phase::PhaseEvalConfig &config);

} // namespace minnoc::serve

#endif // MINNOC_SERVE_JOBWIRE_HPP
