/**
 * @file
 * Result-payload wire layer shared by the serve daemon and the
 * distributed coordinator.
 *
 * One evaluated job — an explore grid point or a phase row — crosses
 * a process boundary as one JSON document: the `result` string of a
 * `dse_job`/`phase_job` serve reply. Keeping the encoder, the strict
 * parser and the cached job body in one place (below the dist layer,
 * which links against serve) is what makes a `--hosts` run
 * byte-identical to an in-process one by construction: every daemon,
 * and the coordinator's own in-process fallback, computes each job
 * through runDseJob and feeds the coordinator the same values.
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

#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"

namespace minnoc::serve {

/** What a job backend sends back: one result per job. */
struct WorkerMsg
{
    std::uint32_t index = 0; ///< grid index / phase index
    bool cached = false;     ///< explore only
    std::int64_t wallUs = 0; ///< backend-side wall time of this job
    dse::JobMetrics metrics; ///< explore payload
    phase::PhaseRowEval row; ///< phases payload
    bool isPhaseRow = false;
};

std::string encodeResult(std::uint32_t index, bool cached,
                         std::int64_t wallUs,
                         const dse::JobMetrics &metrics);
std::string encodePhaseResult(std::uint32_t index, std::int64_t wallUs,
                              const phase::PhaseRowEval &row);

/**
 * One explore grid point as a job backend runs it: answer it from the
 * disk cache of @p config (cacheDir, useCache) when @p key has a
 * record, else evaluate it with dse::evaluateJob and store the result.
 * Serve's `dse_job` and the coordinator's in-process fallback both
 * call this. wallUs covers the lookup and the evaluation.
 */
WorkerMsg runDseJob(const trace::Trace &trace,
                    const core::CliqueSet &cliques, std::uint32_t index,
                    const dse::JobParams &params,
                    const dse::ExploreConfig &config,
                    const std::string &key, const std::string &sig);

/** Parse a job payload; on failure fills @p err, returns nullopt. */
std::optional<WorkerMsg> parseWorkerMsg(const std::string &text,
                                        std::string &err);

/**
 * Combined signature of one phases evaluation — every stage signature
 * concatenated plus the reconfiguration cost. The coordinator sends
 * it, the backend recomputes it from the wire scalars; inequality
 * means the config carries knobs the wire cannot express, and the
 * backend refuses rather than produce a silently different report.
 */
std::string phasesSignature(const phase::PhaseEvalConfig &config);

} // namespace minnoc::serve

#endif // MINNOC_SERVE_JOBWIRE_HPP
