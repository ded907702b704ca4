/**
 * @file
 * Result-payload wire layer shared by the serve daemon and the
 * distributed coordinator.
 *
 * One evaluated job — an explore grid point or a phase row — crosses
 * a process boundary as one JSON document: the `result` string of a
 * `dse_job`/`phase_job` serve reply, whether the server is a forked
 * lane or a remote daemon. Keeping the encoder and the strict parser
 * in one place (below the dist layer, which links against serve) is
 * what makes `--hosts` and `--workers` byte-identical by
 * construction: every lane feeds the coordinator the exact same bytes
 * per job.
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
