/**
 * @file
 * Multi-phase network synthesis.
 *
 * Given a segmented trace, builds the clique sets of its phases and
 * the two whole-trace designs the phase comparison measures against:
 * the monolithic design (the whole trace through one methodology run)
 * and the union design — the monolithic partition re-finalized over
 * the *unreduced* merged clique set with purely direct routes, then
 * re-verified contention-free against every phase's cliques
 * individually. Because cross-phase communications never co-occur in
 * a clique, the union's exact coloring decomposes per phase, so its
 * pipe widths match the monolithic design's — a provable no-gain
 * result this subsystem makes measurable (see DESIGN.md §5g). The
 * per-phase networks, where phase awareness actually pays, come from
 * evalPhaseStandalone (evaluator.hpp) over the standalone sets.
 */

#ifndef MINNOC_PHASE_MULTI_DESIGN_HPP
#define MINNOC_PHASE_MULTI_DESIGN_HPP

#include <cstddef>
#include <vector>

#include "core/methodology.hpp"
#include "segmenter.hpp"

namespace minnoc {
class ThreadPool;
}

namespace minnoc::phase {

/**
 * Clique sets derived from one segmentation, in the three registries
 * the multi-phase pipeline needs.
 */
struct PhaseCliques
{
    /**
     * All calls, unreduced, full-trace comm registry. The union design
     * is finalized against this set.
     */
    core::CliqueSet merged;

    /**
     * Per phase, only the phase's cliques but over the *same* comm
     * registry as `merged` (identical CommIds), so the union design can
     * be verified against each phase separately.
     */
    std::vector<core::CliqueSet> shared;

    /**
     * Per phase, dense own registry, reduced as configured — what each
     * phase's independent methodology run consumes.
     */
    std::vector<core::CliqueSet> standalone;
};

/**
 * Build the merged / shared / standalone clique sets of @p seg. The
 * merged and shared registries intern communications in the same
 * ascending-callId, rank-major order as trace::analyzeByCall, so
 * CommIds align with a monolithic analyzeByCall(trace, false) run.
 */
PhaseCliques buildPhaseCliques(const trace::Trace &trace,
                               const Segmentation &seg);

/** The whole-trace designs synthesizeMultiPhase produces. */
struct MultiPhaseResult
{
    /** Baseline: the whole trace through one methodology run. */
    core::DesignOutcome monolithic;

    /**
     * The union design: monolithic partition, direct routes, finalized
     * over the merged unreduced cliques.
     */
    core::FinalizedDesign unionDesign;

    /** Theorem-1 violations of the union design per phase clique set. */
    std::vector<std::vector<core::ContentionViolation>>
        unionPhaseViolations;

    /** Total union violations over all phases. */
    std::size_t unionViolationCount() const;
};

/**
 * Synthesize the monolithic design over @p cliques' merged set, then
 * the union design from its partition, verified against every phase's
 * shared set. Reads only the merged and shared sets, so phase rows may
 * read the standalone sets concurrently. Restarts run on @p pool (the
 * caller may be one of its workers) or in order on the calling thread,
 * with identical designs. Telemetry sinks in @p config are ignored (the
 * evaluator records phase-level telemetry instead).
 */
MultiPhaseResult synthesizeMultiPhase(const PhaseCliques &cliques,
                                      const core::MethodologyConfig &config,
                                      ThreadPool *pool = nullptr);

} // namespace minnoc::phase

#endif // MINNOC_PHASE_MULTI_DESIGN_HPP
