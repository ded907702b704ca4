/**
 * @file
 * Multi-phase network synthesis.
 *
 * Given a segmented trace, runs the paper's methodology once per phase
 * and derives two multi-phase artifacts from the per-phase designs:
 *
 *  - the union design: the monolithic partition re-finalized over the
 *    *unreduced* merged clique set with purely direct routes, then
 *    re-verified contention-free against every phase's cliques
 *    individually. Because cross-phase communications never co-occur in
 *    a clique, the union's exact coloring decomposes per phase, so its
 *    pipe widths match the monolithic design's — a provable no-gain
 *    result this subsystem makes measurable (see DESIGN.md §5g);
 *
 *  - the time-multiplexed design: one independent network per phase,
 *    swapped at each phase boundary for a configurable drain+swap
 *    penalty. This is where phase awareness actually pays: each phase's
 *    network only provisions that phase's contention.
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

/** One phase's independent synthesis result. */
struct PhaseDesign
{
    std::uint32_t phase = 0;
    core::DesignOutcome outcome;
};

/** Everything synthesizeMultiPhase produces. */
struct MultiPhaseResult
{
    PhaseCliques cliques;

    /** Baseline: the whole trace through one methodology run. */
    core::DesignOutcome monolithic;

    /** Per-phase networks (the time-multiplexed configurations). */
    std::vector<PhaseDesign> phases;

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
 * Synthesize the monolithic, per-phase, and union designs for @p seg.
 * Runs are sequential (one methodology run at a time) with restarts
 * parallelized on @p pool when one is given — the produced designs are
 * identical at every thread count, nullptr included. Telemetry sinks in
 * @p config are ignored for the inner runs (the evaluator records
 * phase-level telemetry instead).
 *
 * @p withPhaseDesigns false skips the per-phase standalone runs
 * (result.phases stays empty) while still producing the monolithic,
 * union, and per-phase violation artifacts — the distributed
 * coordinator farms the standalone runs out to daemons instead.
 */
MultiPhaseResult synthesizeMultiPhase(const trace::Trace &trace,
                                      const Segmentation &seg,
                                      const core::MethodologyConfig &config,
                                      ThreadPool *pool = nullptr,
                                      bool withPhaseDesigns = true);

} // namespace minnoc::phase

#endif // MINNOC_PHASE_MULTI_DESIGN_HPP
