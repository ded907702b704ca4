/**
 * @file
 * Top-level design methodology driver (paper Section 3).
 *
 * Ties the pieces together: communication clique set -> recursive
 * bisection partitioning (Fast_Color estimates) -> formal coloring
 * finalization -> re-partitioning if exact colors re-violate the design
 * constraints -> Theorem-1 verification.
 */

#ifndef MINNOC_CORE_METHODOLOGY_HPP
#define MINNOC_CORE_METHODOLOGY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "clique_set.hpp"
#include "finalize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "partitioner.hpp"
#include "util/cancel.hpp"
#include "verify.hpp"

namespace minnoc {
class ThreadPool;
}

namespace minnoc::core {

/** Configuration of a full methodology run. */
struct MethodologyConfig
{
    PartitionerConfig partitioner;
    FinalizeConfig finalize;

    /**
     * Reduce the clique set to the communication maximum clique set
     * before partitioning (paper: yes; exposed for ablation).
     */
    bool reduceCliques = true;

    /**
     * Random restarts: the partitioner is greedy and seed-sensitive, so
     * the driver runs it from several seeds (seed, seed+1, ...) and
     * keeps the best design — feasibility first, then fewest links,
     * then fewest switches. The paper's simulated-annealing framing
     * implies the same kind of stochastic search.
     */
    std::uint32_t restarts = 16;

    /**
     * After restart selection, try merging switch pairs whose combined
     * load still fits the degree budget (the bisection loop otherwise
     * over-splits dense patterns to one processor per switch). Merges
     * are finalization-checked and accepted only at <= 1 extra link.
     */
    bool mergeSwitches = true;

    /**
     * Worker threads for the restart loop (restarts are independent and
     * run in waves). 0 = hardware concurrency. The wave selection
     * replays the sequential preference order, so the chosen design is
     * identical at every thread count; threads = 1 runs every restart
     * on the calling thread.
     */
    std::uint32_t threads = 0;

    /**
     * Optional telemetry sinks (not owned, may be null). The driver
     * records per-restart partitioning cost curves and design quality into
     * @p metrics — only for the restarts the sequential preference
     * order consumes, so the recorded content is identical at every
     * thread count — and per-phase wall-time spans into @p traceLog.
     * Excluded from signature(): telemetry never changes the design.
     */
    obs::MetricsRegistry *metrics = nullptr;
    obs::TraceEventLog *traceLog = nullptr;

    /**
     * Optional cooperative-cancellation token (not owned, may be
     * null). The restart loop polls it before every partitioning
     * attempt and unwinds with CancelledError when it fires. Runtime
     * plumbing like the telemetry sinks: excluded from signature(), so
     * a cancelled-and-retried run lands on the same cache key.
     */
    const CancelToken *cancel = nullptr;

    /**
     * Canonical parameter string covering every knob that changes the
     * produced design. Content-addressed caches (the DSE result store)
     * hash it, so two configs with equal signatures are guaranteed to
     * yield byte-identical designs for the same pattern. `threads` is
     * deliberately excluded: the wave selection makes it
     * result-invariant.
     */
    std::string signature() const;
};

/** Everything a methodology run produces. */
struct DesignOutcome
{
    FinalizedDesign design;
    /** True if the finalized design satisfies the constraints. */
    bool constraintsMet = false;
    /** Theorem-1 violations (empty = provably contention-free). */
    std::vector<ContentionViolation> violations;
    /** Number of partition/finalize rounds used. */
    std::uint32_t rounds = 0;
    /** Restart attempts actually consumed before selection stopped. */
    std::uint32_t restartsUsed = 0;
    /** Move candidates scored across all rounds (search effort). */
    std::uint64_t movesEvaluated = 0;
    /** Concatenated partitioning history across rounds. */
    std::vector<PartitionStep> history;

    /** One-line summary for logs and benches. */
    std::string summary() const;
};

/**
 * Run the full methodology on a clique set.
 *
 * @param cliques the communication clique set (copied internally when
 *        reduction is requested)
 * @param config knobs for every stage
 * @return the finalized design plus verification results
 */
DesignOutcome runMethodology(const CliqueSet &cliques,
                             const MethodologyConfig &config = {});

/**
 * Variant for callers that own a worker pool (the DSE explorer, the
 * phase evaluator, the serve daemon), `config.threads` ignored.
 * Restarts run in waves of up to @p pool's size on it, from any
 * thread (a pool task waiting here helps its own restarts); with
 * pool == nullptr they run one after another on the calling thread.
 * The produced design is identical either way.
 */
DesignOutcome runMethodology(const CliqueSet &cliques,
                             const MethodologyConfig &config,
                             ThreadPool *pool);

} // namespace minnoc::core

#endif // MINNOC_CORE_METHODOLOGY_HPP
