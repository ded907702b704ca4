/**
 * @file
 * The Main Partitioning Algorithm (paper Appendix, Section 3.4).
 *
 * Starting from a single megaswitch connecting every processor, switches
 * violating the design constraints are recursively bisected. After each
 * split, Best_Route redistributes communications between the two halves
 * and processors move across the fresh cut while each move strictly
 * improves the Fast_Color estimate of the required links and keeps the
 * balance skew at most 2 (the paper's acceptance rule).
 */

#ifndef MINNOC_CORE_PARTITIONER_HPP
#define MINNOC_CORE_PARTITIONER_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "design_network.hpp"
#include "util/rng.hpp"

namespace minnoc::core {

/**
 * Maximum processor imbalance tolerated between freshly split switches
 * after a move (the paper uses 2).
 */
inline constexpr std::uint32_t kMaxImbalance = 2;

/** Route-consolidation passes per constraint check. */
inline constexpr std::uint32_t kConsolidatePasses = 4;

/**
 * How far a switch of @p degree exceeds the budget @p max_degree: the
 * one degree-excess rule every trial move and design comparison uses.
 */
inline std::uint64_t
degreeExcess(std::uint32_t degree, std::uint32_t max_degree)
{
    return degree > max_degree ? degree - max_degree : 0;
}

/** Summed degreeExcess of @p degrees: a network's total violation. */
inline std::uint64_t
degreeViolation(const std::vector<std::uint32_t> &degrees,
                std::uint32_t max_degree)
{
    std::uint64_t total = 0;
    for (const std::uint32_t d : degrees)
        total += degreeExcess(d, max_degree);
    return total;
}

/** Design constraints a finished network must satisfy (Section 3.4). */
struct DesignConstraints
{
    /**
     * Maximum node degree: attached processors plus total links over all
     * incident pipes must not exceed this (the paper uses 5, matching a
     * mesh/torus switch).
     */
    std::uint32_t maxDegree = 5;

    /** Optional cap on processors per switch (0 = unconstrained). */
    std::uint32_t maxProcsPerSwitch = 0;

    /** True if switch @p degree / @p procs satisfy the constraints. */
    bool
    satisfied(std::uint32_t degree, std::uint32_t procs) const
    {
        if (degreeExcess(degree, maxDegree))
            return false;
        if (maxProcsPerSwitch && procs > maxProcsPerSwitch)
            return false;
        return true;
    }
};

/** Knobs of the partitioning loop. */
struct PartitionerConfig
{
    DesignConstraints constraints;

    /** RNG seed; equal seeds reproduce the same network. */
    std::uint64_t seed = 1;

    /** Hard cap on split operations (safety valve; 0 = 4 * numProcs + 8). */
    std::uint32_t maxSplits = 0;

    /** Run Best_Route after each split / move (paper: yes). */
    bool optimizeRoutes = true;

    /**
     * Run global route consolidation (see consolidateRoutes) before
     * each constraint check. Without it, dense patterns whose direct
     * routes fan out to many switches cannot meet tight degree
     * constraints; with it the partitioner merges compatible traffic
     * onto shared links first and only splits when truly necessary.
     */
    bool consolidate = true;

    /**
     * Price pipes as unidirectional channel pairs (fwd + bwd) instead
     * of full-duplex bundles (max of the two). Set when finalization
     * will provision unidirectional links, so the route optimizer
     * actually removes traffic from unused directions.
     */
    bool unidirectionalCost = false;

    /**
     * Above this many processors the partitioner switches to the
     * scalable large-N mode: a deterministic multilevel-bisection
     * pre-partition of the megaswitch (see hier_partitioner.hpp), batch
     * splitting of all violating switches per constraint pass, and the
     * quadratic whole-network refinements (processor-swap polish,
     * switch merging) gated off. At or below the threshold the flat
     * paper path runs unchanged, so paper-scale designs stay
     * byte-identical. 0 disables the hierarchical mode entirely.
     */
    std::uint32_t hierarchicalThreshold = 64;

    /**
     * Leaf group size of the hierarchical pre-partition: recursive
     * bisection stops once every group holds at most this many
     * processors; the constraint loop refines from there.
     */
    std::uint32_t hierarchicalLeaf = 8;

    /** Validate DesignNetwork invariants after every mutation (tests). */
    bool paranoid = false;

    /** True when @p num_procs puts a run into the large-N mode. */
    bool
    largeScale(std::uint32_t num_procs) const
    {
        return hierarchicalThreshold && num_procs > hierarchicalThreshold;
    }
};

/** One entry of the partitioning history (drives the Fig. 5 walkthrough). */
struct PartitionStep
{
    enum class Kind { Split, Move, Reroute, Finalize };
    Kind kind;
    SwitchId a = kNoSwitch; ///< split: original / move: source switch
    SwitchId b = kNoSwitch; ///< split: new switch / move: target switch
    ProcId proc = kNoProc;  ///< move: the processor moved
    std::uint32_t estimatedLinks = 0; ///< total estimate after the step
    std::string note;
};

/** Result of a partitioning run. */
struct PartitionResult
{
    /** True when every switch met the constraints under the estimates. */
    bool feasible = true;
    std::uint32_t numSplits = 0;
    std::uint32_t numMoves = 0;
    /** Move candidates scored across all settle loops (search effort). */
    std::uint64_t movesEvaluated = 0;
    std::vector<PartitionStep> history;
};

/**
 * Runs the main partitioning algorithm on @p net in place.
 *
 * The loop of the paper's appendix: while some switch violates the
 * constraints (by the Fast_Color degree estimate), randomly pick one,
 * split it, Best_Route the halves, then greedily move processors across
 * the cut while the estimated link demand drops and balance holds.
 *
 * Finalization (exact coloring) is a separate step, see finalize.hpp;
 * the methodology driver re-enters this function if exact colors exceed
 * the estimates and re-violate the constraints.
 *
 * @param net the design network to refine
 * @param config algorithm knobs
 * @param rng random source (switch choice, split halves)
 * @return run statistics and history
 */
PartitionResult partitionNetwork(DesignNetwork &net,
                                 const PartitionerConfig &config, Rng &rng);

/**
 * Convenience single-shot: megaswitch from @p cliques, partition with a
 * fresh Rng seeded from the config.
 */
PartitionResult partitionNetwork(DesignNetwork &net,
                                 const PartitionerConfig &config);

/**
 * One forced bisection of @p si followed by the usual Best_Route and
 * processor-move settling loop (paper steps 5-9). Used by the
 * methodology driver when exact coloring reveals a constraint violation
 * that the Fast_Color estimate missed.
 *
 * @return the id of the new sibling switch.
 */
SwitchId splitAndSettle(DesignNetwork &net, const PartitionerConfig &config,
                        Rng &rng, SwitchId si, PartitionResult &result);

/**
 * Switches of @p net violating @p dc by their Fast_Color degree
 * estimates, in id order: what the partitioner splits and what a
 * switch merge must leave empty.
 */
std::vector<SwitchId> violatingSwitches(const DesignNetwork &net,
                                        const DesignConstraints &dc);

/**
 * Kernighan-Lin style refinement over the whole network: try swapping
 * processor pairs across switches (preserving per-switch counts) and
 * keep swaps that lexicographically reduce (degree violation, links).
 * The split-local move loop cannot see these exchanges once the
 * partition tree is fixed; the partitioner uses it when stuck and the
 * methodology driver uses it as a guarded polish step.
 *
 * @return true if at least one swap was committed.
 */
bool refineProcSwaps(DesignNetwork &net, const DesignConstraints &dc,
                     Rng &rng, std::uint32_t passes);

} // namespace minnoc::core

#endif // MINNOC_CORE_PARTITIONER_HPP
