/**
 * @file
 * Design-time network state for the partitioning methodology (Section 3).
 *
 * A DesignNetwork tracks, during recursive bisection:
 *  - the set of switches and the processors attached to each,
 *  - one deterministic source-based route (a switch sequence) per
 *    distinct communication (Definition 6 at pipe granularity), and
 *  - the pipes between switches, each holding the two directional sets
 *    of communications routed through it.
 *
 * Link-count estimates use the paper's Fast_Color procedure: the width a
 * pipe needs per direction is lower-bounded by the largest intersection
 * of any communication clique with the pipe's directional comm set, and
 * a full-duplex pipe needs the max of its two directions.
 *
 * Fast_Color is the partitioner's hot path — it runs on every candidate
 * move of the bisection loop — so the directional comm sets are stored
 * as CommBitsets (intersection = AND + popcount against precomputed
 * clique masks) and each pipe caches its two directional estimates
 * behind a dirty bit that route mutations invalidate. Only pipes a
 * mutation actually perturbed are ever recomputed.
 */

#ifndef MINNOC_CORE_DESIGN_NETWORK_HPP
#define MINNOC_CORE_DESIGN_NETWORK_HPP

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "clique_set.hpp"
#include "comm_bitset.hpp"
#include "types.hpp"
#include "util/rng.hpp"

namespace minnoc::core {

/** Canonical pipe key: unordered switch pair stored with a < b. */
struct PipeKey
{
    SwitchId a = kNoSwitch;
    SwitchId b = kNoSwitch;

    PipeKey() = default;

    PipeKey(SwitchId x, SwitchId y)
        : a(x < y ? x : y), b(x < y ? y : x)
    {
    }

    bool operator==(const PipeKey &o) const = default;
    auto operator<=>(const PipeKey &o) const = default;
};

/**
 * A pipe: the bundle of links between two switches, characterized by the
 * two opposing sets of communications that traverse it (Section 3.1).
 * "Forward" is the canonical a -> b direction.
 *
 * The cached per-direction Fast_Color values are owned by
 * DesignNetwork: mutations mark the pipe dirty and readers recompute
 * lazily, so external code should go through DesignNetwork::fastColor.
 */
struct Pipe
{
    CommBitset fwd;
    CommBitset bwd;

    bool empty() const { return fwd.empty() && bwd.empty(); }

    /** Cached Fast_Color per direction; valid only when !dirty. */
    mutable std::uint32_t fcFwd = 0;
    mutable std::uint32_t fcBwd = 0;
    mutable bool dirty = true;
};

/** Counters of the Fast_Color estimation cache (benchmarking). */
struct FastColorStats
{
    std::uint64_t calls = 0;     ///< fastColor / fastColorSet queries
    std::uint64_t cacheHits = 0; ///< queries answered from a pipe cache
};

/** Process-wide Fast_Color counters (atomic; cheap, thread-safe). */
FastColorStats fastColorStats();
void resetFastColorStats();

/**
 * Mutable partitioning state: switches, processor homes, routes, pipes.
 *
 * Starts as a single megaswitch connecting every processor (every route
 * is the trivial one-switch path) and is refined by splitSwitch /
 * moveProc / setRoute, which keep pipe comm sets incrementally correct.
 */
class DesignNetwork
{
  public:
    /**
     * Build the initial megaswitch network.
     * @param cliques the communication (maximum) clique set; the network
     *        keeps a reference, so it must outlive this object.
     */
    explicit DesignNetwork(const CliqueSet &cliques);

    const CliqueSet &cliques() const { return *_cliques; }

    std::size_t numSwitches() const { return _switchProcs.size(); }
    std::uint32_t numProcs() const { return _cliques->numProcs(); }

    /** Processors attached to switch @p s (sorted). */
    const std::vector<ProcId> &procsOf(SwitchId s) const;

    /** Home switch of processor @p p. */
    SwitchId homeOf(ProcId p) const { return _home.at(p); }

    /** Current route (switch sequence) of communication @p c. */
    const std::vector<SwitchId> &route(CommId c) const;

    /**
     * Replace the route of @p c. The route must start at the source's
     * home switch, end at the destination's home switch, and contain no
     * immediate repetitions; pipe sets are updated incrementally.
     */
    void setRoute(CommId c, std::vector<SwitchId> r);

    /** All currently non-empty pipes (sorted by key). */
    std::vector<PipeKey> pipes() const;

    /** Non-empty pipes incident to switch @p s. */
    std::vector<PipeKey> pipesOf(SwitchId s) const;

    /** Pipe neighbors of switch @p s, ascending. */
    const std::vector<SwitchId> &
    neighbors(SwitchId s) const
    {
        return _nbrs[s];
    }

    /** The pipe record for @p key (empty record if absent). */
    const Pipe &pipe(const PipeKey &key) const;

    /**
     * Fast_Color (Section 3.3): lower-bound estimate of the number of
     * full-duplex links pipe @p key needs, i.e. the max over cliques K
     * and directions dir of |K intersect C_dir(pipe)|. Served from the
     * pipe's cache unless a mutation dirtied it.
     */
    std::uint32_t fastColor(const PipeKey &key) const;

    /** Cached per-direction Fast_Color of @p key: (fwd, bwd). */
    std::pair<std::uint32_t, std::uint32_t>
    fastColorDirs(const PipeKey &key) const;

    /** Same, for a pipe reference already in hand (skips the lookup). */
    std::pair<std::uint32_t, std::uint32_t>
    fastColorDirs(const Pipe &p) const;

    /** Fast_Color of an explicit directional comm set. */
    std::uint32_t fastColorSet(const CommBitset &comms) const;

    /**
     * Fast_Color of (@p comms + the single id @p extra) without
     * materializing the union, given @p fc = fastColorSet(@p comms).
     * Only the cliques containing @p extra can grow, each by one, so
     * the result is max(fc, 1 + max over K containing extra of
     * |K intersect comms|). @p extra must not be in @p comms; sanitized
     * builds check both preconditions.
     */
    std::uint32_t fastColorSetPlus(const CommBitset &comms,
                                   std::uint32_t fc, CommId extra) const;

    /**
     * The original ordered-set Fast_Color implementation, kept as the
     * reference oracle for the bitset path. Test-only: quadratic-ish
     * merge counting per clique; do not use on hot paths.
     */
    std::uint32_t
    fastColorSetReference(const std::set<CommId> &comms) const;

    /**
     * Estimated switch degree: attached processors plus the estimated
     * link count of every incident pipe.
     */
    std::uint32_t estimatedDegree(SwitchId s) const;

    /** estimatedDegree of every switch in one pass over the pipes. */
    std::vector<std::uint32_t> estimatedDegrees() const;

    /** Sum of fastColor over all pipes: the partitioning objective. */
    std::uint32_t totalEstimatedLinks() const;

    /**
     * Summed fastColor over the pipes incident to @p si or @p sj (each
     * pipe counted once): the cut cost the move-enumeration loop ranks
     * candidates by. One incidence scan over cached values — no key
     * vector is built or sorted.
     */
    std::uint32_t cutEstimate(SwitchId si, SwitchId sj) const;

    /**
     * Split switch @p s: create a new switch, move half of s's
     * processors to it (random choice via @p rng), and recompute the
     * direct routes of every communication touching the moved
     * processors. Transit communications keep routing through @p s.
     * @return the id of the new switch.
     */
    SwitchId splitSwitch(SwitchId s, Rng &rng);

    /**
     * Split switch @p s moving exactly the processors in @p procs_to_move
     * (a strict, non-empty subset of s's processors) to a new switch.
     * Used by the hierarchical partitioner, which computes the halves
     * itself instead of sampling them. @return the new switch's id.
     */
    SwitchId splitSwitchInto(SwitchId s,
                             const std::vector<ProcId> &procs_to_move);

    /**
     * Move processor @p p to switch @p to, recomputing the direct routes
     * of all communications with an endpoint at @p p (the interior of
     * each route is preserved; only the endpoint switch changes).
     */
    void moveProc(ProcId p, SwitchId to);

    /** Communications with source or destination attached to @p p. */
    const std::vector<CommId> &commsOf(ProcId p) const;

    /** Validate all internal invariants; panics on violation (tests). */
    void checkInvariants() const;

    /** Human-readable dump. */
    std::string toString() const;

  private:
    void addRouteToPipes(CommId c, const std::vector<SwitchId> &r);
    void removeRouteFromPipes(CommId c, const std::vector<SwitchId> &r);
    void recomputeEndpoints(CommId c);
    static std::vector<SwitchId> normalized(std::vector<SwitchId> r);
    void linkNeighbor(SwitchId s, SwitchId t);
    void unlinkNeighbor(SwitchId s, SwitchId t);

    /** Cached duplex estimate of @p p; recomputes when dirty. */
    std::uint32_t pipeFastColor(const Pipe &p) const;

    /** Raw bitset Fast_Color without touching the stat counters. */
    std::uint32_t computeFastColor(const CommBitset &comms) const;

    const CliqueSet *_cliques;
    std::size_t _numComms = 0; ///< bitset width of every pipe comm set
    std::vector<std::vector<ProcId>> _switchProcs;
    std::vector<SwitchId> _home;              // per proc
    std::vector<std::vector<SwitchId>> _routes; // per comm
    std::vector<std::vector<CommId>> _procComms; // per proc
    std::map<PipeKey, Pipe> _pipes;

    /**
     * Per-switch sorted list of pipe neighbors, maintained on pipe
     * creation/erasure. Turns pipesOf / estimatedDegree / cutEstimate
     * into O(degree) incidence walks instead of full pipe-map scans —
     * the scans were quadratic-in-switches inside the move loop and
     * dominated at four-digit rank counts.
     */
    std::vector<std::vector<SwitchId>> _nbrs;
};

} // namespace minnoc::core

#endif // MINNOC_CORE_DESIGN_NETWORK_HPP
