/**
 * @file
 * Fault injection and fault-aware rerouting.
 *
 * The generated topologies are minimal by construction (Section 3
 * prunes every link the contention model calls redundant), which makes
 * them the most fragile designs in the evaluation. This module models
 * the two hardware misbehaviors that matter for such networks:
 *
 *  - **Permanent link failures**: a set of links (named explicitly or
 *    drawn at random from a seed) stops carrying flits, either from the
 *    start of the run or at a configured cycle. The network responds by
 *    recomputing a shortest-path TableRouting over the surviving links:
 *    one breadth-first search per source switch (graph::bfs) yields its
 *    path to every destination, each tree edge taking the surviving
 *    link it is tagged with (topo::treePath). (src, dst) pairs with no
 *    surviving path are reported as disconnected and the simulator
 *    degrades to a delivered-fraction metric instead of hanging.
 *
 *  - **Transient faults**: every time a packet traverses a link, one
 *    Bernoulli draw decides whether some flit of the worm was corrupted
 *    while crossing. Corruption is detected end-to-end by a per-packet
 *    checksum at the destination NI, which NACKs the packet; the source
 *    retransmits with exponential backoff up to a bounded retry budget,
 *    after which the packet is dropped and counted.
 *
 * All randomness (failed-link selection and per-traversal corruption
 * draws) comes from one seeded Rng, so a (seed, workload) pair
 * reproduces identical statistics.
 */

#ifndef MINNOC_SIM_FAULT_HPP
#define MINNOC_SIM_FAULT_HPP

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "config.hpp"
#include "core/types.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace minnoc::sim {

/** Fault-injection knobs (inert when default-constructed). */
struct FaultConfig
{
    /** Links that fail permanently, by id. */
    std::vector<topo::LinkId> failLinks;

    /**
     * Additional permanently failed links drawn at random (without
     * replacement) from the inter-switch links; when the topology has
     * none (crossbar), the draw falls back to all links.
     */
    std::uint32_t randomFailLinks = 0;

    /** Cycle at which permanent failures take effect (<= 0: at start). */
    Cycle failAtCycle = 0;

    /** Per-packet-per-link-traversal corruption probability. */
    double flitErrorRate = 0.0;

    /** Seed for link selection and corruption draws. */
    std::uint64_t seed = 1;

    /**
     * Retransmissions allowed per packet before a persistently
     * corrupted packet is dropped.
     */
    std::uint32_t maxRetransmits = 8;

    /** Backoff before retry r is backoffBase << r, capped below. */
    Cycle backoffBase = 64;
    Cycle backoffCap = 16'384;
};

/**
 * Resolved fault state for one topology: the concrete failed-link set
 * plus the corruption stream. Owned (by value) by the Network.
 */
class FaultModel
{
  public:
    /** Inert model: no failures, no corruption. */
    FaultModel() = default;

    /**
     * Resolve @p cfg against @p topo: validates explicit link ids and
     * draws the random failed set deterministically from the seed.
     */
    FaultModel(const topo::Topology &topo, const FaultConfig &cfg);

    /** True when any fault mechanism is configured. */
    bool
    enabled() const
    {
        return !_failedList.empty() || _cfg.flitErrorRate > 0.0;
    }

    /** True when permanent link failures are configured. */
    bool hasLinkFaults() const { return !_failedList.empty(); }

    /** Cycle the permanent failures take effect (<= 0: from start). */
    Cycle failAtCycle() const { return _cfg.failAtCycle; }

    /** Ids of the permanently failed links. */
    const std::vector<topo::LinkId> &failedLinks() const
    {
        return _failedList;
    }

    /** Per-link failed mask (indexed by LinkId; empty when no faults). */
    const std::vector<bool> &failedMask() const { return _failedMask; }

    /** Bernoulli draw: does this packet-link traversal corrupt it? */
    bool
    corruptsTraversal()
    {
        return _cfg.flitErrorRate > 0.0 && _rng.chance(_cfg.flitErrorRate);
    }

    /** Nonzero mask XORed into the packet checksum on corruption. */
    std::uint64_t corruptionWord() { return _rng.next() | 1; }

    std::uint32_t maxRetransmits() const { return _cfg.maxRetransmits; }

    /** Exponential backoff before retransmission number @p retries. */
    Cycle
    backoff(std::uint32_t retries) const
    {
        const Cycle raw = _cfg.backoffBase
                          << std::min<std::uint32_t>(retries, 20);
        return std::min(raw, _cfg.backoffCap);
    }

  private:
    FaultConfig _cfg;
    std::vector<bool> _failedMask;
    std::vector<topo::LinkId> _failedList;
    Rng _rng;
};

/** A recomputed routing table plus the pairs it could not connect. */
struct DegradedRouting
{
    std::unique_ptr<topo::TableRouting> routing;
    /** (src, dst) pairs with no surviving path. */
    std::vector<std::pair<core::ProcId, core::ProcId>> disconnected;
};

/**
 * Fault-aware rerouting: BFS shortest paths over the links of @p topo
 * not marked in @p failedMask (which may be empty for "no failures"),
 * one search per source. Every connected (src, dst) pair gets a path;
 * the rest are reported in DegradedRouting::disconnected, in (src, dst)
 * order.
 */
DegradedRouting rerouteAroundFaults(const topo::Topology &topo,
                                    const std::vector<bool> &failedMask);

} // namespace minnoc::sim

#endif // MINNOC_SIM_FAULT_HPP
