/**
 * @file
 * Trace-driven workload engine (paper Section 4.2).
 *
 * Replays a Trace on a Network: each rank walks its timeline, charging
 * compute cycles locally, paying the ten-cycle send overhead and then
 * blocking until its packet is fully injected, and blocking on receives
 * until the matching message is absorbed (plus the receive overhead).
 * Reported metrics match the paper's Figure 8: total execution time and
 * per-rank communication time (waiting + overhead included).
 */

#ifndef MINNOC_SIM_TRACE_DRIVER_HPP
#define MINNOC_SIM_TRACE_DRIVER_HPP

#include <string>
#include <utility>
#include <vector>

#include "fault.hpp"
#include "network.hpp"
#include "topo/power.hpp"
#include "trace/trace.hpp"

namespace minnoc::sim {

/** Results of one trace-driven simulation. */
struct SimResult
{
    /** Cycle at which the last rank finished: total execution time. */
    Cycle execTime = 0;
    /** Per-rank cycles spent inside send/recv (waiting + overhead). */
    std::vector<Cycle> commTime;
    /** Per-rank finish cycle. */
    std::vector<Cycle> finishTime;
    std::uint64_t packetsDelivered = 0;
    std::uint32_t deadlockRecoveries = 0;

    /** Fault accounting (all zero / 1.0 on a clean network). */
    std::uint64_t packetsEnqueued = 0;
    std::uint64_t packetsDropped = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t corruptedFlits = 0;
    std::uint32_t failedLinks = 0;
    std::uint32_t disconnectedPairs = 0;
    std::uint32_t retryExhaustions = 0;
    std::uint32_t recoveryExhaustions = 0;
    /** Fraction of enqueued packets eventually delivered. */
    double deliveredFraction = 1.0;
    /** Mean latency relative to first-try deliveries (>= 1.0). */
    double latencyInflation = 1.0;
    /** Receives the driver skipped because the message was lost. */
    std::uint64_t recvsLost = 0;
    /** Distinct (src, dst) channels with at least one lost message. */
    std::vector<std::pair<core::ProcId, core::ProcId>>
        undeliverableChannels;

    double avgPacketLatency = 0.0;
    /** Mean path length in links over delivered packets. */
    double avgPacketHops = 0.0;
    /** Peak and mean per-link utilization over the whole run. */
    double maxLinkUtilization = 0.0;
    double meanLinkUtilization = 0.0;
    /** Flits each link carried (for power/utilization analysis). */
    std::vector<std::uint64_t> linkFlits;

    /** Microarchitectural event counts for the activity power model. */
    topo::ActivityCounters activity;

    /** Mean of commTime over ranks. */
    double commTimeMean() const;
    /** Max of commTime over ranks. */
    Cycle commTimeMax() const;
};

/**
 * Drive @p trace through @p network until every rank completes.
 * The network must be freshly constructed for the trace's rank count.
 * An observer attached to the network is finalized (end-of-run counter
 * snapshot, last epoch closed, the replay's wall time for its timing
 * metrics) before the result is returned.
 */
SimResult runTrace(const trace::Trace &trace, Network &network);

/**
 * Convenience: build the network for (topo, routing, config) and run.
 * @p observer, when non-null, is attached for the duration of the run.
 */
SimResult runTrace(const trace::Trace &trace, const topo::Topology &topo,
                   const topo::RoutingFunction &routing,
                   const SimConfig &config = {},
                   obs::SimObserver *observer = nullptr);

/**
 * Fault-injection variant: resolve @p faults against @p topo, build the
 * (possibly degraded) network, and run. Undeliverable messages are
 * skipped and accounted instead of hanging the replay.
 */
SimResult runTrace(const trace::Trace &trace, const topo::Topology &topo,
                   const topo::RoutingFunction &routing,
                   const SimConfig &config, const FaultConfig &faults,
                   obs::SimObserver *observer = nullptr);

} // namespace minnoc::sim

#endif // MINNOC_SIM_TRACE_DRIVER_HPP
