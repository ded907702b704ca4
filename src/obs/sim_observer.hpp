/**
 * @file
 * Per-run simulator instrumentation: epoch-sampled per-channel
 * utilization and occupancy time series, per-flow latency histograms,
 * and fault/retransmit counters.
 *
 * The observer is attached to a Network by pointer and fed from two hot
 * paths: onStep() once per simulated cycle and onDelivered() once per
 * tail-flit delivery. Both are cheap — onStep snapshots cumulative
 * counters only at epoch boundaries, and the epoch length doubles
 * (merging adjacent samples) whenever the sample count would exceed a
 * fixed cap, so memory stays bounded no matter how long the run is.
 * All state is driven by simulated cycles, never wall clocks, so the
 * collected content is deterministic for a deterministic run; the one
 * exception, the replay's own throughput, is exported as timing
 * metrics only.
 */

#ifndef MINNOC_OBS_SIM_OBSERVER_HPP
#define MINNOC_OBS_SIM_OBSERVER_HPP

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "metrics.hpp"
#include "trace_event.hpp"

namespace minnoc::obs {

/** Collects one simulation run's worth of telemetry. */
class SimObserver
{
  public:
    /**
     * @param epochCycles initial sampling period in cycles (doubles
     *        under pressure)
     * @param sampleCap maximum retained epoch samples before the
     *        period doubles
     */
    explicit SimObserver(std::int64_t epochCycles = 64,
                         std::size_t sampleCap = 128)
        : _epochCycles(epochCycles < 1 ? 1 : epochCycles),
          _sampleCap(sampleCap < 4 ? 4 : sampleCap)
    {
    }

    /**
     * Per-cycle hook. @p linkFlits is the cumulative per-link flit
     * counter; a snapshot is copied only at epoch boundaries.
     */
    void
    onStep(std::int64_t now, std::uint64_t flitsInNetwork,
           const std::vector<std::uint64_t> &linkFlits)
    {
        if (now < _nextSample)
            return;
        sample(now, flitsInNetwork, linkFlits);
    }

    /** Per-delivery hook (tail flit consumed at the destination). */
    void onDelivered(std::uint32_t src, std::uint32_t dst,
                     std::int64_t latency, std::uint32_t hops,
                     bool clean);

    /** Fault / retransmit counters, copied once at end of run. */
    struct FinalCounters
    {
        std::uint64_t packetsEnqueued = 0;
        std::uint64_t packetsDelivered = 0;
        std::uint64_t packetsDropped = 0;
        std::uint64_t flitHops = 0;
        std::uint64_t bufferWrites = 0;
        std::uint64_t bufferReads = 0;
        std::uint64_t residentFlitCycles = 0;
        std::uint64_t retransmissions = 0;
        std::uint64_t corruptedFlits = 0;
        std::uint32_t deadlockRecoveries = 0;
        std::uint32_t failedLinks = 0;
        std::uint32_t disconnectedPairs = 0;
        std::uint32_t retryExhaustions = 0;
        std::uint32_t recoveryExhaustions = 0;
        std::int64_t execTime = 0;
        /** Cycles the network was stepped (fast-forwarded ones not). */
        std::uint64_t steppedCycles = 0;
        /** Wall-clock seconds the replay took (timing metrics only). */
        double runSeconds = 0.0;
    };

    /** Record end-of-run aggregates and close the last epoch. */
    void finish(const FinalCounters &counters, std::int64_t now,
                std::uint64_t flitsInNetwork,
                const std::vector<std::uint64_t> &linkFlits);

    /** Publish everything into @p registry under the "sim/" prefix. */
    void exportTo(MetricsRegistry &registry) const;

    /** Emit epoch spans and counter tracks onto pid kPidSim. */
    void exportTrace(TraceEventLog &log) const;

    /** Retained epoch boundary count (exposed for tests). */
    std::size_t epochCount() const { return _epochs.size(); }
    /** Current sampling period in cycles (exposed for tests). */
    std::int64_t epochCycles() const { return _epochCycles; }

  private:
    /** Cumulative snapshot at an epoch boundary. */
    struct Epoch
    {
        std::int64_t end = 0;
        std::uint64_t occupancy = 0;            ///< flits in network
        std::vector<std::uint64_t> linkFlits;   ///< cumulative per link
    };

    void sample(std::int64_t now, std::uint64_t flitsInNetwork,
                const std::vector<std::uint64_t> &linkFlits);

    std::int64_t _epochCycles;
    std::size_t _sampleCap;
    std::int64_t _nextSample = 0;

    std::vector<Epoch> _epochs;
    LatencyHistogram _latency;
    LatencyHistogram _cleanLatency;
    LatencyHistogram _hops;
    /** (src, dst) -> latency histogram. */
    std::map<std::pair<std::uint32_t, std::uint32_t>, LatencyHistogram>
        _flows;
    FinalCounters _final;
    bool _finished = false;
};

} // namespace minnoc::obs

#endif // MINNOC_OBS_SIM_OBSERVER_HPP
