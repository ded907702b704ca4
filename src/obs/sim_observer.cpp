#include "sim_observer.hpp"

#include <algorithm>
#include <string>

namespace minnoc::obs {

namespace {

std::string
flowName(std::uint32_t src, std::uint32_t dst)
{
    return "sim/flow/" + std::to_string(src) + "->" +
           std::to_string(dst) + "/latency";
}

/** Publish a finished histogram into the registry under @p name. */
void
publishHistogram(MetricsRegistry &registry, const std::string &name,
                 const LatencyHistogram &src)
{
    registry.histogram(name) = src;
}

} // namespace

void
SimObserver::onDelivered(std::uint32_t src, std::uint32_t dst,
                         std::int64_t latency, std::uint32_t hops,
                         bool clean)
{
    const auto v =
        static_cast<std::uint64_t>(latency < 0 ? 0 : latency);
    _latency.record(v);
    if (clean)
        _cleanLatency.record(v);
    _hops.record(hops);
    _flows[{src, dst}].record(v);
}

void
SimObserver::sample(std::int64_t now, std::uint64_t flitsInNetwork,
                    const std::vector<std::uint64_t> &linkFlits)
{
    Epoch e;
    e.end = now;
    e.occupancy = flitsInNetwork;
    e.linkFlits = linkFlits;
    _epochs.push_back(std::move(e));
    _nextSample = now + _epochCycles;

    if (_epochs.size() >= _sampleCap) {
        // Halve resolution: the snapshots are cumulative, so merging
        // two adjacent epochs is just dropping the earlier boundary.
        std::vector<Epoch> kept;
        kept.reserve(_epochs.size() / 2 + 1);
        for (std::size_t i = 1; i < _epochs.size(); i += 2)
            kept.push_back(std::move(_epochs[i]));
        _epochs = std::move(kept);
        _epochCycles *= 2;
        _nextSample = _epochs.back().end + _epochCycles;
    }
}

void
SimObserver::finish(const FinalCounters &counters, std::int64_t now,
                    std::uint64_t flitsInNetwork,
                    const std::vector<std::uint64_t> &linkFlits)
{
    _final = counters;
    _finished = true;
    if (_epochs.empty() || _epochs.back().end < now)
        sample(now, flitsInNetwork, linkFlits);
}

void
SimObserver::exportTo(MetricsRegistry &registry) const
{
    registry.counter("sim/packets_enqueued").add(_final.packetsEnqueued);
    registry.counter("sim/packets_delivered")
        .add(_final.packetsDelivered);
    registry.counter("sim/packets_dropped").add(_final.packetsDropped);
    registry.counter("sim/flit_hops").add(_final.flitHops);
    registry.counter("sim/buffer_writes").add(_final.bufferWrites);
    registry.counter("sim/buffer_reads").add(_final.bufferReads);
    registry.counter("sim/resident_flit_cycles")
        .add(_final.residentFlitCycles);
    registry.counter("sim/retransmissions").add(_final.retransmissions);
    registry.counter("sim/corrupted_flits").add(_final.corruptedFlits);
    registry.counter("sim/deadlock_recoveries")
        .add(_final.deadlockRecoveries);
    registry.counter("sim/failed_links").add(_final.failedLinks);
    registry.counter("sim/disconnected_pairs")
        .add(_final.disconnectedPairs);
    registry.counter("sim/retry_exhaustions")
        .add(_final.retryExhaustions);
    registry.counter("sim/recovery_exhaustions")
        .add(_final.recoveryExhaustions);
    registry.counter("sim/stepped_cycles").add(_final.steppedCycles);
    registry.gauge("sim/exec_time")
        .set(static_cast<double>(_final.execTime));
    if (_final.runSeconds > 0.0) {
        const double s = _final.runSeconds;
        registry.gauge("sim/time/run_us", true).set(1e6 * s);
        registry.gauge("sim/time/cycles_per_s", true)
            .set(static_cast<double>(_final.execTime) / s);
        registry.gauge("sim/time/flit_hops_per_s", true)
            .set(static_cast<double>(_final.flitHops) / s);
    }

    publishHistogram(registry, "sim/latency", _latency);
    publishHistogram(registry, "sim/latency_clean", _cleanLatency);
    publishHistogram(registry, "sim/hops", _hops);
    for (const auto &[key, hist] : _flows)
        publishHistogram(registry, flowName(key.first, key.second),
                         hist);

    // Occupancy and per-link utilization time series from the epoch
    // snapshots (deltas between consecutive cumulative boundaries).
    auto &occupancy = registry.series("sim/occupancy");
    for (const auto &e : _epochs)
        occupancy.sample(e.end, static_cast<double>(e.occupancy));

    const std::size_t numLinks =
        _epochs.empty() ? 0 : _epochs.back().linkFlits.size();
    for (std::size_t l = 0; l < numLinks; ++l) {
        auto &util =
            registry.series("sim/link/" + std::to_string(l) + "/util");
        std::int64_t prevEnd = 0;
        std::uint64_t prevFlits = 0;
        for (const auto &e : _epochs) {
            const auto cycles = e.end - prevEnd;
            const auto flits =
                l < e.linkFlits.size() ? e.linkFlits[l] - prevFlits : 0;
            util.sample(e.end,
                        cycles > 0 ? static_cast<double>(flits) /
                                         static_cast<double>(cycles)
                                   : 0.0);
            prevEnd = e.end;
            prevFlits = l < e.linkFlits.size() ? e.linkFlits[l] : 0;
        }
    }
}

void
SimObserver::exportTrace(TraceEventLog &log) const
{
    log.processName(kPidSim, "minnoc simulator");
    log.threadName(kPidSim, 0, "epochs");

    std::int64_t prevEnd = 0;
    std::uint64_t prevTotal = 0;
    for (const auto &e : _epochs) {
        const auto cycles = e.end - prevEnd;
        std::uint64_t total = 0;
        for (const auto f : e.linkFlits)
            total += f;
        const auto moved = total - prevTotal;
        const std::size_t links = e.linkFlits.size();
        const double meanUtil =
            cycles > 0 && links > 0
                ? static_cast<double>(moved) /
                      (static_cast<double>(cycles) *
                       static_cast<double>(links))
                : 0.0;
        log.complete("epoch", kPidSim, 0, prevEnd, cycles,
                     "\"flits_moved\": " + std::to_string(moved));
        log.counter("flits_in_network", kPidSim, e.end,
                    static_cast<double>(e.occupancy));
        log.counter("mean_link_util", kPidSim, e.end, meanUtil);
        prevEnd = e.end;
        prevTotal = total;
    }
}

} // namespace minnoc::obs
