/**
 * @file
 * Simulator configuration (paper Section 4.2 parameters).
 *
 * Defaults reproduce the paper's setup: 32-bit physical links and flits
 * at 800 MHz (so one flit carries 4 bytes and a link moves one flit per
 * cycle), 3 virtual channels per physical link, ten-cycle LogP-style
 * send/receive overheads, wire delay equal to link length in tiles with
 * a one-cycle floor, and timeout-based deadlock detection with
 * regressive recovery (kill and retransmit).
 */

#ifndef MINNOC_SIM_CONFIG_HPP
#define MINNOC_SIM_CONFIG_HPP

#include <cstdint>
#include <sstream>
#include <string>

#include "util/cancel.hpp"

namespace minnoc::sim {

/** Simulated clock cycle count. */
using Cycle = std::int64_t;

/** All simulator knobs. */
struct SimConfig
{
    /** Virtual channels per physical link (paper: 3). */
    std::uint32_t numVcs = 3;

    /** Buffer depth per virtual channel, in flits. */
    std::uint32_t vcDepth = 4;

    /** Payload bytes per flit (32-bit phits). */
    std::uint32_t flitBytes = 4;

    /** Software overhead charged on each send (cycles; paper: 10). */
    Cycle sendOverhead = 10;

    /** Software overhead charged on each receive (cycles; paper: 10). */
    Cycle recvOverhead = 10;

    /**
     * A packet with no flit movement for this many cycles is declared
     * deadlocked and regressively recovered.
     */
    Cycle deadlockTimeout = 50'000;

    /** Wait before retransmitting a killed packet. */
    Cycle deadlockPenalty = 200;

    /** Cycles between deadlock scans. */
    Cycle deadlockScanInterval = 512;

    /**
     * Regressive recoveries allowed per packet before it is dropped
     * with a diagnostic instead of retransmitted again (livelock
     * guard; generous because recovery is rare and usually converges).
     */
    std::uint32_t maxRecoveries = 64;

    /** Hard wall on simulated time (guards against livelock bugs). */
    Cycle maxCycles = 2'000'000'000;

    /**
     * Optional cooperative-cancellation token (not owned, may be
     * null). The replay loop polls it at epoch granularity (every few
     * thousand scheduler iterations) and unwinds with CancelledError
     * when it fires, so a timed-out or disconnected client's
     * simulation actually stops instead of running to completion.
     * Runtime plumbing only: excluded from signature().
     */
    const CancelToken *cancel = nullptr;

    /**
     * Canonical parameter string for content-addressed caching: equal
     * signatures guarantee identical simulation results for the same
     * trace and network.
     */
    std::string
    signature() const
    {
        std::ostringstream oss;
        oss << "vcs=" << numVcs << ";vcd=" << vcDepth
            << ";flit=" << flitBytes << ";so=" << sendOverhead
            << ";ro=" << recvOverhead << ";dto=" << deadlockTimeout
            << ";dp=" << deadlockPenalty << ";dsi=" << deadlockScanInterval
            << ";rec=" << maxRecoveries << ";max=" << maxCycles;
        return oss.str();
    }
};

} // namespace minnoc::sim

#endif // MINNOC_SIM_CONFIG_HPP
