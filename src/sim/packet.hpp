/**
 * @file
 * Packets and flits.
 *
 * A message becomes one packet: a head flit (carrying the route header)
 * followed by ceil(bytes / flitBytes) payload flits; the last flit is
 * the tail. Flits are referenced by (packet id, sequence) — the
 * simulator tracks a buffer as a run of one packet's sequence numbers
 * rather than materializing per-flit payloads.
 */

#ifndef MINNOC_SIM_PACKET_HPP
#define MINNOC_SIM_PACKET_HPP

#include <cstdint>

#include "config.hpp"
#include "core/types.hpp"

namespace minnoc::sim {

/** Dense packet identifier. */
using PacketId = std::uint64_t;

constexpr PacketId kNoPacket = static_cast<PacketId>(-1);

/** Dense id of one (src, dst) channel of a network. */
using FlowId = std::uint32_t;

/** One in-flight or completed packet. */
struct Packet
{
    PacketId id = kNoPacket;
    core::ProcId src = core::kNoProc;
    core::ProcId dst = core::kNoProc;
    std::uint64_t bytes = 0;
    std::uint32_t callId = 0;

    /** Head + payload flits. */
    std::uint32_t numFlits = 1;

    /** Flits handed to the injection link so far (resets on recovery). */
    std::uint32_t flitsInjected = 0;

    /** Flits absorbed at the destination NI (resets on recovery). */
    std::uint32_t flitsDelivered = 0;

    Cycle enqueuedAt = 0;
    Cycle deliveredAt = -1;

    /** Cycle of the most recent flit movement (deadlock detection). */
    Cycle lastProgress = 0;

    /** Source retransmissions so far (recovery + corruption NACKs). */
    std::uint32_t retries = 0;

    /**
     * End-to-end integrity checksum, fixed at enqueue. Transient link
     * faults perturb @ref wireChecksum in flight; the destination NI
     * accepts the packet only when the two still agree.
     */
    std::uint64_t checksum = 0;

    /** Checksum as accumulated over the wire (== checksum when clean). */
    std::uint64_t wireChecksum = 0;

    /**
     * Permanently given up on: the channel was disconnected by link
     * failures or the retry budget ran out. Never delivered.
     */
    bool dropped = false;

    /** Links the head flit has traversed (path length on delivery). */
    std::uint32_t hops = 0;

    /**
     * Sequence number within the (src, dst) channel. Virtual-channel
     * interleaving can deliver packets of one channel out of order;
     * the destination NI re-orders by this sequence (MPI-style
     * matching).
     */
    std::uint64_t channelSeq = 0;

    /** The (src, dst) channel. */
    FlowId flow = 0;

    /** Earliest cycle the source may (re)start injecting. */
    Cycle holdUntil = 0;

    bool delivered() const { return deliveredAt >= 0; }
};

/** Reference to one flit of a packet. */
struct FlitRef
{
    PacketId packet = kNoPacket;
    std::uint32_t seq = 0;
    bool tail = false;

    bool isHead() const { return seq == 0; }
};

} // namespace minnoc::sim

#endif // MINNOC_SIM_PACKET_HPP
