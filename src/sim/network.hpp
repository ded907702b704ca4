/**
 * @file
 * Cycle-driven flit-level network model.
 *
 * Microarchitecture: input-queued wormhole routers with full internal
 * crossbars (contention is per link, matching the paper's path-conflict
 * model), per-link virtual channels with credit-based flow control,
 * per-output round-robin switch allocation, one flit per input link and
 * per output link per cycle, and wire delay equal to link length.
 *
 * Deadlocks (possible under the torus's fully adaptive routing and on
 * arbitrary generated topologies) are detected by per-packet progress
 * timeout and resolved by regressive recovery: every buffered or
 * in-flight flit of the victim is purged with credits restored, and the
 * source retransmits the whole packet after a penalty — the scheme the
 * paper assumes (Section 4.2).
 *
 * A cycle costs O(live flits), not O(links x VCs): the network keeps
 * wheels of the flits and credits arriving each cycle, and active sets
 * of VCs holding an unrouted head, outputs with requesting VCs and
 * sources with queued packets, and visits each in the order a full
 * scan would (DESIGN.md §5m).
 */

#ifndef MINNOC_SIM_NETWORK_HPP
#define MINNOC_SIM_NETWORK_HPP

#include <algorithm>
#include <bit>
#include <deque>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "config.hpp"
#include "fault.hpp"
#include "obs/sim_observer.hpp"
#include "packet.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"
#include "util/stats.hpp"

namespace minnoc::sim {

/** Aggregate network statistics. */
struct NetworkStats
{
    std::uint64_t packetsEnqueued = 0;
    std::uint64_t packetsDelivered = 0;
    /** Packets given up on: disconnected channel or retries exhausted. */
    std::uint64_t packetsDropped = 0;
    std::uint64_t flitHops = 0;
    std::uint32_t deadlockRecoveries = 0;

    /** Flits written into switch input-VC buffers (activity power). */
    std::uint64_t bufferWrites = 0;
    /** Flits read back out of input-VC buffers (crossbar traversals). */
    std::uint64_t bufferReads = 0;
    /** Occupancy integral: flits resident in the fabric, per cycle. */
    std::uint64_t residentFlitCycles = 0;

    /** Source retransmissions (corruption NACKs + fault-event purges). */
    std::uint64_t retransmissions = 0;
    /** Flit corruption events on link traversals. */
    std::uint64_t corruptedFlits = 0;
    /** Permanently failed links once the fault event is active. */
    std::uint32_t failedLinks = 0;
    /** (src, dst) pairs with no surviving path after link failures. */
    std::uint32_t disconnectedPairs = 0;
    /** Packets dropped because the corruption-retry budget ran out. */
    std::uint32_t retryExhaustions = 0;
    /** Packets dropped because deadlock recoveries exceeded the bound. */
    std::uint32_t recoveryExhaustions = 0;

    ScalarStat packetLatency; ///< enqueue -> delivered, cycles
    ScalarStat packetHops;    ///< path length in links
    /** Latency of packets delivered on the first try (no retransmits). */
    ScalarStat cleanPacketLatency;

    /** Fraction of enqueued packets eventually delivered. */
    double
    deliveredFraction() const
    {
        if (packetsEnqueued == 0)
            return 1.0;
        return static_cast<double>(packetsDelivered) /
               static_cast<double>(packetsEnqueued);
    }

    /**
     * Mean delivered latency relative to the first-try population:
     * 1.0 on a clean network, above it when retransmissions stretched
     * the tail.
     */
    double
    latencyInflation() const
    {
        if (cleanPacketLatency.count() == 0 ||
            cleanPacketLatency.mean() <= 0.0) {
            return 1.0;
        }
        return packetLatency.mean() / cleanPacketLatency.mean();
    }

    /** Flits that traversed each link (indexed by LinkId). */
    std::vector<std::uint64_t> linkFlits;

    /**
     * Utilization of link @p l over a horizon of @p cycles: fraction of
     * cycles the link moved a flit (a link moves at most one per
     * cycle).
     */
    double
    linkUtilization(topo::LinkId l, Cycle cycles) const
    {
        if (cycles <= 0 || l >= linkFlits.size())
            return 0.0;
        return static_cast<double>(linkFlits[l]) /
               static_cast<double>(cycles);
    }

    /** Peak link utilization over the horizon. */
    double
    maxLinkUtilization(Cycle cycles) const
    {
        double best = 0.0;
        for (topo::LinkId l = 0; l < linkFlits.size(); ++l)
            best = std::max(best, linkUtilization(l, cycles));
        return best;
    }

    /** Mean utilization over all links. */
    double
    meanLinkUtilization(Cycle cycles) const
    {
        if (linkFlits.empty())
            return 0.0;
        double total = 0.0;
        for (topo::LinkId l = 0; l < linkFlits.size(); ++l)
            total += linkUtilization(l, cycles);
        return total / static_cast<double>(linkFlits.size());
    }
};

/**
 * Set of dense indices (links, procs, (link, VC) slots, ranks), visited
 * in ascending order. forEach() reads each 64-bit word once, so the
 * visitor may erase members freely; a member inserted during the walk
 * is visited only if its word has not been read yet. A walk that must
 * see every member inserted above its position steps with next().
 */
class IndexSet
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    void resize(std::size_t n) { _words.assign((n + 63) / 64, 0); }
    void insert(std::size_t i) { _words[i / 64] |= bit(i); }
    void erase(std::size_t i) { _words[i / 64] &= ~bit(i); }
    void clear() { std::fill(_words.begin(), _words.end(), 0); }
    bool contains(std::size_t i) const
    {
        return (_words[i / 64] & bit(i)) != 0;
    }

    /** Smallest member >= @p i, or npos. */
    std::size_t
    next(std::size_t i) const
    {
        std::size_t w = i / 64;
        if (w >= _words.size())
            return npos;
        std::uint64_t m = _words[w] & (~std::uint64_t{0} << (i % 64));
        while (m == 0) {
            if (++w == _words.size())
                return npos;
            m = _words[w];
        }
        return w * 64 + static_cast<std::size_t>(std::countr_zero(m));
    }

    template <class Visit>
    void
    forEach(Visit &&visit)
    {
        for (std::size_t w = 0; w < _words.size(); ++w) {
            for (std::uint64_t m = _words[w]; m != 0; m &= m - 1)
                visit(w * 64 + static_cast<std::size_t>(
                                   std::countr_zero(m)));
        }
    }

  private:
    static std::uint64_t bit(std::size_t i)
    {
        return std::uint64_t{1} << (i % 64);
    }
    std::vector<std::uint64_t> _words;
};

/**
 * The network: topology + routing + router state. Driven one cycle at
 * a time by step(); the trace engine enqueues packets and polls
 * delivery.
 */
class Network
{
  public:
    /**
     * @param topo physical topology (must outlive the network)
     * @param routing routing function (must outlive the network)
     * @param config simulator parameters
     * @param faults resolved fault model (default: no faults). With
     *        fail-from-start link faults the routing is replaced by a
     *        degraded shortest-path table immediately; with a positive
     *        fail-at cycle the swap happens mid-run, purging and
     *        retransmitting everything then in flight.
     */
    Network(const topo::Topology &topo,
            const topo::RoutingFunction &routing, const SimConfig &config,
            FaultModel faults = FaultModel{});

    /** Queue a packet for injection; returns its id. */
    PacketId enqueue(core::ProcId src, core::ProcId dst,
                     std::uint64_t bytes, std::uint32_t callId, Cycle now);

    /** True once the packet's tail flit left the source NI (or it was
     *  dropped — senders must not block on an undeliverable packet). */
    bool injected(PacketId id) const;

    /** The dense id of channel (src -> dst), assigned on first use. */
    FlowId flow(core::ProcId dst, core::ProcId src);

    /**
     * True if the next in-sequence message of flow @p f was delivered
     * and not yet consumed. Later messages that overtook it through the
     * virtual channels stay invisible until it arrives.
     */
    bool hasDelivered(FlowId f) const;

    /**
     * Consume the oldest delivered message of flow @p f; returns its
     * packet id (panics when none is pending).
     */
    PacketId consumeDelivered(FlowId f);

    /**
     * True when the next in-sequence message of flow @p f is known
     * lost (dropped packet) and will never be delivered. The consumer
     * should acknowledge it via skipLostDelivery() and move on instead
     * of blocking.
     */
    bool nextDeliveryLost(FlowId f) const;

    /** Advance the flow past a lost message (panics when none). */
    void skipLostDelivery(FlowId f);

    /**
     * Packets whose tail flit left the source NI, or that were
     * delivered or dropped, since clearWakes(), in event order. A
     * sender blocked on a packet's injection, and a receiver blocked
     * on a flow, need not look again before a packet of theirs shows
     * up here.
     */
    const std::vector<PacketId> &wakes() const { return _wakes; }
    void clearWakes() { _wakes.clear(); }

    /**
     * Advance the network one cycle. Call with monotone `now`; cycles
     * may be skipped only while no flit is in flight.
     */
    void step(Cycle now);

    /** True when no flits exist anywhere and no injections are pending. */
    bool idle() const;

    /** True when link failures left (src -> dst) without any path. */
    bool channelDisconnected(core::ProcId src, core::ProcId dst) const;

    const NetworkStats &stats() const { return _stats; }
    const Packet &packet(PacketId id) const { return _packets.at(id); }
    const SimConfig &config() const { return _config; }
    const FaultModel &faults() const { return _faults; }

    /**
     * Attach a telemetry observer (must outlive the network; nullptr
     * detaches). Fed per cycle and per delivery; compiled out entirely
     * when MINNOC_OBS=OFF.
     */
    void setObserver(obs::SimObserver *observer) { _observer = observer; }
    obs::SimObserver *observer() const { return _observer; }

    /** Flits currently buffered or in flight (observer support). */
    std::uint64_t flitsInNetwork() const { return _flitsInNetwork; }

    /**
     * Cycles step() ran. The trace driver fast-forwards the clock over
     * idle stretches, so this is at most the final cycle.
     */
    std::uint64_t steppedCycles() const { return _steppedCycles; }

  private:
    static constexpr std::uint32_t kNoVc = static_cast<std::uint32_t>(-1);

    /** Per-link state, with the topology facts the flit path needs. */
    struct LinkState
    {
        std::uint32_t delay = 1;  ///< wire delay, cycles
        std::uint32_t inRank = 0; ///< position in inLinks() of its sink
        std::uint32_t ring = 0;   ///< its pipe's first entry in _inFlight
        std::uint32_t ringMask = 0; ///< pipe entries - 1 (2^k >= delay)
        std::uint32_t rrVc = 0;   ///< VC allocation round-robin
        std::uint32_t rrReq = 0;  ///< switch allocation round-robin
        Cycle inputUsedAt = -1;   ///< cycle its input last forwarded
        bool toProc = false;      ///< enters an end-node: no input unit
    };

    /**
     * Receiver side of one (link, VC) slot. The buffer only ever holds
     * its owner's flits, in order, so it is a run: flits
     * [next, next + count) of the owner, the last of them the tail
     * once tailIn is set.
     */
    struct InputVc
    {
        PacketId owner = kNoPacket;
        std::uint32_t next = 0;  ///< seq of the front flit
        std::uint32_t count = 0; ///< flits buffered
        /** Output chosen for the owner (kNoLink until the head routes). */
        topo::LinkId outLink = topo::kNoLink;
        std::uint32_t outVc = kNoVc;
        bool tailIn = false;
    };

    /** Sender side of one (link, VC) slot. */
    struct OutputVc
    {
        PacketId owner = kNoPacket;    ///< reserved downstream VC
        std::uint32_t credits = 0;     ///< free downstream slots
        std::uint32_t outstanding = 0; ///< flits not yet credited
        bool tailSent = false;         ///< tail handed to the link
    };

    /**
     * An input VC whose head holds an output: one entry of that
     * output's requester list. @ref rank orders the list as a scan of
     * the switch's inLinks() then VCs would find it.
     */
    struct Requester
    {
        topo::LinkId link;
        std::uint32_t vc;
        std::uint32_t outVc; ///< the output VC its head reserved
        std::uint32_t rank;
    };

    /**
     * A flit in flight on a link: one pipe entry. A link sends at most
     * one flit per cycle and each arrives exactly its delay later, so
     * the entry of a flit arriving at cycle t is t & ringMask. It stays
     * uncredited until it leaves the next buffer, so its packet is the
     * owner of the link's output slot for its VC.
     */
    struct InFlit
    {
        std::uint32_t vc = 0;
        bool head = false;
        bool tail = false;
        bool valid = false;
    };

    /** Per-processor source NI. */
    struct SourceNi
    {
        std::deque<PacketId> queue;
        topo::LinkId inj = topo::kNoLink; ///< injection link
        std::uint32_t vc = kNoVc;         ///< VC of the front packet
    };

    /** One (src, dst) channel: its packets in sequence order. */
    struct Flow
    {
        core::ProcId dst;
        core::ProcId src;
        std::vector<PacketId> sent; ///< packet of each sequence number
        std::size_t consumed = 0;   ///< sequence numbers consumed/skipped
        bool dead = false;          ///< link failures left no path
    };

    std::size_t
    slot(topo::LinkId l, std::uint32_t vc) const
    {
        return std::size_t{l} * _config.numVcs + vc;
    }
    const Flow *findFlow(core::ProcId dst, core::ProcId src) const;
    /** Packet of the next unconsumed sequence number (or kNoPacket). */
    PacketId nextInFlow(FlowId f) const;
    void arriveFlits(Cycle now);
    void arriveCredits(Cycle now);
    void routeAndAllocate();
    void switchAllocation(Cycle now);
    void injectFromSources(Cycle now);
    void scanForDeadlocks(Cycle now);
    void recoverPacket(PacketId id, Cycle now);
    void purgePacket(PacketId id);
    void requeuePacket(PacketId id, Cycle now, Cycle backoff);
    void dropPacket(PacketId id, const char *why);
    void activateFaults(Cycle now);
    void queueAtSource(core::ProcId src,
                       std::deque<PacketId>::iterator pos, PacketId id);
    /** List routed input VC (@p inLink, @p inVc) at its output. */
    void addRequester(topo::LinkId inLink, std::uint32_t inVc);
    void removeRequester(topo::LinkId inLink, std::uint32_t inVc);
    void releaseInputVc(topo::LinkId inLink, std::uint32_t inVc);
    /** Reserve a free VC of output @p l for @p id (kNoVc: none). */
    std::uint32_t allocateVc(topo::LinkId l, PacketId id);
    topo::LinkId chooseOutput(const std::vector<topo::LinkId> &candidates);
    /** Hand @p flit to link @p l on VC @p vc (one credit spent). */
    void sendFlit(topo::LinkId l, std::uint32_t vc, const FlitRef &flit,
                  Cycle now);
    void forwardFlit(topo::LinkId inLink, std::uint32_t inVc, Cycle now);
    /** Credit slot (@p l, @p vc) back to its sender after the wire delay. */
    void returnCredit(topo::LinkId l, std::uint32_t vc, Cycle now);
    void deliverAtProc(topo::LinkId link, std::uint32_t vc, bool tail,
                       Cycle now);
#ifdef MINNOC_SANITIZE
    void checkInvariants() const;
#endif

    const topo::Topology *_topo;
    const topo::RoutingFunction *_routing;
    SimConfig _config;
    FaultModel _faults;
    bool _faultsActive = false;
    /** Replacement routing once link failures are active. */
    std::unique_ptr<topo::TableRouting> _degradedRouting;

    std::vector<Packet> _packets;
    std::vector<LinkState> _links;  ///< per link
    std::vector<InFlit> _inFlight;  ///< every link's pipe entries
    /**
     * Flits and credits in flight, bucketed by arrival cycle modulo the
     * wheel size, a power of two above every link delay: links with a
     * flit arriving (a superset: a purge leaves its bit behind) and the
     * (link, VC) slot each credit frees.
     */
    std::vector<IndexSet> _flitWheel;
    std::vector<std::vector<std::uint32_t>> _creditWheel;
    Cycle _wheelMask = 0;
    /** Last cycle whose credits have arrived. */
    Cycle _creditsArrived = 0;
    std::vector<InputVc> _inVcs;    ///< per (link, VC) slot
    std::vector<OutputVc> _outVcs;  ///< per (link, VC) slot
    /** Per slot: routing candidates of the waiting head. */
    std::vector<std::vector<topo::LinkId>> _candidates;
    std::vector<SourceNi> _sources; ///< per proc

    /** Channels that carried or awaited a packet, by FlowId. */
    std::vector<Flow> _flows;
    /** (dst << 32 | src) -> FlowId: O(channels), never P². */
    std::unordered_map<std::uint64_t, FlowId> _flowIds;
    /** Packets tail-injected, delivered or dropped since clearWakes(). */
    std::vector<PacketId> _wakes;

    /*
     * Active sets: each cycle touches only what they name. Every set is
     * visited in ascending index order, which is the order a full scan
     * of links, (link, VC) slots or procs would take, so the simulated
     * results do not depend on them (DESIGN.md §5m).
     */
    /** (link * numVcs + vc) slots that may hold an unrouted head. */
    IndexSet _unrouted;
    /** Output links with a non-empty requester list (exact). */
    IndexSet _requestedOutputs;
    /** Procs whose source queue may be non-empty (superset). */
    IndexSet _queuedSources;
    /** Per output link: input VCs routed to it, ascending rank. */
    std::vector<std::vector<Requester>> _requesters;
    /** Packets with flits injected and not yet delivered or dropped. */
    std::set<PacketId> _alivePackets;
    /** Packets waiting in source queues, over all procs. */
    std::uint64_t _queuedPackets = 0;

    std::uint64_t _flitsInNetwork = 0;
    std::uint64_t _steppedCycles = 0;
    NetworkStats _stats;
    Cycle _lastStep = -1;
    obs::SimObserver *_observer = nullptr;
};

} // namespace minnoc::sim

#endif // MINNOC_SIM_NETWORK_HPP
