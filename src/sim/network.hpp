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
 * active sets of links with traffic in flight, VCs holding an unrouted
 * head, outputs with requesting VCs and sources with queued packets,
 * and visits each in the order a full scan would.
 */

#ifndef MINNOC_SIM_NETWORK_HPP
#define MINNOC_SIM_NETWORK_HPP

#include <bit>
#include <deque>
#include <map>
#include <memory>
#include <set>
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

    /** True if a delivered-but-unconsumed message from src waits at dst. */
    bool hasDelivered(core::ProcId dst, core::ProcId src) const;

    /**
     * Consume the oldest delivered message from src at dst; returns its
     * packet id (panics when none is pending).
     */
    PacketId consumeDelivered(core::ProcId dst, core::ProcId src);

    /** Advance the network one cycle (call with monotone `now`). */
    void step(Cycle now);

    /** True when no flits exist anywhere and no injections are pending. */
    bool idle() const;

    /**
     * True when the next in-sequence message from @p src at @p dst is
     * known lost (dropped packet) and will never be delivered. The
     * consumer should acknowledge it via skipLostDelivery() and move
     * on instead of blocking.
     */
    bool nextDeliveryLost(core::ProcId dst, core::ProcId src) const;

    /** Advance the channel past a lost message (panics when none). */
    void skipLostDelivery(core::ProcId dst, core::ProcId src);

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

    /**
     * Set of dense indices (links, procs, (link, VC) slots), visited in
     * ascending order. forEach() reads each 64-bit word once, so the
     * visitor may erase members freely; a member inserted during the
     * walk is visited only if its word has not been read yet.
     */
    class IndexSet
    {
      public:
        void resize(std::size_t n) { _words.assign((n + 63) / 64, 0); }
        void insert(std::size_t i) { _words[i / 64] |= bit(i); }
        void erase(std::size_t i) { _words[i / 64] &= ~bit(i); }
        bool contains(std::size_t i) const
        {
            return (_words[i / 64] & bit(i)) != 0;
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
     * FIFO in one growable ring: push and pop allocate nothing once
     * the ring has grown to the peak occupancy, which credit flow
     * control bounds by numVcs * vcDepth per link.
     */
    template <class T>
    class Fifo
    {
      public:
        bool empty() const { return _size == 0; }
        std::size_t size() const { return _size; }
        T &front() { return _items[_head]; }
        const T &operator[](std::size_t i) const { return _items[slot(i)]; }
        void clear() { _head = _size = 0; }

        void
        push_back(const T &item)
        {
            if (_size == _items.size())
                grow();
            _items[slot(_size)] = item;
            ++_size;
        }

        void
        pop_front()
        {
            _head = slot(1);
            --_size;
        }

        /** Remove the items @p drop picks, asked front to back. */
        template <class Drop>
        void
        eraseIf(Drop &&drop)
        {
            std::size_t kept = 0;
            for (std::size_t i = 0; i < _size; ++i) {
                const T item = _items[slot(i)];
                if (!drop(item))
                    _items[slot(kept++)] = item;
            }
            _size = kept;
        }

      private:
        std::size_t
        slot(std::size_t i) const
        {
            const std::size_t s = _head + i;
            return s >= _items.size() ? s - _items.size() : s;
        }

        void
        grow()
        {
            std::vector<T> items(std::max<std::size_t>(4, 2 * _items.size()));
            for (std::size_t i = 0; i < _size; ++i)
                items[i] = _items[slot(i)];
            _items = std::move(items);
            _head = 0;
        }

        std::vector<T> _items;
        std::size_t _head = 0;
        std::size_t _size = 0;
    };

    /** Receiver-side state of one virtual channel of one link. */
    struct VcState
    {
        PacketId owner = kNoPacket;
        Fifo<FlitRef> buffer;
        /** Routing candidates of the waiting head (empty once routed). */
        std::vector<topo::LinkId> candidates;
        /** Output chosen for the owner (valid once head routed). */
        topo::LinkId outLink = topo::kNoLink;
        std::uint32_t outVc = kNoVc;
        bool outAssigned = false;
    };

    /** Receiver side of a link (absent for links into end-nodes). */
    struct InputUnit
    {
        std::vector<VcState> vcs;
    };

    /** Sender-side bookkeeping of a link. */
    struct OutputState
    {
        std::vector<std::uint32_t> credits; ///< free downstream slots
        std::vector<PacketId> vcOwner;      ///< reserved downstream VC
        std::vector<bool> tailSent;         ///< tail handed to the link
        std::vector<std::uint32_t> outstanding; ///< flits not yet credited
        std::uint32_t rrVc = 0;             ///< VC allocation round-robin
        std::uint32_t rrReq = 0;            ///< switch allocation rr
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
        std::uint32_t rank;
    };

    /** Flits and credits in flight on a link. */
    struct LinkPipe
    {
        struct InFlit
        {
            Cycle arrive;
            FlitRef flit;
            std::uint32_t vc;
        };
        struct InCredit
        {
            Cycle arrive;
            std::uint32_t vc;
        };
        Fifo<InFlit> flits;
        Fifo<InCredit> credits;
    };

    /** Per-processor source NI. */
    struct SourceNi
    {
        std::deque<PacketId> queue;
        std::uint32_t vc = kNoVc;
        bool vcAssigned = false;
    };

    bool isTail(const FlitRef &f) const;
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
    void maybeCorrupt(const FlitRef &flit);
    void queueAtSource(core::ProcId src,
                       std::deque<PacketId>::iterator pos, PacketId id);
    void addRequester(topo::LinkId out, topo::LinkId inLink,
                      std::uint32_t inVc);
    void removeRequester(topo::LinkId out, topo::LinkId inLink,
                         std::uint32_t inVc);
    void releaseInputVc(topo::LinkId inLink, std::uint32_t inVc,
                        VcState &vc);
    std::uint32_t allocateVc(OutputState &out);
    topo::LinkId chooseOutput(const std::vector<topo::LinkId> &candidates);
    void forwardFlit(topo::LinkId inLink, std::uint32_t inVc,
                     VcState &vc, Cycle now);
    void deliverAtProc(const FlitRef &flit, topo::LinkId link,
                       std::uint32_t vc, Cycle now);
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
    /** (dst, src) channels link failures disconnected. */
    std::set<std::pair<core::ProcId, core::ProcId>> _deadChannels;
    /** Per-channel sequence numbers of dropped (never-arriving) packets. */
    std::map<std::pair<core::ProcId, core::ProcId>,
             std::set<std::uint64_t>>
        _lostSeqs;

    std::vector<Packet> _packets;
    std::vector<InputUnit> _inputs;   ///< per link (empty for proc sinks)
    std::vector<OutputState> _outputs; ///< per link
    std::vector<LinkPipe> _pipes;      ///< per link
    std::vector<SourceNi> _sources;    ///< per proc

    /** Per-channel reorder buffers: (dst, src) -> seq -> packet id. */
    std::map<std::pair<core::ProcId, core::ProcId>,
             std::map<std::uint64_t, PacketId>>
        _delivered;
    /** Next sequence to hand to the consumer, per channel. */
    std::map<std::pair<core::ProcId, core::ProcId>, std::uint64_t>
        _consumeSeq;
    /** Next sequence to assign at the source, per channel. */
    std::map<std::pair<core::ProcId, core::ProcId>, std::uint64_t>
        _sendSeq;

    /*
     * Active sets: each cycle touches only what they name. Every set is
     * visited in ascending index order, which is the order a full scan
     * of links, (link, VC) slots or procs would take, so the simulated
     * results do not depend on them (DESIGN.md §5m).
     */
    /** Links that may have flits in flight (superset). */
    IndexSet _flitPipes;
    /** Links that may have credits in flight (superset). */
    IndexSet _creditPipes;
    /** (link * numVcs + vc) slots that may hold an unrouted head. */
    IndexSet _unrouted;
    /** Output links with a non-empty requester list (exact). */
    IndexSet _requestedOutputs;
    /** Procs whose source queue may be non-empty (superset). */
    IndexSet _queuedSources;
    /** Per output link: input VCs routed to it, ascending rank. */
    std::vector<std::vector<Requester>> _requesters;
    /** Position of each link in inLinks() of the node it enters. */
    std::vector<std::uint32_t> _inRank;
    /** Packets with flits injected and not yet delivered or dropped. */
    std::set<PacketId> _alivePackets;
    /** Packets waiting in source queues, over all procs. */
    std::uint64_t _queuedPackets = 0;
    /** Cycle in which each input link last forwarded a flit. */
    std::vector<Cycle> _inputUsedAt;
    /** switchAllocation scratch: the requests of one output. */
    std::vector<Requester> _requests;

    std::uint64_t _flitsInNetwork = 0;
    std::uint64_t _steppedCycles = 0;
    NetworkStats _stats;
    Cycle _lastStep = -1;
    obs::SimObserver *_observer = nullptr;
};

} // namespace minnoc::sim

#endif // MINNOC_SIM_NETWORK_HPP
