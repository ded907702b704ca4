#include "network.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace minnoc::sim {

namespace {

/** Deterministic per-packet checksum (splitmix-style mix of the id). */
std::uint64_t
packetChecksum(PacketId id, core::ProcId src, core::ProcId dst,
               std::uint64_t bytes)
{
    std::uint64_t z = id * 0x9e3779b97f4a7c15ULL + src +
                      (static_cast<std::uint64_t>(dst) << 32) + bytes;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Network::Network(const topo::Topology &topo,
                 const topo::RoutingFunction &routing,
                 const SimConfig &config, FaultModel faults)
    : _topo(&topo), _routing(&routing), _config(config),
      _faults(std::move(faults))
{
    const auto numLinks = static_cast<std::uint32_t>(topo.numLinks());
    const std::size_t numSlots = std::size_t{numLinks} * config.numVcs;
    // Links into end-nodes are drained instantly by the NI (their input
    // slots stay unowned) but keep uniform sender-side credits.
    _links.resize(numLinks);
    for (topo::LinkId l = 0; l < numLinks; ++l) {
        _links[l].delay = topo.link(l).delay();
        _links[l].toProc = topo.isProc(topo.link(l).to);
    }
    for (topo::NodeIdx n = 0; n < topo.numNodes(); ++n) {
        const auto &in = topo.inLinks(n);
        for (std::uint32_t i = 0; i < in.size(); ++i)
            _links[in[i]].inRank = i;
    }
    std::uint32_t ring = 0;
    std::uint32_t maxDelay = 1;
    for (auto &link : _links) {
        link.ring = ring;
        link.ringMask = std::bit_ceil(link.delay) - 1;
        ring += link.ringMask + 1;
        maxDelay = std::max(maxDelay, link.delay);
    }
    _inFlight.resize(ring);
    const std::uint32_t wheel = std::bit_ceil(maxDelay + 1);
    _flitWheel.resize(wheel);
    for (auto &due : _flitWheel)
        due.resize(numLinks);
    _creditWheel.resize(wheel);
    _wheelMask = wheel - 1;
    _inVcs.resize(numSlots);
    _outVcs.assign(numSlots, OutputVc{kNoPacket, config.vcDepth, 0, false});
    _candidates.resize(numSlots);
    _sources.resize(topo.numProcs());
    for (core::ProcId p = 0; p < topo.numProcs(); ++p)
        _sources[p].inj = topo.injectionLink(p);
    _unrouted.resize(numSlots);
    _requestedOutputs.resize(numLinks);
    _queuedSources.resize(topo.numProcs());
    _requesters.resize(numLinks);
    _stats.linkFlits.assign(numLinks, 0);

    // Fail-from-start link faults: swap in the degraded routing before
    // any packet moves (nothing to purge yet).
    if (_faults.hasLinkFaults() && _faults.failAtCycle() <= 0)
        activateFaults(0);
}

FlowId
Network::flow(core::ProcId dst, core::ProcId src)
{
    const auto [it, added] = _flowIds.try_emplace(
        std::uint64_t{dst} << 32 | src, static_cast<FlowId>(_flows.size()));
    if (added)
        _flows.push_back(Flow{dst, src, {}, 0, false});
    return it->second;
}

const Network::Flow *
Network::findFlow(core::ProcId dst, core::ProcId src) const
{
    const auto it = _flowIds.find(std::uint64_t{dst} << 32 | src);
    return it == _flowIds.end() ? nullptr : &_flows[it->second];
}

PacketId
Network::enqueue(core::ProcId src, core::ProcId dst, std::uint64_t bytes,
                 std::uint32_t callId, Cycle now)
{
    if (src >= _topo->numProcs() || dst >= _topo->numProcs())
        panic("Network::enqueue: proc out of range");
    if (src == dst)
        panic("Network::enqueue: src == dst");
    Packet pkt;
    pkt.id = static_cast<PacketId>(_packets.size());
    pkt.src = src;
    pkt.dst = dst;
    pkt.bytes = bytes;
    pkt.callId = callId;
    pkt.numFlits =
        1 + static_cast<std::uint32_t>(
                (bytes + _config.flitBytes - 1) / _config.flitBytes);
    pkt.enqueuedAt = now;
    pkt.lastProgress = now;
    pkt.flow = flow(dst, src);
    auto &fl = _flows[pkt.flow];
    pkt.channelSeq = fl.sent.size();
    fl.sent.push_back(pkt.id);
    pkt.checksum = packetChecksum(pkt.id, src, dst, bytes);
    pkt.wireChecksum = pkt.checksum;
    _packets.push_back(pkt);
    ++_stats.packetsEnqueued;
    if (fl.dead) {
        // The channel has no surviving path: give up immediately so the
        // sender unblocks and the receiver learns the sequence is lost.
        dropPacket(pkt.id, "channel disconnected by link failure");
        return pkt.id;
    }
    queueAtSource(src, _sources[src].queue.end(), pkt.id);
    return pkt.id;
}

bool
Network::injected(PacketId id) const
{
    const Packet &pkt = _packets.at(id);
    return pkt.dropped || pkt.flitsInjected == pkt.numFlits;
}

PacketId
Network::nextInFlow(FlowId f) const
{
    // In-order matching: only the next-in-sequence message is visible,
    // even if later ones overtook it through the virtual channels.
    const Flow &fl = _flows[f];
    return fl.consumed < fl.sent.size() ? fl.sent[fl.consumed] : kNoPacket;
}

bool
Network::hasDelivered(FlowId f) const
{
    const PacketId id = nextInFlow(f);
    return id != kNoPacket && _packets[id].delivered();
}

PacketId
Network::consumeDelivered(FlowId f)
{
    if (!hasDelivered(f))
        panic("Network::consumeDelivered: nothing from ", _flows[f].src,
              " at ", _flows[f].dst);
    return _flows[f].sent[_flows[f].consumed++];
}

bool
Network::nextDeliveryLost(FlowId f) const
{
    const PacketId id = nextInFlow(f);
    return id != kNoPacket && _packets[id].dropped;
}

void
Network::skipLostDelivery(FlowId f)
{
    if (!nextDeliveryLost(f))
        panic("Network::skipLostDelivery: next message from ",
              _flows[f].src, " at ", _flows[f].dst, " is not lost");
    ++_flows[f].consumed;
}

void
Network::step(Cycle now)
{
    if (now <= _lastStep)
        panic("Network::step: non-monotone clock");
    if (now > _lastStep + 1 && _flitsInNetwork != 0)
        panic("Network::step: cycles skipped with flits in flight");
    _lastStep = now;
    ++_steppedCycles;

    if (!_faultsActive && _faults.hasLinkFaults() &&
        now >= _faults.failAtCycle()) {
        activateFaults(now);
    }

    arriveCredits(now);
    arriveFlits(now);
    routeAndAllocate();
    switchAllocation(now);
    injectFromSources(now);
    if (_config.deadlockScanInterval > 0 &&
        now % _config.deadlockScanInterval == 0) {
        scanForDeadlocks(now);
#ifdef MINNOC_SANITIZE
        checkInvariants();
#endif
    }

    // Occupancy integral for the activity power model's retention
    // term. The trace driver fast-forwards the clock only while the
    // network is empty, so unstepped cycles contribute exactly zero.
    _stats.residentFlitCycles += _flitsInNetwork;

    if constexpr (obs::kEnabled) {
        if (_observer)
            _observer->onStep(now, _flitsInNetwork, _stats.linkFlits);
    }
}

void
Network::arriveCredits(Cycle now)
{
    // A credit changes only its own slot, so the order of arrivals
    // within a cycle is unobservable. The buckets of cycles the driver
    // fast-forwarded over are drained too.
    for (Cycle t = std::max(_creditsArrived, now - _wheelMask - 1) + 1;
         t <= now; ++t) {
        auto &due = _creditWheel[t & _wheelMask];
        for (const auto s : due) {
            auto &out = _outVcs[s];
            ++out.credits;
            if (out.outstanding == 0)
                panic("Network: credit underflow on slot ", s);
            if (--out.outstanding == 0 && out.tailSent) {
                // Downstream VC fully drained: release the reservation.
                out.owner = kNoPacket;
                out.tailSent = false;
            }
        }
        due.clear();
    }
    _creditsArrived = now;
}

void
Network::returnCredit(topo::LinkId l, std::uint32_t vc, Cycle now)
{
    _creditWheel[(now + _links[l].delay) & _wheelMask].push_back(
        static_cast<std::uint32_t>(slot(l, vc)));
}

void
Network::arriveFlits(Cycle now)
{
    // Ascending link order is observable: a corruption NACK delivered
    // here purges the packet's traffic on other links mid-pass. Nothing
    // in the walk inserts into this bucket (every delay is at least 1
    // and below the wheel size), so it is cleared once afterwards.
    auto &due = _flitWheel[now & _wheelMask];
    due.forEach([&](std::size_t i) {
        const auto l = static_cast<topo::LinkId>(i);
        const LinkState &link = _links[l];
        InFlit &entry = _inFlight[link.ring + (now & link.ringMask)];
        if (!entry.valid)
            return; // purged
        const InFlit in = entry;
        entry.valid = false;
        if (link.toProc) {
            deliverAtProc(l, in.vc, in.tail, now);
            return;
        }
        const std::size_t s = slot(l, in.vc);
        auto &vc = _inVcs[s];
        const PacketId id = _outVcs[s].owner;
        if (in.head) {
            if (vc.owner != kNoPacket)
                panic("Network: head arrival on owned VC");
            vc.owner = id;
            _unrouted.insert(s);
        }
        if (vc.owner != id)
            panic("Network: flit arrival on foreign VC");
        ++vc.count;
        vc.tailIn = in.tail;
        ++_stats.bufferWrites;
        _packets[id].lastProgress = now;
    });
    due.clear();
}

std::uint32_t
Network::allocateVc(topo::LinkId l, PacketId id)
{
    const std::uint32_t n = _config.numVcs;
    auto &rr = _links[l].rrVc;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t vc = (rr + i) % n;
        auto &out = _outVcs[slot(l, vc)];
        if (out.owner == kNoPacket) {
            rr = (vc + 1) % n;
            out.owner = id;
            out.tailSent = false;
            return vc;
        }
    }
    return kNoVc;
}

topo::LinkId
Network::chooseOutput(const std::vector<topo::LinkId> &candidates)
{
    // Prefer outputs with a free downstream VC, then most free credits
    // (congestion-aware choice for adaptive routing; deterministic
    // functions supply one candidate).
    topo::LinkId best = topo::kNoLink;
    std::uint64_t bestCredits = 0;
    for (const auto cand : candidates) {
        bool freeVc = false;
        std::uint64_t credits = 0;
        for (std::uint32_t v = 0; v < _config.numVcs; ++v) {
            const auto &out = _outVcs[slot(cand, v)];
            freeVc |= out.owner == kNoPacket;
            credits += out.credits;
        }
        if (!freeVc)
            continue;
        if (best == topo::kNoLink || credits > bestCredits) {
            best = cand;
            bestCredits = credits;
        }
    }
    return best;
}

void
Network::routeAndAllocate()
{
    // (link, VC) order: VC allocation round-robin depends on it.
    const std::uint32_t numVcs = _config.numVcs;
    _unrouted.forEach([&](std::size_t s) {
        const auto l = static_cast<topo::LinkId>(s / numVcs);
        const auto v = static_cast<std::uint32_t>(s % numVcs);
        auto &vc = _inVcs[s];
        if (vc.count == 0 || vc.outLink != topo::kNoLink) {
            _unrouted.erase(s);
            return;
        }
        if (vc.next != 0)
            panic("Network: non-head flit awaiting route");
        const Packet &pkt = _packets[vc.owner];
        auto &candidates = _candidates[s];
        if (candidates.empty()) {
            // Route once per hop; a stalled head keeps its candidates
            // and re-chooses among them by live credits each cycle.
            candidates =
                _routing->candidates(_topo->link(l).to, pkt.src, pkt.dst);
            if (candidates.empty())
                panic("Network: routing returned no candidates");
        }
        const auto out = chooseOutput(candidates);
        if (out == topo::kNoLink)
            return; // every candidate VC busy: stall
        const auto w = allocateVc(out, pkt.id);
        if (w == kNoVc)
            return;
        candidates.clear();
        vc.outLink = out;
        vc.outVc = w;
        _unrouted.erase(s);
        addRequester(l, v);
    });
}

void
Network::addRequester(topo::LinkId inLink, std::uint32_t inVc)
{
    const auto &vc = _inVcs[slot(inLink, inVc)];
    auto &list = _requesters[vc.outLink];
    const Requester req{inLink, inVc, vc.outVc,
                        _links[inLink].inRank * _config.numVcs + inVc};
    const auto pos = std::upper_bound(
        list.begin(), list.end(), req,
        [](const Requester &a, const Requester &b) {
            return a.rank < b.rank;
        });
    list.insert(pos, req);
    _requestedOutputs.insert(vc.outLink);
}

void
Network::removeRequester(topo::LinkId inLink, std::uint32_t inVc)
{
    const auto out = _inVcs[slot(inLink, inVc)].outLink;
    auto &list = _requesters[out];
    const auto it =
        std::find_if(list.begin(), list.end(), [&](const Requester &r) {
            return r.link == inLink && r.vc == inVc;
        });
    if (it == list.end())
        panic("Network: routed VC missing from its output's requesters");
    list.erase(it);
    if (list.empty())
        _requestedOutputs.erase(out);
}

void
Network::releaseInputVc(topo::LinkId inLink, std::uint32_t inVc)
{
    const std::size_t s = slot(inLink, inVc);
    if (_inVcs[s].outLink != topo::kNoLink)
        removeRequester(inLink, inVc);
    _inVcs[s] = InputVc{};
    _candidates[s].clear();
}

void
Network::sendFlit(topo::LinkId l, std::uint32_t vc, const FlitRef &flit,
                  Cycle now)
{
    auto &out = _outVcs[slot(l, vc)];
    if (out.credits == 0)
        panic("Network: sending without credit");
    --out.credits;
    ++out.outstanding;
    out.tailSent |= flit.tail;
    const LinkState &link = _links[l];
    const Cycle arrive = now + link.delay;
    InFlit &entry = _inFlight[link.ring + (arrive & link.ringMask)];
    if (entry.valid)
        panic("Network: pipe overrun on link ", l);
    entry = InFlit{vc, flit.isHead(), flit.tail, true};
    _flitWheel[arrive & _wheelMask].insert(l);
    ++_stats.flitHops;
    ++_stats.linkFlits[l];
    Packet &pkt = _packets[flit.packet];
    pkt.lastProgress = now;
    if (flit.isHead()) {
        ++pkt.hops;
        // One Bernoulli draw per packet per link traversal (taken when
        // the head enters the link): "did any flit of this worm get hit
        // while crossing?". Per-flit draws would make large packets
        // undeliverable at any rate worth simulating.
        if (_faults.corruptsTraversal()) {
            ++_stats.corruptedFlits;
            pkt.wireChecksum ^= _faults.corruptionWord();
        }
    }
}

void
Network::forwardFlit(topo::LinkId inLink, std::uint32_t inVc, Cycle now)
{
    auto &vc = _inVcs[slot(inLink, inVc)];
    const FlitRef flit{vc.owner, vc.next, vc.tailIn && vc.count == 1};
    ++vc.next;
    --vc.count;
    ++_stats.bufferReads;
    sendFlit(vc.outLink, vc.outVc, flit, now);

    // The freed input buffer slot becomes a credit for the upstream
    // sender of `inLink` after the wire's return delay.
    returnCredit(inLink, inVc, now);

    if (flit.tail)
        releaseInputVc(inLink, inVc);
    _links[inLink].inputUsedAt = now;
}

void
Network::switchAllocation(Cycle now)
{
    // Arbitrate each output link independently (full crossbar switches:
    // contention exists only per link, as in the paper's model), in
    // ascending LinkId order: a winner's input link is used up for
    // every later output this cycle.
    _requestedOutputs.forEach([&](std::size_t o) {
        const auto out = static_cast<topo::LinkId>(o);
        const auto ready = [&](const Requester &req) {
            return _links[req.link].inputUsedAt != now &&
                   _inVcs[slot(req.link, req.vc)].count != 0 &&
                   _outVcs[slot(out, req.outVc)].credits != 0;
        };
        // Round-robin over the ready requesters, counted first so that
        // no list of them is built. rr % n, and (rr + 1) % n after it,
        // without dividing in the common case rr < n. A lone requester
        // is checked once: n is 1 (pick 0, rr becomes 0) or 0 (rr
        // stays).
        const auto &list = _requesters[out];
        auto &rr = _links[out].rrReq;
        if (list.size() == 1) {
            if (ready(list.front())) {
                rr = 0;
                forwardFlit(list.front().link, list.front().vc, now);
            }
            return;
        }
        const auto n = static_cast<std::uint32_t>(
            std::count_if(list.begin(), list.end(), ready));
        if (n == 0)
            return;
        std::uint32_t pick = rr < n ? rr : rr % n;
        rr = pick + 1 == n ? 0 : pick + 1;
        for (const auto &req : list) {
            if (ready(req) && pick-- == 0) {
                forwardFlit(req.link, req.vc, now);
                return;
            }
        }
    });
}

void
Network::injectFromSources(Cycle now)
{
    // Ascending proc order: corruption draws share one stream.
    _queuedSources.forEach([&](std::size_t i) {
        const auto p = static_cast<core::ProcId>(i);
        auto &src = _sources[p];
        if (src.queue.empty()) {
            _queuedSources.erase(p);
            return;
        }
        Packet &pkt = _packets[src.queue.front()];
        if (now < pkt.holdUntil)
            return;
        if (src.vc == kNoVc) {
            src.vc = allocateVc(src.inj, pkt.id);
            if (src.vc == kNoVc)
                return;
        }
        if (_outVcs[slot(src.inj, src.vc)].credits == 0)
            return;

        const FlitRef flit{pkt.id, pkt.flitsInjected,
                           pkt.flitsInjected + 1 == pkt.numFlits};
        sendFlit(src.inj, src.vc, flit, now);
        ++pkt.flitsInjected;
        ++_flitsInNetwork;
        if (flit.isHead())
            _alivePackets.insert(pkt.id);
        if (flit.tail) {
            src.queue.pop_front();
            --_queuedPackets;
            src.vc = kNoVc;
            _wakes.push_back(pkt.id); // its sender may stop blocking
        }
    });
}

void
Network::deliverAtProc(topo::LinkId link, std::uint32_t vc, bool tail,
                       Cycle now)
{
    Packet &pkt = _packets[_outVcs[slot(link, vc)].owner];
    ++pkt.flitsDelivered;
    --_flitsInNetwork;
    pkt.lastProgress = now;

    // The NI drains instantly; the freed slot is credited back to the
    // last switch after the wire's return delay.
    returnCredit(link, vc, now);

    if (tail) {
        if (pkt.flitsDelivered != pkt.numFlits)
            panic("Network: tail delivered before body (packet ", pkt.id,
                  ")");
        if (pkt.wireChecksum != pkt.checksum) {
            // Checksum mismatch: a transient fault corrupted the packet
            // in flight. The NI NACKs; the source retransmits after an
            // exponential backoff, up to the bounded retry budget.
            if (pkt.retries >= _faults.maxRetransmits()) {
                ++_stats.retryExhaustions;
                dropPacket(pkt.id, "corruption retry budget exhausted");
            } else {
                ++_stats.retransmissions;
                ++pkt.retries;
                pkt.wireChecksum = pkt.checksum;
                requeuePacket(pkt.id, now,
                              _faults.backoff(pkt.retries - 1));
            }
            return;
        }
        pkt.deliveredAt = now;
        _alivePackets.erase(pkt.id);
        _wakes.push_back(pkt.id);
        ++_stats.packetsDelivered;
        _stats.packetLatency.sample(
            static_cast<double>(now - pkt.enqueuedAt));
        if (pkt.retries == 0) {
            _stats.cleanPacketLatency.sample(
                static_cast<double>(now - pkt.enqueuedAt));
        }
        _stats.packetHops.sample(static_cast<double>(pkt.hops));
        if constexpr (obs::kEnabled) {
            if (_observer) {
                _observer->onDelivered(pkt.src, pkt.dst,
                                       now - pkt.enqueuedAt, pkt.hops,
                                       pkt.retries == 0);
            }
        }
    }
}

void
Network::scanForDeadlocks(Cycle now)
{
    // Regressive recovery kills one victim per scan — the packet whose
    // progress is stalest. Killing every blocked packet at once would
    // make the survivors re-form the identical cycle after the penalty
    // and livelock.
    // Ties go to the lowest packet id.
    Packet *victim = nullptr;
    for (const auto id : _alivePackets) {
        Packet &pkt = _packets[id];
        if (pkt.flitsInjected == pkt.flitsDelivered)
            continue; // no flits alive in the network
        if (now - pkt.lastProgress <= _config.deadlockTimeout)
            continue;
        if (!victim || pkt.lastProgress < victim->lastProgress)
            victim = &pkt;
    }
    if (victim)
        recoverPacket(victim->id, now);
}

void
Network::recoverPacket(PacketId id, Cycle now)
{
    Packet &pkt = _packets.at(id);
    warn("Network: deadlock recovery of packet ", id, " (", pkt.src, "->",
         pkt.dst, ") at cycle ", now);
    ++_stats.deadlockRecoveries;
    if (pkt.retries >= _config.maxRecoveries) {
        // The bound exists to turn a pathological kill/retransmit
        // livelock into a counted drop with a diagnostic.
        ++_stats.recoveryExhaustions;
        dropPacket(id, "deadlock recovery budget exhausted");
        return;
    }
    ++pkt.retries;
    requeuePacket(id, now, _config.deadlockPenalty);
}

void
Network::purgePacket(PacketId id)
{
    // Purge in-flight flits (treat as never sent: restore the sender's
    // credit, cancel the outstanding count).
    for (topo::LinkId l = 0; l < _links.size(); ++l) {
        const LinkState &link = _links[l];
        for (std::uint32_t e = 0; e <= link.ringMask; ++e) {
            InFlit &in = _inFlight[link.ring + e];
            auto &out = _outVcs[slot(l, in.vc)];
            if (!in.valid || out.owner != id)
                continue;
            in.valid = false;
            ++out.credits;
            --out.outstanding;
            --_flitsInNetwork;
        }
    }

    // Purge buffered flits and free the victim's input VCs.
    const std::uint32_t numVcs = _config.numVcs;
    for (std::size_t s = 0; s < _inVcs.size(); ++s) {
        if (_inVcs[s].owner != id)
            continue;
        const auto k = _inVcs[s].count;
        releaseInputVc(static_cast<topo::LinkId>(s / numVcs),
                       static_cast<std::uint32_t>(s % numVcs));
        auto &out = _outVcs[s];
        out.credits += k;
        if (out.outstanding < k)
            panic("Network: recovery outstanding underflow");
        out.outstanding -= k;
        _flitsInNetwork -= k;
    }

    // Release every downstream VC reservation held by the victim. A
    // reservation is only freed once the tail is credited, so any
    // credit still in flight on a VC the victim owns is for one of its
    // own flits (already consumed downstream) — absorb it now rather
    // than waiting out the wire delay. This happens on corruption
    // NACKs, where the purge fires the same cycle the tail delivers.
    for (auto &due : _creditWheel) {
        std::erase_if(due, [&](std::uint32_t s) {
            auto &out = _outVcs[s];
            if (out.owner != id || out.outstanding == 0)
                return false;
            ++out.credits;
            --out.outstanding;
            return true;
        });
    }
    for (auto &out : _outVcs) {
        if (out.owner != id)
            continue;
        if (out.outstanding != 0)
            panic("Network: recovery left outstanding flits");
        out.owner = kNoPacket;
        out.tailSent = false;
    }

    // If the source NI was mid-wormhole on this packet, reset it.
    auto &src = _sources[_packets.at(id).src];
    if (!src.queue.empty() && src.queue.front() == id)
        src.vc = kNoVc;
}

void
Network::queueAtSource(core::ProcId src, std::deque<PacketId>::iterator pos,
                       PacketId id)
{
    _sources[src].queue.insert(pos, id);
    ++_queuedPackets;
    _queuedSources.insert(src);
}

void
Network::requeuePacket(PacketId id, Cycle now, Cycle backoff)
{
    purgePacket(id);
    Packet &pkt = _packets.at(id);
    _alivePackets.erase(id);
    auto &src = _sources[pkt.src];
    const bool queued =
        std::find(src.queue.begin(), src.queue.end(), id) !=
        src.queue.end();
    if (!queued) {
        // Retransmit ahead of waiting packets, but never preempt a
        // front packet mid-wormhole: its remaining flits must follow
        // the head down the VC it already claimed.
        auto pos = src.queue.begin();
        if (src.vc != kNoVc && !src.queue.empty())
            ++pos;
        queueAtSource(pkt.src, pos, id);
    }
    if (src.queue.front() == id)
        src.vc = kNoVc;
    pkt.flitsInjected = 0;
    pkt.flitsDelivered = 0;
    pkt.hops = 0;
    pkt.holdUntil = now + backoff;
    pkt.lastProgress = now;
}

void
Network::dropPacket(PacketId id, const char *why)
{
    purgePacket(id);
    Packet &pkt = _packets.at(id);
    _alivePackets.erase(id);
    auto &src = _sources[pkt.src];
    const auto it = std::find(src.queue.begin(), src.queue.end(), id);
    if (it != src.queue.end()) {
        if (it == src.queue.begin())
            src.vc = kNoVc;
        src.queue.erase(it);
        --_queuedPackets;
    }
    pkt.dropped = true;
    pkt.flitsInjected = 0;
    pkt.flitsDelivered = 0;
    ++_stats.packetsDropped;
    // The receiver matches in channel-sequence order; the wake lets it
    // skip this message instead of blocking forever.
    _wakes.push_back(pkt.id);
    warn("Network: dropping packet ", id, " (", pkt.src, "->", pkt.dst,
         ", seq ", pkt.channelSeq, "): ", why);
}

void
Network::activateFaults(Cycle now)
{
    _faultsActive = true;
    _stats.failedLinks =
        static_cast<std::uint32_t>(_faults.failedLinks().size());

    // The routing swap invalidates every in-network position (the new
    // table need not pass through a packet's current switch), so purge
    // and source-retransmit everything currently in flight.
    for (auto &pkt : _packets) {
        if (pkt.delivered() || pkt.dropped || pkt.flitsInjected == 0)
            continue;
        ++_stats.retransmissions;
        requeuePacket(pkt.id, now, _faults.backoff(0));
    }

    auto degraded = rerouteAroundFaults(*_topo, _faults.failedMask());
    for (const auto &[s, d] : degraded.disconnected)
        _flows[flow(d, s)].dead = true;
    _stats.disconnectedPairs =
        static_cast<std::uint32_t>(degraded.disconnected.size());
    _degradedRouting = std::move(degraded.routing);
    _routing = _degradedRouting.get();
    if (!degraded.disconnected.empty()) {
        warn("Network: ", _stats.failedLinks, " failed links left ",
             _stats.disconnectedPairs, " (src,dst) pairs disconnected");
    }

    // Give up on queued packets whose channel no longer exists.
    for (auto &pkt : _packets) {
        if (!pkt.delivered() && !pkt.dropped && _flows[pkt.flow].dead)
            dropPacket(pkt.id, "channel disconnected by link failure");
    }
}

bool
Network::channelDisconnected(core::ProcId src, core::ProcId dst) const
{
    const Flow *fl = findFlow(dst, src);
    return fl && fl->dead;
}

bool
Network::idle() const
{
    return _flitsInNetwork == 0 && _queuedPackets == 0;
}

#ifdef MINNOC_SANITIZE
void
Network::checkInvariants() const
{
    const std::uint32_t numVcs = _config.numVcs;
    std::uint64_t flits = 0;
    /** Per slot: flits and credits in flight on its VC. */
    std::vector<std::uint32_t> inFlight(_outVcs.size(), 0);
    for (topo::LinkId l = 0; l < _links.size(); ++l) {
        const LinkState &link = _links[l];
        for (std::uint32_t e = 0; e <= link.ringMask; ++e) {
            const InFlit &in = _inFlight[link.ring + e];
            if (!in.valid)
                continue;
            const auto s = slot(l, in.vc);
            // Entry e holds the flit arriving at the one cycle t within
            // the link's delay after now with t & ringMask == e.
            const Cycle arrive =
                _lastStep + 1 + ((e - _lastStep - 1) & link.ringMask);
            if (_outVcs[s].owner == kNoPacket ||
                !_flitWheel[arrive & _wheelMask].contains(l)) {
                panic("Network invariant: flit in flight on link ", l,
                      " unreserved or untracked");
            }
            ++flits;
            ++inFlight[s];
        }
        const auto &reqs = _requesters[l];
        if (reqs.empty() == _requestedOutputs.contains(l))
            panic("Network invariant: requested set wrong for link ", l);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const auto &vc = _inVcs[slot(reqs[i].link, reqs[i].vc)];
            if (vc.outLink != l || vc.outVc != reqs[i].outVc ||
                (i > 0 && reqs[i - 1].rank >= reqs[i].rank)) {
                panic("Network invariant: stale or unordered requester "
                      "on link ", l);
            }
        }
    }
    for (const auto &due : _creditWheel) {
        for (const auto s : due)
            ++inFlight[s];
    }
    for (std::size_t s = 0; s < _outVcs.size(); ++s) {
        const auto &out = _outVcs[s];
        const auto &vc = _inVcs[s];
        const auto l = s / numVcs;
        const auto v = s % numVcs;
        flits += vc.count;
        if (out.credits + out.outstanding != _config.vcDepth)
            panic("Network invariant: credits not conserved on link ", l,
                  " VC ", v);
        if (out.outstanding != inFlight[s] + vc.count)
            panic("Network invariant: link ", l, " VC ", v, " has ",
                  out.outstanding, " flits outstanding but ",
                  inFlight[s] + vc.count, " in flight or buffered");
        if (out.owner != kNoPacket) {
            const Packet &pkt = _packets.at(out.owner);
            if (pkt.dropped || (!out.tailSent && pkt.delivered()))
                panic("Network invariant: link ", l, " VC ", v,
                      " reserved by finished packet ", pkt.id);
        }
        if (vc.owner == kNoPacket) {
            if (vc.count != 0 || vc.tailIn || vc.outLink != topo::kNoLink)
                panic("Network invariant: unowned VC in use on link ", l);
            continue;
        }
        const Packet &pkt = _packets.at(vc.owner);
        if (pkt.delivered() || pkt.dropped)
            panic("Network invariant: link ", l, " VC ", v,
                  " owned by finished packet ", pkt.id);
        // The run is flits [next, next + count) of the packet holding
        // the upstream reservation, and ends at the tail once it is in.
        if (out.owner != vc.owner || vc.next + vc.count > pkt.numFlits ||
            vc.tailIn != (vc.next + vc.count == pkt.numFlits)) {
            panic("Network invariant: broken run on link ", l, " VC ", v);
        }
        if (vc.outLink != topo::kNoLink) {
            const auto &reqs = _requesters[vc.outLink];
            const auto n = std::count_if(
                reqs.begin(), reqs.end(), [&](const Requester &r) {
                    return r.link == l && r.vc == v;
                });
            if (n != 1)
                panic("Network invariant: routed VC listed ", n,
                      " times as requester");
        } else if (vc.count != 0 && !_unrouted.contains(s)) {
            panic("Network invariant: unrouted head not tracked on link ",
                  l);
        }
    }
    if (flits != _flitsInNetwork)
        panic("Network invariant: ", _flitsInNetwork, " flits counted, ",
              flits, " buffered or in flight");

    std::uint64_t queued = 0;
    for (core::ProcId p = 0; p < _sources.size(); ++p) {
        queued += _sources[p].queue.size();
        if (!_sources[p].queue.empty() && !_queuedSources.contains(p))
            panic("Network invariant: source ", p, " queue not tracked");
    }
    if (queued != _queuedPackets)
        panic("Network invariant: queued packet count off");
    for (const auto &pkt : _packets) {
        const bool alive =
            pkt.flitsInjected > 0 && !pkt.delivered() && !pkt.dropped;
        if (alive != (_alivePackets.count(pkt.id) != 0))
            panic("Network invariant: alive set wrong for packet ",
                  pkt.id);
    }

    // Flows: each holds its packets in sequence order, and everything
    // before the consume point was delivered or dropped.
    if (_flowIds.size() != _flows.size())
        panic("Network invariant: flow index out of step");
    for (FlowId f = 0; f < _flows.size(); ++f) {
        const Flow &fl = _flows[f];
        if (findFlow(fl.dst, fl.src) != &fl || fl.consumed > fl.sent.size())
            panic("Network invariant: flow ", f, " misindexed");
        for (std::size_t seq = 0; seq < fl.sent.size(); ++seq) {
            const Packet &pkt = _packets.at(fl.sent[seq]);
            if (pkt.flow != f || pkt.channelSeq != seq ||
                (seq < fl.consumed && !pkt.delivered() && !pkt.dropped)) {
                panic("Network invariant: flow ", f, " sequence ", seq,
                      " does not match packet ", pkt.id);
            }
        }
    }
}
#endif

} // namespace minnoc::sim
