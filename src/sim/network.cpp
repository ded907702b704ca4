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
    _inputs.resize(numLinks);
    _outputs.resize(numLinks);
    _pipes.resize(numLinks);
    for (topo::LinkId l = 0; l < numLinks; ++l) {
        // Links into switches get receive buffers; links into end-nodes
        // are drained instantly by the NI (modeled without an input
        // unit), but keep uniform sender-side credit bookkeeping.
        if (!topo.isProc(topo.link(l).to))
            _inputs[l].vcs.resize(config.numVcs);
        auto &out = _outputs[l];
        out.credits.assign(config.numVcs, config.vcDepth);
        out.vcOwner.assign(config.numVcs, kNoPacket);
        out.tailSent.assign(config.numVcs, false);
        out.outstanding.assign(config.numVcs, 0);
    }
    _sources.resize(topo.numProcs());
    _flitPipes.resize(numLinks);
    _creditPipes.resize(numLinks);
    _unrouted.resize(std::size_t{numLinks} * config.numVcs);
    _requestedOutputs.resize(numLinks);
    _queuedSources.resize(topo.numProcs());
    _requesters.resize(numLinks);
    _inRank.assign(numLinks, 0);
    for (topo::NodeIdx n = 0; n < topo.numNodes(); ++n) {
        const auto &in = topo.inLinks(n);
        for (std::uint32_t i = 0; i < in.size(); ++i)
            _inRank[in[i]] = i;
    }
    _inputUsedAt.assign(numLinks, -1);
    _stats.linkFlits.assign(numLinks, 0);

    // Fail-from-start link faults: swap in the degraded routing before
    // any packet moves (nothing to purge yet).
    if (_faults.hasLinkFaults() && _faults.failAtCycle() <= 0)
        activateFaults(0);
}

bool
Network::isTail(const FlitRef &f) const
{
    return f.seq + 1 == _packets.at(f.packet).numFlits;
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
    pkt.channelSeq = _sendSeq[{dst, src}]++;
    pkt.checksum = packetChecksum(pkt.id, src, dst, bytes);
    pkt.wireChecksum = pkt.checksum;
    _packets.push_back(pkt);
    ++_stats.packetsEnqueued;
    if (_deadChannels.count({dst, src})) {
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

bool
Network::hasDelivered(core::ProcId dst, core::ProcId src) const
{
    // In-order matching: only the next-in-sequence message is visible,
    // even if later ones overtook it through the virtual channels.
    const auto it = _delivered.find({dst, src});
    if (it == _delivered.end() || it->second.empty())
        return false;
    const auto seqIt = _consumeSeq.find({dst, src});
    const std::uint64_t next = seqIt == _consumeSeq.end() ? 0
                                                          : seqIt->second;
    return it->second.begin()->first == next;
}

PacketId
Network::consumeDelivered(core::ProcId dst, core::ProcId src)
{
    if (!hasDelivered(dst, src))
        panic("Network::consumeDelivered: nothing from ", src, " at ",
              dst);
    auto &buffer = _delivered[{dst, src}];
    const PacketId id = buffer.begin()->second;
    buffer.erase(buffer.begin());
    ++_consumeSeq[{dst, src}];
    return id;
}

void
Network::step(Cycle now)
{
    if (now <= _lastStep)
        panic("Network::step: non-monotone clock");
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
    _creditPipes.forEach([&](std::size_t l) {
        auto &pipe = _pipes[l];
        auto &out = _outputs[l];
        while (!pipe.credits.empty() && pipe.credits.front().arrive <= now) {
            const auto vc = pipe.credits.front().vc;
            pipe.credits.pop_front();
            ++out.credits[vc];
            if (out.outstanding[vc] == 0)
                panic("Network: credit underflow on link ", l);
            --out.outstanding[vc];
            if (out.tailSent[vc] && out.outstanding[vc] == 0) {
                // Downstream VC fully drained: release the reservation.
                out.vcOwner[vc] = kNoPacket;
                out.tailSent[vc] = false;
            }
        }
        if (pipe.credits.empty())
            _creditPipes.erase(l);
    });
}

void
Network::arriveFlits(Cycle now)
{
    // Ascending link order is observable: a corruption NACK delivered
    // here purges the packet's traffic on other links mid-pass.
    _flitPipes.forEach([&](std::size_t i) {
        const auto l = static_cast<topo::LinkId>(i);
        auto &pipe = _pipes[l];
        while (!pipe.flits.empty() && pipe.flits.front().arrive <= now) {
            const auto in = pipe.flits.front();
            pipe.flits.pop_front();
            const auto toNode = _topo->link(l).to;
            if (_topo->isProc(toNode)) {
                deliverAtProc(in.flit, l, in.vc, now);
            } else {
                auto &vc = _inputs[l].vcs.at(in.vc);
                if (in.flit.isHead()) {
                    if (vc.owner != kNoPacket)
                        panic("Network: head arrival on owned VC");
                    vc.owner = in.flit.packet;
                    _unrouted.insert(i * _config.numVcs + in.vc);
                }
                if (vc.owner != in.flit.packet)
                    panic("Network: flit arrival on foreign VC");
                vc.buffer.push_back(in.flit);
                ++_stats.bufferWrites;
                _packets[in.flit.packet].lastProgress = now;
            }
        }
        if (pipe.flits.empty())
            _flitPipes.erase(l);
    });
}

std::uint32_t
Network::allocateVc(OutputState &out)
{
    const auto n = static_cast<std::uint32_t>(out.vcOwner.size());
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t vc = (out.rrVc + i) % n;
        if (out.vcOwner[vc] == kNoPacket) {
            out.rrVc = (vc + 1) % n;
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
        const auto &out = _outputs[cand];
        bool freeVc = false;
        std::uint64_t credits = 0;
        for (std::uint32_t v = 0; v < out.vcOwner.size(); ++v) {
            if (out.vcOwner[v] == kNoPacket)
                freeVc = true;
            credits += out.credits[v];
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
    _unrouted.forEach([&](std::size_t i) {
        const auto l = static_cast<topo::LinkId>(i / numVcs);
        const auto v = static_cast<std::uint32_t>(i % numVcs);
        auto &vc = _inputs[l].vcs[v];
        if (vc.buffer.empty() || vc.outAssigned) {
            _unrouted.erase(i);
            return;
        }
        if (!vc.buffer.front().isHead())
            panic("Network: non-head flit awaiting route");
        const Packet &pkt = _packets[vc.buffer.front().packet];
        if (vc.candidates.empty()) {
            // Route once per hop; a stalled head keeps its candidates
            // and re-chooses among them by live credits each cycle.
            vc.candidates =
                _routing->candidates(_topo->link(l).to, pkt.src, pkt.dst);
            if (vc.candidates.empty())
                panic("Network: routing returned no candidates");
        }
        const auto out = chooseOutput(vc.candidates);
        if (out == topo::kNoLink)
            return; // every candidate VC busy: stall
        auto &outState = _outputs[out];
        const auto w = allocateVc(outState);
        if (w == kNoVc)
            return;
        outState.vcOwner[w] = pkt.id;
        outState.tailSent[w] = false;
        vc.candidates.clear();
        vc.outLink = out;
        vc.outVc = w;
        vc.outAssigned = true;
        _unrouted.erase(i);
        addRequester(out, l, v);
    });
}

void
Network::addRequester(topo::LinkId out, topo::LinkId inLink,
                      std::uint32_t inVc)
{
    auto &list = _requesters[out];
    const Requester req{inLink, inVc,
                        _inRank[inLink] * _config.numVcs + inVc};
    const auto pos = std::upper_bound(
        list.begin(), list.end(), req,
        [](const Requester &a, const Requester &b) {
            return a.rank < b.rank;
        });
    list.insert(pos, req);
    _requestedOutputs.insert(out);
}

void
Network::removeRequester(topo::LinkId out, topo::LinkId inLink,
                         std::uint32_t inVc)
{
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
Network::releaseInputVc(topo::LinkId inLink, std::uint32_t inVc,
                        VcState &vc)
{
    if (vc.outAssigned)
        removeRequester(vc.outLink, inLink, inVc);
    vc.owner = kNoPacket;
    vc.candidates.clear();
    vc.outAssigned = false;
    vc.outLink = topo::kNoLink;
    vc.outVc = kNoVc;
}

void
Network::forwardFlit(topo::LinkId inLink, std::uint32_t inVc, VcState &vc,
                     Cycle now)
{
    const FlitRef flit = vc.buffer.front();
    vc.buffer.pop_front();
    ++_stats.bufferReads;
    auto &out = _outputs[vc.outLink];

    if (out.credits[vc.outVc] == 0)
        panic("Network: forwarding without credit");
    --out.credits[vc.outVc];
    ++out.outstanding[vc.outVc];
    _pipes[vc.outLink].flits.push_back(LinkPipe::InFlit{
        now + _topo->link(vc.outLink).delay(), flit, vc.outVc});
    _flitPipes.insert(vc.outLink);
    maybeCorrupt(flit);
    ++_stats.flitHops;
    ++_stats.linkFlits[vc.outLink];
    if (flit.isHead())
        ++_packets[flit.packet].hops;
    _packets[flit.packet].lastProgress = now;

    // The freed input buffer slot becomes a credit for the upstream
    // sender of `inLink` after the wire's return delay.
    _pipes[inLink].credits.push_back(LinkPipe::InCredit{
        now + _topo->link(inLink).delay(), inVc});
    _creditPipes.insert(inLink);

    if (isTail(flit)) {
        out.tailSent[vc.outVc] = true;
        if (!vc.buffer.empty())
            panic("Network: flits behind tail in VC");
        releaseInputVc(inLink, inVc, vc);
    }
    _inputUsedAt[inLink] = now;
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
        auto &state = _outputs[out];
        _requests.clear();
        for (const auto &req : _requesters[out]) {
            if (_inputUsedAt[req.link] == now)
                continue;
            const auto &vc = _inputs[req.link].vcs[req.vc];
            if (vc.buffer.empty() || state.credits[vc.outVc] == 0)
                continue;
            _requests.push_back(req);
        }
        if (_requests.empty())
            return;
        auto &rr = state.rrReq;
        const Requester winner = _requests[rr % _requests.size()];
        rr = (rr + 1) % std::max<std::uint32_t>(
                            1, static_cast<std::uint32_t>(_requests.size()));
        forwardFlit(winner.link, winner.vc,
                    _inputs[winner.link].vcs[winner.vc], now);
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
        const auto inj = _topo->injectionLink(p);
        auto &out = _outputs[inj];

        if (!src.vcAssigned) {
            const auto w = allocateVc(out);
            if (w == kNoVc)
                return;
            out.vcOwner[w] = pkt.id;
            out.tailSent[w] = false;
            src.vc = w;
            src.vcAssigned = true;
        }
        if (out.credits[src.vc] == 0)
            return;

        const FlitRef flit{pkt.id, pkt.flitsInjected};
        --out.credits[src.vc];
        ++out.outstanding[src.vc];
        _pipes[inj].flits.push_back(LinkPipe::InFlit{
            now + _topo->link(inj).delay(), flit, src.vc});
        _flitPipes.insert(inj);
        maybeCorrupt(flit);
        ++pkt.flitsInjected;
        ++_flitsInNetwork;
        ++_stats.flitHops;
        ++_stats.linkFlits[inj];
        if (flit.isHead()) {
            ++pkt.hops;
            _alivePackets.insert(pkt.id);
        }
        pkt.lastProgress = now;

        if (pkt.flitsInjected == pkt.numFlits) {
            out.tailSent[src.vc] = true;
            src.queue.pop_front();
            --_queuedPackets;
            src.vcAssigned = false;
            src.vc = kNoVc;
        }
    });
}

void
Network::deliverAtProc(const FlitRef &flit, topo::LinkId link,
                       std::uint32_t vc, Cycle now)
{
    Packet &pkt = _packets[flit.packet];
    ++pkt.flitsDelivered;
    --_flitsInNetwork;
    pkt.lastProgress = now;

    // The NI drains instantly; the freed slot is credited back to the
    // last switch after the wire's return delay.
    _pipes[link].credits.push_back(LinkPipe::InCredit{
        now + _topo->link(link).delay(), vc});
    _creditPipes.insert(link);

    if (isTail(flit)) {
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
        _delivered[{pkt.dst, pkt.src}][pkt.channelSeq] = pkt.id;
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
    for (topo::LinkId l = 0; l < _pipes.size(); ++l) {
        auto &pipe = _pipes[l];
        auto &out = _outputs[l];
        pipe.flits.eraseIf([&](const LinkPipe::InFlit &in) {
            if (in.flit.packet != id)
                return false;
            ++out.credits[in.vc];
            --out.outstanding[in.vc];
            --_flitsInNetwork;
            return true;
        });
    }

    // Purge buffered flits and free the victim's input VCs.
    for (topo::LinkId l = 0; l < _inputs.size(); ++l) {
        auto &out = _outputs[l];
        for (std::uint32_t v = 0; v < _inputs[l].vcs.size(); ++v) {
            auto &vc = _inputs[l].vcs[v];
            if (vc.owner != id)
                continue;
            const auto k =
                static_cast<std::uint32_t>(vc.buffer.size());
            vc.buffer.clear();
            releaseInputVc(l, v, vc);
            out.credits[v] += k;
            if (out.outstanding[v] < k)
                panic("Network: recovery outstanding underflow");
            out.outstanding[v] -= k;
            _flitsInNetwork -= k;
        }
    }

    // Release every downstream VC reservation held by the victim. A
    // reservation is only freed once the tail is credited, so any
    // credit still in flight on a VC the victim owns is for one of its
    // own flits (already consumed downstream) — absorb it now rather
    // than waiting out the wire delay. This happens on corruption
    // NACKs, where the purge fires the same cycle the tail delivers.
    for (topo::LinkId l = 0; l < _outputs.size(); ++l) {
        auto &out = _outputs[l];
        auto &pipe = _pipes[l];
        for (std::uint32_t v = 0; v < out.vcOwner.size(); ++v) {
            if (out.vcOwner[v] != id)
                continue;
            pipe.credits.eraseIf([&](const LinkPipe::InCredit &c) {
                if (c.vc != v || out.outstanding[v] == 0)
                    return false;
                ++out.credits[v];
                --out.outstanding[v];
                return true;
            });
            if (out.outstanding[v] != 0)
                panic("Network: recovery left outstanding flits");
            out.vcOwner[v] = kNoPacket;
            out.tailSent[v] = false;
        }
    }

    // If the source NI was mid-wormhole on this packet, reset it.
    Packet &pkt = _packets.at(id);
    auto &src = _sources[pkt.src];
    if (!src.queue.empty() && src.queue.front() == id) {
        src.vcAssigned = false;
        src.vc = kNoVc;
    }
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
        if (src.vcAssigned && !src.queue.empty())
            ++pos;
        queueAtSource(pkt.src, pos, id);
    }
    if (src.queue.front() == id)
        src.vcAssigned = false;
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
            src.vcAssigned = false;
        src.queue.erase(it);
        --_queuedPackets;
    }
    pkt.dropped = true;
    pkt.flitsInjected = 0;
    pkt.flitsDelivered = 0;
    ++_stats.packetsDropped;
    // The receiver matches in channel-sequence order; record the hole so
    // it can skip this message instead of blocking forever.
    _lostSeqs[{pkt.dst, pkt.src}].insert(pkt.channelSeq);
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
        _deadChannels.insert({d, s});
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
        if (!pkt.delivered() && !pkt.dropped &&
            _deadChannels.count({pkt.dst, pkt.src})) {
            dropPacket(pkt.id, "channel disconnected by link failure");
        }
    }
}

void
Network::maybeCorrupt(const FlitRef &flit)
{
    // One Bernoulli draw per packet per link traversal (taken when the
    // head enters the link): "did any flit of this worm get hit while
    // crossing?". Per-flit draws would make large packets undeliverable
    // at any rate worth simulating.
    if (!flit.isHead())
        return;
    if (_faults.corruptsTraversal()) {
        ++_stats.corruptedFlits;
        _packets[flit.packet].wireChecksum ^= _faults.corruptionWord();
    }
}

bool
Network::nextDeliveryLost(core::ProcId dst, core::ProcId src) const
{
    const auto it = _lostSeqs.find({dst, src});
    if (it == _lostSeqs.end())
        return false;
    const auto seqIt = _consumeSeq.find({dst, src});
    const std::uint64_t next =
        seqIt == _consumeSeq.end() ? 0 : seqIt->second;
    return it->second.count(next) != 0;
}

void
Network::skipLostDelivery(core::ProcId dst, core::ProcId src)
{
    if (!nextDeliveryLost(dst, src))
        panic("Network::skipLostDelivery: next message from ", src,
              " at ", dst, " is not lost");
    auto &lost = _lostSeqs[{dst, src}];
    lost.erase(_consumeSeq[{dst, src}]++);
}

bool
Network::channelDisconnected(core::ProcId src, core::ProcId dst) const
{
    return _deadChannels.count({dst, src}) != 0;
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
    for (topo::LinkId l = 0; l < _pipes.size(); ++l) {
        const auto &pipe = _pipes[l];
        flits += pipe.flits.size();
        if ((!pipe.flits.empty() && !_flitPipes.contains(l)) ||
            (!pipe.credits.empty() && !_creditPipes.contains(l))) {
            panic("Network invariant: link ", l,
                  " has traffic in flight but is not active");
        }
        const auto &out = _outputs[l];
        for (std::uint32_t v = 0; v < numVcs; ++v) {
            if (out.credits[v] + out.outstanding[v] != _config.vcDepth)
                panic("Network invariant: credits not conserved on link ",
                      l, " VC ", v);
            if (out.vcOwner[v] == kNoPacket)
                continue;
            const Packet &pkt = _packets.at(out.vcOwner[v]);
            if (pkt.dropped || (!out.tailSent[v] && pkt.delivered()))
                panic("Network invariant: link ", l, " VC ", v,
                      " reserved by finished packet ", pkt.id);
        }
        const auto &reqs = _requesters[l];
        if (reqs.empty() == _requestedOutputs.contains(l))
            panic("Network invariant: requested set wrong for link ", l);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const auto &vc = _inputs[reqs[i].link].vcs[reqs[i].vc];
            if (!vc.outAssigned || vc.outLink != l ||
                (i > 0 && reqs[i - 1].rank >= reqs[i].rank)) {
                panic("Network invariant: stale or unordered requester "
                      "on link ", l);
            }
        }
    }
    for (topo::LinkId l = 0; l < _inputs.size(); ++l) {
        for (std::uint32_t v = 0; v < _inputs[l].vcs.size(); ++v) {
            const auto &vc = _inputs[l].vcs[v];
            flits += vc.buffer.size();
            if (vc.owner == kNoPacket) {
                if (!vc.buffer.empty() || vc.outAssigned)
                    panic("Network invariant: unowned VC in use on link ",
                          l);
                continue;
            }
            const Packet &pkt = _packets.at(vc.owner);
            if (pkt.delivered() || pkt.dropped)
                panic("Network invariant: link ", l, " VC ", v,
                      " owned by finished packet ", pkt.id);
            for (std::size_t i = 0; i < vc.buffer.size(); ++i) {
                if (vc.buffer[i].packet != vc.owner)
                    panic("Network invariant: foreign flit in VC");
            }
            if (vc.outAssigned) {
                const auto &reqs = _requesters[vc.outLink];
                const auto n = std::count_if(
                    reqs.begin(), reqs.end(), [&](const Requester &r) {
                        return r.link == l && r.vc == v;
                    });
                if (n != 1)
                    panic("Network invariant: routed VC listed ", n,
                          " times as requester");
            } else if (!vc.buffer.empty() &&
                       !_unrouted.contains(std::size_t{l} * numVcs + v)) {
                panic("Network invariant: unrouted head not tracked on "
                      "link ", l);
            }
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
}
#endif

} // namespace minnoc::sim
