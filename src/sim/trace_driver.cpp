#include "trace_driver.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "util/log.hpp"

namespace minnoc::sim {

double
SimResult::commTimeMean() const
{
    if (commTime.empty())
        return 0.0;
    double total = 0.0;
    for (const auto c : commTime)
        total += static_cast<double>(c);
    return total / static_cast<double>(commTime.size());
}

Cycle
SimResult::commTimeMax() const
{
    Cycle best = 0;
    for (const auto c : commTime)
        best = std::max(best, c);
    return best;
}

namespace {

/** Per-rank replay state machine. */
struct RankState
{
    enum class Phase {
        Ready,        ///< fetch the next op
        Busy,         ///< compute or overhead until readyAt
        SendOverhead, ///< paying send overhead, packet not yet queued
        WaitInject,   ///< blocking until the packet's tail leaves the NI
        WaitRecv,     ///< blocking until a message from peer arrives
        RecvOverhead, ///< paying receive overhead
        Done,
    };

    Phase phase = Phase::Ready;
    std::size_t cursor = 0;
    Cycle readyAt = 0;
    Cycle opStart = 0;
    PacketId pending = kNoPacket;
    Cycle commTime = 0;
    Cycle finishedAt = -1;
    /** Flow a WaitRecv rank waits on. */
    FlowId waitFlow = 0;

    /** True when the rank can only be unblocked by the clock. */
    bool
    timeBound() const
    {
        return phase == Phase::Busy || phase == Phase::SendOverhead ||
               phase == Phase::RecvOverhead;
    }
};

/** A time-bound rank's wake-up: the cycle its phase ends. */
struct Timer
{
    Cycle at;
    core::ProcId rank;

    /** Heap order: the earliest cycle on top. */
    bool operator<(const Timer &o) const { return at > o.at; }
};

} // namespace

SimResult
runTrace(const trace::Trace &trace, Network &network)
{
    const auto start = std::chrono::steady_clock::now();
    const std::uint32_t ranks = trace.numRanks();
    std::vector<RankState> state(ranks);
    const SimConfig &cfg = network.config();

    std::uint64_t recvsLost = 0;
    std::set<std::pair<core::ProcId, core::ProcId>> lostChannels;
    std::uint32_t ranksDone = 0;
    std::uint32_t ranksInRecv = 0; ///< ranks in WaitRecv

    // Every rank is polled only when something may have moved it: the
    // ranks in `due` (all of them at the start, then those woken by a
    // packet event), and a time-bound rank once its timer fires. Each
    // time-bound rank has exactly one entry in `timers`.
    IndexSet due;
    due.resize(ranks);
    for (core::ProcId r = 0; r < ranks; ++r)
        due.insert(r);
    std::vector<Timer> timers;

    auto progress = [&](core::ProcId r, Cycle now) {
        auto &st = state[r];
        const auto &tl = trace.timeline(r);
        for (;;) {
            switch (st.phase) {
              case RankState::Phase::Done:
                return;
              case RankState::Phase::Busy:
                if (now < st.readyAt)
                    return;
                st.phase = RankState::Phase::Ready;
                break;
              case RankState::Phase::Ready: {
                if (st.cursor == tl.size()) {
                    st.phase = RankState::Phase::Done;
                    st.finishedAt = now;
                    ++ranksDone;
                    return;
                }
                const auto &op = tl[st.cursor];
                if (op.kind == trace::OpKind::Compute) {
                    st.readyAt = now + op.cycles;
                    st.phase = RankState::Phase::Busy;
                    ++st.cursor;
                } else if (op.kind == trace::OpKind::Send) {
                    st.opStart = now;
                    st.readyAt = now + cfg.sendOverhead;
                    st.phase = RankState::Phase::SendOverhead;
                } else {
                    st.opStart = now;
                    st.phase = RankState::Phase::WaitRecv;
                    st.waitFlow = network.flow(r, op.peer);
                    ++ranksInRecv;
                }
                break;
              }
              case RankState::Phase::SendOverhead: {
                if (now < st.readyAt)
                    return;
                const auto &op = tl[st.cursor];
                st.pending = network.enqueue(r, op.peer, op.bytes,
                                             op.callId, now);
                st.phase = RankState::Phase::WaitInject;
                break;
              }
              case RankState::Phase::WaitInject:
                if (!network.injected(st.pending))
                    return;
                st.commTime += now - st.opStart;
                st.pending = kNoPacket;
                ++st.cursor;
                st.phase = RankState::Phase::Ready;
                break;
              case RankState::Phase::WaitRecv: {
                const auto &op = tl[st.cursor];
                if (network.hasDelivered(st.waitFlow)) {
                    network.consumeDelivered(st.waitFlow);
                    st.readyAt = now + cfg.recvOverhead;
                    st.phase = RankState::Phase::RecvOverhead;
                    --ranksInRecv;
                    break;
                }
                if (network.nextDeliveryLost(st.waitFlow)) {
                    // The message this receive would match was dropped
                    // (disconnected channel or exhausted retries):
                    // record the loss and move on instead of blocking
                    // forever — graceful degradation.
                    network.skipLostDelivery(st.waitFlow);
                    ++recvsLost;
                    lostChannels.insert({op.peer, r});
                    st.commTime += now - st.opStart;
                    ++st.cursor;
                    st.phase = RankState::Phase::Ready;
                    --ranksInRecv;
                    break;
                }
                return;
              }
              case RankState::Phase::RecvOverhead:
                if (now < st.readyAt)
                    return;
                st.commTime += now - st.opStart;
                ++st.cursor;
                st.phase = RankState::Phase::Ready;
                break;
            }
        }
    };

    // Mark the ranks a packet event may unblock: its sender once the
    // tail is injected (or the packet dropped), its receiver once it is
    // delivered or dropped.
    auto wake = [&] {
        for (const PacketId id : network.wakes()) {
            const Packet &pkt = network.packet(id);
            const auto &src = state[pkt.src];
            if (src.phase == RankState::Phase::WaitInject &&
                src.pending == id)
                due.insert(pkt.src);
            const auto &dst = state[pkt.dst];
            if (dst.phase == RankState::Phase::WaitRecv &&
                dst.waitFlow == pkt.flow && (pkt.delivered() || pkt.dropped))
                due.insert(pkt.dst);
        }
        network.clearWakes();
    };

    // Cancellation epoch: poll the token every 4096 scheduler
    // iterations (not simulated cycles — compute fast-forwards can
    // leap millions of cycles in one iteration), cheap enough to be
    // invisible and frequent enough that a cancelled request stops
    // within microseconds of real time.
    constexpr std::uint64_t kCancelEpoch = 4096;
    std::uint64_t iterations = 0;

    Cycle now = 0;
    for (;;) {
        ++now;
        if (now > cfg.maxCycles)
            fatal("runTrace: exceeded maxCycles (", cfg.maxCycles,
                  ") on '", trace.name(), "' over ",
                  "the given network");
        if (cfg.cancel && ++iterations % kCancelEpoch == 0)
            cfg.cancel->checkpoint();
        network.step(now);
        wake();
        while (!timers.empty() && timers.front().at <= now) {
            due.insert(timers.front().rank);
            std::pop_heap(timers.begin(), timers.end());
            timers.pop_back();
        }

        // Ascending rank order: enqueues made here number the packets.
        // The set is re-read after each rank, so a rank woken during
        // the pass (an enqueue may drop a packet on a dead channel) is
        // visited in it if its id is higher, next cycle if lower, as a
        // poll of every rank in order would.
        for (std::size_t i = due.next(0); i != IndexSet::npos;
             i = due.next(i + 1)) {
            const auto r = static_cast<core::ProcId>(i);
            due.erase(r);
            progress(r, now);
            if (state[r].timeBound()) {
                timers.push_back({state[r].readyAt, r});
                std::push_heap(timers.begin(), timers.end());
            }
            wake();
        }
#ifdef MINNOC_SANITIZE
        // A rank left asleep could have moved: a wake-up went missing.
        {
            std::vector<Cycle> timerAt(ranks, -1);
            for (const auto &t : timers)
                timerAt[t.rank] = t.at;
            std::size_t timeBound = 0;
            std::uint32_t inRecv = 0;
            for (core::ProcId r = 0; r < ranks; ++r) {
                const auto &st = state[r];
                bool movable = false;
                if (st.phase == RankState::Phase::WaitRecv) {
                    ++inRecv;
                    movable = network.hasDelivered(st.waitFlow) ||
                              network.nextDeliveryLost(st.waitFlow);
                } else if (st.phase == RankState::Phase::WaitInject) {
                    movable = network.injected(st.pending);
                }
                if (movable && !due.contains(r))
                    panic("runTrace invariant: a rank sleeps through the "
                          "event it waits on");
                if (st.timeBound()) {
                    ++timeBound;
                    if (timerAt[r] != st.readyAt)
                        panic("runTrace invariant: a rank waits on the "
                              "clock with no timer");
                }
            }
            if (timeBound != timers.size() || inRecv != ranksInRecv)
                panic("runTrace invariant: timers or receive count out of "
                      "step");
        }
#endif
        if (ranksDone == ranks && network.idle())
            break;

        // Fast-forward through pure-compute stretches: when the network
        // is empty and every live rank is waiting on the clock, jump to
        // the earliest timer. If the network is empty and every live
        // rank is blocked in a receive with none due (a packet dropped
        // at enqueue wakes its receiver for the next cycle), the trace
        // itself deadlocked.
        if (network.idle()) {
            const std::uint32_t live = ranks - ranksDone;
            if (live != 0 && ranksInRecv == live &&
                due.next(0) == IndexSet::npos)
                fatal("runTrace: trace '", trace.name(),
                      "' deadlocked: all live ranks blocked in recv "
                      "with an empty network");
            if (live != 0 && timers.size() == live &&
                timers.front().at > now + 1)
                now = timers.front().at - 1;
        }
    }

    SimResult result;
    result.commTime.resize(ranks);
    result.finishTime.resize(ranks);
    result.execTime = 0;
    for (core::ProcId r = 0; r < ranks; ++r) {
        result.commTime[r] = state[r].commTime;
        result.finishTime[r] = state[r].finishedAt;
        result.execTime = std::max(result.execTime, state[r].finishedAt);
    }
    const auto &ns = network.stats();
    result.packetsDelivered = ns.packetsDelivered;
    result.deadlockRecoveries = ns.deadlockRecoveries;
    result.packetsEnqueued = ns.packetsEnqueued;
    result.packetsDropped = ns.packetsDropped;
    result.retransmissions = ns.retransmissions;
    result.corruptedFlits = ns.corruptedFlits;
    result.failedLinks = ns.failedLinks;
    result.disconnectedPairs = ns.disconnectedPairs;
    result.retryExhaustions = ns.retryExhaustions;
    result.recoveryExhaustions = ns.recoveryExhaustions;
    result.deliveredFraction = ns.deliveredFraction();
    result.latencyInflation = ns.latencyInflation();
    result.recvsLost = recvsLost;
    result.undeliverableChannels.assign(lostChannels.begin(),
                                        lostChannels.end());
    result.avgPacketLatency = ns.packetLatency.mean();
    result.avgPacketHops = ns.packetHops.mean();
    result.maxLinkUtilization = ns.maxLinkUtilization(result.execTime);
    result.meanLinkUtilization = ns.meanLinkUtilization(result.execTime);
    result.linkFlits = ns.linkFlits;
    result.activity.bufferWrites = ns.bufferWrites;
    result.activity.bufferReads = ns.bufferReads;
    result.activity.residentFlitCycles = ns.residentFlitCycles;

    if constexpr (obs::kEnabled) {
        if (auto *observer = network.observer()) {
            obs::SimObserver::FinalCounters fc;
            fc.packetsEnqueued = ns.packetsEnqueued;
            fc.packetsDelivered = ns.packetsDelivered;
            fc.packetsDropped = ns.packetsDropped;
            fc.flitHops = ns.flitHops;
            fc.bufferWrites = ns.bufferWrites;
            fc.bufferReads = ns.bufferReads;
            fc.residentFlitCycles = ns.residentFlitCycles;
            fc.retransmissions = ns.retransmissions;
            fc.corruptedFlits = ns.corruptedFlits;
            fc.deadlockRecoveries = ns.deadlockRecoveries;
            fc.failedLinks = ns.failedLinks;
            fc.disconnectedPairs = ns.disconnectedPairs;
            fc.retryExhaustions = ns.retryExhaustions;
            fc.recoveryExhaustions = ns.recoveryExhaustions;
            fc.execTime = result.execTime;
            fc.steppedCycles = network.steppedCycles();
            fc.runSeconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
            observer->finish(fc, result.execTime,
                             network.flitsInNetwork(), ns.linkFlits);
        }
    }
    return result;
}

SimResult
runTrace(const trace::Trace &trace, const topo::Topology &topo,
         const topo::RoutingFunction &routing, const SimConfig &config,
         obs::SimObserver *observer)
{
    if (trace.numRanks() != topo.numProcs())
        fatal("runTrace: trace has ", trace.numRanks(),
              " ranks but topology has ", topo.numProcs(), " procs");
    Network network(topo, routing, config);
    network.setObserver(observer);
    return runTrace(trace, network);
}

SimResult
runTrace(const trace::Trace &trace, const topo::Topology &topo,
         const topo::RoutingFunction &routing, const SimConfig &config,
         const FaultConfig &faults, obs::SimObserver *observer)
{
    if (trace.numRanks() != topo.numProcs())
        fatal("runTrace: trace has ", trace.numRanks(),
              " ranks but topology has ", topo.numProcs(), " procs");
    Network network(topo, routing, config, FaultModel(topo, faults));
    network.setObserver(observer);
    return runTrace(trace, network);
}

} // namespace minnoc::sim
