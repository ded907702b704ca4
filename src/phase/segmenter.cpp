#include "segmenter.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

#include "trace/analyzer.hpp"
#include "util/log.hpp"

namespace minnoc::phase {

namespace {

/** Pattern features of one message window. */
struct WindowFeatures
{
    /** Bytes per (src, dst), normalized to sum 1. */
    std::map<std::pair<core::ProcId, core::ProcId>, double> matrix;
    std::set<std::uint32_t> calls;
};

WindowFeatures
windowFeatures(const std::vector<core::Message> &msgs,
               const std::vector<std::size_t> &order, std::size_t first,
               std::size_t count)
{
    WindowFeatures f;
    std::uint64_t total = 0;
    for (std::size_t i = first; i < first + count; ++i) {
        const core::Message &m = msgs[order[i]];
        // Zero-byte messages still occupy a channel; weigh them as one
        // byte so they register in the matrix.
        const std::uint64_t b = m.bytes ? m.bytes : 1;
        f.matrix[{m.src, m.dst}] += static_cast<double>(b);
        f.calls.insert(m.callId);
        total += b;
    }
    for (auto &[comm, bytes] : f.matrix)
        bytes /= static_cast<double>(total);
    return f;
}

/**
 * Weight of the traffic-matrix term in the blended distance; the
 * call-set term gets 1 - kMatrixWeight. PhaseConfig::signature()
 * prints it as `mw=0.5`.
 */
constexpr double kMatrixWeight = 0.5;

/**
 * Blended pattern distance in [0, 1]: half the L1 distance between the
 * normalized traffic matrices (0 = identical flows, 1 = disjoint)
 * weighted against the Jaccard dissimilarity of the call-site sets.
 */
double
patternDistance(const WindowFeatures &a, const WindowFeatures &b)
{
    double l1 = 0.0;
    auto ia = a.matrix.begin();
    auto ib = b.matrix.begin();
    while (ia != a.matrix.end() || ib != b.matrix.end()) {
        if (ib == b.matrix.end() ||
            (ia != a.matrix.end() && ia->first < ib->first)) {
            l1 += ia->second;
            ++ia;
        } else if (ia == a.matrix.end() || ib->first < ia->first) {
            l1 += ib->second;
            ++ib;
        } else {
            l1 += std::abs(ia->second - ib->second);
            ++ia;
            ++ib;
        }
    }

    std::size_t common = 0;
    for (std::uint32_t c : a.calls)
        common += b.calls.count(c);
    const std::size_t unioned = a.calls.size() + b.calls.size() - common;
    const double jaccard =
        unioned ? static_cast<double>(common) / static_cast<double>(unioned)
                : 1.0;

    return kMatrixWeight * (l1 / 2.0) +
           (1.0 - kMatrixWeight) * (1.0 - jaccard);
}

} // namespace

std::string
PhaseConfig::signature() const
{
    std::ostringstream oss;
    oss.precision(17);
    oss << "win=" << windowMessages << ";thresh=" << mergeThreshold
        << ";minwin=" << minPhaseWindows << ";mw=0.5";
    return oss.str();
}

Segmentation
segmentTrace(const trace::Trace &trace, const PhaseConfig &config)
{
    if (config.windowMessages == 0)
        fatal("phase: --window must be positive");

    Segmentation seg;
    seg.config = config;

    const core::CommPattern pattern = trace::idealReplay(trace);
    const std::vector<core::Message> &msgs = pattern.messages();
    seg.numMessages = msgs.size();
    if (msgs.empty())
        return seg;

    // Deterministic temporal order: replay start time, ties broken by
    // call site then endpoints (idealReplay emits one message per Send,
    // so the tuple is unique).
    std::vector<std::size_t> order(msgs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&msgs](std::size_t x, std::size_t y) {
                  const core::Message &a = msgs[x];
                  const core::Message &b = msgs[y];
                  return std::tie(a.tStart, a.callId, a.src, a.dst) <
                         std::tie(b.tStart, b.callId, b.src, b.dst);
              });

    const std::size_t win = config.windowMessages;
    const std::uint32_t numWindows =
        static_cast<std::uint32_t>((msgs.size() + win - 1) / win);
    seg.numWindows = numWindows;

    std::vector<WindowFeatures> features;
    features.reserve(numWindows);
    for (std::uint32_t w = 0; w < numWindows; ++w) {
        const std::size_t first = static_cast<std::size_t>(w) * win;
        const std::size_t count = std::min(win, msgs.size() - first);
        features.push_back(windowFeatures(msgs, order, first, count));
    }

    seg.distances.assign(numWindows, 0.0);
    for (std::uint32_t w = 1; w < numWindows; ++w)
        seg.distances[w] = patternDistance(features[w - 1], features[w]);

    // Raw change points, then the minimum-length rule: a segment
    // shorter than minPhaseWindows merges forward into its successor
    // (its closing boundary survives, its opening one is dropped); a
    // short trailing segment merges backward into its predecessor.
    std::vector<std::uint32_t> boundaries;
    std::uint32_t segStart = 0;
    for (std::uint32_t w = 1; w < numWindows; ++w) {
        if (seg.distances[w] <= config.mergeThreshold)
            continue;
        if (w - segStart >= config.minPhaseWindows) {
            boundaries.push_back(w);
            segStart = w;
        }
    }
    while (!boundaries.empty() &&
           numWindows - boundaries.back() < config.minPhaseWindows)
        boundaries.pop_back();
    seg.boundaries = boundaries;

    // Window ranges of the detected phases.
    const std::uint32_t rawPhases =
        static_cast<std::uint32_t>(boundaries.size()) + 1;
    auto windowPhase = [&boundaries](std::uint32_t w) {
        std::uint32_t p = 0;
        while (p < boundaries.size() && w >= boundaries[p])
            ++p;
        return p;
    };

    // Call ownership by majority message count (earliest phase wins
    // ties), so a call site straddling a boundary lands in one phase
    // and send/recv matching survives sub-trace extraction.
    const std::uint32_t numCalls = trace.numCalls();
    std::vector<std::vector<std::size_t>> votes(
        numCalls, std::vector<std::size_t>(rawPhases, 0));
    for (std::size_t i = 0; i < order.size(); ++i) {
        const core::Message &m = msgs[order[i]];
        const std::uint32_t w = static_cast<std::uint32_t>(i / win);
        ++votes[m.callId][windowPhase(w)];
    }

    std::vector<std::uint32_t> rawCallPhase(numCalls, Segmentation::kNoPhase);
    std::vector<std::size_t> phaseCalls(rawPhases, 0);
    for (std::uint32_t c = 0; c < numCalls; ++c) {
        std::size_t best = 0;
        std::uint32_t owner = Segmentation::kNoPhase;
        for (std::uint32_t p = 0; p < rawPhases; ++p) {
            if (votes[c][p] > best) {
                best = votes[c][p];
                owner = p;
            }
        }
        rawCallPhase[c] = owner;
        if (owner != Segmentation::kNoPhase)
            ++phaseCalls[owner];
    }

    // A phase whose every call was claimed by a neighbor (possible only
    // for degenerate thresholds) is dropped; its window range folds into
    // the preceding kept phase so ranges stay contiguous.
    std::vector<std::uint32_t> remap(rawPhases, Segmentation::kNoPhase);
    std::uint32_t kept = 0;
    for (std::uint32_t p = 0; p < rawPhases; ++p)
        if (phaseCalls[p] > 0)
            remap[p] = kept++;
    if (kept == 0)
        fatal("phase: segmentation produced no non-empty phase");

    seg.phases.assign(kept, PhaseInfo{});
    for (std::uint32_t p = 0; p < kept; ++p)
        seg.phases[p].index = p;
    for (std::uint32_t w = 0; w < numWindows; ++w) {
        std::uint32_t p = windowPhase(w);
        while (p > 0 && remap[p] == Segmentation::kNoPhase)
            --p; // fold dropped phase's windows backward
        while (remap[p] == Segmentation::kNoPhase)
            ++p; // dropped leading phase folds forward
        PhaseInfo &info = seg.phases[remap[p]];
        info.lastWindow = std::max(info.lastWindow, w);
    }
    for (std::uint32_t p = 1; p < kept; ++p)
        seg.phases[p].firstWindow = seg.phases[p - 1].lastWindow + 1;
    seg.phases[0].firstWindow = 0;

    seg.callPhase.assign(numCalls, Segmentation::kNoPhase);
    for (std::uint32_t c = 0; c < numCalls; ++c)
        if (rawCallPhase[c] != Segmentation::kNoPhase)
            seg.callPhase[c] = remap[rawCallPhase[c]];

    for (const core::Message &m : msgs) {
        PhaseInfo &info = seg.phases[seg.callPhase[m.callId]];
        if (info.messages == 0) {
            info.startTime = m.tStart;
            info.endTime = m.tFinish;
        } else {
            info.startTime = std::min(info.startTime, m.tStart);
            info.endTime = std::max(info.endTime, m.tFinish);
        }
        ++info.messages;
        info.bytes += m.bytes;
    }
    for (std::uint32_t c = 0; c < numCalls; ++c)
        if (seg.callPhase[c] != Segmentation::kNoPhase)
            seg.phases[seg.callPhase[c]].calls.push_back(c);

    return seg;
}

trace::Trace
phaseSubTrace(const trace::Trace &trace, const Segmentation &seg,
              std::uint32_t p)
{
    if (p >= seg.phases.size())
        panic("phaseSubTrace: phase ", p, " out of range (",
                    seg.phases.size(), " phases)");

    trace::Trace sub(trace.name() + "/phase" + std::to_string(p),
                     trace.numRanks());
    for (core::ProcId r = 0; r < trace.numRanks(); ++r) {
        const std::vector<trace::TraceOp> &ops = trace.timeline(r);

        // Compute ops belong to the phase of the next communication on
        // this rank (they lead up to it); trailing computes stay with
        // the rank's last communication. Comm-free ranks go to phase 0.
        std::uint32_t carry = 0;
        for (std::size_t i = ops.size(); i-- > 0;) {
            if (ops[i].kind != trace::OpKind::Compute) {
                carry = seg.callPhase[ops[i].callId];
                break;
            }
        }
        std::vector<std::uint32_t> opPhase(ops.size(), 0);
        for (std::size_t i = ops.size(); i-- > 0;) {
            if (ops[i].kind != trace::OpKind::Compute)
                carry = seg.callPhase[ops[i].callId];
            opPhase[i] = carry;
        }

        for (std::size_t i = 0; i < ops.size(); ++i)
            if (opPhase[i] == p)
                sub.push(r, ops[i]);
    }
    return sub;
}

} // namespace minnoc::phase
