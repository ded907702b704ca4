#include "synthetic.hpp"

#include <map>
#include <vector>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace minnoc::trace {

std::string
patternName(Pattern p)
{
    switch (p) {
      case Pattern::UniformRandom:
        return "uniform";
      case Pattern::Transpose:
        return "transpose";
      case Pattern::BitReversal:
        return "bitrev";
      case Pattern::Hotspot:
        return "hotspot";
      case Pattern::Neighbor:
        return "neighbor";
    }
    panic("patternName: bad enum");
}

Pattern
patternFromName(const std::string &name)
{
    if (name == "uniform")
        return Pattern::UniformRandom;
    if (name == "transpose")
        return Pattern::Transpose;
    if (name == "bitrev")
        return Pattern::BitReversal;
    if (name == "hotspot")
        return Pattern::Hotspot;
    if (name == "neighbor")
        return Pattern::Neighbor;
    fatal("unknown synthetic pattern '", name,
          "' (uniform, transpose, bitrev, hotspot, neighbor)");
}

namespace {

std::uint32_t
bitsFor(std::uint32_t ranks)
{
    std::uint32_t bits = 0;
    while ((1u << bits) < ranks)
        ++bits;
    return bits;
}

/** Most-square grid width for the transpose pattern. */
std::uint32_t
gridWidth(std::uint32_t ranks)
{
    std::uint32_t w = 1;
    for (std::uint32_t d = 1; d * d <= ranks; ++d) {
        if (ranks % d == 0)
            w = ranks / d;
    }
    return w;
}

/** Destination of @p src under @p pattern (may return src itself). */
core::ProcId
patternDestination(Pattern pattern, core::ProcId src, std::uint32_t ranks,
                   double hotspotFraction, Rng &rng)
{
    const std::uint32_t w = gridWidth(ranks);
    const std::uint32_t h = ranks / w;
    switch (pattern) {
      case Pattern::UniformRandom: {
        const auto d = static_cast<core::ProcId>(rng.below(ranks - 1));
        return d >= src ? d + 1 : d;
      }
      case Pattern::Transpose: {
        const std::uint32_t x = src % w;
        const std::uint32_t y = src / w;
        // Transpose on the (possibly non-square) grid: clamp into
        // range by swapping within the smaller dimension.
        const std::uint32_t nx = y % w;
        const std::uint32_t ny = x % h;
        return static_cast<core::ProcId>(ny * w + nx);
      }
      case Pattern::BitReversal: {
        const std::uint32_t bits = bitsFor(ranks);
        std::uint32_t out = 0;
        for (std::uint32_t b = 0; b < bits; ++b) {
            if (src & (1u << b))
                out |= 1u << (bits - 1 - b);
        }
        return static_cast<core::ProcId>(out % ranks);
      }
      case Pattern::Hotspot:
        if (src != 0 && rng.chance(hotspotFraction))
            return 0;
        else {
            const auto d =
                static_cast<core::ProcId>(rng.below(ranks - 1));
            return d >= src ? d + 1 : d;
        }
      case Pattern::Neighbor:
        return static_cast<core::ProcId>((src + 1) % ranks);
    }
    panic("patternDestination: bad pattern");
}

} // namespace

Trace
generateSynthetic(const SyntheticConfig &cfg)
{
    if (cfg.ranks < 2)
        fatal("generateSynthetic: need at least two ranks");
    if (cfg.load < 0.0 || cfg.load > 1.0)
        fatal("generateSynthetic: load must be in [0, 1]");

    Rng rng(cfg.seed);
    auto destination = [&](core::ProcId src) {
        return patternDestination(cfg.pattern, src, cfg.ranks,
                                  cfg.hotspotFraction, rng);
    };

    Trace trace("synthetic-" + patternName(cfg.pattern), cfg.ranks);

    // Per-channel send logs so the drain phase posts matching receives
    // in FIFO order.
    std::map<std::pair<core::ProcId, core::ProcId>,
             std::vector<std::uint32_t>>
        sent;

    std::uint32_t call = 0;
    for (std::uint32_t slot = 0; slot < cfg.slots; ++slot) {
        for (core::ProcId r = 0; r < cfg.ranks; ++r) {
            trace.push(r, TraceOp::compute(cfg.slotCycles));
            if (!rng.chance(cfg.load))
                continue;
            const auto d = destination(r);
            if (d == r)
                continue; // self-directed patterns skip the slot
            trace.push(r, TraceOp::send(d, cfg.bytes, call));
            sent[{r, d}].push_back(call);
            ++call;
        }
    }

    // Drain phase: every rank receives everything aimed at it, per
    // channel in FIFO order.
    for (const auto &[channel, calls] : sent) {
        const auto [src, dst] = channel;
        for (const auto c : calls)
            trace.push(dst, TraceOp::recv(src, cfg.bytes, c));
    }
    trace.validateMatching();
    return trace;
}

Trace
phaseShift(const std::vector<Pattern> &patterns,
           const PhaseShiftConfig &cfg)
{
    if (patterns.empty())
        fatal("phaseShift: need at least one pattern");
    if (cfg.ranks < 2)
        fatal("phaseShift: need at least two ranks");
    if (cfg.itersPerPhase == 0 || cfg.sitesPerPhase == 0)
        fatal("phaseShift: itersPerPhase and sitesPerPhase must be "
              "positive");

    std::string name = "phase-shift";
    for (const Pattern p : patterns)
        name.append("-").append(patternName(p));
    Trace trace(name, cfg.ranks);

    Rng rng(cfg.seed);
    for (std::uint32_t e = 0; e < patterns.size(); ++e) {
        for (std::uint32_t iter = 0; iter < cfg.itersPerPhase; ++iter) {
            const std::uint32_t call =
                e * cfg.sitesPerPhase + iter % cfg.sitesPerPhase;

            // One bulk-synchronous exchange: every rank computes, then
            // sends to its pattern destination, then receives what was
            // aimed at it (rank-major), exactly like the NAS builders.
            std::vector<std::pair<core::ProcId, core::ProcId>> sends;
            for (core::ProcId r = 0; r < cfg.ranks; ++r) {
                trace.push(r, TraceOp::compute(cfg.computeCycles));
                const auto d = patternDestination(
                    patterns[e], r, cfg.ranks, cfg.hotspotFraction, rng);
                if (d == r)
                    continue; // fixed points of the pattern stay silent
                trace.push(r, TraceOp::send(d, cfg.bytes, call));
                sends.emplace_back(r, d);
            }
            for (core::ProcId dst = 0; dst < cfg.ranks; ++dst) {
                for (const auto &[s, d] : sends) {
                    if (d == dst)
                        trace.push(dst,
                                   TraceOp::recv(s, cfg.bytes, call));
                }
            }
        }
    }
    trace.validateMatching();
    return trace;
}

} // namespace minnoc::trace
