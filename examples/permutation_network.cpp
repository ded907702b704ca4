/**
 * @file
 * Application-specific permutation network (the paper's introduction
 * motivates encryption hardware built on bit permutations).
 *
 * A 16-engine pipeline applies three fixed permutation rounds — a
 * perfect shuffle, a bit-reversal and a butterfly — each round being
 * one contention period (the rounds never overlap in time). A general
 * non-blocking network for *all* permutations would be a crossbar; the
 * methodology instead finds a minimal topology that supports exactly
 * these three permutations contention-free, which is the paper's
 * "application-specific permutations" use case.
 */

#include <cstdio>
#include <vector>

#include "core/methodology.hpp"
#include "sim/evaluate.hpp"

using namespace minnoc;

namespace {

constexpr std::uint32_t kBits = 4;
constexpr std::uint32_t kEngines = 1u << kBits;

/** Rotate-left of the engine index bits: the perfect shuffle. */
core::ProcId
shuffle(core::ProcId i)
{
    return static_cast<core::ProcId>(
        ((i << 1) | (i >> (kBits - 1))) & (kEngines - 1));
}

/** Reverse the engine index bits. */
core::ProcId
bitReversal(core::ProcId i)
{
    core::ProcId out = 0;
    for (std::uint32_t b = 0; b < kBits; ++b) {
        if (i & (1u << b))
            out |= 1u << (kBits - 1 - b);
    }
    return out;
}

/** Butterfly: swap the top and bottom index bits. */
core::ProcId
butterfly(core::ProcId i)
{
    const std::uint32_t hi = (i >> (kBits - 1)) & 1u;
    const std::uint32_t lo = i & 1u;
    core::ProcId out = i & ~((1u << (kBits - 1)) | 1u);
    out |= lo << (kBits - 1);
    out |= hi;
    return out;
}

std::vector<core::Comm>
permutationComms(core::ProcId (*perm)(core::ProcId))
{
    std::vector<core::Comm> comms;
    for (core::ProcId i = 0; i < kEngines; ++i) {
        const auto target = perm(i);
        if (target != i)
            comms.emplace_back(i, target);
    }
    return comms;
}

} // namespace

int
main()
{
    // The communication requirement: three permutations, one clique
    // each (they execute in disjoint pipeline stages).
    core::CliqueSet cliques(kEngines);
    cliques.addClique(permutationComms(&shuffle));
    cliques.addClique(permutationComms(&bitReversal));
    cliques.addClique(permutationComms(&butterfly));
    std::printf("requirement: %zu permutation rounds, %zu distinct "
                "transfers\n",
                cliques.numCliques(), cliques.numComms());

    const auto outcome = core::runMethodology(cliques);
    std::printf("design: %s\n", outcome.summary().c_str());
    std::printf("%s", outcome.design.toString().c_str());

    if (outcome.violations.empty()) {
        std::printf("all three permutations are provably "
                    "contention-free on this network\n");
    }

    // Drive each permutation round through the network back to back.
    trace::Trace tr("permutations", kEngines);
    std::uint32_t call = 0;
    for (const auto perm : {&shuffle, &bitReversal, &butterfly}) {
        for (const auto &c : permutationComms(*perm))
            tr.push(c.src, trace::TraceOp::send(c.dst, 4096, call));
        for (const auto &c : permutationComms(*perm))
            tr.push(c.dst, trace::TraceOp::recv(c.src, 4096, call));
        ++call;
    }
    const auto gen = sim::evaluateDesign(outcome.design, tr);
    const auto &rg = gen.sim;
    const auto rx =
        sim::evaluateNetwork(*topo::buildBaseline("crossbar", kEngines), tr)
            .sim;

    // Compare resources with the general-purpose alternatives.
    const auto [meshSw, meshLk] = topo::meshAreas(kEngines);
    std::printf("area: %u switches / %u link units "
                "(mesh: %u / %u; crossbar: 1 x %u-port megaswitch)\n",
                gen.plan.switchArea,
                gen.plan.linkArea + gen.plan.procLinkArea, meshSw, meshLk,
                kEngines);
    std::printf("three rounds: generated %lld cycles vs crossbar %lld "
                "cycles (%.1f%% slower, at a fraction of the cost)\n",
                static_cast<long long>(rg.execTime),
                static_cast<long long>(rx.execTime),
                100.0 * (static_cast<double>(rg.execTime) /
                             static_cast<double>(rx.execTime) -
                         1.0));
    return 0;
}
