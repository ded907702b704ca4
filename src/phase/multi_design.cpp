#include "multi_design.hpp"

#include <map>

#include "core/design_network.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace minnoc::phase {

PhaseCliques
buildPhaseCliques(const trace::Trace &trace, const Segmentation &seg)
{
    const std::uint32_t ranks = trace.numRanks();
    const std::uint32_t numPhases =
        static_cast<std::uint32_t>(seg.phases.size());

    // Comms per call in analyzeByCall's canonical order: ascending
    // callId, rank-major within a call.
    std::map<std::uint32_t, std::vector<core::Comm>> byCall;
    for (core::ProcId r = 0; r < ranks; ++r)
        for (const auto &op : trace.timeline(r))
            if (op.kind == trace::OpKind::Send)
                byCall[op.callId].emplace_back(r, op.peer);

    PhaseCliques out;
    out.merged = core::CliqueSet(ranks);
    out.shared.assign(numPhases, core::CliqueSet(ranks));
    out.standalone.assign(numPhases, core::CliqueSet(ranks));

    // Interning every comm into every shared set first (same order as
    // the merged set) pins identical registries, so CommIds transfer
    // between the union design and each phase's clique set.
    for (const auto &[call, comms] : byCall) {
        for (const auto &c : comms) {
            out.merged.internComm(c);
            for (auto &s : out.shared)
                s.internComm(c);
        }
    }
    for (const auto &[call, comms] : byCall) {
        const std::uint32_t p = seg.callPhase.at(call);
        if (p == Segmentation::kNoPhase)
            panic("buildPhaseCliques: call ", call,
                        " has no owning phase");
        out.merged.addClique(comms);
        out.shared[p].addClique(comms);
        out.standalone[p].addClique(comms);
    }
    return out;
}

std::size_t
MultiPhaseResult::unionViolationCount() const
{
    std::size_t n = 0;
    for (const auto &v : unionPhaseViolations)
        n += v.size();
    return n;
}

namespace {

/**
 * Rebuild the monolithic partition on a fresh megaswitch network over
 * @p cliques: split until the switch count matches, then move every
 * processor to its monolithic home. Routes end up direct (endpoint
 * homes only), which is exactly the union design's routing policy.
 */
core::DesignNetwork
imposePartition(const core::CliqueSet &cliques,
                const core::FinalizedDesign &target, std::uint64_t seed)
{
    core::DesignNetwork net(cliques);
    Rng rng(seed);
    while (net.numSwitches() < target.numSwitches) {
        bool split = false;
        for (core::SwitchId s = 0;
             s < static_cast<core::SwitchId>(net.numSwitches()); ++s) {
            if (net.procsOf(s).size() >= 2) {
                net.splitSwitch(s, rng);
                split = true;
                break;
            }
        }
        if (!split)
            panic("imposePartition: cannot reach ",
                        target.numSwitches, " switches for ",
                        net.numProcs(), " procs");
    }
    for (core::ProcId p = 0; p < net.numProcs(); ++p)
        net.moveProc(p, target.procHome.at(p));
    return net;
}

} // namespace

MultiPhaseResult
synthesizeMultiPhase(const PhaseCliques &cliques,
                     const core::MethodologyConfig &config, ThreadPool *pool)
{
    // Inner telemetry off: phase-level metrics are the evaluator's job,
    // and repeated monolithic-style recordings would collide.
    core::MethodologyConfig quiet = config;
    quiet.metrics = nullptr;
    quiet.traceLog = nullptr;

    // Monolithic baseline over the merged set (runMethodology reduces
    // internally when the config asks; reduction never reindexes comms,
    // so the baseline's registry equals the merged registry).
    MultiPhaseResult result;
    result.monolithic = core::runMethodology(cliques.merged, quiet, pool);

    // Union design: monolithic partition, direct routes, one exact
    // coloring over the unreduced merged cliques.
    const core::DesignNetwork net = imposePartition(
        cliques.merged, result.monolithic.design, quiet.partitioner.seed);
    result.unionDesign = core::finalizeDesign(net, quiet.finalize);

    result.unionPhaseViolations.reserve(cliques.shared.size());
    for (const auto &shared : cliques.shared)
        result.unionPhaseViolations.push_back(
            core::checkContentionFree(result.unionDesign, shared));

    return result;
}

} // namespace minnoc::phase
