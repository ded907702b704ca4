/**
 * @file
 * Coherence stress study — how far the methodology stretches when the
 * "well-behaved" assumption frays.
 *
 * Directory-coherence traffic is the canonical ill-behaved workload:
 * data-dependent targets, bimodal message sizes, bursty invalidation
 * fan-out. This bench generates such traffic (src/coh), segments it
 * next to a phase-shift fixture and a NAS trace, synthesizes per-phase
 * networks, and verifies every one of them contention-free via Theorem
 * 1 — then replays the traffic on the generated, mesh, and torus
 * networks under both power tiers. One deterministic JSON document:
 * byte-identical across reruns and across --threads values (the
 * restart pool changes wall time, never the selected designs).
 *
 * Expected shape: the segmenter finds more phases in coherence traffic
 * than in a NAS trace (call sets drift as sharing migrates) but fewer
 * clean boundaries than in the phase-shift fixture (drift is gradual,
 * not epochal). Synthesis still verifies: Theorem 1 holds per phase
 * because the clique structure is what it provisions, however ragged
 * the traffic. The activity tier separates the networks harder than
 * the static tier — coherence bursts queue, and buffer energy bills
 * the queueing.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <ostream>

#include "coh/coherence.hpp"
#include "core/methodology.hpp"
#include "phase/multi_design.hpp"
#include "phase/segmenter.hpp"
#include "sim/evaluate.hpp"
#include "topo/power.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

using namespace minnoc;

namespace {

/** @p e's energy under both tiers, as a JSON fragment. */
std::string
energyJson(const topo::Topology &topo, const sim::NetworkEvaluation &e)
{
    topo::PowerModel activityModel;
    activityModel.kind = topo::PowerModelKind::Activity;
    const auto &stat = e.energy;
    const auto act = topo::computeEnergy(topo, e.sim.linkFlits,
                                         e.sim.execTime, e.sim.activity,
                                         activityModel);
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "\"static\": {\"dynamic\": %.2f, \"leakage\": %.2f, "
                  "\"total\": %.2f}, "
                  "\"activity\": {\"dynamic\": %.2f, \"buffer\": %.2f, "
                  "\"leakage\": %.2f, \"total\": %.2f}",
                  stat.dynamic(), stat.leakage(), stat.total(),
                  act.dynamic(), act.bufferDynamic, act.leakage(),
                  act.total());
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = cli::Args::parse(
        argc, argv, 1,
        {"ranks", "blocks", "sharers", "rounds", "ops", "seed",
         "threads", "out"});

    coh::CoherenceConfig ccfg;
    ccfg.ranks = args.getU32("ranks", 16);
    ccfg.blocks = args.getU32("blocks", 64);
    ccfg.maxSharers = args.getU32("sharers", 4);
    ccfg.rounds = args.getU32("rounds", 6);
    ccfg.opsPerRankPerRound = args.getU32("ops", 16);
    ccfg.seed = args.getU64("seed", 1);
    ccfg.validate();
    const std::uint32_t threads = args.getU32("threads", 1);

    std::ofstream file;
    const auto out = args.get("out");
    if (!out.empty()) {
        file.open(out);
        if (!file)
            fatal("cannot write '", out, "'");
    }
    std::ostream &os = out.empty() ? std::cout : file;

    // --- the three workloads the segmenter is compared on -----------
    const auto expansion = coh::expandCoherence(ccfg);
    const auto cohTrace = coh::traceFromExpansion(expansion, ccfg);

    trace::PhaseShiftConfig pscfg;
    pscfg.ranks = ccfg.ranks;
    const auto shiftTrace =
        trace::phaseShift({trace::Pattern::Neighbor,
                           trace::Pattern::Transpose,
                           trace::Pattern::Hotspot},
                          pscfg);

    trace::NasConfig ncfg;
    // CG only accepts power-of-two rank counts; the per-workload
    // "ranks" field records which size the comparison actually used.
    ncfg.ranks = 1;
    while (ncfg.ranks * 2 <= ccfg.ranks)
        ncfg.ranks *= 2;
    ncfg.iterations = 2;
    const auto nasTrace = trace::generateCG(ncfg);

    os << "{\n  \"benchmark\": \"coherence_stress\",\n"
       << "  \"config\": {\"ranks\": " << ccfg.ranks
       << ", \"blocks\": " << ccfg.blocks
       << ", \"sharers\": " << ccfg.maxSharers
       << ", \"rounds\": " << ccfg.rounds
       << ", \"ops\": " << ccfg.opsPerRankPerRound
       << ", \"seed\": " << ccfg.seed << "},\n";

    os << "  \"expansion\": {\"messages\": "
       << expansion.stats.messages()
       << ", \"transactions\": " << expansion.stats.transactions
       << ", \"loads\": " << expansion.stats.loads
       << ", \"stores\": " << expansion.stats.stores
       << ", \"hits\": " << expansion.stats.hits
       << ", \"max_inv_fanout\": " << expansion.stats.maxInvFanout
       << ", \"per_type\": {";
    for (std::uint32_t t = 0; t < coh::kNumMsgTypes; ++t)
        os << (t ? ", " : "") << "\""
           << coh::msgTypeName(static_cast<coh::MsgType>(t))
           << "\": " << expansion.stats.perType[t];
    os << "}},\n";

    // --- segmentation: coherence vs phase-shift vs NAS --------------
    const phase::PhaseConfig pcfg; // defaults, identical for all three
    struct Workload
    {
        const char *kind;
        const trace::Trace *tr;
    };
    const Workload workloads[] = {{"coherence", &cohTrace},
                                  {"phase_shift", &shiftTrace},
                                  {"nas_cg", &nasTrace}};
    os << "  \"segmentation\": [\n";
    phase::Segmentation cohSeg;
    for (std::size_t w = 0; w < std::size(workloads); ++w) {
        const auto seg = phase::segmentTrace(*workloads[w].tr, pcfg);
        if (w == 0)
            cohSeg = seg;
        os << "    {\"kind\": \"" << workloads[w].kind
           << "\", \"trace\": \"" << workloads[w].tr->name()
           << "\", \"ranks\": " << workloads[w].tr->numRanks()
           << ", \"messages\": " << seg.numMessages
           << ", \"windows\": " << seg.numWindows
           << ", \"phases\": " << seg.phases.size() << "}"
           << (w + 1 < std::size(workloads) ? "," : "") << "\n";
    }
    os << "  ],\n";

    // --- per-phase synthesis + Theorem-1 verification ---------------
    std::optional<ThreadPool> pool;
    if (threads > 1)
        pool.emplace(threads);
    ThreadPool *const restartPool = pool ? &*pool : nullptr;
    const auto cliques = phase::buildPhaseCliques(cohTrace, cohSeg);
    const auto multi = phase::synthesizeMultiPhase(cliques, {}, restartPool);

    os << "  \"synthesis\": {\n    \"monolithic\": {\"verified\": "
       << (multi.monolithic.violations.empty() ? "true" : "false")
       << ", \"violations\": " << multi.monolithic.violations.size()
       << "},\n    \"union\": {\"verified\": "
       << (multi.unionViolationCount() == 0 ? "true" : "false")
       << ", \"violations\": " << multi.unionViolationCount()
       << "},\n    \"phases\": [\n";
    const auto &standalone = cliques.standalone;
    for (std::size_t p = 0; p < standalone.size(); ++p) {
        const auto outcome =
            core::runMethodology(standalone[p], {}, restartPool);
        os << "      {\"phase\": " << p << ", \"messages\": "
           << cohSeg.phases[p].messages << ", \"verified\": "
           << (outcome.violations.empty() ? "true" : "false")
           << ", \"violations\": " << outcome.violations.size() << "}"
           << (p + 1 < standalone.size() ? "," : "") << "\n";
    }
    os << "    ]\n  },\n";

    // --- replay on generated / mesh / torus, both power tiers -------
    os << "  \"networks\": [\n";
    const char *sep = "";
    const auto row = [&](const char *name, const topo::Topology &topo,
                         const sim::NetworkEvaluation &e) {
        os << sep << "    {\"name\": \"" << name
           << "\", \"exec_time\": " << e.sim.execTime
           << ", \"deadlock_recoveries\": " << e.sim.deadlockRecoveries
           << ", " << energyJson(topo, e) << "}";
        sep = ",\n";
    };
    const auto generated =
        sim::evaluateDesign(multi.monolithic.design, cohTrace);
    row("generated", *generated.net.topo, generated);
    for (const char *name : {"mesh", "torus"}) {
        const auto net = *topo::buildBaseline(name, ccfg.ranks);
        row(name, *net.topo, sim::evaluateNetwork(net, cohTrace));
    }
    os << "\n  ]\n}\n";
    if (!out.empty())
        std::fprintf(stderr, "wrote %s\n", out.c_str());
    return 0;
}
