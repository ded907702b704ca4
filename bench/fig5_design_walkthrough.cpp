/**
 * @file
 * Figures 2 and 5 reproduction: the design methodology walked through
 * step by step on the CG-16 pattern with a node-degree-5 constraint.
 *
 * First the paper's fixed example cuts (Cut 1 needs four links, Cut 2
 * three, the follow-up move two), then the full automated run with its
 * partition/move/reroute history and the finalized network.
 */

#include <cstdio>

#include "core/design_network.hpp"
#include "core/methodology.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;
using namespace minnoc::core;

namespace {

CliqueSet
cgCliques()
{
    trace::NasConfig cfg;
    cfg.ranks = 16;
    cfg.iterations = 1;
    auto ks = trace::analyzeByCall(trace::generateCG(cfg));
    ks.reduceToMaximum();
    return ks;
}

} // namespace

int
main()
{
    std::printf("=== Figures 2 & 5: partitioning walkthrough (CG-16, "
                "max degree 5) ===\n\n");
    CliqueSet ks = cgCliques();

    // --- The paper's manual cuts (Section 3.1, Figure 2). ---
    bool ok = true;
    {
        DesignNetwork net(ks);
        Rng rng(1);
        const SwitchId sj = net.splitSwitch(0, rng);
        for (ProcId p = 0; p < 8; ++p)
            net.moveProc(p, 0);
        for (ProcId p = 8; p < 16; ++p)
            net.moveProc(p, sj);
        const auto cut1 = net.fastColor(PipeKey(0, sj));
        std::printf("Cut 1 (procs 0-7 | 8-15): Fast_Color = %u links "
                    "(paper: 4) %s\n",
                    cut1, cut1 == 4 ? "[ok]" : "[MISMATCH]");
        ok &= cut1 == 4;

        net.moveProc(8, 0); // the paper's "Processor 9" move
        const auto cut2 = net.fastColor(PipeKey(0, sj));
        std::printf("Cut 2 (move proc 8 across): Fast_Color = %u links "
                    "(paper: 3) %s\n",
                    cut2, cut2 == 3 ? "[ok]" : "[MISMATCH]");
        ok &= cut2 == 3;

        net.moveProc(7, sj); // the paper's "Processor 8" move
        const auto cut3 = net.fastColor(PipeKey(0, sj));
        std::printf("Figure 5(b) (move proc 7 back): Fast_Color = %u "
                    "links (paper: 2) %s\n\n",
                    cut3, cut3 == 2 ? "[ok]" : "[MISMATCH]");
        ok &= cut3 == 2;
    }

    // --- The automated run with history (Figure 5(a)-(f)). ---
    const auto outcome = runMethodology(ks);

    std::printf("automated run history (%zu steps):\n",
                outcome.history.size());
    std::size_t shown = 0;
    for (const auto &step : outcome.history) {
        const char *kind = "?";
        switch (step.kind) {
          case PartitionStep::Kind::Split:
            kind = "split";
            break;
          case PartitionStep::Kind::Move:
            kind = "move";
            break;
          case PartitionStep::Kind::Reroute:
            kind = "reroute";
            break;
          case PartitionStep::Kind::Finalize:
            kind = "finalize";
            break;
        }
        std::printf("  %-9s %-22s est links %u\n", kind,
                    step.note.c_str(), step.estimatedLinks);
        if (++shown >= 40) {
            std::printf("  ... (%zu more steps)\n",
                        outcome.history.size() - shown);
            break;
        }
    }

    std::printf("\nfinal network (compare Figure 5(f)):\n%s",
                outcome.design.toString().c_str());
    std::printf("constraints met: %s; Theorem-1 violations: %zu\n",
                outcome.constraintsMet ? "yes" : "no",
                outcome.violations.size());
    ok &= outcome.constraintsMet && outcome.violations.empty();
    return ok ? 0 : 1;
}
