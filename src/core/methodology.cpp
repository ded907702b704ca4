#include "methodology.hpp"

#include <optional>
#include <sstream>

#include "route_optimizer.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace minnoc::core {

namespace {

/**
 * Maximum number of partition/finalize rounds: finalization can reveal
 * that exact colors exceed the Fast_Color estimates, in which case the
 * violating switches are split further and the design is re-finalized
 * (paper Appendix, steps 2-3).
 */
constexpr std::uint32_t kMaxRounds = 8;

} // namespace

std::string
MethodologyConfig::signature() const
{
    const auto &p = partitioner;
    std::ostringstream oss;
    // imb, mps, anneal..mpl, cp, budget and rounds print the fixed
    // values of former knobs, so cache keys recorded while those were
    // settable still hit. Changing one of the constants behind them is
    // a model change and bumps the cache salt.
    oss << "deg=" << p.constraints.maxDegree
        << ";pps=" << p.constraints.maxProcsPerSwitch
        << ";seed=" << p.seed << ";imb=2;splits=" << p.maxSplits
        << ";mps=0;anneal=0;t0=2;alpha=0.85;mpl=8"
        << ";opt=" << p.optimizeRoutes << ";cons=" << p.consolidate
        << ";cp=4;ucost=" << p.unidirectionalCost
        << ";budget=2000000;uni=" << finalize.unidirectional
        << ";rounds=8;reduce=" << reduceCliques << ";restarts=" << restarts
        << ";merge=" << mergeSwitches;
    // Appended only when non-default so signatures of pre-existing
    // configurations — and the cache keys derived from them — are
    // unchanged by the introduction of the hierarchical mode.
    if (p.hierarchicalThreshold != 64 || p.hierarchicalLeaf != 8) {
        oss << ";hier=" << p.hierarchicalThreshold << ","
            << p.hierarchicalLeaf;
    }
    return oss.str();
}

std::string
DesignOutcome::summary() const
{
    std::ostringstream oss;
    oss << "switches=" << design.numSwitches
        << " links=" << design.totalLinks()
        << " constraintsMet=" << constraintsMet
        << " violations=" << violations.size() << " rounds=" << rounds;
    return oss.str();
}

namespace {

/** Exact-degree constraint check over a finalized design. */
std::vector<SwitchId>
exactViolators(const FinalizedDesign &design, const DesignConstraints &dc)
{
    std::vector<SwitchId> bad;
    for (SwitchId s = 0; s < design.numSwitches; ++s) {
        const auto procs =
            static_cast<std::uint32_t>(design.switchProcs[s].size());
        if (!dc.satisfied(design.switchDegree(s), procs))
            bad.push_back(s);
    }
    return bad;
}

/**
 * The partitioner knobs a run uses: a design finalized with
 * unidirectional links is also priced per channel while partitioning.
 */
PartitionerConfig
partitionerOf(const MethodologyConfig &config)
{
    PartitionerConfig pcfg = config.partitioner;
    pcfg.unidirectionalCost |= config.finalize.unidirectional;
    return pcfg;
}

/** One partition/finalize attempt plus its final network state. */
struct SeedResult
{
    DesignOutcome outcome;
    DesignNetwork net;
};

/** One partition/finalize attempt from a single seed. */
SeedResult
runOnce(const CliqueSet &cliques, const MethodologyConfig &config,
        std::uint64_t seed)
{
    DesignOutcome outcome;
    DesignNetwork net(cliques);
    PartitionerConfig pcfg = partitionerOf(config);
    pcfg.seed = seed;
    Rng rng(seed);

    for (std::uint32_t round = 0; round < kMaxRounds; ++round) {
        outcome.rounds = round + 1;

        // Phase 1: partition under Fast_Color estimates.
        auto pr = partitionNetwork(net, pcfg, rng);
        outcome.movesEvaluated += pr.movesEvaluated;
        outcome.history.insert(outcome.history.end(), pr.history.begin(),
                               pr.history.end());

        // Phase 2: finalize with formal coloring.
        outcome.design = finalizeDesign(net, config.finalize);
        outcome.history.push_back(PartitionStep{
            PartitionStep::Kind::Finalize, kNoSwitch, kNoSwitch, kNoProc,
            outcome.design.totalLinks(), "finalize"});

        // Phase 3: re-check constraints against exact link counts.
        const auto bad =
            exactViolators(outcome.design, pcfg.constraints);
        if (bad.empty()) {
            outcome.constraintsMet = pr.feasible;

            // Polish: guarded quality refinement. Processor swaps plus
            // consolidation can shave links, but only a re-finalized,
            // still-feasible, Theorem-1-clean design is accepted;
            // otherwise roll back. The verifier persists across polish
            // iterations, so each re-check only recolors pipes whose
            // link assignment actually changed. The swap refinement is
            // quadratic in processors and is skipped in large-N mode.
            const bool big =
                pcfg.largeScale(net.numProcs());
            IncrementalVerifier verifier(cliques);
            DesignNetwork snapshot = net;
            for (int polish = 0; polish < 3; ++polish) {
                const bool swapped =
                    !big &&
                    refineProcSwaps(net, pcfg.constraints, rng, 2);
                const auto cs = consolidateRoutes(
                    net, kConsolidatePasses,
                    pcfg.constraints.maxDegree, &rng,
                    pcfg.unidirectionalCost);
                if (!swapped && cs.committedMoves == 0)
                    break;
                auto polished = finalizeDesign(net, config.finalize);
                if (exactViolators(polished, pcfg.constraints).empty() &&
                    polished.totalChannels() <
                        outcome.design.totalChannels() &&
                    verifier.check(polished).empty()) {
                    outcome.design = std::move(polished);
                    snapshot = net;
                } else {
                    net = snapshot;
                    break;
                }
            }
            break;
        }

        // Split the first exact violator that still has >= 2 procs and
        // loop; when none is splittable, spread traffic harder (the
        // exact chromatic numbers can exceed the Fast_Color estimates,
        // so repair against a tightened budget) and re-finalize.
        SwitchId splitTarget = kNoSwitch;
        for (const SwitchId s : bad) {
            if (net.procsOf(s).size() >= 2) {
                splitTarget = s;
                break;
            }
        }
        if (splitTarget == kNoSwitch) {
            const std::uint32_t tightened =
                pcfg.constraints.maxDegree > 1
                    ? pcfg.constraints.maxDegree - 1
                    : 1;
            const auto rs = repairDegrees(net, tightened, 4, &rng);
            outcome.constraintsMet = false;
            if (rs.committedMoves == 0)
                break; // stuck for good from this seed
            continue;
        }
        PartitionResult forced;
        splitAndSettle(net, pcfg, rng, splitTarget, forced);
        outcome.movesEvaluated += forced.movesEvaluated;
        outcome.history.insert(outcome.history.end(),
                               forced.history.begin(),
                               forced.history.end());
        outcome.constraintsMet = false; // until a clean round completes
    }

    return SeedResult{std::move(outcome), std::move(net)};
}

/**
 * Switch-merge polish: the recursive-bisection loop tends to over-split
 * dense patterns down to one processor per switch even when pairs of
 * switches would fit the degree budget together (the paper's generated
 * networks share switches between processors). Try merging switch
 * pairs, re-consolidating routes, and keep any merge whose finalized
 * design still meets the constraints with at most one extra link.
 */
void
mergeSwitches(DesignNetwork &net, DesignOutcome &outcome,
              const MethodologyConfig &config, const CliqueSet &cliques,
              Rng &rng)
{
    const PartitionerConfig pcfg = partitionerOf(config);
    const auto &dc = pcfg.constraints;
    // Merge candidates differ from the incumbent in the few pipes around
    // the merged pair; the incremental verifier re-checks only those.
    IncrementalVerifier verifier(cliques);
    // Merging shares switches but lengthens some routes; cap the total
    // hop growth so resource savings do not silently buy latency.
    auto totalHops = [](const FinalizedDesign &d) {
        std::size_t hops = 0;
        for (const auto &r : d.routes)
            hops += r.size() - 1;
        return hops;
    };
    const std::size_t hopBudget =
        totalHops(outcome.design) + totalHops(outcome.design) / 4;
    std::uint64_t candidates = 0;
    std::uint64_t accepted = 0;
    // The network of the accepted design. A rejected candidate is undone
    // by copy-assigning it back, which reuses the buffers of net.
    DesignNetwork incumbent = net;
    bool improved = true;
    while (improved) {
        improved = false;
        const auto numSwitches =
            static_cast<SwitchId>(net.numSwitches());
        for (SwitchId s = 0; s < numSwitches && !improved; ++s) {
            if (net.procsOf(s).empty())
                continue;
            for (SwitchId t = s + 1; t < numSwitches && !improved;
                 ++t) {
                if (net.procsOf(t).empty())
                    continue;
                const auto combinedProcs = net.procsOf(s).size() +
                                           net.procsOf(t).size();
                // A merged switch needs at least one link if anything
                // leaves it; quick infeasibility filter.
                if (combinedProcs + 1 > dc.maxDegree)
                    continue;

                // One checkpoint per candidate: a full consolidate and
                // finalize each, seconds in all on a large pattern.
                checkCancel(config.cancel);
                ++candidates;
                const std::vector<ProcId> procs = net.procsOf(t);
                for (const ProcId p : procs)
                    net.moveProc(p, s);
                consolidateRoutes(net, kConsolidatePasses,
                                  dc.maxDegree, &rng,
                                  pcfg.unidirectionalCost);
                if (violatingSwitches(net, dc).empty()) {
                    auto merged = finalizeDesign(net, config.finalize);
                    if (exactViolators(merged, dc).empty() &&
                        merged.numSwitches <
                            outcome.design.numSwitches &&
                        merged.totalChannels() <=
                            outcome.design.totalChannels() + 2 &&
                        totalHops(merged) <= hopBudget &&
                        verifier.check(merged).empty()) {
                        outcome.design = std::move(merged);
                        incumbent = net;
                        ++accepted;
                        improved = true;
                        break;
                    }
                }
                net = incumbent;
            }
        }
    }
    // The merge scan is sequential, so both counts are deterministic.
    if constexpr (obs::kEnabled) {
        if (config.metrics) {
            config.metrics->counter("methodology/merge/candidates")
                .add(candidates);
            config.metrics->counter("methodology/merge/accepted")
                .add(accepted);
        }
    }
}

/** Total exact-degree violation of a finalized design. */
std::uint64_t
exactViolation(const FinalizedDesign &d, const DesignConstraints &dc)
{
    std::uint64_t total = 0;
    for (SwitchId s = 0; s < d.numSwitches; ++s)
        total += degreeExcess(d.switchDegree(s), dc.maxDegree);
    return total;
}

/**
 * Publish one consumed restart's telemetry: quality gauges plus the
 * partitioning cost curve (estimated links after every recorded step).
 * Called from the selection fold only, which replays the sequential
 * seed order at any thread count — so the recorded content is
 * thread-count-invariant by construction.
 */
void
recordRestart(obs::MetricsRegistry &metrics, std::uint32_t i,
              const DesignOutcome &outcome)
{
    const std::string prefix =
        "methodology/restart/" + std::to_string(i) + "/";
    metrics.gauge(prefix + "links")
        .set(static_cast<double>(outcome.design.totalLinks()));
    metrics.gauge(prefix + "switches")
        .set(static_cast<double>(outcome.design.numSwitches));
    metrics.gauge(prefix + "feasible")
        .set(outcome.constraintsMet ? 1.0 : 0.0);
    metrics.gauge(prefix + "rounds")
        .set(static_cast<double>(outcome.rounds));
    metrics.counter(prefix + "moves_evaluated")
        .add(outcome.movesEvaluated);
    auto &curve = metrics.series(prefix + "cost_curve");
    std::int64_t step = 0;
    for (const auto &h : outcome.history)
        curve.sample(step++, static_cast<double>(h.estimatedLinks));
}

/** True when @p a is a strictly better design than @p b. */
bool
betterThan(const DesignOutcome &a, const DesignOutcome &b,
           const DesignConstraints &dc)
{
    if (a.constraintsMet != b.constraintsMet)
        return a.constraintsMet;
    if (!a.constraintsMet) {
        // Both infeasible: closer to feasible wins.
        const auto va = exactViolation(a.design, dc);
        const auto vb = exactViolation(b.design, dc);
        if (va != vb)
            return va < vb;
    }
    // Designs compete on directed channels: a duplex link is two.
    if (a.design.totalChannels() != b.design.totalChannels())
        return a.design.totalChannels() < b.design.totalChannels();
    return a.design.numSwitches < b.design.numSwitches;
}

} // namespace

DesignOutcome
runMethodology(const CliqueSet &cliquesIn, const MethodologyConfig &config,
               ThreadPool *pool)
{
    // Work on a private copy so the (optional) maximum-clique reduction
    // does not mutate the caller's set.
    const auto prepareStart = obs::spanStart(config.traceLog);
    CliqueSet cliques = cliquesIn;
    if (config.reduceCliques)
        cliques.reduceToMaximum();
    // Restart workers share the clique set read-only; its lazy caches
    // (clique masks, contention index) must exist before they race.
    cliques.prepareCaches();
    obs::spanEnd(config.traceLog, obs::kPidMethodology, "prepare", 0,
                 prepareStart);

    const std::uint32_t attempts = std::max(1u, config.restarts);
    const std::uint32_t minSampled = std::min(attempts, 4u);
    const std::uint32_t threads = pool ? pool->size() : 1u;

    DesignOutcome best;
    std::optional<DesignNetwork> bestNet;
    std::uint32_t restartsUsed = 0;

    // The sequential preference order: fold restart i into the running
    // best, then stop once a feasible design has been found and at
    // least min(attempts, 4) seeds were sampled. Returns true to stop.
    auto select = [&](SeedResult &result, std::uint32_t i) {
        if constexpr (obs::kEnabled) {
            if (config.metrics)
                recordRestart(*config.metrics, i, result.outcome);
        }
        restartsUsed = i + 1;
        if (!bestNet ||
            betterThan(result.outcome, best,
                       config.partitioner.constraints)) {
            best = std::move(result.outcome);
            bestNet.emplace(std::move(result.net));
        }
        return best.constraintsMet && i + 1 >= minSampled;
    };

    const std::int64_t restartsStart =
        config.traceLog || config.metrics ? obs::wallMicros() : 0;

    // Waves of independent restarts (one at a time without a pool),
    // none crossing minSampled, where the rule may first stop; selection
    // replays each wave in seed order and discards anything past the
    // sequential stopping point, so the winner matches threads = 1
    // exactly and a feasible start runs no restart threads = 1 skips.
    bool done = false;
    for (std::uint32_t i = 0; i < attempts && !done;) {
        const std::uint32_t wave = std::min(
            threads, (i < minSampled ? minSampled : attempts) - i);
        std::vector<std::optional<SeedResult>> results(wave);
        parallelFor(pool, wave, [&](std::size_t w) {
            // Restart granularity is the cancellation checkpoint; the
            // wave's first CancelledError is rethrown once it returns.
            checkCancel(config.cancel);
            results[w].emplace(runOnce(cliques, config,
                                       config.partitioner.seed + i +
                                           static_cast<std::uint32_t>(w)));
        });
        for (std::uint32_t w = 0; w < wave && !done; ++w)
            done = select(*results[w], i + w);
        i += wave;
    }
    best.restartsUsed = restartsUsed;
    if (!best.constraintsMet) {
        warn("methodology: no seed met the design constraints after ",
             attempts, " restarts; returning best effort");
    }
    obs::spanEnd(config.traceLog, obs::kPidMethodology, "restarts", 0,
                 restartsStart);

    // Switch-merge polish on the winner (see mergeSwitches). Quadratic
    // in switches with a full consolidate + finalize per candidate, so
    // it is gated off in large-N mode.
    checkCancel(config.cancel);
    const bool big =
        config.partitioner.largeScale(cliques.numProcs());
    if (!big && best.constraintsMet && config.mergeSwitches && bestNet) {
        const auto mergeStart = obs::spanStart(config.traceLog);
        Rng rng(config.partitioner.seed ^ 0x5bd1e995);
        mergeSwitches(*bestNet, best, config, cliques, rng);
        obs::spanEnd(config.traceLog, obs::kPidMethodology,
                     "merge_switches", 0, mergeStart);
    }

    // Theorem-1 verification of the final design.
    const auto verifyStart = obs::spanStart(config.traceLog);
    best.violations = checkContentionFree(best.design, cliques);
    if constexpr (obs::kEnabled) {
        if (config.traceLog)
            config.traceLog->processName(obs::kPidMethodology,
                                         "minnoc methodology");
    }
    obs::spanEnd(config.traceLog, obs::kPidMethodology, "verify", 0,
                 verifyStart);
    if constexpr (obs::kEnabled) {
        if (config.metrics) {
            auto &m = *config.metrics;
            m.gauge("methodology/links")
                .set(static_cast<double>(best.design.totalLinks()));
            m.gauge("methodology/switches")
                .set(static_cast<double>(best.design.numSwitches));
            m.gauge("methodology/constraints_met")
                .set(best.constraintsMet ? 1.0 : 0.0);
            m.gauge("methodology/rounds")
                .set(static_cast<double>(best.rounds));
            m.gauge("methodology/violations")
                .set(static_cast<double>(best.violations.size()));
            m.counter("methodology/moves_evaluated")
                .add(best.movesEvaluated);
            // Wall time is inherently run-dependent: flagged as timing
            // so the default JSON dump stays byte-reproducible.
            m.gauge("methodology/time/restarts_us", true)
                .set(static_cast<double>(obs::wallMicros() -
                                         restartsStart));
        }
    }
    return best;
}

DesignOutcome
runMethodology(const CliqueSet &cliques, const MethodologyConfig &config)
{
    auto pool = makePool(config.threads, std::max(1u, config.restarts));
    DesignOutcome outcome = runMethodology(cliques, config, pool.get());
    // Joining the restart threads is part of the run's wall time.
    const auto joinStart = obs::spanStart(config.traceLog);
    pool.reset();
    obs::spanEnd(config.traceLog, obs::kPidMethodology, "pool_join", 0,
                 joinStart);
    return outcome;
}

} // namespace minnoc::core
