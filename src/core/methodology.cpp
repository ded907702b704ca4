#include "methodology.hpp"

#include <optional>
#include <sstream>
#include <thread>

#include "route_optimizer.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace minnoc::core {

std::string
MethodologyConfig::signature() const
{
    const auto &p = partitioner;
    std::ostringstream oss;
    oss << "deg=" << p.constraints.maxDegree
        << ";pps=" << p.constraints.maxProcsPerSwitch
        << ";seed=" << p.seed << ";imb=" << p.maxImbalance
        << ";splits=" << p.maxSplits << ";mps=" << p.maxMovesPerSplit
        << ";anneal=" << p.anneal << ";t0=" << p.annealT0
        << ";alpha=" << p.annealAlpha << ";mpl=" << p.annealMovesPerLevel
        << ";opt=" << p.optimizeRoutes << ";cons=" << p.consolidate
        << ";cp=" << p.consolidatePasses
        << ";ucost=" << p.unidirectionalCost
        << ";budget=" << finalize.exactNodeBudget
        << ";uni=" << finalize.unidirectional << ";rounds=" << maxRounds
        << ";reduce=" << reduceCliques << ";restarts=" << restarts
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
    PartitionerConfig pcfg = config.partitioner;
    pcfg.seed = seed;
    if (config.finalize.unidirectional)
        pcfg.unidirectionalCost = true;
    Rng rng(seed);

    for (std::uint32_t round = 0; round < config.maxRounds; ++round) {
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
                    net, pcfg.consolidatePasses,
                    pcfg.constraints.maxDegree, &rng,
                    pcfg.unidirectionalCost);
                if (!swapped && cs.committedMoves == 0)
                    break;
                auto polished = finalizeDesign(net, config.finalize);
                const auto measure = [](const FinalizedDesign &d) {
                    return d.unidirectional ? d.totalChannels()
                                            : 2 * d.totalLinks();
                };
                if (exactViolators(polished, pcfg.constraints).empty() &&
                    measure(polished) < measure(outcome.design) &&
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

/** Estimate-level constraint violations (mirror of the partitioner's). */
bool
estimatesSatisfied(const DesignNetwork &net, const DesignConstraints &dc)
{
    for (SwitchId s = 0; s < net.numSwitches(); ++s) {
        const auto procs =
            static_cast<std::uint32_t>(net.procsOf(s).size());
        if (!dc.satisfied(net.estimatedDegree(s), procs))
            return false;
    }
    return true;
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
              const PartitionerConfig &pcfg, Rng &rng)
{
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

                ++candidates;
                DesignNetwork snapshot = net;
                const std::vector<ProcId> procs = net.procsOf(t);
                for (const ProcId p : procs)
                    net.moveProc(p, s);
                consolidateRoutes(net, pcfg.consolidatePasses,
                                  dc.maxDegree, &rng,
                                  pcfg.unidirectionalCost);
                if (estimatesSatisfied(net, dc)) {
                    auto merged = finalizeDesign(net, config.finalize);
                    const auto linkBudget =
                        (merged.unidirectional
                             ? outcome.design.totalChannels()
                             : 2 * outcome.design.totalLinks()) +
                        2;
                    const auto mergedLinks =
                        merged.unidirectional
                            ? merged.totalChannels()
                            : 2 * merged.totalLinks();
                    if (exactViolators(merged, dc).empty() &&
                        merged.numSwitches <
                            outcome.design.numSwitches &&
                        mergedLinks <= linkBudget &&
                        totalHops(merged) <= hopBudget &&
                        verifier.check(merged).empty()) {
                        outcome.design = std::move(merged);
                        ++accepted;
                        improved = true;
                        break;
                    }
                }
                net = std::move(snapshot);
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
    for (SwitchId s = 0; s < d.numSwitches; ++s) {
        const auto deg = d.switchDegree(s);
        if (deg > dc.maxDegree)
            total += deg - dc.maxDegree;
    }
    return total;
}

/**
 * Publish one consumed restart's telemetry: quality gauges plus the
 * annealing cost curve (estimated links after every recorded step).
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
    // Unidirectional designs compete on channel count; duplex designs
    // on full-duplex link count.
    const auto linksA = a.design.unidirectional
                            ? a.design.totalChannels()
                            : 2 * a.design.totalLinks();
    const auto linksB = b.design.unidirectional
                            ? b.design.totalChannels()
                            : 2 * b.design.totalLinks();
    if (linksA != linksB)
        return linksA < linksB;
    return a.design.numSwitches < b.design.numSwitches;
}

} // namespace

DesignOutcome
runMethodology(const CliqueSet &cliquesIn, const MethodologyConfig &config,
               ThreadPool *pool)
{
    // Work on a private copy so the (optional) maximum-clique reduction
    // does not mutate the caller's set.
    CliqueSet cliques = cliquesIn;
    if (config.reduceCliques)
        cliques.reduceToMaximum();
    // Restart workers share the clique set read-only; its lazy caches
    // (clique masks, contention index) must exist before they race.
    cliques.prepareCaches();

    const std::uint32_t attempts = std::max(1u, config.restarts);
    const std::uint32_t threads =
        pool ? std::min(pool->size(), attempts) : 1u;

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
        return best.constraintsMet && i + 1 >= std::min(attempts, 4u);
    };

    const std::int64_t restartsStart =
        config.traceLog || config.metrics ? obs::wallMicros() : 0;

    if (!pool) {
        for (std::uint32_t i = 0; i < attempts; ++i) {
            // Restart granularity is the cancellation checkpoint: a
            // fired token abandons the search before the next attempt.
            checkCancel(config.cancel);
            auto result =
                runOnce(cliques, config, config.partitioner.seed + i);
            if (select(result, i))
                break;
        }
    } else {
        // Waves of independent restarts; selection then replays the
        // wave in seed order and discards anything past the sequential
        // stopping point, so the winner matches threads = 1 exactly.
        bool done = false;
        for (std::uint32_t i = 0; i < attempts && !done;) {
            const std::uint32_t wave = std::min(threads, attempts - i);
            std::vector<std::optional<SeedResult>> results(wave);
            pool->parallelFor(wave, [&](std::size_t w) {
                // Same per-restart checkpoint as the sequential path;
                // parallelFor rethrows the first CancelledError after
                // every task of the wave has returned.
                checkCancel(config.cancel);
                results[w].emplace(runOnce(
                    cliques, config,
                    config.partitioner.seed + i +
                        static_cast<std::uint32_t>(w)));
            });
            for (std::uint32_t w = 0; w < wave && !done; ++w)
                done = select(*results[w], i + w);
            i += wave;
        }
    }
    best.restartsUsed = restartsUsed;
    if (!best.constraintsMet) {
        warn("methodology: no seed met the design constraints after ",
             attempts, " restarts; returning best effort");
    }
    if constexpr (obs::kEnabled) {
        if (config.traceLog) {
            config.traceLog->complete(
                "restarts", obs::kPidMethodology, 0, restartsStart,
                obs::wallMicros() - restartsStart);
        }
    }

    // Switch-merge polish on the winner (see mergeSwitches). Quadratic
    // in switches with a full consolidate + finalize per candidate, so
    // it is gated off in large-N mode.
    checkCancel(config.cancel);
    const bool big =
        config.partitioner.largeScale(cliques.numProcs());
    if (!big && best.constraintsMet && config.mergeSwitches && bestNet) {
        const std::int64_t mergeStart =
            config.traceLog ? obs::wallMicros() : 0;
        PartitionerConfig pcfg = config.partitioner;
        if (config.finalize.unidirectional)
            pcfg.unidirectionalCost = true;
        Rng rng(config.partitioner.seed ^ 0x5bd1e995);
        mergeSwitches(*bestNet, best, config, cliques, pcfg, rng);
        if constexpr (obs::kEnabled) {
            if (config.traceLog) {
                config.traceLog->complete(
                    "merge_switches", obs::kPidMethodology, 0,
                    mergeStart, obs::wallMicros() - mergeStart);
            }
        }
    }

    // Theorem-1 verification of the final design.
    const std::int64_t verifyStart =
        config.traceLog ? obs::wallMicros() : 0;
    best.violations = checkContentionFree(best.design, cliques);
    if constexpr (obs::kEnabled) {
        if (config.traceLog) {
            config.traceLog->processName(obs::kPidMethodology,
                                         "minnoc methodology");
            config.traceLog->complete("verify", obs::kPidMethodology, 0,
                                      verifyStart,
                                      obs::wallMicros() - verifyStart);
        }
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
    const std::uint32_t attempts = std::max(1u, config.restarts);
    std::uint32_t threads =
        config.threads ? config.threads
                       : std::thread::hardware_concurrency();
    threads = std::min(std::max(threads, 1u), attempts);

    std::optional<ThreadPool> pool;
    if (threads > 1)
        pool.emplace(threads);
    return runMethodology(cliques, config, pool ? &*pool : nullptr);
}

} // namespace minnoc::core
