/**
 * @file
 * minnoc command-line tool: generate traces, analyze patterns, design
 * networks, and simulate — the whole methodology pipeline from a
 * shell.
 *
 *   minnoc gen --bench CG --ranks 16 [--iterations 3] --out cg.trace
 *   minnoc analyze cg.trace
 *   minnoc design cg.trace [--max-degree 5] --out cg.design
 *   minnoc show cg.design
 *   minnoc simulate cg.trace --network mesh|torus|crossbar|cg.design
 *   minnoc explore cg.trace [--degrees 4,5,6] [--out report.json]
 *   minnoc compare cg.trace            (all four networks, one table)
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "coh/coherence.hpp"
#include "core/design_io.hpp"
#include "dist/coordinator.hpp"
#include "dse/explorer.hpp"
#include "obs/metrics.hpp"
#include "obs/sim_observer.hpp"
#include "obs/trace_event.hpp"
#include "phase/evaluator.hpp"
#include "topo/dot.hpp"
#include "core/methodology.hpp"
#include "sim/fault.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "topo/floorplan.hpp"
#include "topo/power.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "trace/scale_patterns.hpp"
#include "trace/synthetic.hpp"
#include "serve/server.hpp"
#include "util/cancel.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace minnoc;
using cli::Args;

namespace {

/**
 * Ctrl-C plumbing for the long-running commands: the handler fires a
 * shared CancelToken (one relaxed store, async-signal-safe), the
 * pipeline unwinds at its next checkpoint with CancelledError, and the
 * command wrapper turns that into one clean line + exit 130 instead of
 * a half-written artifact or a hard kill.
 */
CancelToken gCliToken;

extern "C" void
onCliSignal(int)
{
    gCliToken.cancel(CancelReason::Shutdown);
}

void
installCliCancel()
{
    std::signal(SIGINT, onCliSignal);
    std::signal(SIGTERM, onCliSignal);
}

/** The serve daemon the signal handler asks to drain. */
serve::Server *gServer = nullptr;

extern "C" void
onServeSignal(int)
{
    if (gServer)
        gServer->requestStop(); // async-signal-safe
}

trace::Trace
loadTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '", path, "'");
    return trace::Trace::load(in);
}

core::FinalizedDesign
loadDesignFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open design file '", path, "'");
    return core::loadDesign(in);
}

void
writeFileOrDie(const std::string &path, const std::string &content)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write '", path, "'");
    os << content;
}

/**
 * Honor the shared observability flags: dump the metrics registry to
 * --metrics-out (deterministic content, timing metrics excluded) and
 * the trace-event log to --chrome-trace (open in Perfetto /
 * chrome://tracing).
 */
void
exportObservability(const Args &args, const obs::MetricsRegistry &metrics,
                    const obs::TraceEventLog &traceLog)
{
    const auto metricsOut = args.get("metrics-out");
    if (!metricsOut.empty()) {
        writeFileOrDie(metricsOut, metrics.toJson());
        std::printf("wrote %s\n", metricsOut.c_str());
    }
    const auto traceOut = args.get("chrome-trace");
    if (!traceOut.empty()) {
        writeFileOrDie(traceOut, traceLog.toJson());
        std::printf("wrote %s (open in Perfetto or chrome://tracing)\n",
                    traceOut.c_str());
    }
}

/**
 * Per-worker accounting of a distributed run: --dist-report FILE gets
 * the status JSON (including the `worker_failed` array), and the human
 * stream gets one line per worker slot plus any failures.
 */
void
reportDistRun(const Args &args, const dist::DistStats &stats,
              const char *task, std::FILE *human)
{
    const auto out = args.get("dist-report");
    if (!out.empty()) {
        writeFileOrDie(out, stats.toJson(task));
        std::fprintf(human, "wrote %s\n", out.c_str());
    }
    for (std::uint32_t w = 0; w < stats.workers; ++w) {
        const bool isHost =
            w < stats.hostOf.size() && !stats.hostOf[w].empty();
        std::fprintf(
            human,
            "%s %s: %llu job(s), %llu cache hit(s), %.1f ms busy\n",
            isHost ? "host" : "worker",
            isHost ? stats.hostOf[w].c_str()
                   : std::to_string(w).c_str(),
            static_cast<unsigned long long>(stats.jobs[w]),
            static_cast<unsigned long long>(stats.cacheHits[w]),
            static_cast<double>(stats.wallUsSum[w]) / 1000.0);
    }
    for (const auto &f : stats.failures) {
        if (f.host.empty())
            std::fprintf(human,
                         "worker %u FAILED (%s), %zu job(s) requeued\n",
                         f.worker, f.reason.c_str(),
                         f.requeuedJobs.size());
        else
            std::fprintf(human,
                         "host %s FAILED (%s), %zu job(s) requeued\n",
                         f.host.c_str(), f.reason.c_str(),
                         f.requeuedJobs.size());
    }
}

/** Parse a comma-separated synthetic-pattern list ("neighbor,transpose"). */
std::vector<trace::Pattern>
parsePatternList(const std::string &spec)
{
    std::vector<trace::Pattern> patterns;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ','))
        patterns.push_back(trace::patternFromName(item));
    if (patterns.empty())
        fatal("flag --patterns: expected a comma-separated pattern list");
    return patterns;
}

/**
 * --workers/--hosts/--worker-timeout-ms of explore and phases; nullopt
 * for an in-process run. The timeout must be positive and its value
 * in microseconds must fit in int64.
 */
std::optional<dist::DistOptions>
distOptionsFromArgs(const Args &args)
{
    constexpr std::uint64_t kMaxTimeoutMs =
        std::numeric_limits<std::int64_t>::max() / 1000;
    const auto timeoutMs = args.getU64("worker-timeout-ms", 600'000);
    if (timeoutMs == 0 || timeoutMs > kMaxTimeoutMs)
        fatal("flag --worker-timeout-ms: expected 1..", kMaxTimeoutMs,
              ", got ", timeoutMs);
    dist::DistOptions dopt;
    dopt.workers = args.getU32("workers", 0);
    dopt.hosts = dist::parseHostList(args.get("hosts"));
    dopt.workerTimeoutMs = static_cast<std::int64_t>(timeoutMs);
    if (dopt.workers == 0 && dopt.hosts.empty())
        return std::nullopt;
    return dopt;
}

/** The selected `--power` accounting tier (default: static). */
topo::PowerModel
powerFromArgs(const Args &args)
{
    topo::PowerModel model;
    const auto name = args.get("power", "static");
    const auto kind = topo::powerModelKindFromName(name);
    if (!kind)
        fatal("flag --power: expected 'static' or 'activity', got '",
              name, "'");
    model.kind = *kind;
    return model;
}

trace::Trace
genCoherence(const Args &args)
{
    coh::CoherenceConfig cfg;
    cfg.ranks = args.getU32("ranks", cfg.ranks);
    cfg.blocks = args.getU32("blocks", cfg.blocks);
    cfg.maxSharers = args.getU32("sharers", cfg.maxSharers);
    cfg.rounds = args.getU32("iterations", cfg.rounds);
    cfg.opsPerRankPerRound =
        args.getU32("ops", cfg.opsPerRankPerRound);
    cfg.blockBytes = args.getU64("bytes", cfg.blockBytes);
    cfg.seed = args.getU64("seed", cfg.seed);
    cfg.computeCycles = static_cast<std::int64_t>(args.getU64(
        "compute", static_cast<std::uint64_t>(cfg.computeCycles)));
    const auto home = args.get("home");
    if (!home.empty()) {
        const auto map = coh::homeMapFromName(home);
        if (!map)
            fatal("flag --home: expected 'interleaved' or "
                  "'first-touch', got '",
                  home, "'");
        cfg.homeMap = *map;
    }
    const auto mixText = args.get("mix");
    if (!mixText.empty()) {
        std::string error;
        const auto mix = coh::parseMix(mixText, error);
        if (!mix)
            fatal("flag --mix: ", error);
        cfg.mix = *mix;
    }
    return coh::coherenceTrace(cfg);
}

trace::Trace
genTrace(const Args &args)
{
    // The three pattern families are mutually exclusive; silently
    // preferring one over another hides a typoed invocation.
    const bool wantScale = !args.get("scale-pattern").empty();
    const bool wantPatterns = !args.get("patterns").empty();
    const bool wantCoherence = args.getU32("coherence", 0) != 0;
    if (static_cast<int>(wantScale) + static_cast<int>(wantPatterns) +
            static_cast<int>(wantCoherence) >
        1) {
        fatal("gen: --patterns, --scale-pattern and --coherence are "
              "mutually exclusive; pick one pattern family");
    }
    // --coherence switches to the directory-coherence traffic
    // generator: seeded MSI protocol expansion over sharing classes.
    if (wantCoherence)
        return genCoherence(args);
    // --scale-pattern switches to the scale-curve pattern family
    // (ring/transpose/neighbor/rail plus the CommBench-style fan and
    // dense group-to-group generators), one bulk-synchronous epoch per
    // iteration.
    const auto scale = args.get("scale-pattern");
    if (!scale.empty()) {
        const auto ranks = args.getU32("ranks", 64);
        const auto groupSize = args.getU32("group-size", 8);
        const auto rails = args.getU32("rails", 2);
        const auto bytes = args.getU64("bytes", 1024);
        const auto iterations = args.getU32("iterations", 1);
        const auto ks =
            trace::makeScalePattern(scale, ranks, groupSize, rails);
        return trace::traceFromCliques(
            ks, scale + "-" + std::to_string(ranks), bytes, iterations);
    }
    // --patterns switches to the multi-phase synthetic generator: one
    // bulk-synchronous epoch per listed pattern.
    const auto patterns = args.get("patterns");
    if (!patterns.empty()) {
        trace::PhaseShiftConfig pcfg;
        pcfg.ranks = args.getU32("ranks", pcfg.ranks);
        pcfg.itersPerPhase = args.getU32("iterations", pcfg.itersPerPhase);
        pcfg.seed = args.getU64("seed", pcfg.seed);
        return trace::phaseShift(parsePatternList(patterns), pcfg);
    }
    trace::NasConfig cfg;
    const auto bench = trace::benchmarkFromName(args.get("bench", "CG"));
    cfg.ranks = args.getU32("ranks", trace::largeConfigRanks(bench));
    cfg.iterations = args.getU32("iterations", 3);
    cfg.seed = args.getU32("seed", 1);
    return trace::generateBenchmark(bench, cfg);
}

int
cmdGen(const Args &args)
{
    const auto tr = genTrace(args);

    const auto out = args.get("out");
    if (out.empty()) {
        tr.save(std::cout);
    } else {
        std::ofstream os(out);
        if (!os)
            fatal("cannot write '", out, "'");
        tr.save(os);
        std::printf("wrote %s: %u ranks, %zu messages\n", out.c_str(),
                    tr.numRanks(), tr.numSends());
    }
    return 0;
}

int
cmdAnalyze(const Args &args)
{
    if (args.positional.empty())
        fatal("analyze: missing trace file");
    const auto tr = loadTrace(args.positional[0]);
    auto ks = trace::analyzeByCall(tr);
    const auto removed = ks.reduceToMaximum();
    std::printf("trace '%s': %u ranks, %zu messages, %u call sites\n",
                tr.name().c_str(), tr.numRanks(), tr.numSends(),
                tr.numCalls());
    std::printf("%zu contention periods (%zu dominated removed), %zu "
                "distinct comms, largest period %zu\n",
                ks.numCliques(), removed, ks.numComms(),
                ks.maxCliqueSize());
    if (args.get("verbose") == "1")
        std::printf("%s", ks.toString().c_str());
    return 0;
}

int
cmdDesign(const Args &args)
{
    if (args.positional.empty())
        fatal("design: missing trace file");
    const auto tr = loadTrace(args.positional[0]);
    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree =
        args.getU32("max-degree", 5);
    mcfg.restarts = args.getU32("restarts", 16);
    mcfg.partitioner.seed = args.getU32("seed", 1);
    mcfg.threads = args.getU32("threads", 0);
    mcfg.partitioner.hierarchicalThreshold =
        args.getU32("hier-threshold", 64);
    mcfg.partitioner.hierarchicalLeaf = args.getU32("hier-leaf", 8);

    obs::MetricsRegistry metrics;
    obs::TraceEventLog traceLog;
    if (args.has("metrics-out"))
        mcfg.metrics = &metrics;
    if (args.has("chrome-trace"))
        mcfg.traceLog = &traceLog;

    const auto outcome =
        core::runMethodology(trace::analyzeByCall(tr), mcfg);
    exportObservability(args, metrics, traceLog);
    std::printf("design: %s\n", outcome.summary().c_str());
    if (!outcome.violations.empty()) {
        warn("design is NOT contention-free (", outcome.violations.size(),
             " residual pairs)");
    }

    const auto out = args.get("out");
    if (out.empty()) {
        core::saveDesign(outcome.design, std::cout);
    } else {
        std::ofstream os(out);
        if (!os)
            fatal("cannot write '", out, "'");
        core::saveDesign(outcome.design, os);
        std::printf("wrote %s\n", out.c_str());
    }
    return outcome.constraintsMet && outcome.violations.empty() ? 0 : 2;
}

int
cmdShow(const Args &args)
{
    if (args.positional.empty())
        fatal("show: missing design file");
    const auto design = loadDesignFile(args.positional[0]);
    std::printf("%s", design.toString().c_str());
    const auto plan = topo::planFloor(design);
    const auto [meshSw, meshLk] = topo::meshAreas(design.numProcs);
    std::printf("floorplanned areas: switch %u (mesh %u), link %u "
                "(mesh %u)\n",
                plan.switchArea, meshSw,
                plan.linkArea + plan.procLinkArea, meshLk);
    return 0;
}

topo::BuiltNetwork
buildNamedNetwork(const std::string &name, std::uint32_t ranks)
{
    if (name == "mesh")
        return topo::buildMesh(ranks);
    if (name == "torus")
        return topo::buildTorus(ranks);
    if (name == "crossbar")
        return topo::buildCrossbar(ranks);
    // Otherwise: a design file.
    const auto design = loadDesignFile(name);
    if (design.numProcs != ranks)
        fatal("design '", name, "' is for ", design.numProcs,
              " procs but the trace has ", ranks);
    const auto plan = topo::planFloor(design);
    return topo::buildFromDesign(design, plan);
}

void
printResult(const char *name, const topo::BuiltNetwork &net,
            const sim::SimResult &res, bool faulty,
            const topo::PowerModel &power = {})
{
    const auto energy = topo::computeEnergy(
        *net.topo, res.linkFlits, res.execTime, res.activity, power);
    std::printf("%-10s exec=%lld comm=%.0f lat=%.1f hops=%.2f "
                "util(max)=%.3f energy=%.0f deadlocks=%u\n",
                name, static_cast<long long>(res.execTime),
                res.commTimeMean(), res.avgPacketLatency,
                res.avgPacketHops, res.maxLinkUtilization,
                energy.total(), res.deadlockRecoveries);
    if (faulty) {
        std::printf("           faults: failed_links=%u "
                    "disconnected_pairs=%u corrupted_flits=%llu "
                    "retransmissions=%llu dropped=%llu recvs_lost=%llu "
                    "delivered_fraction=%.4f latency_inflation=%.3f\n",
                    res.failedLinks, res.disconnectedPairs,
                    static_cast<unsigned long long>(res.corruptedFlits),
                    static_cast<unsigned long long>(res.retransmissions),
                    static_cast<unsigned long long>(res.packetsDropped),
                    static_cast<unsigned long long>(res.recvsLost),
                    res.deliveredFraction, res.latencyInflation);
        for (const auto &[s, d] : res.undeliverableChannels)
            std::printf("           undeliverable channel: %u -> %u\n", s,
                        d);
    }
}

void
printRun(const char *name, const trace::Trace &tr,
         const topo::BuiltNetwork &net, const topo::PowerModel &power)
{
    printResult(name, net, sim::runTrace(tr, *net.topo, *net.routing),
                false, power);
}

/** Parse a comma-separated link-id list ("3,17,42"). */
std::vector<topo::LinkId>
parseLinkList(const std::string &spec)
{
    std::vector<topo::LinkId> ids;
    if (spec.empty())
        return ids;
    for (const auto v :
         cli::parseU32List("flag --fail-link-ids", spec))
        ids.push_back(static_cast<topo::LinkId>(v));
    return ids;
}

int
cmdSimulate(const Args &args)
{
    if (args.positional.empty())
        fatal("simulate: missing trace file");
    const auto tr = loadTrace(args.positional[0]);
    const auto name = args.get("network", "mesh");
    const auto net = buildNamedNetwork(name, tr.numRanks());

    sim::SimConfig scfg;
    scfg.maxRecoveries = args.getU32("max-recoveries", scfg.maxRecoveries);
    installCliCancel();
    scfg.cancel = &gCliToken;

    sim::FaultConfig fcfg;
    fcfg.randomFailLinks = args.getU32("fail-links", 0);
    fcfg.failLinks = parseLinkList(args.get("fail-link-ids"));
    fcfg.flitErrorRate = args.getDouble("flit-error-rate", 0.0);
    fcfg.seed = args.getU64("fault-seed", 1);
    fcfg.failAtCycle = static_cast<sim::Cycle>(args.getU64("fail-at", 0));
    fcfg.maxRetransmits =
        args.getU32("max-retransmits", fcfg.maxRetransmits);

    const bool faulty = fcfg.randomFailLinks > 0 ||
                        !fcfg.failLinks.empty() ||
                        fcfg.flitErrorRate > 0.0;

    const bool observe =
        args.has("metrics-out") || args.has("chrome-trace");
    obs::SimObserver observer;
    obs::SimObserver *op = observe ? &observer : nullptr;
    sim::SimResult res;
    try {
        res = faulty
                  ? sim::runTrace(tr, *net.topo, *net.routing, scfg,
                                  fcfg, op)
                  : sim::runTrace(tr, *net.topo, *net.routing, scfg,
                                  op);
    } catch (const CancelledError &) {
        std::fprintf(stderr, "simulate: interrupted, no results\n");
        return 130;
    }
    if (observe) {
        obs::MetricsRegistry metrics;
        obs::TraceEventLog traceLog;
        observer.exportTo(metrics);
        observer.exportTrace(traceLog);
        exportObservability(args, metrics, traceLog);
    }
    printResult(name.c_str(), net, res, faulty, powerFromArgs(args));
    return 0;
}

int
cmdDot(const Args &args)
{
    if (args.positional.empty())
        fatal("dot: missing design file");
    const auto design = loadDesignFile(args.positional[0]);
    const auto out = args.get("out");
    if (out.empty()) {
        topo::writeDesignDot(design, std::cout);
    } else {
        std::ofstream os(out);
        if (!os)
            fatal("cannot write '", out, "'");
        topo::writeDesignDot(design, os);
        std::printf("wrote %s (render with: dot -Tpng -O %s)\n",
                    out.c_str(), out.c_str());
    }
    return 0;
}

int
cmdCompare(const Args &args)
{
    if (args.positional.empty())
        fatal("compare: missing trace file");
    const auto tr = loadTrace(args.positional[0]);

    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree =
        args.getU32("max-degree", 5);
    mcfg.threads = args.getU32("threads", 0);
    const auto outcome =
        core::runMethodology(trace::analyzeByCall(tr), mcfg);
    const auto plan = topo::planFloor(outcome.design);
    const auto generated = topo::buildFromDesign(outcome.design, plan);

    const auto power = powerFromArgs(args);
    printRun("crossbar", tr, topo::buildCrossbar(tr.numRanks()), power);
    printRun("mesh", tr, topo::buildMesh(tr.numRanks()), power);
    printRun("torus", tr, topo::buildTorus(tr.numRanks()), power);
    printRun("generated", tr, generated, power);
    return 0;
}

int
cmdExplore(const Args &args)
{
    if (args.positional.empty())
        fatal("explore: missing trace file");
    const auto tr = loadTrace(args.positional[0]);

    dse::ExploreConfig cfg;
    cfg.grid.maxDegrees = args.getU32List("degrees", cfg.grid.maxDegrees);
    cfg.grid.restarts = args.getU32List("restarts", cfg.grid.restarts);
    cfg.grid.seeds = args.getU64List("seeds", cfg.grid.seeds);
    cfg.grid.vcs = args.getU32List("vcs", cfg.grid.vcs);
    cfg.grid.unidirectional =
        args.getU32List("unidirectional", cfg.grid.unidirectional);
    for (const auto u : cfg.grid.unidirectional) {
        if (u > 1)
            fatal("flag --unidirectional: values must be 0 or 1, got ",
                  u);
    }
    cfg.grid.vcDepth = args.getU32("vc-depth", cfg.grid.vcDepth);
    cfg.grid.phaseWindows =
        args.getU32List("phase-windows", cfg.grid.phaseWindows);
    cfg.phaseReconfigCost = static_cast<sim::Cycle>(args.getU64(
        "reconfig-cost",
        static_cast<std::uint64_t>(cfg.phaseReconfigCost)));
    cfg.threads = args.getU32("threads", 0);
    cfg.cacheDir = args.get("cache-dir");
    cfg.useCache = args.getU32("cache", 1) != 0;
    cfg.power = powerFromArgs(args);

    obs::MetricsRegistry metrics;
    obs::TraceEventLog traceLog;
    if (args.has("metrics-out"))
        cfg.metrics = &metrics;
    if (args.has("chrome-trace"))
        cfg.traceLog = &traceLog;

    installCliCancel();
    cfg.cancel = &gCliToken;

    // --workers N forks N lanes sharing the disk cache; --hosts adds
    // remote `minnoc serve` daemons as extra lanes. Any mix yields a
    // report byte-identical to the in-process sweep.
    const auto dopt = distOptionsFromArgs(args);
    dist::DistStats distStats;
    dse::ExploreReport report;
    try {
        report = dopt ? dist::exploreDistributed(tr, cfg, *dopt, &distStats)
                      : dse::explore(tr, cfg);
    } catch (const CancelledError &) {
        std::fprintf(stderr,
                     "explore: interrupted, partial sweep discarded "
                     "(finished jobs stay cached)\n");
        return 130;
    } catch (const std::runtime_error &e) {
        // A shard that failed twice: no report, finished jobs cached.
        std::fprintf(stderr, "explore: %s, no report written\n",
                     e.what());
        return 1;
    }
    exportObservability(args, metrics, traceLog);
    const auto json = report.toJson();

    // JSON is the machine artifact; keep the human summary off its
    // stream so `minnoc explore t | jq .` stays parseable.
    const auto out = args.get("out");
    std::FILE *human = stdout;
    if (out.empty()) {
        std::fputs(json.c_str(), stdout);
        human = stderr;
    } else {
        std::ofstream os(out);
        if (!os)
            fatal("cannot write '", out, "'");
        os << json;
        std::fprintf(human, "wrote %s\n", out.c_str());
    }
    std::fprintf(human, "explored %s-%u: %zu points, %zu on frontier\n",
                 report.pattern.c_str(), report.ranks,
                 report.points.size(), report.frontier.size());
    std::fputs(report.summaryTable().c_str(), human);
    const auto total = report.cacheHits + report.cacheMisses;
    std::fprintf(human,
                 "cache: %zu hits, %zu misses over %zu points "
                 "(%.1f%% hit rate)\n",
                 report.cacheHits, report.cacheMisses, total,
                 total ? 100.0 * static_cast<double>(report.cacheHits) /
                             static_cast<double>(total)
                       : 0.0);
    if (dopt)
        reportDistRun(args, distStats, "explore", human);
    return 0;
}

int
cmdPhases(const Args &args)
{
    if (args.positional.empty())
        fatal("phases: missing trace file");
    const auto tr = loadTrace(args.positional[0]);

    phase::PhaseEvalConfig cfg;
    cfg.segmenter.windowMessages =
        args.getU32("window", cfg.segmenter.windowMessages);
    cfg.segmenter.mergeThreshold =
        args.getDouble("threshold", cfg.segmenter.mergeThreshold);
    cfg.segmenter.minPhaseWindows =
        args.getU32("min-phase-windows", cfg.segmenter.minPhaseWindows);
    cfg.reconfigCost = static_cast<sim::Cycle>(
        args.getU64("reconfig-cost",
                    static_cast<std::uint64_t>(cfg.reconfigCost)));
    cfg.methodology.partitioner.constraints.maxDegree =
        args.getU32("max-degree", 5);
    cfg.methodology.restarts = args.getU32("restarts", 16);
    cfg.methodology.partitioner.seed = args.getU32("seed", 1);
    cfg.threads = args.getU32("threads", 0);
    cfg.power = powerFromArgs(args);

    obs::MetricsRegistry metrics;
    obs::TraceEventLog traceLog;
    if (args.has("metrics-out"))
        cfg.metrics = &metrics;
    if (args.has("chrome-trace"))
        cfg.traceLog = &traceLog;

    installCliCancel();
    cfg.methodology.cancel = &gCliToken;
    cfg.sim.cancel = &gCliToken;

    // --workers N farms the per-phase standalone syntheses out to
    // forked lanes; --hosts adds remote `minnoc serve` daemons as
    // extra lanes. The merged report is byte-identical to the
    // in-process evaluation.
    const auto dopt = distOptionsFromArgs(args);
    dist::DistStats distStats;
    phase::PhaseReport report;
    try {
        report = dopt ? dist::evaluatePhasesDistributed(tr, cfg, *dopt,
                                                        &distStats)
                      : phase::evaluatePhases(tr, cfg);
    } catch (const CancelledError &) {
        std::fprintf(stderr,
                     "phases: interrupted, no report written\n");
        return 130;
    } catch (const std::runtime_error &e) {
        std::fprintf(stderr, "phases: %s, no report written\n",
                     e.what());
        return 1;
    }
    exportObservability(args, metrics, traceLog);
    const auto json = report.toJson();

    // JSON is the machine artifact; keep the human summary off its
    // stream so `minnoc phases t | jq .` stays parseable.
    const auto out = args.get("out");
    std::FILE *human = stdout;
    if (out.empty()) {
        std::fputs(json.c_str(), stdout);
        human = stderr;
    } else {
        writeFileOrDie(out, json);
        std::fprintf(human, "wrote %s\n", out.c_str());
    }
    std::fprintf(human, "phases %s-%u:\n", report.pattern.c_str(),
                 report.ranks);
    std::fputs(report.summaryTable().c_str(), human);
    if (dopt)
        reportDistRun(args, distStats, "phases", human);
    std::size_t unionViolations = 0;
    for (const auto v : report.unionPhaseViolations)
        unionViolations += v;
    if (unionViolations)
        warn("union design is NOT contention-free against the phase "
             "cliques (",
             unionViolations, " residual pairs)");
    return 0;
}

int
cmdServe(const Args &args)
{
    serve::ServerConfig cfg;
    cfg.socketPath = args.get("socket");
    if (args.has("port"))
        cfg.port = static_cast<int>(args.getU32("port", 0));
    if (cfg.socketPath.empty() && cfg.port < 0)
        fatal("serve: need --socket PATH or --port N");
    cfg.workers = args.getU32("workers", cfg.workers);
    cfg.queueCapacity = args.getU32(
        "queue", static_cast<std::uint32_t>(cfg.queueCapacity));
    cfg.defaultDeadlineMs = static_cast<std::int64_t>(args.getU64(
        "deadline-ms",
        static_cast<std::uint64_t>(cfg.defaultDeadlineMs)));
    cfg.maxDeadlineMs = static_cast<std::int64_t>(args.getU64(
        "max-deadline-ms",
        static_cast<std::uint64_t>(cfg.maxDeadlineMs)));
    cfg.drainMs = static_cast<std::int64_t>(args.getU64(
        "drain-ms", static_cast<std::uint64_t>(cfg.drainMs)));
    cfg.idleTimeoutMs = static_cast<std::int64_t>(args.getU64(
        "idle-timeout-ms",
        static_cast<std::uint64_t>(cfg.idleTimeoutMs)));
    cfg.lruCapacity = args.getU32(
        "lru", static_cast<std::uint32_t>(cfg.lruCapacity));
    cfg.cacheDir = args.get("cache-dir");
    cfg.useCache = args.getU32("cache", 1) != 0;
    cfg.innerThreads = args.getU32("threads", 0);
    cfg.metricsOut = args.get("metrics-out");

    const auto server = std::make_unique<serve::Server>(cfg);
    std::string error;
    if (!server->start(error))
        fatal("serve: ", error);
    gServer = server.get();
    std::signal(SIGINT, onServeSignal);
    std::signal(SIGTERM, onServeSignal);
    // Never SIGPIPE on a vanished client (send already uses
    // MSG_NOSIGNAL; this covers any stray stdio on a closed pipe).
    std::signal(SIGPIPE, SIG_IGN);

    if (!cfg.socketPath.empty())
        std::fprintf(stderr, "serving on unix socket %s\n",
                     cfg.socketPath.c_str());
    else
        std::fprintf(stderr, "serving on 127.0.0.1:%d\n",
                     server->boundPort());
    server->serveForever();
    gServer = nullptr;
    std::fprintf(stderr, "serve: drained and stopped\n");
    return 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: minnoc <command> [args]   (flags accept --k v and --k=v)\n"
        "  gen      --bench BT|CG|FFT|MG|SP --ranks N [--iterations I]\n"
        "           [--seed S] [--out FILE]\n"
        "           [--patterns neighbor,transpose,hotspot]\n"
        "           (--patterns generates a multi-phase synthetic\n"
        "           workload instead: one epoch per listed pattern)\n"
        "           [--scale-pattern ring|transpose|neighbor|rail|\n"
        "            fan_uni|fan_bi|fan_omni|dense_uni|dense_bi|\n"
        "            dense_omni] [--group-size G] [--rails R]\n"
        "           [--bytes B]\n"
        "           (CommBench-style single-pattern trace at scale;\n"
        "           fan/dense are group-to-group collectives)\n"
        "           [--coherence 1] [--blocks B] [--sharers S]\n"
        "           [--mix private:0.4,read_shared:0.3,...]\n"
        "           [--home interleaved|first-touch] [--ops O]\n"
        "           [--compute C]\n"
        "           (--coherence generates sparse-directory MSI\n"
        "           traffic instead: GetS/GetX, invalidation fan-out,\n"
        "           acks and writebacks over seeded sharing classes;\n"
        "           the three pattern families are mutually\n"
        "           exclusive)\n"
        "  analyze  TRACE [--verbose 1]\n"
        "  design   TRACE [--max-degree D] [--restarts R] [--out FILE]\n"
        "           [--threads N]  (0 = hardware concurrency; any N\n"
        "           yields the same design)\n"
        "           [--hier-threshold N] [--hier-leaf L]\n"
        "           (above N ranks the scalable hierarchical\n"
        "           partitioner engages; 0 forces the flat paper path)\n"
        "           [--metrics-out FILE] [--chrome-trace FILE]\n"
        "  show     DESIGN\n"
        "  simulate TRACE --network mesh|torus|crossbar|DESIGN\n"
        "           [--fail-links N] [--fail-link-ids 3,17]\n"
        "           [--fail-at CYCLE] [--flit-error-rate P]\n"
        "           [--fault-seed S] [--max-retransmits R]\n"
        "           [--max-recoveries R]\n"
        "           [--power static|activity]\n"
        "           [--metrics-out FILE] [--chrome-trace FILE]\n"
        "           (metrics-out: deterministic JSON telemetry dump;\n"
        "           chrome-trace: Perfetto-loadable timeline;\n"
        "           power: static per-hop model or activity-based\n"
        "           per-event accounting)\n"
        "  compare  TRACE [--max-degree D] [--power static|activity]\n"
        "  explore  TRACE [--degrees 4,5,6] [--restarts 8]\n"
        "           [--seeds 1] [--vcs 2,3] [--unidirectional 0,1]\n"
        "           [--vc-depth D] [--phase-windows 0,64]\n"
        "           [--reconfig-cost C] [--threads N] [--cache-dir DIR]\n"
        "           [--cache 0|1] [--power static|activity] [--out FILE]\n"
        "           [--metrics-out FILE] [--chrome-trace FILE]\n"
        "           [--workers N] [--hosts HOST:PORT,...]\n"
        "           [--worker-timeout-ms MS] [--dist-report FILE]\n"
        "           (design-space sweep -> Pareto frontier JSON;\n"
        "           results are content-cached and byte-identical at\n"
        "           any --threads value; phase-windows 0 = classic\n"
        "           pipeline, N = time-multiplexed phase networks;\n"
        "           workers N forks N processes sharing the disk\n"
        "           cache -- same bytes as --workers 0; hosts adds\n"
        "           remote `minnoc serve` daemons as job backends,\n"
        "           same bytes at any host/worker mix)\n"
        "  phases   TRACE [--window N] [--threshold T]\n"
        "           [--min-phase-windows W] [--reconfig-cost C]\n"
        "           [--max-degree D] [--restarts R] [--seed S]\n"
        "           [--threads N] [--power static|activity] [--out FILE]\n"
        "           [--metrics-out FILE] [--chrome-trace FILE]\n"
        "           [--workers N] [--hosts HOST:PORT,...]\n"
        "           [--worker-timeout-ms MS] [--dist-report FILE]\n"
        "           (segment the trace into temporal phases and compare\n"
        "           monolithic vs union vs time-multiplexed designs;\n"
        "           the JSON report is byte-identical at any --threads\n"
        "           and at any --workers/--hosts mix)\n"
        "  serve    --socket PATH | --port N   (0 = ephemeral port)\n"
        "           [--workers W] [--queue Q] [--deadline-ms D]\n"
        "           [--max-deadline-ms M] [--drain-ms MS]\n"
        "           [--idle-timeout-ms MS] [--lru N] [--cache-dir DIR]\n"
        "           [--cache 0|1] [--threads T] [--metrics-out FILE]\n"
        "           (synthesis-as-a-service daemon: newline-delimited\n"
        "           JSON requests, bounded queue with queue_full\n"
        "           backpressure, per-request deadlines, two-tier\n"
        "           response cache; SIGTERM/SIGINT drains gracefully)\n"
        "  dot      DESIGN [--out FILE]        (graphviz export)\n");
}

/** Valid flags per subcommand (anything else is an error). */
const std::map<std::string, std::vector<std::string>> kCommandFlags = {
    {"gen",
     {"bench", "ranks", "iterations", "seed", "out", "patterns",
      "scale-pattern", "group-size", "rails", "bytes", "coherence",
      "blocks", "sharers", "mix", "home", "ops", "compute"}},
    {"analyze", {"verbose"}},
    {"design",
     {"max-degree", "restarts", "seed", "out", "threads",
      "hier-threshold", "hier-leaf", "metrics-out", "chrome-trace"}},
    {"show", {}},
    {"simulate",
     {"network", "fail-links", "fail-link-ids", "fail-at",
      "flit-error-rate", "fault-seed", "max-retransmits",
      "max-recoveries", "power", "metrics-out",
      "chrome-trace"}},
    {"compare", {"max-degree", "threads", "power"}},
    {"explore",
     {"degrees", "restarts", "seeds", "vcs", "unidirectional",
      "vc-depth", "phase-windows", "reconfig-cost", "threads",
      "cache-dir", "cache", "power", "out", "metrics-out",
      "chrome-trace", "workers", "hosts", "worker-timeout-ms",
      "dist-report"}},
    {"phases",
     {"window", "threshold", "min-phase-windows", "reconfig-cost",
      "max-degree", "restarts", "seed", "threads", "power", "out",
      "metrics-out", "chrome-trace", "workers", "hosts",
      "worker-timeout-ms", "dist-report"}},
    {"serve",
     {"socket", "port", "workers", "queue", "deadline-ms",
      "max-deadline-ms", "drain-ms", "idle-timeout-ms", "lru",
      "cache-dir", "cache", "threads", "metrics-out"}},
    {"dot", {"out"}},
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    const auto flagsIt = kCommandFlags.find(cmd);
    if (flagsIt == kCommandFlags.end()) {
        usage();
        return 1;
    }
    const Args args = Args::parse(argc, argv, 2, flagsIt->second);
    if (cmd == "gen")
        return cmdGen(args);
    if (cmd == "analyze")
        return cmdAnalyze(args);
    if (cmd == "design")
        return cmdDesign(args);
    if (cmd == "show")
        return cmdShow(args);
    if (cmd == "simulate")
        return cmdSimulate(args);
    if (cmd == "compare")
        return cmdCompare(args);
    if (cmd == "explore")
        return cmdExplore(args);
    if (cmd == "phases")
        return cmdPhases(args);
    if (cmd == "serve")
        return cmdServe(args);
    return cmdDot(args);
}
