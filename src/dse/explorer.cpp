#include "explorer.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

#include "core/methodology.hpp"
#include "pareto.hpp"
#include "phase/multi_design.hpp"
#include "sim/evaluate.hpp"
#include "trace/analyzer.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace minnoc::dse {

namespace {

/** The methodology configuration a job's parameter tuple selects. */
core::MethodologyConfig
methodologyConfigFor(const JobParams &params)
{
    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = params.maxDegree;
    mcfg.partitioner.seed = params.seed;
    mcfg.restarts = params.restarts;
    mcfg.finalize.unidirectional = params.unidirectional;
    // Jobs parallelize across the grid, not within a run; the
    // re-entrant runMethodology overload below ignores this anyway.
    mcfg.threads = 1;
    return mcfg;
}

/** The simulator configuration a job's parameter tuple selects. */
sim::SimConfig
simConfigFor(const JobParams &params, const ExploreConfig &config)
{
    sim::SimConfig scfg = config.sim;
    scfg.numVcs = params.numVcs;
    scfg.vcDepth = params.vcDepth;
    scfg.cancel = config.cancel;
    return scfg;
}

/** The segmenter a phase-window job's parameter tuple selects. */
phase::PhaseConfig
segmenterFor(const JobParams &params, const ExploreConfig &config)
{
    phase::PhaseConfig pcfg = config.phaseSegmenter;
    pcfg.windowMessages = params.phaseWindow;
    return pcfg;
}

/**
 * Fold one network's design and evaluation into @p m: maxima on the
 * provisioned-resource axes (a reconfigurable fabric must host the
 * largest phase network), sums on time and energy. The latency axes
 * are the caller's.
 */
void
foldNetwork(JobMetrics &m, const core::DesignOutcome &outcome,
            const sim::DesignEvaluation &e)
{
    m.switches = std::max(m.switches, outcome.design.numSwitches);
    m.links = std::max(m.links, outcome.design.totalLinks());
    m.channels = std::max(m.channels, outcome.design.totalChannels());
    m.constraintsMet = m.constraintsMet && outcome.constraintsMet;
    m.violations += static_cast<std::uint32_t>(outcome.violations.size());
    m.rounds = std::max(m.rounds, outcome.rounds);
    m.switchArea = std::max(m.switchArea, e.plan.switchArea);
    m.linkArea = std::max(m.linkArea, e.plan.linkArea);
    m.procLinkArea = std::max(m.procLinkArea, e.plan.procLinkArea);
    m.execTime += e.sim.execTime;
    m.maxLinkUtil = std::max(m.maxLinkUtil, e.sim.maxLinkUtilization);
    m.energy += e.energy.total();
}

} // namespace

std::vector<JobParams>
ExploreGrid::expand() const
{
    std::vector<JobParams> jobs;
    for (const auto degree : maxDegrees) {
        for (const auto r : restarts) {
            for (const auto seed : seeds) {
                for (const auto uni : unidirectional) {
                    for (const auto vc : vcs) {
                        for (const auto pw : phaseWindows) {
                            JobParams p;
                            p.maxDegree = degree;
                            p.restarts = r;
                            p.seed = seed;
                            p.unidirectional = uni != 0;
                            p.numVcs = vc;
                            p.vcDepth = vcDepth;
                            p.phaseWindow = pw;
                            jobs.push_back(p);
                        }
                    }
                }
            }
        }
    }
    return jobs;
}

std::string
jobSignature(const JobParams &params, const ExploreConfig &config)
{
    std::string sig = methodologyConfigFor(params).signature() + "|" +
                      config.floorplan.signature() + "|" +
                      config.power.signature() + "|" +
                      simConfigFor(params, config).signature();
    // Appended only when phase-aware evaluation is on, so classic jobs
    // keep the cache keys they had before the phase dimension existed.
    if (params.phaseWindow > 0)
        sig += "|phase:" + segmenterFor(params, config).signature() +
               ";rc=" + std::to_string(config.phaseReconfigCost);
    return sig;
}

JobMetrics
evaluateJob(const trace::Trace &trace, const core::CliqueSet &cliques,
            const JobParams &params, const ExploreConfig &config,
            obs::TraceEventLog *traceLog, std::uint32_t tid)
{
    const auto span = [traceLog, tid](const char *name,
                                      std::int64_t start) {
        if constexpr (obs::kEnabled) {
            if (traceLog)
                traceLog->complete(name, obs::kPidDse, tid, start,
                                   obs::wallMicros() - start);
        }
    };
    const auto tick = [traceLog]() {
        return traceLog ? obs::wallMicros() : 0;
    };

    auto mcfg = methodologyConfigFor(params);
    mcfg.cancel = config.cancel;
    const auto scfg = simConfigFor(params, config);
    JobMetrics m;
    m.constraintsMet = true;

    if (params.phaseWindow == 0) {
        // Re-entrant, strictly sequential run: the explorer's own pool
        // provides the parallelism, one job per worker.
        const auto t = tick();
        const auto outcome = core::runMethodology(cliques, mcfg, nullptr);
        span("methodology", t);
        const auto e =
            sim::evaluateDesign(outcome.design, trace, config.floorplan,
                                scfg, config.power, 0, traceLog, tid);
        foldNetwork(m, outcome, e);
        m.avgLatency = e.sim.avgPacketLatency;
        m.avgHops = e.sim.avgPacketHops;
        return m;
    }

    // Phase-aware job: segment, synthesize one network per phase over
    // that phase's standalone cliques, replay each sub-trace on its own
    // network, and charge the reconfiguration penalty at every
    // boundary: the execution stalls and the incoming network idles.
    const auto t0 = tick();
    const auto seg =
        phase::segmentTrace(trace, segmenterFor(params, config));
    const auto phaseCliques = phase::buildPhaseCliques(trace, seg);
    std::uint64_t delivered = 0;
    double latencyWeighted = 0.0;
    double hopsWeighted = 0.0;
    sim::Cycle reconfigCycles = 0;
    double reconfigEnergy = 0.0;
    for (std::uint32_t p = 0; p < seg.phases.size(); ++p) {
        const auto t = tick();
        const auto outcome =
            core::runMethodology(phaseCliques.standalone[p], mcfg, nullptr);
        span("methodology", t);
        const auto e = sim::evaluateDesign(
            outcome.design, phase::phaseSubTrace(trace, seg, p),
            config.floorplan, scfg, config.power,
            config.phaseReconfigCost, traceLog, tid);
        foldNetwork(m, outcome, e);
        const auto n = static_cast<double>(e.sim.packetsDelivered);
        delivered += e.sim.packetsDelivered;
        latencyWeighted += e.sim.avgPacketLatency * n;
        hopsWeighted += e.sim.avgPacketHops * n;
        if (p > 0) {
            reconfigCycles += config.phaseReconfigCost;
            reconfigEnergy += e.idleEnergy;
        }
    }
    m.execTime += reconfigCycles;
    m.energy += reconfigEnergy;
    if (delivered) {
        m.avgLatency = latencyWeighted / static_cast<double>(delivered);
        m.avgHops = hopsWeighted / static_cast<double>(delivered);
    }
    span("time-multiplexed", t0);
    return m;
}

void
recordJobPoint(const ExploreConfig &config, std::size_t index,
               const DsePoint &pt)
{
    if constexpr (obs::kEnabled) {
        if (!config.metrics)
            return;
        // Keyed by grid index and derived only from the job's result +
        // cache state: identical at any thread or worker count.
        const std::string prefix =
            "dse/job/" + std::to_string(index) + "/";
        auto &m = *config.metrics;
        m.gauge(prefix + "cache_hit").set(pt.fromCache ? 1.0 : 0.0);
        m.gauge(prefix + "switches")
            .set(static_cast<double>(pt.metrics.switches));
        m.gauge(prefix + "links")
            .set(static_cast<double>(pt.metrics.links));
        m.gauge(prefix + "exec_time")
            .set(static_cast<double>(pt.metrics.execTime));
        m.gauge(prefix + "energy").set(pt.metrics.energy);
    }
}

void
finalizeReport(ExploreReport &report, const ExploreConfig &config)
{
    report.cacheHits = 0;
    report.cacheMisses = 0;
    for (const auto &pt : report.points)
        (pt.fromCache ? report.cacheHits : report.cacheMisses)++;

    // Pareto reduction over (area, latency, energy).
    std::vector<Objectives> objectives;
    objectives.reserve(report.points.size());
    for (const auto &pt : report.points)
        objectives.push_back(objectivesOf(pt.metrics));
    const auto dominated = dominatedFlags(objectives);
    for (std::size_t i = 0; i < report.points.size(); ++i)
        report.points[i].dominated = dominated[i];
    report.frontier = frontierIndices(dominated);

    if constexpr (obs::kEnabled) {
        if (config.metrics) {
            auto &m = *config.metrics;
            m.counter("dse/cache_hits").add(report.cacheHits);
            m.counter("dse/cache_misses").add(report.cacheMisses);
            m.gauge("dse/jobs")
                .set(static_cast<double>(report.points.size()));
            m.gauge("dse/frontier_size")
                .set(static_cast<double>(report.frontier.size()));
        }
        if (config.traceLog)
            config.traceLog->processName(obs::kPidDse, "minnoc dse");
    }
}

ExploreReport
explore(const trace::Trace &trace, const ExploreConfig &config)
{
    // The pattern bytes are the first cache-key ingredient: the exact
    // serialized trace, so any change to the workload re-keys its jobs.
    std::ostringstream patternStream;
    trace.save(patternStream);
    const std::string patternBytes = patternStream.str();

    // Analyze once; every job shares the clique set read-only (its
    // lazy caches are materialized before the workers race).
    auto cliques = trace::analyzeByCall(trace);
    cliques.prepareCaches();

    const auto jobs = config.grid.expand();
    const ResultCache cache(config.cacheDir, config.useCache);

    ExploreReport report;
    report.pattern = trace.name();
    report.ranks = trace.numRanks();
    report.points.resize(jobs.size());

    const auto evalOne = [&](std::size_t i) {
        // DSE-job granularity checkpoint; jobs already running keep
        // polling the same token inside the methodology restart loop
        // and the simulator epoch loop.
        checkCancel(config.cancel);
        const auto &params = jobs[i];
        const auto sig = jobSignature(params, config);
        const auto key = jobKey(patternBytes, sig);
        const std::int64_t jobStart =
            config.traceLog ? obs::wallMicros() : 0;
        DsePoint pt;
        pt.params = params;
        if (auto hit = cache.load(key, sig)) {
            pt.metrics = *hit;
            pt.fromCache = true;
        } else {
            pt.metrics =
                evaluateJob(trace, cliques, params, config,
                            config.traceLog,
                            static_cast<std::uint32_t>(i));
            cache.store(key, sig, pt.metrics);
        }
        if constexpr (obs::kEnabled) {
            if (config.traceLog) {
                config.traceLog->complete(
                    "job " + std::to_string(i), obs::kPidDse,
                    static_cast<std::uint32_t>(i), jobStart,
                    obs::wallMicros() - jobStart,
                    "\"cached\": " +
                        std::string(pt.fromCache ? "true" : "false"));
            }
        }
        recordJobPoint(config, i, pt);
        report.points[i] = std::move(pt);
    };

    std::uint32_t threads =
        config.threads ? config.threads
                       : std::thread::hardware_concurrency();
    threads = std::min<std::uint32_t>(
        std::max(threads, 1u),
        static_cast<std::uint32_t>(std::max<std::size_t>(jobs.size(), 1)));
    if (threads > 1) {
        ThreadPool pool(threads);
        pool.parallelFor(jobs.size(), evalOne);
    } else {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            evalOne(i);
    }

    finalizeReport(report, config);
    return report;
}

std::string
ExploreReport::toJson() const
{
    std::ostringstream oss;
    oss << "{\n"
        << "  \"report\": \"minnoc-dse-explore\",\n"
        << "  \"schema\": \"" << kCacheSalt << "\",\n"
        << "  \"pattern\": \"" << pattern << "\",\n"
        << "  \"ranks\": " << ranks << ",\n"
        << "  \"objectives\": [\"area\", \"avg_latency\", \"energy\"],\n"
        << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &pt = points[i];
        const auto &p = pt.params;
        const auto &m = pt.metrics;
        oss << "    {\"index\": " << i << ", \"max_degree\": "
            << p.maxDegree << ", \"restarts\": " << p.restarts
            << ", \"seed\": " << p.seed << ", \"unidirectional\": "
            << (p.unidirectional ? 1 : 0) << ", \"vcs\": " << p.numVcs
            << ", \"vc_depth\": " << p.vcDepth
            << ", \"phase_window\": " << p.phaseWindow
            << ", \"switches\": " << m.switches << ", \"links\": "
            << m.links << ", \"channels\": " << m.channels
            << ", \"constraints_met\": " << (m.constraintsMet ? 1 : 0)
            << ", \"violations\": " << m.violations
            << ", \"switch_area\": " << m.switchArea
            << ", \"link_area\": " << m.linkArea
            << ", \"proc_link_area\": " << m.procLinkArea
            << ", \"area\": " << m.totalArea() << ", \"exec_time\": "
            << m.execTime << ", \"avg_latency\": "
            << json::fmtDouble(m.avgLatency) << ", \"avg_hops\": "
            << json::fmtDouble(m.avgHops) << ", \"max_link_util\": "
            << json::fmtDouble(m.maxLinkUtil) << ", \"energy\": "
            << json::fmtDouble(m.energy) << ", \"dominated\": "
            << (pt.dominated ? "true" : "false") << "}"
            << (i + 1 < points.size() ? "," : "") << "\n";
    }
    oss << "  ],\n  \"frontier\": [";
    for (std::size_t i = 0; i < frontier.size(); ++i)
        oss << (i ? ", " : "") << frontier[i];
    oss << "]\n}\n";
    return oss.str();
}

std::string
ExploreReport::summaryTable() const
{
    std::ostringstream oss;
    char line[256];
    std::snprintf(line, sizeof line,
                  "%-3s %3s %4s %4s %3s %3s %4s | %3s %5s %5s | %9s %9s "
                  "| %10s | %s\n",
                  "idx", "deg", "rst", "seed", "uni", "vcs", "pw", "sw",
                  "links", "area", "latency", "exec", "energy", "");
    oss << line;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &pt = points[i];
        const auto &p = pt.params;
        const auto &m = pt.metrics;
        std::snprintf(
            line, sizeof line,
            "%-3zu %3u %4u %4llu %3u %3u %4u | %3u %5u %5u | %9.2f "
            "%9lld | %10.0f | %s%s\n",
            i, p.maxDegree, p.restarts,
            static_cast<unsigned long long>(p.seed),
            p.unidirectional ? 1 : 0, p.numVcs, p.phaseWindow,
            m.switches, m.links,
            m.totalArea(), m.avgLatency,
            static_cast<long long>(m.execTime), m.energy,
            pt.dominated ? "" : "* frontier",
            pt.fromCache ? " (cached)" : "");
        oss << line;
    }
    return oss.str();
}

} // namespace minnoc::dse
