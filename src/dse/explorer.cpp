#include "explorer.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "core/design_io.hpp"
#include "core/methodology.hpp"
#include "pareto.hpp"
#include "phase/evaluator.hpp"
#include "sim/evaluate.hpp"
#include "topo/floorplan.hpp"
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

/** The methodology-side fields of one network's metrics. */
JobMetrics
designMetrics(const core::DesignOutcome &outcome)
{
    JobMetrics d;
    d.switches = outcome.design.numSwitches;
    d.links = outcome.design.totalLinks();
    d.channels = outcome.design.totalChannels();
    d.constraintsMet = outcome.constraintsMet;
    d.violations = static_cast<std::uint32_t>(outcome.violations.size());
    d.rounds = outcome.rounds;
    return d;
}

/** The area, simulation and energy fields of one network's metrics. */
JobMetrics
evaluationMetrics(const sim::DesignEvaluation &e)
{
    JobMetrics v;
    v.switchArea = e.plan.switchArea;
    v.linkArea = e.plan.linkArea;
    v.procLinkArea = e.plan.procLinkArea;
    v.execTime = e.sim.execTime;
    v.avgLatency = e.sim.avgPacketLatency;
    v.avgHops = e.sim.avgPacketHops;
    v.maxLinkUtil = e.sim.maxLinkUtilization;
    v.energy = e.energy.total();
    return v;
}

/** A classic job's metrics: its one network's design and evaluation. */
JobMetrics
classicMetrics(const JobMetrics &design, const JobMetrics &eval)
{
    JobMetrics m = eval;
    m.switches = design.switches;
    m.links = design.links;
    m.channels = design.channels;
    m.constraintsMet = design.constraintsMet;
    m.violations = design.violations;
    m.rounds = design.rounds;
    return m;
}

/**
 * What evaluation reads of a finalized design, as bytes: the saved
 * design without its unidirectional record, plus each switch's
 * processor order, which the floorplanner reads and saveDesign leaves
 * implied. Floorplan, build and simulation read the per-direction
 * channel counts, never the flag itself.
 */
std::string
networkBytes(core::FinalizedDesign design)
{
    design.unidirectional = false;
    std::ostringstream os;
    core::saveDesign(design, os);
    for (const auto &procs : design.switchProcs) {
        os << "procs";
        for (const auto p : procs)
            os << ' ' << p;
        os << '\n';
    }
    return os.str();
}

/**
 * Evaluate one phase-window job from scratch: the time-multiplexed
 * variant of phase::evaluateTimeMultiplexed under the job's
 * parameters. Per-stage spans go on the DSE track with @p tid (the
 * job's grid index) as the thread id.
 */
JobMetrics
evaluatePhaseJob(const trace::Trace &trace, const JobParams &params,
                 const ExploreConfig &config, ThreadPool *pool,
                 std::uint32_t tid)
{
    phase::PhaseEvalConfig pcfg;
    pcfg.segmenter = segmenterFor(params, config);
    pcfg.methodology = methodologyConfigFor(params);
    pcfg.methodology.cancel = config.cancel;
    pcfg.power = config.power;
    pcfg.sim = simConfigFor(params, config);
    pcfg.reconfigCost = config.phaseReconfigCost;

    const auto t0 = obs::spanStart(config.traceLog);
    const auto [v, d] = phase::evaluateTimeMultiplexed(
        trace, pcfg, pool, config.traceLog, tid);
    obs::dseSpanEnd(config.traceLog, "time-multiplexed", tid, t0);

    JobMetrics m;
    m.switches = v.switches;
    m.links = v.links;
    m.channels = v.channels;
    m.constraintsMet = d.constraintsMet;
    m.violations = static_cast<std::uint32_t>(v.violations);
    m.rounds = d.rounds;
    m.switchArea = d.switchArea;
    m.linkArea = d.linkArea;
    m.procLinkArea = d.procLinkArea;
    m.execTime = v.execTime;
    m.avgLatency = v.avgLatency;
    m.avgHops = d.avgHops;
    m.maxLinkUtil = d.maxLinkUtil;
    m.energy = v.energy;
    return m;
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
                      topo::FloorplanConfig{}.signature() + "|" +
                      config.power.signature() + "|" +
                      simConfigFor(params, config).signature();
    // Appended only when phase-aware evaluation is on, so classic jobs
    // keep the cache keys they had before the phase dimension existed.
    if (params.phaseWindow > 0)
        sig += "|phase:" + segmenterFor(params, config).signature() +
               ";rc=" + std::to_string(config.phaseReconfigCost);
    return sig;
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
    // At most every job's restarts run at once.
    std::size_t work = 0;
    for (const auto &job : config.grid.expand())
        work += std::max(1u, job.restarts);
    const auto pool = makePool(config.threads, work);
    return explore(trace, config, pool.get());
}

ExploreReport
explore(const trace::Trace &trace, const ExploreConfig &config,
        ThreadPool *pool)
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

    // Every task is one "job <i>" span, <i> the first grid index that
    // needs it, so lanes stay attributable to jobs.
    const auto jobSpan = [&config](std::size_t i, const char *stage,
                                   std::int64_t start) {
        obs::dseSpanEnd(config.traceLog, "job " + std::to_string(i), i,
                        start, "\"stage\": \"" + std::string(stage) + "\"");
    };

    // Cache lookups. The cancel checkpoints here and before every task
    // below are DSE-job granularity; running tasks keep polling the
    // same token inside the methodology restart loop and the simulator
    // epoch loop.
    std::vector<std::string> keys(jobs.size());
    std::vector<std::string> sigs(jobs.size());
    parallelFor(pool, jobs.size(), [&](std::size_t i) {
        checkCancel(config.cancel);
        const auto start = obs::spanStart(config.traceLog);
        sigs[i] = jobSignature(jobs[i], config);
        keys[i] = jobKey(patternBytes, sigs[i]);
        auto &pt = report.points[i];
        pt.params = jobs[i];
        if (auto hit = cache.load(keys[i], sigs[i])) {
            pt.metrics = *hit;
            pt.fromCache = true;
            recordJobPoint(config, i, pt);
            jobSpan(i, "cache", start);
        }
    });
    const auto storePoint = [&](std::size_t i, const JobMetrics &m) {
        cache.store(keys[i], sigs[i], m);
        report.points[i].metrics = m;
        recordJobPoint(config, i, report.points[i]);
    };

    // Methodology stage: one run per distinct methodology signature
    // (VC count and depth never reach it). Phase-window jobs run their
    // own per-phase pipeline whole, in the same batch.
    struct MethodologyTask
    {
        std::size_t first = 0; ///< first grid index that needs it
        core::FinalizedDesign design;
        JobMetrics metrics; ///< designMetrics() of the outcome
    };
    std::vector<MethodologyTask> methodologies;
    std::vector<std::size_t> methodologyOf(jobs.size());
    std::vector<std::size_t> phaseJobs;
    std::map<std::string, std::size_t> methodologyIndex;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (report.points[i].fromCache)
            continue;
        if (jobs[i].phaseWindow > 0) {
            phaseJobs.push_back(i);
            continue;
        }
        const auto [it, fresh] = methodologyIndex.try_emplace(
            methodologyConfigFor(jobs[i]).signature(), methodologies.size());
        if (fresh)
            methodologies.push_back({i, {}, {}});
        methodologyOf[i] = it->second;
    }
    std::vector<std::string> networks(methodologies.size());
    const auto tasks = methodologies.size() + phaseJobs.size();
    parallelFor(pool, tasks, [&](std::size_t t) {
        checkCancel(config.cancel);
        const auto start = obs::spanStart(config.traceLog);
        if (t >= methodologies.size()) {
            const auto i = phaseJobs[t - methodologies.size()];
            storePoint(i, evaluatePhaseJob(trace, jobs[i], config, pool,
                                           static_cast<std::uint32_t>(i)));
            jobSpan(i, "phase", start);
            return;
        }
        auto &task = methodologies[t];
        auto mcfg = methodologyConfigFor(jobs[task.first]);
        mcfg.cancel = config.cancel;
        auto outcome = core::runMethodology(cliques, mcfg, pool);
        obs::dseSpanEnd(config.traceLog, "methodology", task.first, start);
        task.metrics = designMetrics(outcome);
        networks[t] = networkBytes(outcome.design);
        task.design = std::move(outcome.design);
        jobSpan(task.first, "methodology", start);
    });

    // Methodology runs that made the same network (the unidirectional
    // flag on a symmetric pattern) share its evaluations; only the
    // designs an evaluation reads are kept.
    std::vector<std::size_t> networkOf(methodologies.size());
    {
        std::map<std::string, std::size_t> first;
        for (std::size_t m = 0; m < methodologies.size(); ++m) {
            networkOf[m] =
                first.try_emplace(std::move(networks[m]), m).first->second;
            if (networkOf[m] != m)
                methodologies[m].design = {};
        }
    }
    networks.clear();

    // Evaluation stage: one evaluation per distinct (network, simulator
    // signature). The floorplan and power configurations are fixed for
    // the whole run, so the simulator is the only per-job evaluation
    // knob.
    struct EvaluationTask
    {
        std::size_t methodology = 0; ///< whose design is evaluated
        std::vector<std::size_t> jobs; ///< ascending grid indices
    };
    std::vector<EvaluationTask> evaluations;
    std::map<std::pair<std::size_t, std::string>, std::size_t>
        evaluationIndex;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (report.points[i].fromCache || jobs[i].phaseWindow > 0)
            continue;
        const auto network = networkOf[methodologyOf[i]];
        const auto [it, fresh] = evaluationIndex.try_emplace(
            {network, simConfigFor(jobs[i], config).signature()},
            evaluations.size());
        if (fresh)
            evaluations.push_back({network, {}});
        evaluations[it->second].jobs.push_back(i);
    }
    parallelFor(pool, evaluations.size(), [&](std::size_t t) {
        checkCancel(config.cancel);
        const auto start = obs::spanStart(config.traceLog);
        const auto &task = evaluations[t];
        const auto first = task.jobs.front();
        // Only the scalars outlive the evaluation: its floorplan, built
        // network and per-link counts are freed here.
        const auto eval = evaluationMetrics(sim::evaluateDesign(
            methodologies[task.methodology].design, trace,
            simConfigFor(jobs[first], config), config.power, 0,
            config.traceLog, static_cast<std::uint32_t>(first)));
        for (const auto i : task.jobs)
            storePoint(i, classicMetrics(
                              methodologies[methodologyOf[i]].metrics, eval));
        jobSpan(first, "evaluation", start);
    });

    report.methodologyRuns = methodologies.size();
    report.evaluations = evaluations.size();
    if constexpr (obs::kEnabled) {
        if (config.metrics) {
            config.metrics->counter("dse/methodology_runs")
                .add(report.methodologyRuns);
            config.metrics->counter("dse/evaluations")
                .add(report.evaluations);
        }
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
