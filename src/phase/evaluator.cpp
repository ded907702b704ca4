#include "evaluator.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "sim/evaluate.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace minnoc::phase {

namespace {

/**
 * The evaluation step on one design, flattened into a report row. The
 * idle price is one reconfiguration window; the fold charges it only
 * for phase rows after the first.
 */
PhaseRowEval
evalVariant(const core::FinalizedDesign &design, std::size_t violations,
            const trace::Trace &tr, const PhaseEvalConfig &config,
            obs::TraceEventLog *traceLog = nullptr, std::uint32_t tid = 0)
{
    const auto e = sim::evaluateDesign(design, tr, config.sim, config.power,
                                       config.reconfigCost, traceLog, tid);
    PhaseRowEval row;
    auto &v = row.network;
    v.switches = design.numSwitches;
    v.links = design.totalLinks();
    v.channels = design.totalChannels();
    v.area = e.plan.totalArea();
    v.execTime = e.sim.execTime;
    v.avgLatency = e.sim.avgPacketLatency;
    v.energy = e.energy.total();
    v.packetsDelivered = e.sim.packetsDelivered;
    v.violations = violations;
    auto &d = row.detail;
    d.switchArea = e.plan.switchArea;
    d.linkArea = e.plan.linkArea;
    d.procLinkArea = e.plan.procLinkArea;
    d.avgHops = e.sim.avgPacketHops;
    d.maxLinkUtil = e.sim.maxLinkUtilization;
    row.reconfigIdleEnergy = e.idleEnergy;
    return row;
}

/**
 * Every phase's row: one task each on @p pool, each row's restarts on
 * it too, or in phase order on the calling thread when it is null.
 */
std::vector<PhaseRowEval>
phaseRows(const trace::Trace &trace, const Segmentation &seg,
          const PhaseCliques &cliques, const PhaseEvalConfig &config,
          ThreadPool *pool, obs::TraceEventLog *traceLog = nullptr,
          std::uint32_t tid = 0)
{
    std::vector<PhaseRowEval> rows(seg.phases.size());
    parallelFor(pool, rows.size(), [&](std::size_t p) {
        rows[p] = evalPhaseStandalone(trace, seg, cliques.standalone[p],
                                      static_cast<std::uint32_t>(p),
                                      config, pool, traceLog, tid);
    });
    return rows;
}

void
recordVariantMetrics(obs::MetricsRegistry &m, const std::string &prefix,
                     const VariantResult &v)
{
    m.gauge(prefix + "area").set(static_cast<double>(v.area));
    m.gauge(prefix + "exec_time").set(static_cast<double>(v.execTime));
    m.gauge(prefix + "avg_latency").set(v.avgLatency);
    m.gauge(prefix + "energy").set(v.energy);
    m.gauge(prefix + "violations").set(static_cast<double>(v.violations));
}

/**
 * Fold @p rows (in phase order) into @p report's time-multiplexed
 * variant and reconfiguration accounting: maxima on the provisioned
 * resources (a reconfigurable fabric must host the largest phase
 * network; `area` is the largest total, each split term its own
 * maximum), sums on time, energy, packets and violations, the boundary
 * stalls and idle energies added last, and latency and hops weighted
 * by delivered packets. Returns the rows' folded details, which only
 * a phase-window job reads. The only fold of phase rows.
 */
NetworkDetail
foldTimeMultiplexed(const std::vector<PhaseRowEval> &rows,
                    sim::Cycle reconfigCost, PhaseReport &report)
{
    VariantResult &v = report.timeMultiplexed;
    NetworkDetail d;
    d.constraintsMet = true;
    double latencyWeighted = 0.0;
    double hopsWeighted = 0.0;
    for (std::size_t p = 0; p < rows.size(); ++p) {
        const VariantResult &net = rows[p].network;
        const NetworkDetail &detail = rows[p].detail;
        v.switches = std::max(v.switches, net.switches);
        v.links = std::max(v.links, net.links);
        v.channels = std::max(v.channels, net.channels);
        v.area = std::max(v.area, net.area);
        d.switchArea = std::max(d.switchArea, detail.switchArea);
        d.linkArea = std::max(d.linkArea, detail.linkArea);
        d.procLinkArea = std::max(d.procLinkArea, detail.procLinkArea);
        d.maxLinkUtil = std::max(d.maxLinkUtil, detail.maxLinkUtil);
        d.rounds = std::max(d.rounds, detail.rounds);
        d.constraintsMet = d.constraintsMet && detail.constraintsMet;
        v.execTime += net.execTime;
        v.energy += net.energy;
        v.packetsDelivered += net.packetsDelivered;
        v.violations += net.violations;
        const auto n = static_cast<double>(net.packetsDelivered);
        latencyWeighted += net.avgLatency * n;
        hopsWeighted += detail.avgHops * n;
        if (p > 0) {
            // The incoming network idles for the drain+swap window.
            ++report.reconfigCount;
            report.reconfigCycles += reconfigCost;
            report.reconfigEnergy += rows[p].reconfigIdleEnergy;
        }
    }
    v.execTime += report.reconfigCycles;
    v.energy += report.reconfigEnergy;
    if (v.packetsDelivered) {
        const auto delivered = static_cast<double>(v.packetsDelivered);
        v.avgLatency = latencyWeighted / delivered;
        d.avgHops = hopsWeighted / delivered;
    }
    return d;
}

/**
 * Fill @p report around its whole-trace variants: the segmentation,
 * the phase rows and their time-multiplexed fold, then the metrics and
 * trace events.
 */
void
assembleReport(PhaseReport &report, const trace::Trace &trace,
               const PhaseEvalConfig &config, const Segmentation &seg,
               const std::vector<PhaseRowEval> &rows)
{
    report.pattern = trace.name();
    report.ranks = trace.numRanks();
    report.methodologySignature = config.methodology.signature();
    report.segmenterSignature = config.segmenter.signature();
    report.reconfigCost = config.reconfigCost;
    report.numMessages = seg.numMessages;
    report.numWindows = seg.numWindows;
    report.distances = seg.distances;

    for (std::size_t p = 0; p < seg.phases.size(); ++p)
        report.phases.push_back({seg.phases[p], rows.at(p).network});
    foldTimeMultiplexed(rows, config.reconfigCost, report);

    if constexpr (obs::kEnabled) {
        if (config.metrics) {
            auto &m = *config.metrics;
            m.gauge("phase/count")
                .set(static_cast<double>(seg.phases.size()));
            m.gauge("phase/windows")
                .set(static_cast<double>(seg.numWindows));
            m.gauge("phase/messages")
                .set(static_cast<double>(seg.numMessages));
            for (const PhaseRow &row : report.phases) {
                const std::string prefix =
                    "phase/" + std::to_string(row.info.index) + "/";
                m.gauge(prefix + "calls")
                    .set(static_cast<double>(row.info.calls.size()));
                m.gauge(prefix + "messages")
                    .set(static_cast<double>(row.info.messages));
                m.gauge(prefix + "bytes")
                    .set(static_cast<double>(row.info.bytes));
                recordVariantMetrics(m, prefix, row.network);
            }
            recordVariantMetrics(m, "phase/variant/monolithic/",
                                 report.monolithic);
            recordVariantMetrics(m, "phase/variant/union/",
                                 report.unionVariant);
            recordVariantMetrics(m, "phase/variant/time_multiplexed/",
                                 report.timeMultiplexed);
            m.gauge("phase/reconfig/count")
                .set(static_cast<double>(report.reconfigCount));
            m.gauge("phase/reconfig/cycles")
                .set(static_cast<double>(report.reconfigCycles));
            m.gauge("phase/reconfig/energy").set(report.reconfigEnergy);
        }
        if (config.traceLog) {
            // Two deterministic tracks in simulated time: the detected
            // phase spans (replay clock) and the time-multiplexed
            // schedule (per-phase execution + reconfiguration stalls).
            auto &log = *config.traceLog;
            log.processName(obs::kPidPhase, "minnoc phases");
            log.threadName(obs::kPidPhase, 0, "detected phases");
            log.threadName(obs::kPidPhase, 1, "tm schedule");
            for (const PhaseInfo &p : seg.phases) {
                const auto ts = static_cast<std::int64_t>(p.startTime);
                const auto dur = std::max<std::int64_t>(
                    static_cast<std::int64_t>(p.endTime - p.startTime),
                    1);
                log.complete("phase " + std::to_string(p.index),
                             obs::kPidPhase, 0, ts, dur,
                             "\"messages\": " +
                                 std::to_string(p.messages));
            }
            std::int64_t clock = 0;
            for (const PhaseRow &row : report.phases) {
                if (row.info.index > 0) {
                    log.complete("reconfig", obs::kPidPhase, 1, clock,
                                 std::max<sim::Cycle>(config.reconfigCost,
                                                      1));
                    clock += config.reconfigCost;
                }
                log.complete("phase " + std::to_string(row.info.index) +
                                 " exec",
                             obs::kPidPhase, 1, clock,
                             std::max<sim::Cycle>(row.network.execTime,
                                                  1));
                clock += row.network.execTime;
            }
        }
    }
}

} // namespace

PhaseRowEval
evalPhaseStandalone(const trace::Trace &trace, const Segmentation &seg,
                    const core::CliqueSet &standalone, std::uint32_t p,
                    const PhaseEvalConfig &config, ThreadPool *pool,
                    obs::TraceEventLog *traceLog, std::uint32_t tid)
{
    // Telemetry off; designs are thread-count-invariant.
    core::MethodologyConfig quiet = config.methodology;
    quiet.metrics = nullptr;
    quiet.traceLog = nullptr;
    const auto t = obs::spanStart(traceLog);
    const auto outcome = core::runMethodology(standalone, quiet, pool);
    obs::spanEnd(traceLog, obs::kPidDse, "methodology", tid, t);
    auto row = evalVariant(outcome.design, outcome.violations.size(),
                           phaseSubTrace(trace, seg, p), config, traceLog,
                           tid);
    row.detail.rounds = outcome.rounds;
    row.detail.constraintsMet = outcome.constraintsMet;
    return row;
}

std::pair<VariantResult, NetworkDetail>
evaluateTimeMultiplexed(const trace::Trace &trace,
                        const PhaseEvalConfig &config, ThreadPool *pool,
                        obs::TraceEventLog *traceLog, std::uint32_t tid)
{
    const auto seg = segmentTrace(trace, config.segmenter);
    PhaseReport report;
    const NetworkDetail detail = foldTimeMultiplexed(
        phaseRows(trace, seg, buildPhaseCliques(trace, seg), config, pool,
                  traceLog, tid),
        config.reconfigCost, report);
    return {report.timeMultiplexed, detail};
}

PhaseReport
runPhasePipeline(const trace::Trace &trace, const PhaseEvalConfig &config,
                 ThreadPool *pool, const PhaseRowSource &rows)
{
    const Segmentation seg = segmentTrace(trace, config.segmenter);
    const PhaseCliques cliques = buildPhaseCliques(trace, seg);

    // The whole-trace half reads only the merged and shared clique sets
    // and writes only its own report fields, so it runs beside the
    // rows, which read only the standalone sets.
    PhaseReport report;
    std::vector<PhaseRowEval> phaseRowEvals;
    parallelFor(pool, 2, [&](std::size_t half) {
        if (half == 1) {
            phaseRowEvals = rows(seg, cliques);
            return;
        }
        const auto multi =
            synthesizeMultiPhase(cliques, config.methodology, pool);
        report.monolithic =
            evalVariant(multi.monolithic.design,
                        multi.monolithic.violations.size(), trace, config)
                .network;
        report.unionVariant =
            evalVariant(multi.unionDesign, multi.unionViolationCount(),
                        trace, config)
                .network;
        for (const auto &v : multi.unionPhaseViolations)
            report.unionPhaseViolations.push_back(v.size());
    });

    assembleReport(report, trace, config, seg, phaseRowEvals);
    return report;
}

PhaseReport
evaluatePhases(const trace::Trace &trace, const PhaseEvalConfig &config,
               ThreadPool *pool)
{
    return runPhasePipeline(
        trace, config, pool,
        [&](const Segmentation &seg, const PhaseCliques &cliques) {
            return phaseRows(trace, seg, cliques, config, pool);
        });
}

PhaseReport
evaluatePhases(const trace::Trace &trace, const PhaseEvalConfig &config)
{
    const auto pool = makePool(config.threads);
    return evaluatePhases(trace, config, pool.get());
}

std::string
VariantResult::toJson() const
{
    std::ostringstream oss;
    oss << "{\"switches\": " << switches << ", \"links\": " << links
        << ", \"channels\": " << channels << ", \"area\": " << area
        << ", \"exec_time\": " << execTime << ", \"avg_latency\": "
        << json::fmtDouble(avgLatency) << ", \"energy\": "
        << json::fmtDouble(energy) << ", \"packets\": "
        << packetsDelivered << ", \"violations\": " << violations << "}";
    return oss.str();
}

std::optional<VariantResult>
VariantResult::fromJson(const json::Value &obj, std::string &err)
{
    VariantResult v;
    if (!json::readField(obj, "switches", v.switches, err) ||
        !json::readField(obj, "links", v.links, err) ||
        !json::readField(obj, "channels", v.channels, err) ||
        !json::readField(obj, "area", v.area, err) ||
        !json::readField(obj, "exec_time", v.execTime, err) ||
        !json::readField(obj, "avg_latency", v.avgLatency, err) ||
        !json::readField(obj, "energy", v.energy, err) ||
        !json::readField(obj, "packets", v.packetsDelivered, err) ||
        !json::readField(obj, "violations", v.violations, err))
        return std::nullopt;
    return v;
}

std::string
PhaseReport::toJson() const
{
    std::ostringstream oss;
    oss << "{\n"
        << "  \"report\": \"minnoc-phase-gain\",\n"
        << "  \"schema\": \"minnoc-phase-1\",\n"
        << "  \"pattern\": \"" << pattern << "\",\n"
        << "  \"ranks\": " << ranks << ",\n"
        << "  \"segmenter\": \"" << segmenterSignature << "\",\n"
        << "  \"methodology\": \"" << methodologySignature << "\",\n"
        << "  \"reconfig_cost\": " << reconfigCost << ",\n"
        << "  \"num_messages\": " << numMessages << ",\n"
        << "  \"num_windows\": " << numWindows << ",\n"
        << "  \"distances\": [";
    for (std::size_t i = 0; i < distances.size(); ++i)
        oss << (i ? ", " : "") << json::fmtDouble(distances[i]);
    oss << "],\n"
        << "  \"phases\": [\n";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const PhaseInfo &r = phases[i].info;
        oss << "    {\"index\": " << r.index << ", \"first_window\": "
            << r.firstWindow << ", \"last_window\": " << r.lastWindow
            << ", \"calls\": " << r.calls.size() << ", \"messages\": "
            << r.messages << ", \"bytes\": " << r.bytes
            << ", \"network\": " << phases[i].network.toJson() << "}"
            << (i + 1 < phases.size() ? "," : "") << "\n";
    }
    oss << "  ],\n"
        << "  \"union_phase_violations\": [";
    for (std::size_t i = 0; i < unionPhaseViolations.size(); ++i)
        oss << (i ? ", " : "") << unionPhaseViolations[i];
    oss << "],\n"
        << "  \"variants\": {\n"
        << "    \"monolithic\": " << monolithic.toJson() << ",\n"
        << "    \"union\": " << unionVariant.toJson() << ",\n"
        << "    \"time_multiplexed\": " << timeMultiplexed.toJson()
        << "\n  },\n"
        << "  \"reconfig\": {\"count\": " << reconfigCount
        << ", \"cycles\": " << reconfigCycles << ", \"energy\": "
        << json::fmtDouble(reconfigEnergy) << "}\n"
        << "}\n";
    return oss.str();
}

std::string
PhaseReport::summaryTable() const
{
    std::ostringstream oss;
    oss << phases.size() << " phase(s), " << numWindows << " window(s), "
        << numMessages << " message(s); reconfig cost " << reconfigCost
        << " cycles x " << reconfigCount << " boundaries\n";
    char line[192];
    std::snprintf(line, sizeof line,
                  "%-16s %3s %5s %6s %10s %10s %12s %5s\n", "variant",
                  "sw", "links", "area", "exec", "latency", "energy",
                  "viol");
    oss << line;
    const auto row = [&oss, &line](const char *name,
                                   const VariantResult &v) {
        std::snprintf(line, sizeof line,
                      "%-16s %3u %5u %6u %10lld %10.2f %12.0f %5zu\n",
                      name, v.switches, v.links, v.area,
                      static_cast<long long>(v.execTime), v.avgLatency,
                      v.energy, v.violations);
        oss << line;
    };
    row("monolithic", monolithic);
    row("union", unionVariant);
    row("time-multiplexed", timeMultiplexed);
    return oss.str();
}

} // namespace minnoc::phase
