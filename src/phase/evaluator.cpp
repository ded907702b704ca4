#include "evaluator.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <thread>

#include "sim/evaluate.hpp"
#include "topo/floorplan.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace minnoc::phase {

namespace {

/**
 * The evaluation step on one design, flattened into a report row. The
 * idle price is one reconfiguration window; assemblePhaseReport charges
 * it only for phase rows after the first.
 */
PhaseRowEval
evalVariant(const core::FinalizedDesign &design, std::size_t violations,
            const trace::Trace &tr, const PhaseEvalConfig &config)
{
    const auto e = sim::evaluateDesign(design, tr, topo::FloorplanConfig{},
                                       config.sim, config.power,
                                       config.reconfigCost);
    PhaseRowEval row;
    row.network.switches = design.numSwitches;
    row.network.links = design.totalLinks();
    row.network.channels = design.totalChannels();
    row.network.area = e.plan.totalArea();
    row.network.execTime = e.sim.execTime;
    row.network.avgLatency = e.sim.avgPacketLatency;
    row.network.energy = e.energy.total();
    row.network.packetsDelivered = e.sim.packetsDelivered;
    row.network.violations = violations;
    row.reconfigIdleEnergy = e.idleEnergy;
    return row;
}

/** Evaluate phase @p p's design on the phase's own sub-trace. */
PhaseRowEval
evalPhaseRow(const trace::Trace &trace, const Segmentation &seg,
             const core::DesignOutcome &outcome, std::uint32_t p,
             const PhaseEvalConfig &config)
{
    return evalVariant(outcome.design, outcome.violations.size(),
                       phaseSubTrace(trace, seg, p), config);
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

std::string
jsonVariant(const VariantResult &v)
{
    std::ostringstream oss;
    oss << "{\"switches\": " << v.switches << ", \"links\": " << v.links
        << ", \"channels\": " << v.channels << ", \"area\": " << v.area
        << ", \"exec_time\": " << v.execTime << ", \"avg_latency\": "
        << json::fmtDouble(v.avgLatency) << ", \"energy\": "
        << json::fmtDouble(v.energy) << ", \"packets\": "
        << v.packetsDelivered << ", \"violations\": " << v.violations
        << "}";
    return oss.str();
}

} // namespace

PhaseRowEval
evalPhaseStandalone(const trace::Trace &trace, const Segmentation &seg,
                    const core::CliqueSet &standalone, std::uint32_t p,
                    const PhaseEvalConfig &config)
{
    // Mirror synthesizeMultiPhase's inner runs: telemetry off, strictly
    // sequential. Designs are thread-count-invariant, so this
    // reproduces the pooled in-process outcome exactly.
    core::MethodologyConfig quiet = config.methodology;
    quiet.metrics = nullptr;
    quiet.traceLog = nullptr;
    const auto outcome = core::runMethodology(standalone, quiet, nullptr);
    return evalPhaseRow(trace, seg, outcome, p, config);
}

PhaseReport
assemblePhaseReport(const trace::Trace &trace,
                    const PhaseEvalConfig &config, const Segmentation &seg,
                    const MultiPhaseResult &multi,
                    const std::vector<PhaseRowEval> &rows)
{
    PhaseReport report;
    report.pattern = trace.name();
    report.ranks = trace.numRanks();
    report.methodologySignature = config.methodology.signature();
    report.segmenterSignature = config.segmenter.signature();
    report.reconfigCost = config.reconfigCost;
    report.numMessages = seg.numMessages;
    report.numWindows = seg.numWindows;
    report.distances = seg.distances;
    report.monolithic =
        evalVariant(multi.monolithic.design,
                    multi.monolithic.violations.size(), trace, config)
            .network;
    report.unionVariant = evalVariant(multi.unionDesign,
                                      multi.unionViolationCount(), trace,
                                      config)
                              .network;
    for (const auto &v : multi.unionPhaseViolations)
        report.unionPhaseViolations.push_back(v.size());

    // Time-multiplexed: each phase's sub-trace on its own network, a
    // drain+swap stall at every boundary, and the incoming network
    // leaking (zero traffic) while it is swapped in.
    std::uint64_t tmDelivered = 0;
    double tmLatencyWeighted = 0.0;
    for (std::uint32_t p = 0; p < seg.phases.size(); ++p) {
        const VariantResult &net = rows.at(p).network;

        PhaseRow row;
        row.index = p;
        row.firstWindow = seg.phases[p].firstWindow;
        row.lastWindow = seg.phases[p].lastWindow;
        row.calls = seg.phases[p].calls.size();
        row.messages = seg.phases[p].messages;
        row.bytes = seg.phases[p].bytes;
        row.network = net;
        report.phases.push_back(row);

        report.timeMultiplexed.switches =
            std::max(report.timeMultiplexed.switches, net.switches);
        report.timeMultiplexed.links =
            std::max(report.timeMultiplexed.links, net.links);
        report.timeMultiplexed.channels =
            std::max(report.timeMultiplexed.channels, net.channels);
        report.timeMultiplexed.area =
            std::max(report.timeMultiplexed.area, net.area);
        report.timeMultiplexed.execTime += net.execTime;
        report.timeMultiplexed.energy += net.energy;
        report.timeMultiplexed.packetsDelivered += net.packetsDelivered;
        report.timeMultiplexed.violations += net.violations;
        tmDelivered += net.packetsDelivered;
        tmLatencyWeighted +=
            net.avgLatency * static_cast<double>(net.packetsDelivered);

        if (p > 0) {
            // The incoming network idles for the drain+swap window.
            ++report.reconfigCount;
            report.reconfigCycles += config.reconfigCost;
            report.reconfigEnergy += rows.at(p).reconfigIdleEnergy;
        }
    }
    report.timeMultiplexed.execTime += report.reconfigCycles;
    report.timeMultiplexed.energy += report.reconfigEnergy;
    report.timeMultiplexed.avgLatency =
        tmDelivered ? tmLatencyWeighted / static_cast<double>(tmDelivered)
                    : 0.0;

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
                    "phase/" + std::to_string(row.index) + "/";
                m.gauge(prefix + "calls")
                    .set(static_cast<double>(row.calls));
                m.gauge(prefix + "messages")
                    .set(static_cast<double>(row.messages));
                m.gauge(prefix + "bytes")
                    .set(static_cast<double>(row.bytes));
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
                if (row.index > 0) {
                    log.complete("reconfig", obs::kPidPhase, 1, clock,
                                 std::max<sim::Cycle>(config.reconfigCost,
                                                      1));
                    clock += config.reconfigCost;
                }
                log.complete("phase " + std::to_string(row.index) +
                                 " exec",
                             obs::kPidPhase, 1, clock,
                             std::max<sim::Cycle>(row.network.execTime,
                                                  1));
                clock += row.network.execTime;
            }
        }
    }
    return report;
}

PhaseReport
evaluatePhases(const trace::Trace &trace, const PhaseEvalConfig &config)
{
    const Segmentation seg = segmentTrace(trace, config.segmenter);

    // One shared pool for every methodology run's restart loop; the
    // runs themselves stay sequential, so the produced designs are
    // thread-count-invariant.
    std::uint32_t threads =
        config.threads ? config.threads
                       : std::thread::hardware_concurrency();
    threads = std::max(threads, 1u);
    std::optional<ThreadPool> pool;
    if (threads > 1)
        pool.emplace(threads);

    const MultiPhaseResult multi = synthesizeMultiPhase(
        trace, seg, config.methodology, pool ? &*pool : nullptr);

    std::vector<PhaseRowEval> rows;
    rows.reserve(seg.phases.size());
    for (std::uint32_t p = 0; p < seg.phases.size(); ++p)
        rows.push_back(
            evalPhaseRow(trace, seg, multi.phases[p].outcome, p, config));

    return assemblePhaseReport(trace, config, seg, multi, rows);
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
        const PhaseRow &r = phases[i];
        oss << "    {\"index\": " << r.index << ", \"first_window\": "
            << r.firstWindow << ", \"last_window\": " << r.lastWindow
            << ", \"calls\": " << r.calls << ", \"messages\": "
            << r.messages << ", \"bytes\": " << r.bytes
            << ", \"network\": " << jsonVariant(r.network) << "}"
            << (i + 1 < phases.size() ? "," : "") << "\n";
    }
    oss << "  ],\n"
        << "  \"union_phase_violations\": [";
    for (std::size_t i = 0; i < unionPhaseViolations.size(); ++i)
        oss << (i ? ", " : "") << unionPhaseViolations[i];
    oss << "],\n"
        << "  \"variants\": {\n"
        << "    \"monolithic\": " << jsonVariant(monolithic) << ",\n"
        << "    \"union\": " << jsonVariant(unionVariant) << ",\n"
        << "    \"time_multiplexed\": " << jsonVariant(timeMultiplexed)
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
