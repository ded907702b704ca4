/**
 * @file
 * Phase-aware design evaluation and reporting.
 *
 * Replays the workload through the flit simulator under three design
 * variants and emits a deterministic JSON comparison:
 *
 *  - monolithic: the whole trace on the single methodology design;
 *  - union: the whole trace on the union design (monolithic partition
 *    re-finalized over the merged unreduced cliques);
 *  - time-multiplexed: each phase's sub-trace on that phase's own
 *    network, with a drain+swap reconfiguration penalty charged at
 *    every phase boundary (execution stalls for reconfigCost cycles
 *    and the incoming network leaks energy while idle).
 *
 * The report is byte-identical across thread counts and reruns: every
 * number derives from the deterministic methodology/simulator stack,
 * doubles render as %.17g, and no wall-clock value enters the JSON.
 */

#ifndef MINNOC_PHASE_EVALUATOR_HPP
#define MINNOC_PHASE_EVALUATOR_HPP

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "multi_design.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "sim/config.hpp"
#include "topo/power.hpp"
#include "util/json.hpp"

namespace minnoc::phase {

/** Everything one evaluatePhases run needs. */
struct PhaseEvalConfig
{
    PhaseConfig segmenter;
    core::MethodologyConfig methodology;
    topo::PowerModel power;
    sim::SimConfig sim;

    /** Drain+swap penalty charged per phase boundary (cycles). */
    sim::Cycle reconfigCost = 500;

    /**
     * Workers of the pool the phase rows and the monolithic restarts
     * run on, beside a thread for the whole-trace half (0 = hardware
     * concurrency, 1 = everything on the calling thread). Results are
     * identical at every thread count.
     */
    std::uint32_t threads = 0;

    /** Optional telemetry sinks (not owned, may be null). */
    obs::MetricsRegistry *metrics = nullptr;
    obs::TraceEventLog *traceLog = nullptr;
};

/**
 * Simulated metrics of one design variant over its workload: what the
 * report prints and a `phase_job` result carries, filled the same way
 * on every path.
 */
struct VariantResult
{
    std::uint32_t switches = 0;
    std::uint32_t links = 0;
    std::uint32_t channels = 0;
    /** Total floorplan area. */
    std::uint32_t area = 0;
    sim::Cycle execTime = 0;
    double avgLatency = 0.0;
    double energy = 0.0;
    std::uint64_t packetsDelivered = 0;
    std::size_t violations = 0;

    /** One-line JSON object, as the report and a `phase_job` print it. */
    std::string toJson() const;

    /**
     * Read toJson()'s fields back from @p obj (extra members are
     * ignored); nullopt with @p err naming the field on a missing or
     * malformed one.
     */
    static std::optional<VariantResult> fromJson(const json::Value &obj,
                                                 std::string &err);
};

/**
 * What a phase-window job reads of a phase network besides its
 * VariantResult. Only the in-process per-phase step fills it; a
 * `phase_job` result does not carry it and the report never reads it.
 */
struct NetworkDetail
{
    std::uint32_t switchArea = 0; ///< the paper's split of `area`
    std::uint32_t linkArea = 0;
    std::uint32_t procLinkArea = 0;
    double avgHops = 0.0;
    double maxLinkUtil = 0.0;
    std::uint32_t rounds = 0; ///< methodology rounds
    bool constraintsMet = false;
};

/** Per-phase row of the report. */
struct PhaseRow
{
    PhaseInfo info;
    /** The phase's own network, driven by the phase's sub-trace. */
    VariantResult network;
};

/** The full phase-gain comparison. */
struct PhaseReport
{
    std::string pattern;
    std::uint32_t ranks = 0;
    std::string methodologySignature;
    std::string segmenterSignature;
    sim::Cycle reconfigCost = 0;

    std::size_t numMessages = 0;
    std::uint32_t numWindows = 0;
    std::vector<double> distances;

    std::vector<PhaseRow> phases;

    VariantResult monolithic;
    VariantResult unionVariant;
    VariantResult timeMultiplexed;

    /** Reconfiguration accounting inside the time-multiplexed run. */
    std::uint32_t reconfigCount = 0;
    sim::Cycle reconfigCycles = 0;
    double reconfigEnergy = 0.0;

    /** Union-design Theorem-1 violations per phase clique set. */
    std::vector<std::size_t> unionPhaseViolations;

    /** Deterministic JSON (schema "minnoc-phase-1"). */
    std::string toJson() const;

    /** Human-readable comparison table. */
    std::string summaryTable() const;
};

/**
 * One phase's row: its network's VariantResult over the phase's
 * sub-trace plus the energy that network leaks idling one
 * reconfiguration window. Nothing design-shaped, so a daemon ships it
 * as a handful of numbers.
 */
struct PhaseRowEval
{
    VariantResult network;
    /** In-process rows only (see NetworkDetail). */
    NetworkDetail detail;
    /** computeEnergy of this network idling reconfigCost cycles. */
    double reconfigIdleEnergy = 0.0;
};

/**
 * The per-phase step every row comes from: synthesize phase @p p's
 * network over its @p standalone cliques (restarts on @p pool, or in
 * order on the calling thread when it is null; telemetry off) and
 * evaluate it on the phase's sub-trace. With a @p traceLog, a
 * "methodology" span and the evaluation's spans go on DSE track @p tid.
 */
PhaseRowEval evalPhaseStandalone(const trace::Trace &trace,
                                 const Segmentation &seg,
                                 const core::CliqueSet &standalone,
                                 std::uint32_t p,
                                 const PhaseEvalConfig &config,
                                 ThreadPool *pool,
                                 obs::TraceEventLog *traceLog = nullptr,
                                 std::uint32_t tid = 0);

/**
 * The time-multiplexed variant alone, as a phase-window job prices it:
 * every row a task on @p pool as evaluatePhases runs them (spans as
 * evalPhaseStandalone's), folded as the report folds them, with the
 * same fold of the rows' details.
 */
std::pair<VariantResult, NetworkDetail>
evaluateTimeMultiplexed(const trace::Trace &trace,
                        const PhaseEvalConfig &config, ThreadPool *pool,
                        obs::TraceEventLog *traceLog = nullptr,
                        std::uint32_t tid = 0);

/** One PhaseRowEval per detected phase of @p seg, in phase order. */
using PhaseRowSource = std::function<std::vector<PhaseRowEval>(
    const Segmentation &seg, const PhaseCliques &cliques)>;

/**
 * The phase comparison around a source of rows, shared by
 * evaluatePhases and the distributed coordinator so their reports are
 * byte-identical by construction. The whole-trace half (monolithic
 * methodology, then the union design, each replaying the full trace)
 * and @p rows are two tasks on @p pool, the monolithic restarts on it
 * too; with no pool the whole-trace half runs first, inline. The pool
 * may be shared, and the call may itself run on one of its workers.
 */
PhaseReport runPhasePipeline(const trace::Trace &trace,
                             const PhaseEvalConfig &config, ThreadPool *pool,
                             const PhaseRowSource &rows);

/**
 * runPhasePipeline with each row its own task on @p pool, its restarts
 * on the same pool (all in order on the calling thread when null);
 * identical at every pool size.
 */
PhaseReport evaluatePhases(const trace::Trace &trace,
                           const PhaseEvalConfig &config, ThreadPool *pool);

/** evaluatePhases on a pool of config.threads workers. */
PhaseReport evaluatePhases(const trace::Trace &trace,
                           const PhaseEvalConfig &config);

} // namespace minnoc::phase

#endif // MINNOC_PHASE_EVALUATOR_HPP
