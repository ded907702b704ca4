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

#include <string>
#include <vector>

#include "multi_design.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "sim/config.hpp"
#include "topo/floorplan.hpp"
#include "topo/power.hpp"

namespace minnoc::phase {

/** Everything one evaluatePhases run needs. */
struct PhaseEvalConfig
{
    PhaseConfig segmenter;
    core::MethodologyConfig methodology;
    topo::FloorplanConfig floorplan;
    topo::PowerModel power;
    sim::SimConfig sim;

    /** Drain+swap penalty charged per phase boundary (cycles). */
    sim::Cycle reconfigCost = 500;

    /**
     * Worker threads for the methodology restart loops (0 = hardware
     * concurrency). Results are identical at every thread count.
     */
    std::uint32_t threads = 0;

    /** Optional telemetry sinks (not owned, may be null). */
    obs::MetricsRegistry *metrics = nullptr;
    obs::TraceEventLog *traceLog = nullptr;
};

/** Simulated metrics of one design variant over the full workload. */
struct VariantResult
{
    std::uint32_t switches = 0;
    std::uint32_t links = 0;
    std::uint32_t channels = 0;
    std::uint32_t area = 0;
    sim::Cycle execTime = 0;
    double avgLatency = 0.0;
    double energy = 0.0;
    std::uint64_t packetsDelivered = 0;
    std::size_t violations = 0;
};

/** Per-phase row of the report. */
struct PhaseRow
{
    std::uint32_t index = 0;
    std::uint32_t firstWindow = 0;
    std::uint32_t lastWindow = 0;
    std::size_t calls = 0;
    std::size_t messages = 0;
    std::uint64_t bytes = 0;
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
 * One phase's contribution to the time-multiplexed comparison: the
 * phase network's VariantResult over its own sub-trace plus the energy
 * that network leaks while idling one reconfiguration window.
 * Everything the report assembly needs and nothing design-shaped, so a
 * distributed worker ships it as a handful of numbers.
 */
struct PhaseRowEval
{
    VariantResult network;
    /** computeEnergy of this network idling reconfigCost cycles. */
    double reconfigIdleEnergy = 0.0;
};

/**
 * Worker-side unit of the distributed phases pipeline: synthesize
 * phase @p p's standalone design (sequential, telemetry off — exactly
 * how synthesizeMultiPhase runs it) and evaluate it. Produces the same
 * row evaluatePhases computes for the same phase at any thread count.
 */
PhaseRowEval evalPhaseStandalone(const trace::Trace &trace,
                                 const Segmentation &seg,
                                 const core::CliqueSet &standalone,
                                 std::uint32_t p,
                                 const PhaseEvalConfig &config);

/**
 * Evaluate @p multi's whole-trace variants (monolithic and union, each
 * replaying the full trace) and assemble the full PhaseReport around
 * them and the pre-computed phase rows (@p rows is one PhaseRowEval
 * per detected phase, in phase order): time-multiplexed aggregation,
 * reconfiguration accounting, metrics and trace-event emission. The
 * merge point evaluatePhases and the distributed coordinator share,
 * so their reports are byte-identical by construction.
 */
PhaseReport assemblePhaseReport(const trace::Trace &trace,
                                const PhaseEvalConfig &config,
                                const Segmentation &seg,
                                const MultiPhaseResult &multi,
                                const std::vector<PhaseRowEval> &rows);

/**
 * Segment @p trace, synthesize the three variants, replay each, and
 * assemble the comparison report.
 */
PhaseReport evaluatePhases(const trace::Trace &trace,
                           const PhaseEvalConfig &config);

} // namespace minnoc::phase

#endif // MINNOC_PHASE_EVALUATOR_HPP
