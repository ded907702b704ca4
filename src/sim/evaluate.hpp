/**
 * @file
 * The evaluation step: how every network in the paper's comparison is
 * judged.
 *
 * evaluateNetwork replays a trace on a built network and prices the
 * run, the paper's run-time and power axes; evaluateDesign puts a
 * finalized design through floorplan and build first, adding the area
 * axis. The explorer, the phase comparison, `minnoc compare`, the
 * figure benches and the examples all judge networks through here,
 * baselines from topo::buildBaseline included. Only callers that vary
 * a stage call the stage functions directly: `minnoc simulate` and
 * the resilience bench (faults, observers), floorplan-only area
 * reports, and the activity-tier energy in the power benches.
 */

#ifndef MINNOC_SIM_EVALUATE_HPP
#define MINNOC_SIM_EVALUATE_HPP

#include <cstdint>

#include "core/finalize.hpp"
#include "obs/trace_event.hpp"
#include "topo/builders.hpp"
#include "topo/floorplan.hpp"
#include "trace_driver.hpp"

namespace minnoc::sim {

/** Everything one evaluation of a built network produced. */
struct NetworkEvaluation
{
    SimResult sim;
    /** Energy of the simulated run. */
    topo::EnergyReport energy;
    /** Total energy of the same network idling the requested cycles. */
    double idleEnergy = 0.0;
};

/** A network evaluation plus the design's placement and network. */
struct DesignEvaluation : NetworkEvaluation
{
    /** Placement and the paper's area split. */
    topo::Floorplan plan;
    topo::BuiltNetwork net;
};

/**
 * Replay @p trace on @p net and price the run; also price the network
 * idling @p idleCycles with no traffic (the reconfiguration window a
 * time-multiplexed network is swapped in during). When @p traceLog is
 * set, the simulation becomes a "simulate" wall-clock span on DSE
 * track @p tid.
 */
NetworkEvaluation evaluateNetwork(const topo::BuiltNetwork &net,
                                  const trace::Trace &trace,
                                  const SimConfig &config = {},
                                  const topo::PowerModel &power = {},
                                  Cycle idleCycles = 0,
                                  obs::TraceEventLog *traceLog = nullptr,
                                  std::uint32_t tid = 0);

/**
 * Floorplan (default FloorplanConfig) and build @p design, then
 * evaluateNetwork() it. With a @p traceLog, "floorplan" and "build"
 * spans precede "simulate".
 */
DesignEvaluation evaluateDesign(const core::FinalizedDesign &design,
                                const trace::Trace &trace,
                                const SimConfig &config = {},
                                const topo::PowerModel &power = {},
                                Cycle idleCycles = 0,
                                obs::TraceEventLog *traceLog = nullptr,
                                std::uint32_t tid = 0);

} // namespace minnoc::sim

#endif // MINNOC_SIM_EVALUATE_HPP
