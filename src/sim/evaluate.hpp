/**
 * @file
 * The design-evaluation step: how every generated network is judged.
 *
 * One finalized design on one trace goes through floorplan → network
 * build → trace-driven simulation → energy, the paper's area, run-time
 * and power axes in that order. The explorer's jobs and the phase
 * comparison's variants all evaluate through here; benches, examples
 * and the CLI `simulate` command time or vary single stages and call
 * the stage functions directly.
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

/** Everything one evaluation produced. */
struct DesignEvaluation
{
    /** Placement and the paper's area split. */
    topo::Floorplan plan;
    topo::BuiltNetwork net;
    SimResult sim;
    /** Energy of the simulated run. */
    topo::EnergyReport energy;
    /** Total energy of the same network idling the requested cycles. */
    double idleEnergy = 0.0;
};

/**
 * Floorplan, build, replay @p trace on, and price @p design; also
 * price the network idling @p idleCycles with no traffic (the
 * reconfiguration window a time-multiplexed network is swapped in
 * during). When @p traceLog is set, the "floorplan", "build" and
 * "simulate" stages become wall-clock spans on DSE track @p tid.
 */
DesignEvaluation evaluateDesign(const core::FinalizedDesign &design,
                                const trace::Trace &trace,
                                const topo::FloorplanConfig &floorplan,
                                const SimConfig &config,
                                const topo::PowerModel &power,
                                Cycle idleCycles,
                                obs::TraceEventLog *traceLog = nullptr,
                                std::uint32_t tid = 0);

} // namespace minnoc::sim

#endif // MINNOC_SIM_EVALUATE_HPP
