#include "evaluate.hpp"

#include <vector>

namespace minnoc::sim {

NetworkEvaluation
evaluateNetwork(const topo::BuiltNetwork &net, const trace::Trace &trace,
                const SimConfig &config, const topo::PowerModel &power,
                Cycle idleCycles, obs::TraceEventLog *traceLog,
                std::uint32_t tid)
{
    NetworkEvaluation e;
    const auto t = obs::spanStart(traceLog);
    e.sim = runTrace(trace, *net.topo, *net.routing, config);
    obs::spanEnd(traceLog, obs::kPidDse, "simulate", tid, t);

    e.energy = topo::computeEnergy(*net.topo, e.sim.linkFlits,
                                   e.sim.execTime, e.sim.activity, power);
    const std::vector<std::uint64_t> idle(e.sim.linkFlits.size(), 0);
    e.idleEnergy =
        topo::computeEnergy(*net.topo, idle, idleCycles, power).total();
    return e;
}

DesignEvaluation
evaluateDesign(const core::FinalizedDesign &design,
               const trace::Trace &trace, const SimConfig &config,
               const topo::PowerModel &power, Cycle idleCycles,
               obs::TraceEventLog *traceLog, std::uint32_t tid)
{
    DesignEvaluation e;
    auto t = obs::spanStart(traceLog);
    e.plan = topo::planFloor(design);
    obs::spanEnd(traceLog, obs::kPidDse, "floorplan", tid, t);

    t = obs::spanStart(traceLog);
    e.net = topo::buildFromDesign(design, e.plan);
    obs::spanEnd(traceLog, obs::kPidDse, "build", tid, t);

    static_cast<NetworkEvaluation &>(e) = evaluateNetwork(
        e.net, trace, config, power, idleCycles, traceLog, tid);
    return e;
}

} // namespace minnoc::sim
