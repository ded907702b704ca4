#include "evaluate.hpp"

#include <vector>

#include "obs/metrics.hpp"

namespace minnoc::sim {

DesignEvaluation
evaluateDesign(const core::FinalizedDesign &design,
               const trace::Trace &trace,
               const topo::FloorplanConfig &floorplan,
               const SimConfig &config, const topo::PowerModel &power,
               Cycle idleCycles, obs::TraceEventLog *traceLog,
               std::uint32_t tid)
{
    const auto tick = [traceLog]() {
        return traceLog ? obs::wallMicros() : 0;
    };
    const auto span = [traceLog, tid](const char *name,
                                      std::int64_t start) {
        if constexpr (obs::kEnabled) {
            if (traceLog)
                traceLog->complete(name, obs::kPidDse, tid, start,
                                   obs::wallMicros() - start);
        }
    };

    DesignEvaluation e;
    auto t = tick();
    e.plan = topo::planFloor(design, floorplan);
    e.net = topo::buildFromDesign(design, e.plan);
    span("build", t);

    t = tick();
    e.sim = runTrace(trace, *e.net.topo, *e.net.routing, config);
    span("simulate", t);

    e.energy = topo::computeEnergy(*e.net.topo, e.sim.linkFlits,
                                   e.sim.execTime, e.sim.activity, power);
    const std::vector<std::uint64_t> idle(e.sim.linkFlits.size(), 0);
    e.idleEnergy =
        topo::computeEnergy(*e.net.topo, idle, idleCycles, power).total();
    return e;
}

} // namespace minnoc::sim
