/**
 * @file
 * Determinism of the exported observability data: the default metrics
 * JSON (timing metrics excluded) must be byte-identical across thread
 * counts and across repeated runs, because CI diffs it and the DSE
 * result cache assumes telemetry never perturbs results.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/methodology.hpp"
#include "dse/explorer.hpp"
#include "obs/metrics.hpp"
#include "obs/sim_observer.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;

namespace {

trace::Trace
nasTrace(trace::Benchmark bench, std::uint32_t ranks)
{
    trace::NasConfig cfg;
    cfg.ranks = ranks;
    cfg.iterations = 1;
    cfg.seed = 1;
    return trace::generateBenchmark(bench, cfg);
}

trace::Trace
cgTrace(std::uint32_t ranks)
{
    return nasTrace(trace::Benchmark::CG, ranks);
}

std::string
exploreMetricsJson(const trace::Trace &tr, std::uint32_t threads)
{
    obs::MetricsRegistry registry;
    dse::ExploreConfig cfg;
    cfg.grid.maxDegrees = {4, 5};
    cfg.grid.unidirectional = {0};
    cfg.grid.vcs = {2};
    cfg.threads = threads;
    cfg.useCache = false;
    cfg.metrics = &registry;
    (void)dse::explore(tr, cfg);
    return registry.toJson();
}

std::string
simulateMetricsJson(const trace::Trace &tr)
{
    const auto mesh = topo::buildMesh(tr.numRanks());
    obs::SimObserver observer;
    obs::MetricsRegistry registry;
    (void)sim::runTrace(tr, *mesh.topo, *mesh.routing, sim::SimConfig{},
                        &observer);
    observer.exportTo(registry);
    return registry.toJson();
}

void
runMethodology(const trace::Trace &tr, std::uint32_t threads,
               obs::MetricsRegistry &registry)
{
    core::MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    cfg.partitioner.seed = 1;
    cfg.restarts = 6;
    cfg.threads = threads;
    cfg.metrics = &registry;
    (void)core::runMethodology(trace::analyzeByCall(tr), cfg);
}

std::string
methodologyMetricsJson(const trace::Trace &tr, std::uint32_t threads)
{
    obs::MetricsRegistry registry;
    runMethodology(tr, threads, registry);
    return registry.toJson();
}

} // namespace

TEST(MetricsDeterminism, ExploreIdenticalAcrossThreadCounts)
{
    const auto tr = cgTrace(16);
    const auto one = exploreMetricsJson(tr, 1);
    const auto four = exploreMetricsJson(tr, 4);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, four)
        << "DSE metrics JSON must be byte-identical at any --threads";
}

TEST(MetricsDeterminism, MethodologyIdenticalAcrossThreadCounts)
{
    const auto tr = cgTrace(16);
    const auto one = methodologyMetricsJson(tr, 1);
    const auto four = methodologyMetricsJson(tr, 4);
    if (obs::kEnabled) {
        EXPECT_NE(one.find("methodology/restart/0/cost_curve"),
                  std::string::npos);
    }
    EXPECT_EQ(one, four)
        << "restart telemetry must replay identically at any "
           "thread count";
}

TEST(MetricsDeterminism, MergeCountersIdenticalAcrossThreadCounts)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "metrics compiled out (MINNOC_OBS=OFF)";
    const auto tr = nasTrace(trace::Benchmark::BT, 16);
    obs::MetricsRegistry one;
    obs::MetricsRegistry four;
    runMethodology(tr, 1, one);
    runMethodology(tr, 4, four);
    for (const char *name :
         {"methodology/merge/candidates", "methodology/merge/accepted"}) {
        EXPECT_EQ(one.counter(name).value(), four.counter(name).value())
            << name;
    }
    const auto candidates =
        one.counter("methodology/merge/candidates").value();
    const auto accepted = one.counter("methodology/merge/accepted").value();
    EXPECT_GE(candidates, accepted);
    EXPECT_GE(accepted, 1u);
}

TEST(MetricsDeterminism, SimulateIdenticalAcrossRuns)
{
    const auto tr = cgTrace(16);
    const auto a = simulateMetricsJson(tr);
    const auto b = simulateMetricsJson(tr);
    if (obs::kEnabled) {
        EXPECT_NE(a.find("sim/latency"), std::string::npos);
    }
    EXPECT_EQ(a, b)
        << "simulator metrics must be byte-identical across reruns";
}
