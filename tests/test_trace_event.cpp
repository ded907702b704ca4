/**
 * @file
 * Chrome trace-event exporter tests: the emitted JSON must satisfy the
 * trace-event schema (Perfetto / chrome://tracing object format) both
 * for hand-built logs and for a log produced by a real simulator run
 * through the SimObserver.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/methodology.hpp"
#include "dse/explorer.hpp"
#include "obs/sim_observer.hpp"
#include "obs/trace_event.hpp"
#include "sim/evaluate.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "util/json.hpp"

using namespace minnoc;

namespace {

/**
 * Assert @p dump is schema-valid trace-event JSON: a top-level object
 * with a "traceEvents" array whose entries all carry ph/name/pid/ts,
 * where "X" events carry a non-negative dur and "C" events a numeric
 * args.value, and complete/counter timestamps are non-decreasing.
 */
void
expectValidTraceEventJson(const std::string &dump)
{
    const auto parsed = json::parse(dump);
    ASSERT_TRUE(parsed.has_value()) << dump.substr(0, 400);
    ASSERT_TRUE(parsed->isObject());
    const auto *events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    const std::set<std::string> known = {"X", "C", "M", "B", "E", "i"};
    double lastTs = -1.0;
    for (const auto &e : events->asArray()) {
        ASSERT_TRUE(e.isObject());
        const auto *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_TRUE(ph->isString());
        EXPECT_TRUE(known.count(ph->asString()))
            << "unknown phase " << ph->asString();
        ASSERT_NE(e.find("name"), nullptr);
        EXPECT_TRUE(e.find("name")->isString());
        ASSERT_NE(e.find("pid"), nullptr);
        EXPECT_TRUE(e.find("pid")->isNumber());
        ASSERT_NE(e.find("ts"), nullptr);
        EXPECT_TRUE(e.find("ts")->isNumber());

        if (ph->asString() == "X") {
            const auto *dur = e.find("dur");
            ASSERT_NE(dur, nullptr);
            EXPECT_TRUE(dur->isNumber());
            EXPECT_GE(dur->asNumber(), 0.0);
        }
        if (ph->asString() == "C") {
            const auto *cargs = e.find("args");
            ASSERT_NE(cargs, nullptr);
            const auto *value = cargs->find("value");
            ASSERT_NE(value, nullptr);
            EXPECT_TRUE(value->isNumber());
        }
        if (ph->asString() != "M") {
            EXPECT_GE(e.find("ts")->asNumber(), lastTs)
                << "events not time-sorted";
            lastTs = e.find("ts")->asNumber();
        }
    }
}

} // namespace

TEST(TraceEventLog, HandBuiltLogIsSchemaValid)
{
    obs::TraceEventLog log;
    log.processName(obs::kPidSim, "proc \"quoted\"\n");
    log.threadName(obs::kPidSim, 3, "worker");
    log.complete("spanB", obs::kPidSim, 3, 200, 50);
    log.complete("spanA", obs::kPidSim, 3, 100, 25,
                 "\"detail\": 7");
    log.counter("occupancy", obs::kPidSim, 150, 42.5);
    EXPECT_EQ(log.size(), 5u);
    expectValidTraceEventJson(log.toJson());
}

TEST(TraceEventLog, EventsSortedByTimestamp)
{
    obs::TraceEventLog log;
    log.complete("late", 1, 0, 300, 10);
    log.complete("early", 1, 0, 10, 10);
    log.counter("c", 1, 100, 1.0);
    const auto parsed = json::parse(log.toJson());
    ASSERT_TRUE(parsed.has_value());
    const auto &events = parsed->find("traceEvents")->asArray();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].find("name")->asString(), "early");
    EXPECT_EQ(events[1].find("name")->asString(), "c");
    EXPECT_EQ(events[2].find("name")->asString(), "late");
}

TEST(TraceEventLog, NegativeDurationClampedToZero)
{
    obs::TraceEventLog log;
    log.complete("span", 1, 0, 100, -5);
    const auto parsed = json::parse(log.toJson());
    ASSERT_TRUE(parsed.has_value());
    const auto &events = parsed->find("traceEvents")->asArray();
    EXPECT_EQ(events[0].find("dur")->asNumber(), 0.0);
}

TEST(TraceEventLog, SimulatorRunProducesLoadableTrace)
{
    // The acceptance path: a real NAS-pattern simulation exported
    // through the observer must yield a valid trace with epoch spans
    // and occupancy counters on the simulator track.
    if (!obs::kEnabled)
        GTEST_SKIP() << "instrumentation compiled out (MINNOC_OBS=OFF)";
    trace::NasConfig cfg;
    cfg.ranks = 16;
    cfg.iterations = 1;
    cfg.seed = 1;
    const auto tr = trace::generateBenchmark(trace::Benchmark::CG, cfg);
    const auto net = topo::buildMesh(tr.numRanks());

    obs::SimObserver observer;
    sim::runTrace(tr, *net.topo, *net.routing, sim::SimConfig{},
                  &observer);
    ASSERT_GT(observer.epochCount(), 0u);

    obs::TraceEventLog log;
    observer.exportTrace(log);
    const auto dump = log.toJson();
    expectValidTraceEventJson(dump);
    EXPECT_NE(dump.find("\"epoch\""), std::string::npos);
    EXPECT_NE(dump.find("flits_in_network"), std::string::npos);
}

TEST(TraceEventLog, EvaluationStepSpansEachStage)
{
    // Floorplanning gets its own span, apart from the network build, so
    // a DSE trace shows where a job's evaluation time goes.
    if (!obs::kEnabled)
        GTEST_SKIP() << "instrumentation compiled out (MINNOC_OBS=OFF)";
    trace::NasConfig cfg;
    cfg.ranks = 8;
    cfg.iterations = 1;
    const auto tr = trace::generateBenchmark(trace::Benchmark::CG, cfg);
    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = 5;
    const auto outcome = core::runMethodology(trace::analyzeByCall(tr), mcfg);

    obs::TraceEventLog log;
    sim::evaluateDesign(outcome.design, tr, sim::SimConfig{},
                        topo::PowerModel{}, 0, &log, 5);
    const auto dump = log.toJson();
    expectValidTraceEventJson(dump);
    const auto parsed = json::parse(dump);
    std::map<std::string, int> spans;
    for (const auto &e : parsed->find("traceEvents")->asArray()) {
        if (e.find("ph")->asString() == "X" &&
            e.find("pid")->asNumber() == obs::kPidDse &&
            e.find("tid")->asNumber() == 5)
            ++spans[e.find("name")->asString()];
    }
    EXPECT_EQ(spans, (std::map<std::string, int>{
                         {"build", 1}, {"floorplan", 1}, {"simulate", 1}}));
}

TEST(TraceEventLog, ExploreSpansEachSharedTaskOnce)
{
    // The explorer runs each distinct methodology and each distinct
    // evaluation once; its trace shows exactly those runs, each inside
    // a "job <i>" span that names its stage.
    if (!obs::kEnabled)
        GTEST_SKIP() << "instrumentation compiled out (MINNOC_OBS=OFF)";
    trace::NasConfig ncfg;
    ncfg.ranks = 16;
    const auto tr = trace::generateBenchmark(trace::Benchmark::CG, ncfg);
    obs::TraceEventLog log;
    dse::ExploreConfig cfg;
    cfg.useCache = false;
    cfg.threads = 2;
    cfg.traceLog = &log;
    const auto report = dse::explore(tr, cfg);
    const auto dump = log.toJson();
    expectValidTraceEventJson(dump);

    const auto parsed = json::parse(dump);
    std::map<std::string, std::size_t> spans;
    std::map<std::string, std::size_t> stages;
    for (const auto &e : parsed->find("traceEvents")->asArray()) {
        if (e.find("ph")->asString() != "X" ||
            e.find("pid")->asNumber() != obs::kPidDse)
            continue;
        const auto &name = e.find("name")->asString();
        if (name.rfind("job ", 0) == 0) {
            const auto *args = e.find("args");
            ASSERT_NE(args, nullptr) << name;
            ++stages[args->find("stage")->asString()];
        } else {
            ++spans[name];
        }
    }
    EXPECT_EQ(spans["methodology"], report.methodologyRuns);
    EXPECT_EQ(spans["simulate"], report.evaluations);
    EXPECT_EQ(stages, (std::map<std::string, std::size_t>{
                          {"evaluation", report.evaluations},
                          {"methodology", report.methodologyRuns}}));
}

TEST(SimObserver, EpochDoublingBoundsSamples)
{
    // Feed a long synthetic run: retained epochs must stay under the
    // cap while the period doubles, and the boundaries stay ordered.
    obs::SimObserver observer(/*epochCycles=*/4, /*sampleCap=*/16);
    std::vector<std::uint64_t> linkFlits(3, 0);
    std::uint64_t flits = 0;
    for (std::int64_t now = 1; now <= 100000; ++now) {
        linkFlits[now % 3] += 1;
        flits = now % 7;
        observer.onStep(now, flits, linkFlits);
    }
    EXPECT_LE(observer.epochCount(), 16u);
    EXPECT_GT(observer.epochCycles(), 4);

    obs::MetricsRegistry reg;
    obs::SimObserver::FinalCounters fc;
    observer.finish(fc, 100001, flits, linkFlits);
    observer.exportTo(reg);
    const auto dump = reg.toJson();
    EXPECT_NE(dump.find("sim/occupancy"), std::string::npos);
    EXPECT_NE(dump.find("sim/link/0/util"), std::string::npos);
    EXPECT_TRUE(json::parse(dump).has_value());
}
