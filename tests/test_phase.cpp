/**
 * @file
 * Unit tests for the phase subsystem: workload segmentation, sub-trace
 * extraction, multi-phase synthesis, and the phase-gain evaluator.
 *
 * The fixtures are phaseShift() traces, whose epoch structure is the
 * ground truth: the segmenter must recover every epoch boundary to
 * within one window, the union design must verify contention-free
 * against every phase's clique set, and the evaluator's JSON report
 * must be byte-identical across thread counts and reruns.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <set>
#include <thread>

#include "core/verify.hpp"
#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"
#include "phase/multi_design.hpp"
#include "phase/segmenter.hpp"
#include "trace/synthetic.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

using namespace minnoc;
using namespace minnoc::phase;

namespace {

/** The canonical three-epoch fixture (~352 messages, 16 ranks). */
trace::Trace
shiftTrace()
{
    return trace::phaseShift({trace::Pattern::Neighbor,
                              trace::Pattern::Transpose,
                              trace::Pattern::Hotspot});
}

/** A fast methodology configuration for evaluator tests. */
PhaseEvalConfig
fastEvalConfig()
{
    PhaseEvalConfig cfg;
    cfg.methodology.partitioner.constraints.maxDegree = 5;
    cfg.methodology.restarts = 4;
    cfg.threads = 1;
    return cfg;
}

} // namespace

TEST(Segmenter, EmptyTraceYieldsEmptySegmentation)
{
    const trace::Trace tr("empty", 4);
    const auto seg = segmentTrace(tr);
    EXPECT_EQ(seg.numMessages, 0u);
    EXPECT_EQ(seg.numWindows, 0u);
    EXPECT_TRUE(seg.phases.empty());
}

TEST(Segmenter, SinglePatternIsOnePhase)
{
    const auto tr = trace::phaseShift({trace::Pattern::Neighbor});
    const auto seg = segmentTrace(tr);
    ASSERT_EQ(seg.phases.size(), 1u);
    EXPECT_EQ(seg.phases[0].messages, tr.numSends());
    EXPECT_EQ(seg.phases[0].firstWindow, 0u);
    EXPECT_EQ(seg.phases[0].lastWindow, seg.numWindows - 1);
}

TEST(Segmenter, RecoversEpochBoundariesWithinOneWindow)
{
    const auto tr = shiftTrace();
    const auto seg = segmentTrace(tr);
    ASSERT_EQ(seg.phases.size(), 3u);

    // Epoch message counts: neighbor 16x8, transpose skips the four
    // diagonal fixed points of the 4x4 grid (12x8), hotspot 16x8. The
    // true boundaries in message index are 128 and 224; with 64-message
    // windows those land at window starts 2.0 and 3.5.
    const double window = static_cast<double>(seg.config.windowMessages);
    const double expected[] = {128.0 / window, 224.0 / window};
    for (int b = 0; b < 2; ++b) {
        const double got = seg.phases[b + 1].firstWindow;
        EXPECT_NEAR(got, expected[b], 1.0)
            << "boundary " << b << " off by more than one window";
    }
}

TEST(Segmenter, EveryCallOwnedByExactlyOnePhase)
{
    const auto tr = shiftTrace();
    const auto seg = segmentTrace(tr);

    std::set<std::uint32_t> used;
    for (core::ProcId r = 0; r < tr.numRanks(); ++r)
        for (const auto &op : tr.timeline(r))
            if (op.kind == trace::OpKind::Send)
                used.insert(op.callId);

    std::set<std::uint32_t> owned;
    std::size_t messages = 0;
    for (const auto &p : seg.phases) {
        for (const auto c : p.calls) {
            EXPECT_TRUE(owned.insert(c).second)
                << "call " << c << " owned twice";
            EXPECT_EQ(seg.callPhase.at(c), p.index);
        }
        messages += p.messages;
    }
    EXPECT_EQ(owned, used);
    EXPECT_EQ(messages, tr.numSends());
}

TEST(Segmenter, IsDeterministic)
{
    const auto tr = shiftTrace();
    const auto a = segmentTrace(tr);
    const auto b = segmentTrace(tr);
    EXPECT_EQ(a.boundaries, b.boundaries);
    EXPECT_EQ(a.distances, b.distances);
    EXPECT_EQ(a.callPhase, b.callPhase);
}

TEST(Segmenter, RejectsBadConfig)
{
    const auto tr = shiftTrace();
    PhaseConfig cfg;
    cfg.windowMessages = 0;
    EXPECT_EXIT(segmentTrace(tr, cfg), ::testing::ExitedWithCode(1),
                "window");
}

TEST(SubTrace, PartitionsMessagesAndStaysWellFormed)
{
    const auto tr = shiftTrace();
    const auto seg = segmentTrace(tr);
    ASSERT_EQ(seg.phases.size(), 3u);

    std::size_t total = 0;
    for (std::uint32_t p = 0; p < seg.phases.size(); ++p) {
        const auto sub = phaseSubTrace(tr, seg, p);
        sub.validateMatching(); // panics on unmatched send/recv
        EXPECT_EQ(sub.numRanks(), tr.numRanks());
        EXPECT_EQ(sub.numSends(), seg.phases[p].messages);
        total += sub.numSends();
    }
    EXPECT_EQ(total, tr.numSends());
}

TEST(MultiDesign, SharedRegistriesAlign)
{
    const auto tr = shiftTrace();
    const auto seg = segmentTrace(tr);
    const auto cliques = buildPhaseCliques(tr, seg);

    ASSERT_EQ(cliques.shared.size(), seg.phases.size());
    // Every shared set is pinned to the merged registry: same comm
    // universe, same ids, cliques restricted to the phase's calls.
    std::size_t sharedCliques = 0;
    for (const auto &s : cliques.shared) {
        EXPECT_EQ(s.numComms(), cliques.merged.numComms());
        sharedCliques += s.numCliques();
    }
    EXPECT_EQ(sharedCliques, cliques.merged.numCliques());
}

TEST(MultiDesign, UnionDesignIsContentionFreePerPhase)
{
    const auto tr = shiftTrace();
    const auto seg = segmentTrace(tr);

    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = 5;
    mcfg.restarts = 4;
    const auto cliques = buildPhaseCliques(tr, seg);
    const auto multi = synthesizeMultiPhase(cliques, mcfg);

    ASSERT_EQ(multi.unionPhaseViolations.size(), seg.phases.size());
    EXPECT_EQ(multi.unionViolationCount(), 0u);
    // And re-check independently against each phase's shared cliques.
    for (std::uint32_t p = 0; p < seg.phases.size(); ++p) {
        EXPECT_TRUE(core::checkContentionFree(multi.unionDesign,
                                              cliques.shared[p])
                        .empty())
            << "phase " << p;
    }
}

TEST(Evaluator, ReportIsByteIdenticalAcrossThreadsAndReruns)
{
    const auto tr = shiftTrace();
    auto cfg = fastEvalConfig();
    const auto first = evaluatePhases(tr, cfg).toJson();
    const auto rerun = evaluatePhases(tr, cfg).toJson();
    EXPECT_EQ(first, rerun);

    cfg.threads = 4;
    const auto threaded = evaluatePhases(tr, cfg).toJson();
    EXPECT_EQ(first, threaded);
}

TEST(Evaluator, ReportParsesAndCoversAllVariants)
{
    const auto tr = shiftTrace();
    const auto report = evaluatePhases(tr, fastEvalConfig());
    const auto parsed = json::parse(report.toJson());
    ASSERT_TRUE(parsed.has_value());
    const auto &root = parsed->asObject();

    EXPECT_EQ(root.at("schema").asString(), "minnoc-phase-1");
    EXPECT_EQ(root.at("phases").asArray().size(), report.phases.size());
    const auto &variants = root.at("variants").asObject();
    for (const char *v : {"monolithic", "union", "time_multiplexed"}) {
        const auto &obj = variants.at(v).asObject();
        EXPECT_GT(obj.at("exec_time").asNumber(), 0.0) << v;
        EXPECT_GT(obj.at("area").asNumber(), 0.0) << v;
    }
    const auto &reconfig = root.at("reconfig").asObject();
    EXPECT_EQ(reconfig.at("count").asNumber(),
              static_cast<double>(report.phases.size() - 1));
}

TEST(Evaluator, ReconfigCostRaisesTimeMultiplexedExecTime)
{
    const auto tr = shiftTrace();
    auto cfg = fastEvalConfig();
    cfg.reconfigCost = 0;
    const auto cheap = evaluatePhases(tr, cfg);
    cfg.reconfigCost = 1000;
    const auto dear = evaluatePhases(tr, cfg);

    EXPECT_EQ(dear.timeMultiplexed.execTime,
              cheap.timeMultiplexed.execTime +
                  1000 * static_cast<sim::Cycle>(dear.reconfigCount));
    // Monolithic and union replay the full trace on one network and
    // never pay the penalty.
    EXPECT_EQ(dear.monolithic.execTime, cheap.monolithic.execTime);
    EXPECT_EQ(dear.unionVariant.execTime, cheap.unionVariant.execTime);
}

TEST(Evaluator, CancelWhileQueuedOnSharedPoolThrowsWithoutHanging)
{
    const auto tr = shiftTrace();
    auto cfg = fastEvalConfig();
    const auto expected = evaluatePhases(tr, cfg).toJson();

    // A shared one-worker pool held by another task: the monolithic
    // restarts and every row queue behind it while the token fires.
    ThreadPool pool(1);
    std::promise<void> gate;
    auto held = pool.submit([opened = gate.get_future().share()] {
        opened.wait();
    });
    CancelToken token;
    auto cancelled = cfg;
    cancelled.methodology.cancel = &token;
    cancelled.sim.cancel = &token;
    std::thread release([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        token.cancel(CancelReason::Deadline);
        gate.set_value();
    });
    EXPECT_THROW(evaluatePhases(tr, cancelled, &pool), CancelledError);
    release.join();
    held.get();

    // Nothing of the cancelled run is left on the pool.
    EXPECT_EQ(evaluatePhases(tr, cfg, &pool).toJson(), expected);
}

TEST(Evaluator, PhaseWindowJobMatchesTimeMultiplexedVariant)
{
    const auto tr = shiftTrace();
    const auto cfg = fastEvalConfig();
    const auto report = evaluatePhases(tr, cfg);
    ASSERT_GT(report.reconfigCount, 0u);

    // The same segmenter, methodology, simulator and penalty as a
    // one-point explorer grid whose only job is phase-window.
    dse::ExploreConfig ecfg;
    ecfg.phaseSegmenter = cfg.segmenter;
    ecfg.phaseReconfigCost = cfg.reconfigCost;
    ecfg.sim = cfg.sim;
    ecfg.useCache = false;
    ecfg.threads = 1;
    auto &grid = ecfg.grid;
    grid.maxDegrees = {cfg.methodology.partitioner.constraints.maxDegree};
    grid.restarts = {cfg.methodology.restarts};
    grid.seeds = {cfg.methodology.partitioner.seed};
    grid.unidirectional = {0};
    grid.vcs = {cfg.sim.numVcs};
    grid.vcDepth = cfg.sim.vcDepth;
    grid.phaseWindows = {cfg.segmenter.windowMessages};
    const auto sweep = dse::explore(tr, ecfg);
    ASSERT_EQ(sweep.points.size(), 1u);
    const auto &m = sweep.points[0].metrics;

    const VariantResult &tm = report.timeMultiplexed;
    EXPECT_EQ(m.execTime, tm.execTime);
    EXPECT_GT(m.execTime, report.reconfigCycles);
    EXPECT_DOUBLE_EQ(m.energy, tm.energy);
    EXPECT_DOUBLE_EQ(m.avgLatency, tm.avgLatency);
    EXPECT_EQ(m.switches, tm.switches);
    EXPECT_EQ(m.links, tm.links);
    EXPECT_EQ(m.channels, tm.channels);
}
