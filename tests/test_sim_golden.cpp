/**
 * @file
 * Golden corpus of simulator results: the five NAS patterns at 16
 * ranks, each replayed on the crossbar, the mesh, the adaptive torus
 * and the generated design, plus one run with mid-run link failures
 * and flit corruption and one run with a SimObserver attached. Every
 * case pins execution time, the exact bits of mean latency and hops,
 * delivery and recovery counts, retransmissions, the flits each link
 * carried, the three activity-power counters, each rank's finish and
 * communication time and the cycles the network was stepped, so a
 * change to the simulator's internals that moves any simulated result
 * fails here. The per-rank lines guard the trace driver's scheduling:
 * exec_time is only their maximum and can hide a rank woken late.
 *
 * The torus runs on one shallow VC with a short deadlock timeout, so
 * its fully adaptive routing deadlocks and the regressive recovery
 * (victim scan, purge, retransmit) runs inside the corpus.
 *
 * Regeneration (after an INTENTIONAL change to simulated results):
 *
 *     MINNOC_REGEN_GOLDEN=1 ./build/tests/test_sim_golden
 *
 * then review the tests/golden/sim.golden diff like any other code
 * change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/methodology.hpp"
#include "dse/cache.hpp"
#include "obs/metrics.hpp"
#include "obs/sim_observer.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;

namespace {

constexpr std::uint32_t kRanks = 16;

const std::string &
goldenPath()
{
    static const std::string path =
        std::string(MINNOC_TESTS_DIR) + "/golden/sim.golden";
    return path;
}

trace::Trace
nasTrace(trace::Benchmark bench)
{
    trace::NasConfig cfg;
    cfg.ranks = kRanks;
    cfg.iterations = 1;
    cfg.seed = 1;
    return trace::generateBenchmark(bench, cfg);
}

/** The generated network for @p tr: small methodology, fixed seed. */
topo::BuiltNetwork
generatedNetwork(const trace::Trace &tr)
{
    core::MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    cfg.partitioner.seed = 1;
    cfg.restarts = 2;
    cfg.threads = 1;
    const auto outcome = core::runMethodology(trace::analyzeByCall(tr), cfg);
    return topo::buildFromDesign(outcome.design,
                                 topo::planFloor(outcome.design));
}

/** One shallow VC and a short timeout: adaptive routing deadlocks. */
sim::SimConfig
recoveryConfig()
{
    sim::SimConfig cfg;
    cfg.numVcs = 1;
    cfg.vcDepth = 2;
    cfg.deadlockTimeout = 300;
    cfg.deadlockScanInterval = 64;
    return cfg;
}

std::string
bits(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Comma-separated values of @p v. */
template <class T>
std::string
joined(const std::vector<T> &v)
{
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(v[i]);
    }
    return out;
}

/** One replay and how many cycles its network was stepped. */
struct Run
{
    sim::SimResult result;
    std::uint64_t steppedCycles = 0;
};

Run
run(const trace::Trace &tr, const topo::BuiltNetwork &net,
    const sim::SimConfig &config = {}, const sim::FaultConfig &faults = {},
    obs::SimObserver *observer = nullptr)
{
    sim::Network network(*net.topo, *net.routing, config,
                         sim::FaultModel(*net.topo, faults));
    network.setObserver(observer);
    Run out;
    out.result = sim::runTrace(tr, network);
    out.steppedCycles = network.steppedCycles();
    return out;
}

/** Render one case's pinned fields in the golden file format. */
std::string
render(const std::string &name, const Run &run)
{
    const sim::SimResult &r = run.result;
    std::ostringstream oss;
    oss << "[" << name << "]\n"
        << "exec_time=" << r.execTime << "\n"
        << "avg_latency=" << bits(r.avgPacketLatency) << "\n"
        << "avg_hops=" << bits(r.avgPacketHops) << "\n"
        << "packets_delivered=" << r.packetsDelivered << "\n"
        << "packets_dropped=" << r.packetsDropped << "\n"
        << "deadlock_recoveries=" << r.deadlockRecoveries << "\n"
        << "retransmissions=" << r.retransmissions << "\n"
        << "corrupted_flits=" << r.corruptedFlits << "\n"
        << "buffer_writes=" << r.activity.bufferWrites << "\n"
        << "buffer_reads=" << r.activity.bufferReads << "\n"
        << "resident_flit_cycles=" << r.activity.residentFlitCycles
        << "\n"
        << "link_flits=";
    for (std::size_t l = 0; l < r.linkFlits.size(); ++l)
        oss << (l ? "," : "") << r.linkFlits[l];
    oss << "\n"
        << "finish_times=" << joined(r.finishTime) << "\n"
        << "comm_times=" << joined(r.commTime) << "\n"
        << "stepped_cycles=" << run.steppedCycles << "\n";
    return oss.str();
}

/**
 * Digest of the observer's metrics dump, one entry per line with
 * separating commas dropped. Lines naming `sim/stepped_cycles` are
 * left out: that counter measures how much stepping the simulator did,
 * not what it simulated.
 */
std::string
metricsDigest(const obs::SimObserver &observer)
{
    obs::MetricsRegistry registry;
    observer.exportTo(registry);
    std::istringstream in(registry.toJson());
    std::string kept;
    for (std::string line; std::getline(in, line);) {
        if (line.find("sim/stepped_cycles") != std::string::npos)
            continue;
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        kept += line + "\n";
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(dse::fnv1a64(kept)));
    return buf;
}

/** Simulate the whole corpus and render it. */
std::string
corpus()
{
    std::string out;
    const trace::Benchmark benches[] = {
        trace::Benchmark::BT, trace::Benchmark::CG, trace::Benchmark::FFT,
        trace::Benchmark::MG, trace::Benchmark::SP};
    for (const auto bench : benches) {
        const auto tr = nasTrace(bench);
        const auto name = trace::benchmarkName(bench);
        const auto xbar = topo::buildCrossbar(kRanks);
        const auto mesh = topo::buildMesh(kRanks);
        const auto torus = topo::buildTorus(kRanks);
        const auto gen = generatedNetwork(tr);
        out += render(name + "/crossbar", run(tr, xbar));
        out += render(name + "/mesh", run(tr, mesh));
        out += render(name + "/torus", run(tr, torus, recoveryConfig()));
        out += render(name + "/generated", run(tr, gen));
    }

    // Faults: two inter-switch links fail mid-run (purge and requeue
    // of everything in flight, rerouting), and corruption with a
    // one-retry budget NACKs, retransmits and drops.
    {
        const auto tr = nasTrace(trace::Benchmark::CG);
        const auto mesh = topo::buildMesh(kRanks);
        sim::FaultConfig faults;
        faults.randomFailLinks = 2;
        faults.failAtCycle = 20000;
        faults.flitErrorRate = 0.05;
        faults.maxRetransmits = 1;
        faults.seed = 7;
        out += render("CG/mesh/faults", run(tr, mesh, {}, faults));
    }

    // Observer: the sampled series and histograms it exports.
    {
        const auto tr = nasTrace(trace::Benchmark::MG);
        const auto mesh = topo::buildMesh(kRanks);
        obs::SimObserver observer;
        out += render("MG/mesh/observed", run(tr, mesh, {}, {}, &observer));
        out += "metrics_fnv=" + metricsDigest(observer) + "\n";
    }
    return out;
}

} // namespace

TEST(SimGolden, MatchesSnapshot)
{
    const auto actual = corpus();

    if (std::getenv("MINNOC_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(goldenPath());
        ASSERT_TRUE(os) << "cannot write " << goldenPath();
        os << actual;
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing golden file " << goldenPath()
                    << " — regenerate with MINNOC_REGEN_GOLDEN=1 "
                    << "./build/tests/test_sim_golden";
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), actual)
        << "simulator results drifted from tests/golden/sim.golden. If "
        << "the change is intentional, regenerate with "
        << "MINNOC_REGEN_GOLDEN=1 ./build/tests/test_sim_golden and "
        << "review the diff.";
}

TEST(SimGolden, CorpusExercisesRecoveryAndFaults)
{
    // The corpus only guards the recovery and fault paths if its
    // cases actually reach them.
    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing golden file " << goldenPath();
    std::uint64_t recoveries = 0;
    std::uint64_t dropped = 0;
    std::uint64_t retransmissions = 0;
    std::string section;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] == '[')
            section = line;
        const auto eq = line.find('=');
        if (eq == std::string::npos || line.rfind("link_flits", 0) == 0 ||
            line.rfind("avg_", 0) == 0 || line.rfind("metrics_", 0) == 0 ||
            line.rfind("finish_times", 0) == 0 ||
            line.rfind("comm_times", 0) == 0) {
            continue;
        }
        const auto value = std::stoull(line.substr(eq + 1));
        const auto key = line.substr(0, eq);
        if (key == "deadlock_recoveries" &&
            section.find("/torus") != std::string::npos) {
            recoveries += value;
        }
        if (section == "[CG/mesh/faults]" && key == "packets_dropped")
            dropped += value;
        if (section == "[CG/mesh/faults]" && key == "retransmissions")
            retransmissions += value;
    }
    EXPECT_GT(recoveries, 0u);
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(retransmissions, 0u);
}
