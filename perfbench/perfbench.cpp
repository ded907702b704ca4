/**
 * @file
 * In-process benchmark of one minnoc workload.
 *
 * Makes the workload's inputs from a seed, then calls the library's
 * public entry points back to back for a fixed time, timing every call
 * from outside with a steady clock and reading CPU time from getrusage.
 * With --trace 1 on the workloads that run the methodology or the
 * explorer, untraced and traced repetitions alternate; a traced
 * repetition hands them an obs::TraceEventLog and keeps the spans they
 * emit. Everything is printed as one
 * JSON document on stdout: raw samples, the outputs a checker needs and
 * the spans. perfbench/run.py builds this program, turns the samples
 * into metrics and checks the outputs against recorded values.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --threads T [--small 0|1]
 */

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/design_io.hpp"
#include "core/design_network.hpp"
#include "core/methodology.hpp"
#include "core/verify.hpp"
#include "dse/cache.hpp"
#include "dse/explorer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "topo/floorplan.hpp"
#include "topo/power.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "trace/scale_patterns.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace minnoc;
using Clock = std::chrono::steady_clock;

/** Input variants; every one has recorded outputs (run.py VARIANTS). */
constexpr std::uint64_t kVariants = 16;
/**
 * Set-up batches per run; run.py reports their median as setup_s. A
 * batch makes the inputs of every variant, pass after pass, for at
 * least kSetupBatchSeconds, and yields the mean seconds of one pass:
 * the same work whatever the seed. On a shared host the CPUs run at
 * different speeds that change over seconds, and a single-threaded
 * set-up stays on whichever CPU it started on; so a batch moves its
 * passes round the CPUs the process may use, the same number on each,
 * and its mean does not hang on where the process landed.
 */
constexpr int kSetupBatches = 11;
constexpr double kSetupBatchSeconds = 0.2;

static_assert(obs::kEnabled,
              "the per-layer run reads the library's trace spans");

/**
 * Generator seed of round @p round of a run with benchmark seed
 * @p seed: the variants 1..kVariants in turn, starting at
 * 1 + (seed - 1) mod kVariants. Unsigned wraparound keeps this right
 * for seed 0, because 2^64 is a multiple of kVariants.
 */
std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t round)
{
    return 1 + (seed - 1 + round) % kVariants;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The CPUs this process may run on. */
cpu_set_t
allowedCpus()
{
    cpu_set_t cpus;
    if (sched_getaffinity(0, sizeof cpus, &cpus) != 0)
        fatal("cannot read the CPU affinity");
    return cpus;
}

/** Restrict the calling thread to @p cpus. */
void
runOn(const cpu_set_t &cpus)
{
    if (sched_setaffinity(0, sizeof cpus, &cpus) != 0)
        fatal("cannot set the CPU affinity");
}

/** User + system CPU seconds of the process, all threads included. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/**
 * Peak resident memory of this process image in KiB (VmHWM). Not
 * getrusage's ru_maxrss: Linux carries that across execve, so it would
 * report the launching interpreter's peak when that is larger.
 */
std::uint64_t
peakResidentKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    }
    fatal("no VmHWM in /proc/self/status");
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** FNV-1a (64-bit) of @p bytes as 16 hex digits. */
std::string
fnv1a(const std::string &bytes)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(dse::fnv1a64(bytes)));
    return hex;
}

/**
 * Flat JSON object writer. Keys and string values are identifiers and
 * hex digests, so nothing needs escaping.
 */
class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double v)
    {
        return raw(key, number(v));
    }

    JsonObject &
    count(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }

    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        _body += (_body.empty() ? "\"" : ", \"") + key + "\": " + json;
        return *this;
    }

    std::string text() const { return "{" + _body + "}"; }

  private:
    std::string _body;
};

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? ",\n" : "\n") + items[i];
    return out + "]";
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 1.0;
    bool traced = false;
    std::uint32_t threads = 1;
    bool small = false;
};

/** A workload's inputs, as the program receives them. */
struct Inputs
{
    trace::Trace trace;
    core::CliqueSet cliques;
    core::FinalizedDesign design; ///< sim-cg64 only
    double seconds = 0;           ///< time taken to make them
};

/**
 * Ring shift on @p ranks ranks. The scale pattern has no seed of its
 * own, so every rank starts after a seeded 1..16-cycle skew: each seed
 * is another input of the same size.
 */
trace::Trace
ringTrace(std::uint32_t ranks, std::uint64_t seed)
{
    const auto ring = trace::traceFromCliques(
        trace::ringPattern(ranks), "ring-" + std::to_string(ranks), 1024, 1);
    trace::Trace tr(ring.name(), ranks);
    Rng rng(seed);
    for (core::ProcId r = 0; r < ranks; ++r) {
        tr.push(r, trace::TraceOp::compute(rng.range(1, 16)));
        for (const auto &op : ring.timeline(r))
            tr.push(r, op);
    }
    return tr;
}

trace::Trace
generateTrace(const Options &o)
{
    trace::NasConfig nas;
    nas.seed = o.seed;
    if (o.workload == "design-bt36") {
        nas.ranks = o.small ? 9 : 36;
        nas.iterations = 1;
        return trace::generateBenchmark(trace::Benchmark::BT, nas);
    }
    if (o.workload == "sim-cg64") {
        nas.ranks = o.small ? 16 : 64;
        nas.iterations = 4;
        return trace::generateBenchmark(trace::Benchmark::CG, nas);
    }
    if (o.workload == "sim-ring1024")
        return ringTrace(o.small ? 64 : 1024, o.seed);
    if (o.workload == "explore-cg16") {
        nas.ranks = o.small ? 8 : 16;
        nas.iterations = o.small ? 1 : 3;
        return trace::generateBenchmark(trace::Benchmark::CG, nas);
    }
    fatal("unknown workload '", o.workload, "'");
}

/**
 * Make the inputs: generate the trace and hand it over in its text
 * format, as `minnoc gen` does; analyze it; load the fixed design the
 * sim-cg64 workload simulates. Times go into @p sample, then digests
 * and counts of what was made, taken after the timed part.
 */
Inputs
setup(const Options &o, JsonObject &sample)
{
    Inputs in;
    const auto start = Clock::now();
    std::stringstream text;
    generateTrace(o).save(text);
    in.trace = trace::Trace::load(text);
    const double generateS = secondsSince(start);

    auto t = Clock::now();
    in.cliques = trace::analyzeByCall(in.trace);
    const double analyzeS = secondsSince(t);

    t = Clock::now();
    if (o.workload == "sim-cg64") {
        const std::string path = PERFBENCH_DATA_DIR +
            std::string(o.small ? "/cg16_design.txt" : "/cg64_design.txt");
        std::ifstream file(path);
        if (!file)
            fatal("cannot open design file '", path, "'");
        in.design = core::loadDesign(file);
    }
    const double loadS = secondsSince(t);
    in.seconds = secondsSince(start);

    sample.count("seed", o.seed)
        .num("total_s", in.seconds)
        .num("generate_s", generateS)
        .num("analyze_s", analyzeS)
        .num("load_s", loadS)
        .str("trace_fnv", fnv1a(text.str()))
        .count("sends", in.trace.numSends())
        .count("cliques", in.cliques.numCliques());
    if (o.workload == "sim-cg64") {
        std::ostringstream design;
        core::saveDesign(in.design, design);
        sample.str("design_fnv", fnv1a(design.str()))
            .count("design_violations",
                   core::checkContentionFree(in.design, in.cliques).size());
    }
    return in;
}

/** Stage times and outputs of one repetition of the main stage. */
struct Rep
{
    JsonObject stages; ///< seconds per library call, timed from outside
    JsonObject out;    ///< outputs for the checker and per-layer counts
};

/** Run @p call, record its seconds under @p stage, return its result. */
template <typename F>
auto
timed(JsonObject &stages, const char *stage, F &&call)
{
    const auto start = Clock::now();
    auto result = call();
    stages.num(stage, secondsSince(start));
    return result;
}

void
runDesign(const Options &o, const Inputs &in, obs::TraceEventLog *log,
          Rep &rep)
{
    // `minnoc design` defaults, with an explicit thread count.
    core::MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    cfg.partitioner.seed = 1;
    cfg.restarts = 16;
    cfg.threads = o.threads;
    cfg.traceLog = log;
    core::resetFastColorStats();
    const auto outcome = timed(rep.stages, "methodology_s", [&] {
        return core::runMethodology(in.cliques, cfg);
    });
    const auto fc = core::fastColorStats();
    std::ostringstream design;
    core::saveDesign(outcome.design, design);
    rep.out.str("design_fnv", fnv1a(design.str()))
        .count("switches", outcome.design.numSwitches)
        .count("links", outcome.design.totalLinks())
        .count("violations", outcome.violations.size())
        .count("constraints_met", outcome.constraintsMet)
        .count("rounds", outcome.rounds)
        .count("restarts_used", outcome.restartsUsed)
        .count("moves_evaluated", outcome.movesEvaluated)
        .count("fastcolor_calls", fc.calls)
        .count("fastcolor_hits", fc.cacheHits);
}

/** Full-duplex links between switches (processor links excluded). */
std::uint64_t
switchLinks(const topo::Topology &topo)
{
    std::uint64_t channels = 0;
    for (const auto &link : topo.links())
        channels += !topo.isProc(link.from) && !topo.isProc(link.to);
    return channels / 2;
}

void
runSim(const Options &o, const Inputs &in, Rep &rep)
{
    topo::BuiltNetwork net;
    if (o.workload == "sim-cg64") {
        const auto plan = timed(rep.stages, "floorplan_s",
                                [&] { return topo::planFloor(in.design); });
        net = timed(rep.stages, "build_s", [&] {
            return topo::buildFromDesign(in.design, plan);
        });
    } else {
        net = timed(rep.stages, "build_s", [&] {
            return topo::buildMesh(in.trace.numRanks());
        });
    }
    const auto res = timed(rep.stages, "run_s", [&] {
        return sim::runTrace(in.trace, *net.topo, *net.routing);
    });
    const auto energy = timed(rep.stages, "energy_s", [&] {
        return topo::computeEnergy(*net.topo, res.linkFlits, res.execTime,
                                   res.activity, topo::PowerModel{});
    });
    std::uint64_t flitHops = 0;
    for (const auto flits : res.linkFlits)
        flitHops += flits;
    rep.out.count("exec_cycles", static_cast<std::uint64_t>(res.execTime))
        .count("flit_hops", flitHops)
        .count("packets", res.packetsDelivered)
        .count("deadlock_recoveries", res.deadlockRecoveries)
        .num("energy", energy.total())
        .count("switches", net.topo->numSwitches())
        .count("links", switchLinks(*net.topo));
}

void
runExplore(const Options &o, const Inputs &in, obs::TraceEventLog *log,
           Rep &rep)
{
    // Default grid: degrees 4,5,6 x duplex/unidirectional x 2,3 VCs,
    // 12 jobs. No disk cache, explicit thread count.
    dse::ExploreConfig cfg;
    cfg.threads = o.threads;
    cfg.useCache = false;
    cfg.traceLog = log;
    core::resetFastColorStats();
    const auto report = timed(rep.stages, "explore_s",
                              [&] { return dse::explore(in.trace, cfg); });
    const auto fc = core::fastColorStats();
    std::set<std::tuple<std::uint32_t, std::int64_t, double>> distinct;
    std::uint64_t switches = 0;
    std::uint64_t links = 0;
    std::uint64_t violations = 0;
    for (const auto &pt : report.points) {
        const auto &m = pt.metrics;
        distinct.emplace(m.totalArea(), m.execTime, m.energy);
        switches += m.switches;
        links += m.links;
        violations += m.violations;
    }
    rep.out.str("report_fnv", fnv1a(report.toJson()))
        .count("jobs", report.points.size())
        .count("distinct_points", distinct.size())
        .count("switches", switches)
        .count("links", links)
        .count("violations", violations)
        .count("fastcolor_calls", fc.calls)
        .count("fastcolor_hits", fc.cacheHits);
}

void
runOnce(const Options &o, const Inputs &in, obs::TraceEventLog *log,
        Rep &rep)
{
    if (o.workload == "design-bt36")
        runDesign(o, in, log, rep);
    else if (o.workload == "explore-cg16")
        runExplore(o, in, log, rep);
    else
        runSim(o, in, rep);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = cli::Args::parse(argc, argv, 1,
                                       {"workload", "seed", "seconds",
                                        "trace", "threads", "small"});
    Options o;
    o.workload = args.get("workload");
    const std::uint64_t benchSeed = args.getU64("seed", 1);
    o.seconds = args.getDouble("seconds", 1.0);
    o.traced = args.getU32("trace", 0) != 0;
    o.threads = args.getU32("threads", 1);
    o.small = args.getU32("small", 0) != 0;
    if (o.threads == 0)
        fatal("flag --threads: give an explicit thread count");
    // The sim workloads run single-threaded and hand no log to the
    // library, so a traced repetition of theirs would only repeat an
    // untraced one.
    const bool sim = o.workload.rfind("sim-", 0) == 0;
    const bool logged = o.traced && !sim;

    const cpu_set_t allowed = allowedCpus();
    std::vector<cpu_set_t> single;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            single.emplace_back();
            CPU_ZERO(&single.back());
            CPU_SET(c, &single.back());
        }
    }
    std::vector<std::string> setups;
    std::vector<std::string> setupBatches;
    for (int b = 0; b < kSetupBatches; ++b) {
        double setupS = 0;
        std::size_t passes = 0;
        const auto batchStart = Clock::now();
        do {
            runOn(single[passes % single.size()]);
            for (std::uint64_t v = 1; v <= kVariants; ++v) {
                o.seed = v;
                JsonObject sample;
                setupS += setup(o, sample).seconds;
                // Later passes repeat the first one's outputs; keeping
                // every sample would let the run's own bookkeeping grow
                // with host speed and show in peak_rss_mb.
                if (passes == 0)
                    setups.push_back(sample.text());
            }
            ++passes;
        } while (secondsSince(batchStart) < kSetupBatchSeconds ||
                 passes % single.size() != 0);
        setupBatches.push_back(number(setupS / passes));
    }
    runOn(allowed);

    // Every round makes fresh inputs of the next variant, so one run
    // spreads over several variants and no lazily built state carries
    // over between repetitions. With a log, a round is an untraced and
    // a traced repetition on the same inputs, so the tracing overhead is
    // measured under the same conditions; which one runs first
    // alternates, so neither always pays for following a set-up. A sim
    // workload would spend the whole run on one CPU, so its rounds move
    // round the CPUs as the set-up passes do.
    std::vector<std::string> reps;
    const auto start = Clock::now();
    std::uint64_t round = 0;
    do {
        if (sim)
            runOn(single[round % single.size()]);
        o.seed = inputSeed(benchSeed, round++);
        JsonObject setupSample;
        const Inputs in = setup(o, setupSample);
        setups.push_back(setupSample.text());
        const bool tracedFirst = logged && round % 2 == 0;
        for (const bool traced : {tracedFirst, !tracedFirst}) {
            if (traced && !logged)
                continue;
            obs::TraceEventLog log;
            Rep rep;
            const double cpu0 = cpuSeconds();
            const auto t0 = Clock::now();
            runOnce(o, in, traced ? &log : nullptr, rep);
            const double wallS = secondsSince(t0);
            const double cpuS = cpuSeconds() - cpu0;
            JsonObject sample;
            sample.count("seed", o.seed)
                .num("wall_s", wallS)
                .num("cpu_s", cpuS)
                .count("traced", traced)
                .raw("stages", rep.stages.text())
                .raw("out", rep.out.text());
            if (traced)
                sample.raw("spans", log.toJson());
            reps.push_back(sample.text());
        }
    } while (secondsSince(start) < o.seconds);

    JsonObject doc;
    doc.str("workload", o.workload)
        .count("threads", o.threads)
        .count("minnoc_obs", obs::kEnabled)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .count("peak_rss_kb", peakResidentKb())
        .raw("setup_batches_s", jsonArray(setupBatches))
        .raw("setups", jsonArray(setups))
        .raw("reps", jsonArray(reps));
    std::printf("%s\n", doc.text().c_str());
    return 0;
}
