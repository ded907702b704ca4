/**
 * @file
 * Partitioner performance benchmark: wall time and Fast_Color cache
 * behavior of full methodology runs on the five NAS patterns, emitted
 * as JSON for CI trend tracking.
 *
 * Per pattern it runs the methodology once single-threaded (collecting
 * the Fast_Color call/hit counters of the incremental estimation cache)
 * and once multi-threaded, checks that both produce identical designs,
 * and reports both wall times.
 *
 *   partitioner_perf [--bench all|BT|CG|FFT|MG|SP] [--ranks N]
 *                    [--iterations I] [--restarts R] [--threads T]
 *                    [--seed S] [--max-degree D] [--out FILE]
 *
 * --ranks 0 (default) uses each benchmark's paper "large" config;
 * --threads 0 uses hardware concurrency.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/design_io.hpp"
#include "core/methodology.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "util/log.hpp"

using namespace minnoc;

namespace {

struct Options
{
    std::string bench = "all";
    std::uint32_t ranks = 0; ///< 0 = paper large config per benchmark
    std::uint32_t iterations = 3;
    std::uint32_t restarts = 16;
    std::uint32_t threads = 0; ///< 0 = hardware concurrency
    std::uint32_t maxDegree = core::DesignConstraints{}.maxDegree;
    std::uint64_t seed = 1;
    std::string out;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("flag ", key, " needs a value");
            return argv[++i];
        };
        if (key == "--bench")
            opt.bench = value();
        else if (key == "--ranks")
            opt.ranks = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (key == "--iterations")
            opt.iterations = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (key == "--restarts")
            opt.restarts = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (key == "--threads")
            opt.threads = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (key == "--max-degree")
            opt.maxDegree = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (key == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (key == "--out")
            opt.out = value();
        else
            fatal("unknown flag ", key);
    }
    return opt;
}

struct PatternReport
{
    std::string name;
    std::uint32_t ranks = 0;
    double wallMs1t = 0.0;
    double wallMsMt = 0.0;
    std::uint64_t fcCalls = 0;
    std::uint64_t fcHits = 0;
    std::uint32_t links = 0;
    std::uint32_t switches = 0;
    bool constraintsMet = false;
    bool identical = false; ///< 1-thread and N-thread designs match
};

/** One timed methodology run; returns the design + wall milliseconds. */
core::DesignOutcome
timedRun(const core::CliqueSet &ks, const Options &opt,
         std::uint32_t threads, double &wallMs)
{
    core::MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = opt.maxDegree;
    cfg.partitioner.seed = opt.seed;
    cfg.restarts = opt.restarts;
    cfg.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    auto outcome = core::runMethodology(ks, cfg);
    const auto stop = std::chrono::steady_clock::now();
    wallMs = std::chrono::duration<double, std::milli>(stop - start)
                 .count();
    return outcome;
}

PatternReport
runPattern(trace::Benchmark b, const Options &opt,
           std::uint32_t mtThreads)
{
    PatternReport report;
    report.name = trace::benchmarkName(b);
    report.ranks =
        opt.ranks ? opt.ranks : trace::largeConfigRanks(b);

    trace::NasConfig tcfg;
    tcfg.ranks = report.ranks;
    tcfg.iterations = opt.iterations;
    tcfg.seed = opt.seed;
    const auto tr = trace::generateBenchmark(b, tcfg);
    const auto ks = trace::analyzeByCall(tr);

    core::resetFastColorStats();
    const auto outcome1 = timedRun(ks, opt, 1, report.wallMs1t);
    const auto stats = core::fastColorStats();
    report.fcCalls = stats.calls;
    report.fcHits = stats.cacheHits;
    report.links = outcome1.design.totalLinks();
    report.switches = outcome1.design.numSwitches;
    report.constraintsMet = outcome1.constraintsMet;

    const auto outcomeN = timedRun(ks, opt, mtThreads, report.wallMsMt);

    // The wave selection must make the winner thread-count invariant;
    // compare the serialized designs byte for byte.
    std::ostringstream design1;
    std::ostringstream designN;
    core::saveDesign(outcome1.design, design1);
    core::saveDesign(outcomeN.design, designN);
    report.identical = design1.str() == designN.str() &&
                       outcome1.design.totalLinks() ==
                           outcomeN.design.totalLinks();
    if (!report.identical) {
        warn("partitioner_perf: ", report.name, " designs differ "
             "between 1 and ", mtThreads, " threads");
    }
    return report;
}

std::string
toJson(const std::vector<PatternReport> &reports,
       std::uint32_t mtThreads)
{
    std::ostringstream oss;
    oss << "{\n  \"machine_threads\": "
        << std::thread::hardware_concurrency()
        << ",\n  \"bench_threads\": " << mtThreads
        << ",\n  \"patterns\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto &r = reports[i];
        const double hitRate =
            r.fcCalls ? static_cast<double>(r.fcHits) /
                            static_cast<double>(r.fcCalls)
                      : 0.0;
        const double speedup =
            r.wallMsMt > 0.0 ? r.wallMs1t / r.wallMsMt : 0.0;
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"name\": \"%s\", \"ranks\": %u, "
            "\"wall_ms_1t\": %.1f, \"wall_ms_mt\": %.1f, "
            "\"speedup_mt_vs_1t\": %.2f, "
            "\"fastcolor_calls\": %llu, "
            "\"fastcolor_cache_hit_rate\": %.4f, "
            "\"links\": %u, \"switches\": %u, "
            "\"constraints_met\": %s, \"identical_designs\": %s}",
            r.name.c_str(), r.ranks, r.wallMs1t, r.wallMsMt, speedup,
            static_cast<unsigned long long>(r.fcCalls), hitRate,
            r.links, r.switches, r.constraintsMet ? "true" : "false",
            r.identical ? "true" : "false");
        oss << buf << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    oss << "  ]\n}\n";
    return oss.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::uint32_t mtThreads =
        opt.threads ? opt.threads : std::thread::hardware_concurrency();
    if (mtThreads == 0)
        mtThreads = 1;

    std::vector<trace::Benchmark> benches;
    if (opt.bench == "all") {
        benches.assign(std::begin(trace::kAllBenchmarks),
                       std::end(trace::kAllBenchmarks));
    } else {
        benches.push_back(trace::benchmarkFromName(opt.bench));
    }

    std::vector<PatternReport> reports;
    bool allIdentical = true;
    for (const auto b : benches) {
        reports.push_back(runPattern(b, opt, mtThreads));
        const auto &r = reports.back();
        allIdentical &= r.identical;
        std::fprintf(stderr,
                     "%-4s ranks=%u 1t=%.0fms %ut=%.0fms "
                     "fc_calls=%llu hit_rate=%.3f links=%u\n",
                     r.name.c_str(), r.ranks, r.wallMs1t, mtThreads,
                     r.wallMsMt,
                     static_cast<unsigned long long>(r.fcCalls),
                     r.fcCalls ? static_cast<double>(r.fcHits) /
                                     static_cast<double>(r.fcCalls)
                               : 0.0,
                     r.links);
    }

    const std::string json = toJson(reports, mtThreads);
    std::fputs(json.c_str(), stdout);
    if (!opt.out.empty()) {
        std::ofstream os(opt.out);
        if (!os)
            fatal("cannot write '", opt.out, "'");
        os << json;
    }
    return allIdentical ? 0 : 1;
}
