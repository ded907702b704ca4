/**
 * @file
 * Unit tests for the design-space exploration subsystem: Pareto
 * reduction, content-hashed job keys, the on-disk result cache, and
 * the explorer's determinism guarantees (thread-count invariance,
 * warm-rerun-recomputes-nothing).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "dse/cache.hpp"
#include "dse/explorer.hpp"
#include "dse/pareto.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;
using namespace minnoc::dse;

namespace {

Objectives
obj(double area, double latency, double energy)
{
    return {area, latency, energy};
}

JobMetrics
sampleMetrics()
{
    JobMetrics m;
    m.switches = 7;
    m.links = 12;
    m.channels = 24;
    m.constraintsMet = true;
    m.violations = 0;
    m.rounds = 3;
    m.switchArea = 7;
    m.linkArea = 12;
    m.procLinkArea = 5;
    m.execTime = 123456789;
    m.avgLatency = 41.125;
    m.avgHops = 2.7142857142857144; // not exactly representable in %g
    m.maxLinkUtil = 0.33333333333333331;
    m.energy = 1.2345678901234567e6;
    return m;
}

std::string
tempCacheDir(const char *leaf)
{
    const auto dir =
        std::filesystem::path(::testing::TempDir()) / leaf;
    std::filesystem::remove_all(dir);
    return dir.string();
}

} // namespace

// ---------------------------------------------------------------- Pareto

TEST(Pareto, DominatesRequiresStrictImprovement)
{
    EXPECT_TRUE(dominates(obj(1, 1, 1), obj(2, 2, 2)));
    EXPECT_TRUE(dominates(obj(1, 2, 2), obj(2, 2, 2)));
    EXPECT_FALSE(dominates(obj(2, 2, 2), obj(2, 2, 2))); // tie
    EXPECT_FALSE(dominates(obj(1, 3, 1), obj(2, 2, 2))); // trade-off
    EXPECT_FALSE(dominates(obj(2, 2, 2), obj(1, 1, 1)));
}

TEST(Pareto, FlagsDominatedAndKeepsTies)
{
    const std::vector<Objectives> pts = {
        obj(1, 5, 1), // frontier (best area)
        obj(5, 1, 1), // frontier (best latency)
        obj(5, 5, 5), // dominated by both
        obj(1, 5, 1), // exact tie with #0: kept
    };
    const auto flags = dominatedFlags(pts);
    EXPECT_EQ(flags, (std::vector<bool>{false, false, true, false}));
    EXPECT_EQ(frontierIndices(flags),
              (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Pareto, SinglePointIsFrontier)
{
    const auto flags = dominatedFlags({obj(9, 9, 9)});
    EXPECT_EQ(frontierIndices(flags), (std::vector<std::size_t>{0}));
}

// ------------------------------------------------------------- Job keys

TEST(DseCache, Fnv1aMatchesReference)
{
    // Published FNV-1a test vectors.
    EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
    EXPECT_EQ(fnv1a64("a"), 12638187200555641996ull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(DseCache, JobKeyIsStableHex)
{
    const auto key = jobKey("pattern-bytes", "deg=5");
    EXPECT_EQ(key.size(), 16u);
    EXPECT_EQ(key.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_EQ(key, jobKey("pattern-bytes", "deg=5"));
}

TEST(DseCache, JobKeySensitiveToEveryIngredient)
{
    const auto base = jobKey("pattern", "deg=5");
    EXPECT_NE(base, jobKey("pattern!", "deg=5")); // pattern changed
    EXPECT_NE(base, jobKey("pattern", "deg=6"));  // knob changed
    // Moving a byte across the boundary must not collide.
    EXPECT_NE(jobKey("ab", "c"), jobKey("a", "bc"));
}

// ----------------------------------------------------------- ResultCache

TEST(DseCache, RoundTripsRecordExactly)
{
    ResultCache cache(tempCacheDir("dse-roundtrip"));
    const auto metrics = sampleMetrics();
    cache.store("00000000deadbeef", "sig-a", metrics);

    const auto loaded = cache.load("00000000deadbeef", "sig-a");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, metrics); // bit-exact, doubles included
}

TEST(DseCache, MissesOnUnknownKey)
{
    const ResultCache cache(tempCacheDir("dse-miss"));
    EXPECT_FALSE(cache.load("0123456789abcdef", "sig").has_value());
}

TEST(DseCache, RejectsSignatureMismatch)
{
    ResultCache cache(tempCacheDir("dse-sigguard"));
    cache.store("00000000deadbeef", "sig-a", sampleMetrics());
    // Same key, different claimed parameters: the collision guard
    // must treat the record as a miss.
    EXPECT_FALSE(cache.load("00000000deadbeef", "sig-b").has_value());
}

TEST(DseCache, CorruptRecordIsQuarantinedAndRecomputable)
{
    const auto dir = tempCacheDir("dse-corrupt");
    ResultCache cache(dir);
    const auto metrics = sampleMetrics();
    cache.store("00000000deadbeef", "sig", metrics);

    // Flip one payload byte on disk: bit rot / torn write / tampering.
    const auto path =
        std::filesystem::path(dir) / "00000000deadbeef.json";
    ASSERT_TRUE(std::filesystem::exists(path));
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(0, std::ios::end);
        const auto size = static_cast<std::streamoff>(f.tellg());
        f.seekp(size / 2);
        f.put('~');
    }

    // The checksum catches it: miss, and the record is quarantined so
    // the evidence survives but can never be served again.
    EXPECT_FALSE(cache.load("00000000deadbeef", "sig").has_value());
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(dir) / "00000000deadbeef.json.corrupt"));

    // Recompute-and-restore produces a clean record again.
    cache.store("00000000deadbeef", "sig", metrics);
    const auto reloaded = cache.load("00000000deadbeef", "sig");
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(*reloaded, metrics);
}

TEST(DseCache, TruncatedRecordIsQuarantined)
{
    const auto dir = tempCacheDir("dse-truncated");
    ResultCache cache(dir);
    cache.store("00000000deadbeef", "sig", sampleMetrics());

    const auto path =
        std::filesystem::path(dir) / "00000000deadbeef.json";
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);

    EXPECT_FALSE(cache.load("00000000deadbeef", "sig").has_value());
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(dir) / "00000000deadbeef.json.corrupt"));
}

TEST(DseCache, ConcurrentStoresOfOneKeyNeverTearTheRecord)
{
    // Writers racing on one key (threads here; separate processes
    // sharing a cache directory behave the same) must never publish a
    // partial record: once a record exists, every load is a hit, and
    // nothing is ever quarantined.
    const auto dir = tempCacheDir("dse-store-race");
    const ResultCache cache(dir);
    const auto metrics = sampleMetrics();
    cache.store("00000000deadbeef", "sig", metrics);

    std::atomic<bool> done{false};
    std::size_t loads = 0;
    std::size_t hits = 0;
    std::thread reader([&] {
        while (!done) {
            const auto m = cache.load("00000000deadbeef", "sig");
            ++loads;
            if (m && *m == metrics)
                ++hits;
        }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w)
        writers.emplace_back([&] {
            for (int i = 0; i < 200; ++i)
                cache.store("00000000deadbeef", "sig", metrics);
        });
    for (auto &t : writers)
        t.join();
    done = true;
    reader.join();

    EXPECT_GT(loads, 0u);
    EXPECT_EQ(hits, loads);
    // Only the record itself is left: no quarantined copy, no temp file.
    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files.push_back(entry.path().filename().string());
    EXPECT_EQ(files, std::vector<std::string>{"00000000deadbeef.json"});
}

TEST(ExplorerTest, CorruptedCacheRecordsAreRecomputedNotServed)
{
    trace::NasConfig ncfg;
    ncfg.ranks = 8;
    ncfg.iterations = 1;
    const auto tr = trace::generateCG(ncfg);
    const auto dir = tempCacheDir("dse-sabotage");

    ExploreConfig cfg;
    cfg.grid.maxDegrees = {4, 5};
    cfg.grid.restarts = {2};
    cfg.grid.seeds = {1};
    cfg.grid.unidirectional = {0};
    cfg.grid.vcs = {2};
    cfg.threads = 1;
    cfg.cacheDir = dir;
    const auto cold = explore(tr, cfg);
    ASSERT_EQ(cold.cacheMisses, cold.points.size());

    // Sabotage every record on disk.
    unsigned corrupted = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".json")
            continue;
        std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                         std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(entry.path()) / 2));
        f.put('~');
        ++corrupted;
    }
    ASSERT_EQ(corrupted, cold.points.size());

    // The warm run detects every corruption, recomputes, and lands on
    // byte-identical results anyway.
    const auto warm = explore(tr, cfg);
    EXPECT_EQ(warm.cacheHits, 0u);
    EXPECT_EQ(warm.cacheMisses, warm.points.size());
    EXPECT_EQ(cold.toJson(), warm.toJson());

    // And re-stored clean records make the next run all-hits again.
    const auto rewarm = explore(tr, cfg);
    EXPECT_EQ(rewarm.cacheHits, rewarm.points.size());
    EXPECT_EQ(cold.toJson(), rewarm.toJson());
}

TEST(DseCache, DisabledCacheNeverHitsNorStores)
{
    const auto dir = tempCacheDir("dse-disabled");
    ResultCache cache(dir, /*enabled=*/false);
    cache.store("00000000deadbeef", "sig", sampleMetrics());
    EXPECT_FALSE(cache.load("00000000deadbeef", "sig").has_value());
    EXPECT_FALSE(
        std::filesystem::exists(std::filesystem::path(dir) /
                                "00000000deadbeef.json"));
}

// -------------------------------------------------------------- Explorer

namespace {

/** Small but parallelizable grid on CG-8: 2 x 2 = 4 jobs. */
ExploreConfig
smallConfig(const std::string &cacheDir, std::uint32_t threads,
            bool useCache = true)
{
    ExploreConfig cfg;
    cfg.grid.maxDegrees = {4, 5};
    cfg.grid.restarts = {2};
    cfg.grid.seeds = {1};
    cfg.grid.unidirectional = {0};
    cfg.grid.vcs = {2, 3};
    cfg.threads = threads;
    cfg.cacheDir = cacheDir;
    cfg.useCache = useCache;
    return cfg;
}

trace::Trace
cgTrace()
{
    trace::NasConfig ncfg;
    ncfg.ranks = 8;
    ncfg.iterations = 1;
    return trace::generateCG(ncfg);
}

} // namespace

TEST(ExploreGridTest, ExpandsCrossProductInFixedOrder)
{
    ExploreGrid grid;
    EXPECT_EQ(grid.expand().size(), 12u); // 3 deg x 2 dir x 2 vcs

    grid.maxDegrees = {4, 6};
    grid.restarts = {2};
    grid.seeds = {1, 2};
    grid.unidirectional = {0};
    grid.vcs = {3};
    const auto jobs = grid.expand();
    ASSERT_EQ(jobs.size(), 4u);
    // Degree is the outermost loop, seed inside it.
    EXPECT_EQ(jobs[0].maxDegree, 4u);
    EXPECT_EQ(jobs[0].seed, 1u);
    EXPECT_EQ(jobs[1].maxDegree, 4u);
    EXPECT_EQ(jobs[1].seed, 2u);
    EXPECT_EQ(jobs[2].maxDegree, 6u);
    EXPECT_EQ(jobs[3].maxDegree, 6u);
    EXPECT_EQ(jobs[3].vcDepth, grid.vcDepth);
}

TEST(ExplorerTest, SignatureCoversEveryStage)
{
    const ExploreConfig cfg;
    JobParams a;
    const auto base = jobSignature(a, cfg);
    EXPECT_NE(base.find("deg="), std::string::npos);

    JobParams b = a;
    b.numVcs += 1; // only the simulator stage changes
    EXPECT_NE(base, jobSignature(b, cfg));

    ExploreConfig cfg2;
    cfg2.power.switchEnergyPerFlit *= 2.0; // only power changes
    EXPECT_NE(base, jobSignature(a, cfg2));
}

TEST(ExplorerTest, ReportIsThreadCountInvariant)
{
    const auto tr = cgTrace();
    // Separate cold caches so neither run can hit the other's store.
    const auto r1 =
        explore(tr, smallConfig(tempCacheDir("dse-t1"), 1));
    const auto r4 =
        explore(tr, smallConfig(tempCacheDir("dse-t4"), 4));

    EXPECT_EQ(r1.cacheHits, 0u);
    EXPECT_EQ(r4.cacheHits, 0u);
    EXPECT_EQ(r1.toJson(), r4.toJson()); // byte-identical
    EXPECT_EQ(r1.summaryTable(), r4.summaryTable());
}

TEST(ExplorerTest, WarmRerunRecomputesNothing)
{
    const auto tr = cgTrace();
    const auto dir = tempCacheDir("dse-warm");

    const auto cold = explore(tr, smallConfig(dir, 2));
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, cold.points.size());

    const auto warm = explore(tr, smallConfig(dir, 2));
    EXPECT_EQ(warm.cacheHits, warm.points.size()); // 100% hit rate
    EXPECT_EQ(warm.cacheMisses, 0u);
    for (const auto &p : warm.points)
        EXPECT_TRUE(p.fromCache);
    EXPECT_EQ(cold.toJson(), warm.toJson()); // byte-identical
}

TEST(ExplorerTest, FrontierIsConsistent)
{
    const auto tr = cgTrace();
    const auto report =
        explore(tr, smallConfig(tempCacheDir("dse-front"), 2));

    ASSERT_EQ(report.points.size(), 4u);
    EXPECT_EQ(report.pattern, tr.name());
    EXPECT_EQ(report.ranks, 8u);
    EXPECT_FALSE(report.frontier.empty());
    for (std::size_t i = 0; i < report.points.size(); ++i) {
        const bool onFrontier =
            std::find(report.frontier.begin(), report.frontier.end(),
                      i) != report.frontier.end();
        EXPECT_EQ(onFrontier, !report.points[i].dominated);
    }
}

TEST(ExplorerTest, DisabledCacheStoresNothing)
{
    const auto tr = cgTrace();
    const auto dir = tempCacheDir("dse-nocache");
    const auto report =
        explore(tr, smallConfig(dir, 2, /*useCache=*/false));
    EXPECT_EQ(report.cacheHits, 0u);
    EXPECT_EQ(report.cacheMisses, report.points.size());
    EXPECT_TRUE(!std::filesystem::exists(dir) ||
                std::filesystem::is_empty(dir));
}
