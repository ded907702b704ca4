/**
 * @file
 * Design-space exploration engine.
 *
 * The paper evaluates one generated network per pattern; the real value
 * of the methodology is the sweep. The explorer takes a communication
 * pattern plus a parameter grid (switch degree, restarts, seeds, link
 * directionality, VC configuration), runs the
 * design -> floorplan -> simulate -> power pipeline for every job on a
 * worker pool and reduces the evaluated points to a Pareto frontier
 * over (area, latency, energy). Jobs are content-hashed and memoized in
 * the on-disk ResultCache, so a warm rerun recomputes nothing. The jobs
 * that miss it share their work: one strictly sequential, re-entrant
 * methodology run per distinct methodology configuration, then one
 * evaluation per distinct (network, simulator configuration); a
 * phase-window job runs its own per-phase pipeline. explore() is the
 * only way a job is evaluated: a `--hosts` daemon and the distributed
 * coordinator's in-process fallback run each shard of the grid (a
 * contiguous cross-product run of points, see dist/coordinator.hpp) as
 * a sub-grid through it. Every artifact (report JSON included) is byte-identical at any
 * thread count: job order is the grid expansion order, never
 * completion order.
 */

#ifndef MINNOC_DSE_EXPLORER_HPP
#define MINNOC_DSE_EXPLORER_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache.hpp"
#include "job.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "phase/segmenter.hpp"
#include "sim/config.hpp"
#include "topo/power.hpp"
#include "trace/trace.hpp"

namespace minnoc {
class ThreadPool;
}

namespace minnoc::dse {

/**
 * The swept parameter grid; expand() emits the cross product in a
 * fixed nested order (degree, restarts, seed, directionality, VCs,
 * phase window), which is also the point order of every report.
 */
struct ExploreGrid
{
    std::vector<std::uint32_t> maxDegrees = {4, 5, 6};
    std::vector<std::uint32_t> restarts = {8};
    std::vector<std::uint64_t> seeds = {1};
    /** 0 = duplex links, 1 = unidirectional channels. */
    std::vector<std::uint32_t> unidirectional = {0, 1};
    std::vector<std::uint32_t> vcs = {2, 3};
    std::uint32_t vcDepth = 4;
    /**
     * Phase-segmentation windows (messages); 0 = phase-aware evaluation
     * off, the classic single-network pipeline. The default sweeps only
     * the off point, so existing grids, reports and cache entries are
     * untouched unless the sweep is asked for.
     */
    std::vector<std::uint32_t> phaseWindows = {0};

    std::vector<JobParams> expand() const;
};

/** Everything one exploration run needs besides the pattern. */
struct ExploreConfig
{
    ExploreGrid grid;

    /** Worker threads (0 = hardware concurrency). */
    std::uint32_t threads = 0;

    /** Result-cache directory; empty selects defaultCacheDir(). */
    std::string cacheDir;
    /** Disable the cache entirely (cold evaluation, no stores). */
    bool useCache = true;

    /** Fixed per-run stage configurations (hashed into job keys). */
    topo::PowerModel power;
    /** Base simulator config; the grid overrides numVcs / vcDepth. */
    sim::SimConfig sim;

    /**
     * Segmenter template for phase-window jobs; the grid overrides
     * windowMessages. Only hashed into the keys of jobs whose
     * phaseWindow is nonzero, so classic jobs keep their cache keys.
     */
    phase::PhaseConfig phaseSegmenter;
    /** Boundary drain+swap penalty for phase-window jobs (cycles). */
    sim::Cycle phaseReconfigCost = 500;

    /**
     * Optional telemetry sinks (not owned, may be null). Per-job cache
     * hit/miss and design-quality gauges are keyed by grid index, so
     * their content is identical at any thread count. Every pool task
     * is a "job <i>" span in @p traceLog, <i> the first grid index that
     * needs it, around its stage spans (methodology / floorplan /
     * build / simulate), on wall-clock time. Neither participates in
     * cache keys.
     */
    obs::MetricsRegistry *metrics = nullptr;
    obs::TraceEventLog *traceLog = nullptr;

    /**
     * Optional cooperative-cancellation token (not owned, may be
     * null). Checked before every cache lookup, methodology run and
     * evaluation, and handed down into each methodology (per-restart
     * granularity) and simulator (per-epoch granularity); a fired token
     * unwinds explore() with CancelledError. Never hashed into job
     * keys.
     */
    const CancelToken *cancel = nullptr;
};

/** The reduced output of one exploration run. */
struct ExploreReport
{
    std::string pattern; ///< trace name
    std::uint32_t ranks = 0;
    /** Every evaluated point, in grid order, dominated flags set. */
    std::vector<DsePoint> points;
    /** Indices of the non-dominated points, ascending. */
    std::vector<std::size_t> frontier;
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;
    /**
     * Methodology runs and network evaluations the classic jobs that
     * missed the cache shared; phase-window jobs run their own
     * per-phase pipeline and are not counted.
     */
    std::size_t methodologyRuns = 0;
    std::size_t evaluations = 0;

    /**
     * Machine-readable JSON: all points (parameters, metrics,
     * dominated flag) plus the frontier index list. Cache statistics
     * and work counts are deliberately excluded so cold and warm runs
     * emit identical bytes.
     */
    std::string toJson() const;

    /** Human summary table, frontier points starred. */
    std::string summaryTable() const;
};

/**
 * The canonical parameter signature of one job: the concatenated
 * stage signatures (methodology | floorplan | power | simulator).
 * This string — not the raw tuple — is hashed into the cache key, so
 * every knob of every stage participates in invalidation.
 */
std::string jobSignature(const JobParams &params,
                         const ExploreConfig &config);

/**
 * Record one evaluated point's per-job telemetry: gauges keyed by grid
 * index, derived only from the job's result and cache state, so the
 * dump is byte-identical at any thread or worker count. Shared by the
 * in-process explorer and the distributed coordinator; no-op without a
 * metrics sink.
 */
void recordJobPoint(const ExploreConfig &config, std::size_t index,
                    const DsePoint &pt);

/**
 * Shared report finalization: tally cache hits/misses from the point
 * flags, run the Pareto reduction over (area, latency, energy), and
 * emit the run-level summary metrics. Expects report.points fully
 * populated in grid-expansion order — the merge point the in-process
 * explorer and the distributed coordinator share, so their reports are
 * byte-identical by construction.
 */
void finalizeReport(ExploreReport &report, const ExploreConfig &config);

/**
 * Explore @p trace over the grid: analyze the pattern once, look every
 * job up in the cache, run the misses' distinct methodologies and then
 * their distinct evaluations on a thread pool, extract the frontier.
 */
ExploreReport explore(const trace::Trace &trace,
                      const ExploreConfig &config);

/**
 * Re-entrant variant for callers that own a worker pool (the serve
 * daemon): every task runs on @p pool, alongside whatever else the
 * caller schedules there, and config.threads is ignored; with
 * pool == nullptr the run is strictly sequential and inline. The
 * report is identical either way.
 */
ExploreReport explore(const trace::Trace &trace,
                      const ExploreConfig &config, ThreadPool *pool);

} // namespace minnoc::dse

#endif // MINNOC_DSE_EXPLORER_HPP
