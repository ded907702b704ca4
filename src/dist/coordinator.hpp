/**
 * @file
 * Multi-host exploration coordinator.
 *
 * Shards the job grid by content hash (each job's cache key orders
 * the jobs deterministically; shards are dealt round-robin off that
 * order, so they are balanced to ±1 job and independent of grid
 * layout) over lanes, and merges the results through the exact
 * finalization path the in-process explorer uses. Reports are
 * therefore byte-identical to the single-process run by construction.
 *
 * Every lane is a remote `minnoc serve` daemon of DistOptions::hosts,
 * reached over TCP and driven by one client path: one
 * `dse_job`/`phase_job` request line per job, windowed so a lane
 * always has work queued, and one job-wire result document back per
 * job.
 *
 * Fault handling: a lane that drops its connection, answers with an
 * error, or goes silent past the activity timeout is closed and its
 * *unfinished* jobs are requeued once onto a surviving host; jobs the
 * dead daemon already stored in its cache are not recomputed. A
 * second failure on the same shard is fatal. When no host survives,
 * the coordinator runs the lost jobs itself, in-process, through the
 * same call a daemon makes (a `local` lane), so the run still
 * converges. Every failure is recorded in DistStats and surfaced as
 * `host_failed` in the dist status JSON — never in the report itself,
 * whose bytes stay failure-independent.
 *
 * Cancellation: the caller's CancelToken is polled every scheduler
 * tick and before every in-process job; once fired, every connection
 * is closed (each daemon then Disconnect-cancels its in-flight jobs)
 * and the coordinator unwinds with CancelledError.
 */

#ifndef MINNOC_DIST_COORDINATOR_HPP
#define MINNOC_DIST_COORDINATOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"
#include "remote.hpp"

namespace minnoc::dist {

/** Knobs of one distributed run. */
struct DistOptions
{
    /**
     * Remote `minnoc serve` daemons to drive as job backends, one
     * lane each. A dead daemon's unfinished jobs requeue onto a
     * surviving host, or run in-process when none survives.
     */
    std::vector<HostSpec> hosts;

    /**
     * A lane producing no result for this long is presumed hung,
     * closed, and its shard requeued. Generous by default: one DSE
     * job on a large pattern can legitimately run minutes. It doubles
     * as the per-request deadline sent to the daemon (subject to the
     * daemon's own max-deadline clamp).
     */
    std::int64_t workerTimeoutMs = 600'000;
};

/** One failed lane, for the status report. */
struct WorkerFailure
{
    std::uint32_t worker = 0; ///< lane slot
    std::string host;         ///< `host:port` of the lane
    std::string reason;       ///< "timeout", "connection closed", ...
    /** Job indices requeued onto the replacement lane. */
    std::vector<std::uint32_t> requeuedJobs;
};

/** Per-lane accounting of one distributed run. */
struct DistStats
{
    /** Lane slots used (initial lanes + any replacements). */
    std::uint32_t workers = 0;
    std::vector<std::uint64_t> jobs;      ///< results per slot
    std::vector<std::uint64_t> cacheHits; ///< cached results per slot
    std::vector<std::int64_t> wallUsSum;  ///< summed job wall time
    /** Per slot, the host label; "local" for the in-process lane. */
    std::vector<std::string> hostOf;
    std::vector<WorkerFailure> failures;

    /**
     * Deterministic-shape status JSON (wall times are wall times; the
     * shape and counts are reproducible, the durations are not):
     * per-lane rows plus the `host_failed` array.
     */
    std::string toJson(const std::string &task) const;
};

/**
 * Distributed dse::explore. Identical output to explore(trace, config)
 * — same points, same frontier, same JSON bytes — with the grid
 * fanned out over DistOptions::hosts. Each daemon uses its own disk
 * cache; jobs run in-process use config.cacheDir. config.threads is
 * ignored; config.cancel is honored at scheduler-tick granularity
 * here and at job granularity on each daemon.
 */
dse::ExploreReport exploreDistributed(const trace::Trace &trace,
                                      const dse::ExploreConfig &config,
                                      const DistOptions &options,
                                      DistStats *stats = nullptr);

/**
 * Distributed phase::evaluatePhases: the coordinator segments the
 * trace and synthesizes the monolithic + union designs (they depend
 * on the whole trace), while the per-phase standalone synthesis and
 * replay — the bulk of the work — is sharded over the hosts. Byte-
 * identical to the in-process report.
 */
phase::PhaseReport
evaluatePhasesDistributed(const trace::Trace &trace,
                          const phase::PhaseEvalConfig &config,
                          const DistOptions &options,
                          DistStats *stats = nullptr);

} // namespace minnoc::dist

#endif // MINNOC_DIST_COORDINATOR_HPP
