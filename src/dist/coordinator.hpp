/**
 * @file
 * Multi-process exploration coordinator.
 *
 * Shards the job grid by content hash (each job's cache key orders
 * the jobs deterministically; shards are dealt round-robin off that
 * order, so they are balanced to ±1 job and independent of grid
 * layout) over lanes, and merges the results through the exact
 * finalization path the in-process explorer uses. Reports are
 * therefore byte-identical to `--workers 1` and to the single-process
 * run by construction.
 *
 * Every lane is a `minnoc serve` server driven by the same client
 * code: one `dse_job`/`phase_job` request line per job, windowed so a
 * lane always has work queued, and one job-wire result document back
 * per job. The leading lanes are the remote daemons of
 * DistOptions::hosts, reached over TCP; the rest are forked children,
 * each a serve::Server on one end of a socketpair. Any mix of hosts
 * and forked lanes therefore produces the same report bytes.
 *
 * Fault handling: a lane that crashes, answers with an error, or goes
 * silent past the activity timeout is reaped (SIGKILL for a forked
 * lane) and its *unfinished* jobs are requeued once onto a fresh lane;
 * jobs the dead lane already stored in its cache are not recomputed.
 * A second failure on the same shard is fatal. Every failure is
 * recorded in DistStats and surfaced as `worker_failed` (forked) or
 * `host_failed` (remote) in the dist status JSON — never in the
 * explore report itself, whose bytes stay crash-independent.
 *
 * Cancellation: the caller's CancelToken is polled every scheduler
 * tick; once fired, forked lanes get SIGTERM, a short drain window,
 * then SIGKILL, remote connections are closed, and the coordinator
 * unwinds with CancelledError.
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
    /** Lanes to fork (clamped to the job count, min 1). */
    std::uint32_t workers = 2;

    /**
     * Remote `minnoc serve` daemons to drive as job backends, one
     * lane each, ahead of the forked workers; `workers` may be 0 for
     * an all-remote run. A dead daemon's unfinished jobs requeue onto
     * a surviving host, or a forked local worker when none survives.
     */
    std::vector<HostSpec> hosts;

    /**
     * A lane producing no result for this long is presumed hung,
     * reaped, and its shard requeued. Generous by default: one DSE
     * job on a large pattern can legitimately run minutes. For remote
     * lanes this doubles as the per-request deadline sent to the
     * daemon (subject to the daemon's own max-deadline clamp); forked
     * lanes get no deadline, so this timeout is their only bound.
     */
    std::int64_t workerTimeoutMs = 600'000;
};

/** One reaped lane, for the status report. */
struct WorkerFailure
{
    std::uint32_t worker = 0; ///< worker slot
    /** `host:port` when the slot was a remote lane; "" when local. */
    std::string host;
    std::string reason;       ///< "timeout", "exit 42", "signal 9", ...
    /** Job indices requeued onto the replacement worker. */
    std::vector<std::uint32_t> requeuedJobs;
};

/** Per-worker accounting of one distributed run. */
struct DistStats
{
    /** Worker slots used (initial workers + any replacements). */
    std::uint32_t workers = 0;
    std::vector<std::uint64_t> jobs;      ///< results per slot
    std::vector<std::uint64_t> cacheHits; ///< cached results per slot
    std::vector<std::int64_t> wallUsSum;  ///< summed job wall time
    /** Per slot, the remote host label; "" for forked workers. */
    std::vector<std::string> hostOf;
    std::vector<WorkerFailure> failures;

    /**
     * Deterministic-shape status JSON (wall times are wall times; the
     * shape and counts are reproducible, the durations are not):
     * per-worker rows plus the `worker_failed` (forked workers) and
     * `host_failed` (remote lanes) arrays.
     */
    std::string toJson(const std::string &task) const;
};

/**
 * Distributed dse::explore. Identical output to explore(trace, config)
 * — same points, same frontier, same JSON bytes — with the grid
 * fanned out over DistOptions::workers forked lanes sharing the disk
 * cache (config.cacheDir) and any DistOptions::hosts. config.threads is ignored (parallelism is process-level);
 * config.cancel is honored at scheduler-tick granularity here and at
 * job granularity inside each worker.
 */
dse::ExploreReport exploreDistributed(const trace::Trace &trace,
                                      const dse::ExploreConfig &config,
                                      const DistOptions &options,
                                      DistStats *stats = nullptr);

/**
 * Distributed phase::evaluatePhases: the coordinator segments the
 * trace and synthesizes the monolithic + union designs (they depend
 * on the whole trace), while the per-phase standalone synthesis and
 * replay — the bulk of the work — is sharded over workers. Byte-
 * identical to the in-process report.
 */
phase::PhaseReport
evaluatePhasesDistributed(const trace::Trace &trace,
                          const phase::PhaseEvalConfig &config,
                          const DistOptions &options,
                          DistStats *stats = nullptr);

} // namespace minnoc::dist

#endif // MINNOC_DIST_COORDINATOR_HPP
