/**
 * @file
 * Multi-host exploration coordinator.
 *
 * Splits the explore grid into shards — every grid point sharing one
 * (degree, restarts, seed), a contiguous run of grid indices and
 * itself a cross-product grid, cut finer where a request could not
 * carry it and point by point for phase-window grids, whose points
 * share no work — and deals them round-robin over the lanes in the
 * order of their first point's cache key, so the assignment is
 * independent of timing. Results are merged through the
 * exact finalization path the in-process explorer uses. Reports are
 * therefore byte-identical to the single-process run by construction.
 *
 * Every lane is a remote `minnoc serve` daemon of DistOptions::hosts,
 * reached over TCP and driven by one client path: one `dse_shard`
 * request line per shard (the daemon runs it through dse::explore) or
 * one `phase_job` line per phase, windowed so a lane always has work
 * queued and written only as fast as the socket takes it, and one
 * job-wire result document back per request.
 *
 * Fault handling: a lane that drops its connection, answers with an
 * error or a malformed document, stops reading its requests, or goes
 * silent past the activity timeout is closed and its *unanswered*
 * requests are requeued once onto a surviving host; shards the dead
 * daemon already stored in its cache are not recomputed. A second
 * failure on the same shard is fatal. When no host survives, the
 * coordinator runs the lost shards itself, in-process, through the
 * same call a daemon makes (a `local` lane), so the run still
 * converges. Every failure is recorded in DistStats and surfaced as
 * `host_failed` in the dist status JSON — never in the report itself,
 * whose bytes stay failure-independent.
 *
 * Cancellation: the caller's CancelToken is polled every scheduler
 * tick and before every in-process request; once
 * fired, every connection is closed (each daemon then
 * Disconnect-cancels its in-flight requests) and the coordinator
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
    /**
     * Remote `minnoc serve` daemons to drive as job backends, one
     * lane each. A dead daemon's unanswered requests requeue onto a
     * surviving host, or run in-process when none survives.
     */
    std::vector<HostSpec> hosts;

    /**
     * A lane that neither answers nor takes a request byte for this
     * long is presumed hung, closed, and its requests requeued.
     * Generous by default: one DSE shard on a large pattern can
     * legitimately run minutes. It doubles as the per-request deadline
     * sent to the daemon (subject to the daemon's own max-deadline
     * clamp).
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
    std::vector<std::uint64_t> jobs;      ///< job results per slot
    std::vector<std::uint64_t> cacheHits; ///< cached results per slot
    std::vector<std::int64_t> wallUsSum;  ///< summed request wall time
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
 * cache; shards run in-process use config.cacheDir and
 * config.threads. config.cancel is honored at scheduler-tick
 * granularity here and at job granularity on each daemon. A config
 * the serve wire cannot carry (a value past a request field's bounds,
 * such as restarts above 1024, or a seed that would read back rounded)
 * throws std::runtime_error with that field's message before any host
 * is contacted.
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
 * identical to the in-process report. A config the wire cannot carry
 * throws as for exploreDistributed, before the pipeline runs.
 */
phase::PhaseReport
evaluatePhasesDistributed(const trace::Trace &trace,
                          const phase::PhaseEvalConfig &config,
                          const DistOptions &options,
                          DistStats *stats = nullptr);

} // namespace minnoc::dist

#endif // MINNOC_DIST_COORDINATOR_HPP
