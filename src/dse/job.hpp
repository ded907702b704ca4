/**
 * @file
 * Design-space exploration job specification.
 *
 * One job = one full methodology pipeline run — design (partition +
 * finalize), floorplan, simulate, power — under one parameter tuple.
 * JobParams is the swept tuple; JobMetrics is the flat result record
 * the Pareto reduction and the on-disk cache operate on, with the one
 * list of its fields. Everything here is plain data: evaluation lives
 * in explorer.cpp, persistence in cache.cpp.
 */

#ifndef MINNOC_DSE_JOB_HPP
#define MINNOC_DSE_JOB_HPP

#include <cstdint>
#include <string>

namespace minnoc::dse {

/** The parameter tuple of one exploration job. */
struct JobParams
{
    /** Maximum switch degree handed to the partitioner. */
    std::uint32_t maxDegree = 5;
    /** Methodology restarts (stochastic search width). */
    std::uint32_t restarts = 8;
    /** Base partitioner seed. */
    std::uint64_t seed = 1;
    /** Provision unidirectional channels instead of duplex links. */
    bool unidirectional = false;
    /** Virtual channels per physical link in the simulation. */
    std::uint32_t numVcs = 3;
    /** Buffer depth per virtual channel, in flits. */
    std::uint32_t vcDepth = 4;
    /**
     * Phase-segmentation window in messages; 0 disables phase-aware
     * evaluation (the classic monolithic pipeline). Nonzero selects the
     * time-multiplexed pipeline: segment the trace, synthesize one
     * network per phase, charge reconfiguration at every boundary.
     */
    std::uint32_t phaseWindow = 0;

    bool operator==(const JobParams &o) const = default;
};

/**
 * Flat result record of one evaluated job. Doubles are produced by a
 * deterministic pipeline and serialized with round-trip precision, so
 * a cache hit reproduces the computed record bit for bit.
 */
struct JobMetrics
{
    // Design (methodology output).
    std::uint32_t switches = 0;
    std::uint32_t links = 0;    ///< full-duplex inter-switch links
    std::uint32_t channels = 0; ///< directed channels (fwd + bwd)
    bool constraintsMet = false;
    std::uint32_t violations = 0; ///< residual Theorem-1 pairs
    std::uint32_t rounds = 0;

    // Floorplan (area model).
    std::uint32_t switchArea = 0;
    std::uint32_t linkArea = 0;
    std::uint32_t procLinkArea = 0;

    // Simulation.
    std::int64_t execTime = 0;
    double avgLatency = 0.0;
    double avgHops = 0.0;
    double maxLinkUtil = 0.0;

    // Power.
    double energy = 0.0;

    /** Combined silicon cost (the Pareto resource axis). */
    std::uint32_t
    totalArea() const
    {
        return switchArea + linkArea + procLinkArea;
    }

    bool operator==(const JobMetrics &o) const = default;
};

/**
 * Visit every JobMetrics field of @p m (const or not) as
 * f(name, member), in record order. The cache record and the
 * `dse_shard` wire point both print and read through this one list;
 * ExploreReport::toJson keeps its own row, which adds `area` and
 * drops `rounds`.
 */
template <class M, class F>
void
forEachField(M &m, F &&f)
{
    f("switches", m.switches);
    f("links", m.links);
    f("channels", m.channels);
    f("constraints_met", m.constraintsMet);
    f("violations", m.violations);
    f("rounds", m.rounds);
    f("switch_area", m.switchArea);
    f("link_area", m.linkArea);
    f("proc_link_area", m.procLinkArea);
    f("exec_time", m.execTime);
    f("avg_latency", m.avgLatency);
    f("avg_hops", m.avgHops);
    f("max_link_util", m.maxLinkUtil);
    f("energy", m.energy);
}

/** One explored point: parameters, metrics, and reduction flags. */
struct DsePoint
{
    JobParams params;
    JobMetrics metrics;
    /** True if some other point is at least as good on every axis. */
    bool dominated = false;
    /** True if the metrics came from the result cache. */
    bool fromCache = false;
};

} // namespace minnoc::dse

#endif // MINNOC_DSE_JOB_HPP
