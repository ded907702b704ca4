/**
 * @file
 * Routing functions (paper Definition 6 and Section 4.2).
 *
 * The simulator asks the routing function, at each node, for the
 * candidate output links of a packet. Deterministic functions (source
 * routing on generated networks, dimension-order routing on meshes,
 * crossbar) return exactly one candidate; the torus's true fully
 * adaptive routing returns every minimal productive link and lets the
 * router pick by congestion.
 */

#ifndef MINNOC_TOPO_ROUTING_HPP
#define MINNOC_TOPO_ROUTING_HPP

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/finalize.hpp"
#include "core/types.hpp"
#include "topology.hpp"

namespace minnoc::topo {

/** Abstract per-hop routing decision. */
class RoutingFunction
{
  public:
    virtual ~RoutingFunction() = default;

    /**
     * Candidate output links at node @p cur for a packet travelling
     * from processor @p src to processor @p dst. Must be non-empty
     * whenever @p cur is not the destination end-node.
     */
    virtual std::vector<LinkId> candidates(NodeIdx cur, core::ProcId src,
                                           core::ProcId dst) const = 0;

    /** True when the function offers real choice (torus TFAR). */
    virtual bool adaptive() const { return false; }

    /**
     * True when candidates() ignores its @p src argument, so the
     * candidates at a node depend only on the destination (mesh DOR,
     * crossbar, torus). validateRouting then checks each destination
     * once instead of every pair.
     */
    virtual bool sourceOblivious() const { return false; }

    virtual std::string name() const = 0;
};

/**
 * Deterministic source routing backed by a per-pair link path table.
 * Paths include the injection and ejection links. Used only for the
 * irregular networks (generated designs, up*\/down*, degraded routing);
 * the regular baselines compute their next hop instead.
 */
class TableRouting : public RoutingFunction
{
  public:
    /** @param topo topology the paths refer to (must outlive this) */
    TableRouting(const Topology &topo, std::string name)
        : _topo(&topo), _name(std::move(name))
    {
    }

    /** Install the full link path for (src, dst). */
    void setPath(core::ProcId src, core::ProcId dst,
                 std::vector<LinkId> path);

    /** The installed path (panics when missing). */
    const std::vector<LinkId> &path(core::ProcId src,
                                    core::ProcId dst) const;

    /** True if a path is installed for (src, dst). */
    bool hasPath(core::ProcId src, core::ProcId dst) const;

    std::vector<LinkId> candidates(NodeIdx cur, core::ProcId src,
                                   core::ProcId dst) const override;

    std::string name() const override { return _name; }

  private:
    static std::uint64_t
    key(core::ProcId s, core::ProcId d)
    {
        return (static_cast<std::uint64_t>(s) << 32) | d;
    }

    const Topology *_topo;
    std::string _name;
    std::unordered_map<std::uint64_t, std::vector<LinkId>> _table;
};

/**
 * Dimension-order (x then y) routing on a @p w x @p h mesh whose switch
 * y*w+x hosts processor y*w+x. The next hop is computed from the
 * current switch and the destination; no per-pair state is kept.
 */
class MeshDorRouting : public RoutingFunction
{
  public:
    /** Looks up each switch's neighbour links once (panics if absent). */
    MeshDorRouting(const Topology &topo, std::uint32_t w, std::uint32_t h);

    std::vector<LinkId> candidates(NodeIdx cur, core::ProcId src,
                                   core::ProcId dst) const override;

    bool sourceOblivious() const override { return true; }
    std::string name() const override { return "mesh-dor"; }

  private:
    enum Dir { East, West, South, North };

    const Topology *_topo;
    std::uint32_t _w;
    /// Per switch, the link toward each Dir (kNoLink on the border).
    std::vector<std::array<LinkId, 4>> _next;
};

/** Two-hop routing through a single crossbar switch. */
class CrossbarRouting : public RoutingFunction
{
  public:
    /** @param topo the crossbar topology (must outlive this) */
    explicit CrossbarRouting(const Topology &topo) : _topo(&topo) {}

    std::vector<LinkId> candidates(NodeIdx cur, core::ProcId src,
                                   core::ProcId dst) const override;

    bool sourceOblivious() const override { return true; }
    std::string name() const override { return "crossbar"; }

  private:
    const Topology *_topo;
};

/**
 * True fully adaptive minimal routing on a 2-D torus: every productive
 * (distance-reducing, with wraparound) output link is a candidate.
 * Deadlock freedom is *not* guaranteed; the simulator's detection and
 * regressive recovery handles cycles (paper Section 4.2).
 */
class TorusAdaptiveRouting : public RoutingFunction
{
  public:
    /**
     * @param topo the torus topology (switch (x,y) hosts proc y*w+x)
     * @param w torus width
     * @param h torus height
     */
    TorusAdaptiveRouting(const Topology &topo, std::uint32_t w,
                         std::uint32_t h);

    std::vector<LinkId> candidates(NodeIdx cur, core::ProcId src,
                                   core::ProcId dst) const override;

    bool adaptive() const override { return true; }
    bool sourceOblivious() const override { return true; }
    std::string name() const override { return "torus-tfar"; }

  private:
    const Topology *_topo;
    std::uint32_t _w;
    std::uint32_t _h;
};

/**
 * Verify that @p routing delivers every src/dst pair on @p topo within a
 * hop budget (follows first candidates; adaptive functions are spot
 * checked on their first choice). Panics on a node without candidates,
 * a routing loop or an over-long path; used by builders and tests.
 * Source-oblivious functions are checked once per destination, each
 * node's distance to it memoized: O(nodes x procs) instead of walking
 * all procs^2 pairs.
 */
void validateRouting(const Topology &topo, const RoutingFunction &routing);

/**
 * Source routing for a generated network: communications known to the
 * design follow their finalized switch route, using on each pipe the
 * parallel link chosen by the finalization coloring; pairs the design
 * never saw (cross-pattern experiments) fall back to BFS-shortest
 * switch paths with round-robin parallel-link choice.
 */
std::unique_ptr<TableRouting>
makeDesignRouting(const Topology &topo, const core::FinalizedDesign &design);

/**
 * Up-star/down-star ("up*\/down*", Autonet) routing: orient every
 * inter-switch link "up" toward the root of a BFS spanning tree (ties
 * by switch id) and restrict every path to zero or more up hops
 * followed by zero or more down hops. Provably deadlock-free on any
 * topology -- the classic baseline for irregular switch networks, and
 * the guarantee the generated networks' source routing lacks. Paths
 * are shortest legal ones; parallel links are picked round-robin.
 */
std::unique_ptr<TableRouting> makeUpDownRouting(const Topology &topo);

} // namespace minnoc::topo

#endif // MINNOC_TOPO_ROUTING_HPP
