/**
 * @file
 * Best_Route (paper Appendix): after a switch split, try indirect routes
 * through the sibling switch wherever that lowers the estimated number
 * of links the affected pipes need.
 */

#ifndef MINNOC_CORE_ROUTE_OPTIMIZER_HPP
#define MINNOC_CORE_ROUTE_OPTIMIZER_HPP

#include <cstdint>

#include "design_network.hpp"

namespace minnoc::core {

/**
 * Statistics returned by bestRoute, consolidateRoutes and
 * repairDegrees. repairDegrees leaves linksSaved at 0; the route pins
 * (tests/test_route_bytes.cpp) digest it as such.
 */
struct RouteOptStats
{
    std::uint32_t triedMoves = 0;
    std::uint32_t committedMoves = 0;
    std::uint32_t linksSaved = 0;
};

/**
 * Run the paper's Best_Route procedure for the freshly split pair
 * (s_i, s_j): for every pipe P(i,k) incident to s_i, try rerouting each
 * communication through the indirect path s_i -> s_j -> s_k (and the
 * mirrored variants for pipes of s_j), committing every reroute that
 * strictly decreases the summed Fast_Color estimate of the three
 * involved pipes. Also considers straightening a previously indirect
 * route back to direct.
 *
 * @param net the design network (mutated in place)
 * @param si the original switch of the split
 * @param sj the sibling created by the split
 * @return statistics of the pass
 */
RouteOptStats bestRoute(DesignNetwork &net, SwitchId si, SwitchId sj);

/**
 * Global route consolidation: a generalization of Best_Route over the
 * whole pipe graph. For every communication, find the cheapest path
 * from its source's switch to its destination's switch over *existing*
 * pipes, where a hop costs the marginal Fast_Color increase of adding
 * the communication to that pipe direction (0 when it rides along
 * conflict-free, 1 when it widens the pipe), with hop count as the tie
 * breaker; reroute whenever that beats the communication's current
 * marginal contribution. Repeats until a fixpoint or @p max_passes.
 *
 * The paper's appendix only detours through the split sibling; this
 * pass is the natural closure of that idea and is what lets dense
 * patterns (MG's allreduce, BT/SP sweeps) meet a node-degree-5
 * constraint by sharing links across contention periods. Toggleable
 * for ablation via PartitionerConfig::consolidate.
 *
 * @return statistics (triedMoves counts examined comms)
 */
RouteOptStats consolidateRoutes(DesignNetwork &net,
                                std::uint32_t max_passes = 8,
                                std::uint32_t max_degree = 0,
                                Rng *rng = nullptr,
                                bool uni_cost = false);

/**
 * Degree repair: when some switches exceed the degree budget and
 * cannot be split further, reroute traffic away from them — over
 * existing pipes or over *new* pipes between switches that both have
 * spare degree — accepting a move that lowers the total degree
 * violation at a cost of at most one link, or keeps it and saves
 * links. Both totals are read off the switches on the move's old and
 * new routes, which alone change degree. This trades links for
 * feasibility, the opposite bias of consolidateRoutes; the partitioner
 * runs it only when it is otherwise stuck.
 *
 * @return statistics; check violations again after the call.
 */
RouteOptStats repairDegrees(DesignNetwork &net, std::uint32_t max_degree,
                            std::uint32_t max_passes = 4,
                            Rng *rng = nullptr);

} // namespace minnoc::core

#endif // MINNOC_CORE_ROUTE_OPTIMIZER_HPP
