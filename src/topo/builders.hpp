/**
 * @file
 * Topology builders for the evaluation's four network families
 * (Section 4): fully connected non-blocking crossbar, 2-D mesh with
 * dimension-order routing, folded 2-D torus with true fully adaptive
 * routing, and the generated (irregular) networks produced by the design
 * methodology.
 */

#ifndef MINNOC_TOPO_BUILDERS_HPP
#define MINNOC_TOPO_BUILDERS_HPP

#include <array>
#include <memory>
#include <optional>
#include <string_view>

#include "core/finalize.hpp"
#include "floorplan.hpp"
#include "routing.hpp"
#include "topology.hpp"

namespace minnoc::topo {

/**
 * A topology bundled with its routing function. The topology is heap
 * allocated so the routing function's internal pointer stays valid when
 * the bundle is moved.
 */
struct BuiltNetwork
{
    std::unique_ptr<Topology> topo;
    std::unique_ptr<RoutingFunction> routing;
};

/**
 * Fully connected non-blocking crossbar: one megaswitch, every
 * processor attached by a dedicated duplex link. Output-port conflicts
 * (two messages to one destination) remain, as in a real crossbar.
 */
BuiltNetwork buildCrossbar(std::uint32_t procs);

/**
 * 2-D mesh on the most-square grid for @p procs processors, one
 * processor per switch, dimension-order (XY) routing, unit-length links.
 */
BuiltNetwork buildMesh(std::uint32_t procs);

/**
 * Folded 2-D torus: mesh plus wraparound rings; every inter-switch link
 * has physical length 2 (folded layout), doubling the mesh link area.
 * Routing is true fully adaptive minimal (TFAR).
 */
BuiltNetwork buildTorus(std::uint32_t procs);

/** The baselines Section 4 judges every generated network against. */
inline constexpr std::array<const char *, 3> kBaselines = {
    "crossbar", "mesh", "torus"};

/**
 * The baseline named @p name (one of kBaselines) for @p procs
 * processors; nullopt for any other name.
 */
std::optional<BuiltNetwork> buildBaseline(std::string_view name,
                                          std::uint32_t procs);

/**
 * Materialize a finalized generated design: one node per design switch,
 * `links` parallel duplex links per pipe with lengths taken from the
 * floorplan, processors attached to their home switches, and the
 * finalized source-routing table (with BFS fallback paths for unknown
 * pairs).
 */
BuiltNetwork buildFromDesign(const core::FinalizedDesign &design,
                             const Floorplan &plan);

} // namespace minnoc::topo

#endif // MINNOC_TOPO_BUILDERS_HPP
