/**
 * @file
 * Tile floorplanner and area model (paper Section 4.1, Figure 6).
 *
 * The chip is a grid of processor tiles. Each tile hosts one processor;
 * switches sit at tile corners and up to four tiles can share one corner
 * (the paper's rotated-tile trick), so a 5-port switch can serve four
 * processors plus one network link with zero proc-link area. The area
 * accounting follows the paper:
 *  - every 5-port switch costs one unit of switch area;
 *  - a link's area equals the Manhattan distance between the corners of
 *    the switches it connects (co-located corners cost zero, mesh
 *    neighbors cost one);
 *  - a processor's link to its switch is free when the switch sits on a
 *    corner of its tile and costs the corner distance otherwise.
 *
 * Placement of the generated (irregular) networks is automated with
 * simulated annealing over processor-to-tile swaps and a greedy
 * pairwise-swap polish. Each candidate is scored with every switch
 * snapped to its cheapest member-tile corner; a swap recomputes only
 * the switches whose snap it disturbs, and scores exactly as snapping
 * them all would (DESIGN.md §5 item 6).
 */

#ifndef MINNOC_TOPO_FLOORPLAN_HPP
#define MINNOC_TOPO_FLOORPLAN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/finalize.hpp"
#include "util/rng.hpp"

namespace minnoc::topo {

/** Integer point on the tile / corner grid. */
struct GridPoint
{
    std::int32_t x = 0;
    std::int32_t y = 0;

    bool operator==(const GridPoint &o) const = default;
};

/** Manhattan distance between two grid points. */
inline std::uint32_t
manhattan(const GridPoint &a, const GridPoint &b)
{
    const std::int32_t dx = a.x > b.x ? a.x - b.x : b.x - a.x;
    const std::int32_t dy = a.y > b.y ? a.y - b.y : b.y - a.y;
    return static_cast<std::uint32_t>(dx + dy);
}

/** Floorplanner knobs. */
struct FloorplanConfig
{
    /** Seed of the annealer's tile-swap choices. */
    std::uint64_t seed = 1;

    /**
     * Canonical parameter string for content-addressed caching: equal
     * signatures guarantee identical placements for the same design.
     */
    std::string signature() const;
};

/**
 * A computed floorplan: tile positions per processor, corner positions
 * per switch, and the resulting area split.
 */
struct Floorplan
{
    std::uint32_t tilesX = 0;
    std::uint32_t tilesY = 0;
    /** Tile of each processor (tile (x,y) spans corners (x..x+1, y..y+1)). */
    std::vector<GridPoint> procTile;
    /** Corner point of each switch. */
    std::vector<GridPoint> switchCorner;

    /** Switch area in units (one per switch). */
    std::uint32_t switchArea = 0;
    /** Total inter-switch link area (Manhattan, co-located = 0). */
    std::uint32_t linkArea = 0;
    /** Total processor-to-switch link area (0 when corner-adjacent). */
    std::uint32_t procLinkArea = 0;

    /** Combined silicon cost: switch + link + proc-link area. */
    std::uint32_t
    totalArea() const
    {
        return switchArea + linkArea + procLinkArea;
    }

    /** Link length (for wire delay) between two switches: max(1, dist). */
    std::uint32_t switchDistance(core::SwitchId a, core::SwitchId b) const;

    /** Corner distance of proc @p p to its switch corner. */
    std::uint32_t procDistance(core::ProcId p,
                               core::SwitchId home) const;

    /** ASCII rendering for reports. */
    std::string toString() const;
};

/**
 * Analytic mesh floorplan areas for @p procs processors arranged on the
 * most-square grid (used as the normalization baseline of Figure 7).
 * Returns {switchArea, linkArea}.
 */
std::pair<std::uint32_t, std::uint32_t> meshAreas(std::uint32_t procs);

/** Torus baseline areas: same switches, folded links of length 2. */
std::pair<std::uint32_t, std::uint32_t> torusAreas(std::uint32_t procs);

/**
 * Crossbar baseline areas: an N-port non-blocking crossbar costs
 * max(1, N^2/25) five-port-switch equivalents (quadratic port
 * scaling); processors attach directly, so zero link area.
 */
std::pair<std::uint32_t, std::uint32_t> crossbarAreas(std::uint32_t procs);

/** Most-square tile grid dimensions for @p procs tiles. */
std::pair<std::uint32_t, std::uint32_t> gridDims(std::uint32_t procs);

/**
 * Place a finalized design on the tile grid: annealed processor-to-tile
 * assignment, switches snapped to the corner minimizing their members'
 * and pipes' cost, and the paper's area accounting filled in.
 */
Floorplan planFloor(const core::FinalizedDesign &design,
                    const FloorplanConfig &config = {});

} // namespace minnoc::topo

#endif // MINNOC_TOPO_FLOORPLAN_HPP
