#include "floorplan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/log.hpp"

namespace minnoc::topo {

std::string
FloorplanConfig::signature() const
{
    // sweeps, t0 and alpha print the fixed annealing schedule below, so
    // cache keys recorded while it was settable still hit. Changing the
    // schedule is a model change and bumps the cache salt.
    return "fpseed=" + std::to_string(seed) +
           ";sweeps=64;t0=4;alpha=0.92000000000000004";
}

std::uint32_t
Floorplan::switchDistance(core::SwitchId a, core::SwitchId b) const
{
    const auto d = manhattan(switchCorner.at(a), switchCorner.at(b));
    return d ? d : 1; // wire delay floor of one tile
}

std::string
Floorplan::toString() const
{
    std::ostringstream oss;
    oss << "Floorplan " << tilesX << "x" << tilesY
        << " switchArea=" << switchArea << " linkArea=" << linkArea
        << " procLinkArea=" << procLinkArea << "\n";
    for (std::uint32_t p = 0; p < procTile.size(); ++p) {
        oss << "  P" << p << " tile(" << procTile[p].x << ","
            << procTile[p].y << ")\n";
    }
    for (std::uint32_t s = 0; s < switchCorner.size(); ++s) {
        oss << "  S" << s << " corner(" << switchCorner[s].x << ","
            << switchCorner[s].y << ")\n";
    }
    return oss.str();
}

std::pair<std::uint32_t, std::uint32_t>
gridDims(std::uint32_t procs)
{
    if (procs == 0)
        panic("gridDims: zero processors");
    // Most-square factorization; fall back to a ceil grid for primes.
    const auto root =
        static_cast<std::uint32_t>(std::sqrt(static_cast<double>(procs)));
    for (std::uint32_t h = root; h >= 1; --h) {
        if (procs % h == 0)
            return {procs / h, h};
    }
    const std::uint32_t w = root + 1;
    return {w, (procs + w - 1) / w};
}

std::pair<std::uint32_t, std::uint32_t>
meshAreas(std::uint32_t procs)
{
    const auto [w, h] = gridDims(procs);
    const std::uint32_t switchArea = procs;
    // Duplex mesh connections, one unit of area each (Figure 6a); a
    // full-duplex connection is counted once, as in the paper.
    const std::uint32_t linkArea = (w - 1) * h + w * (h - 1);
    return {switchArea, linkArea};
}

std::pair<std::uint32_t, std::uint32_t>
torusAreas(std::uint32_t procs)
{
    const auto [w, h] = gridDims(procs);
    const std::uint32_t switchArea = procs;
    // Folded torus: every ring of k switches has k connections, all of
    // physical length 2, doubling the mesh's total link area.
    const std::uint32_t connections = w * h * 2;
    return {switchArea, connections * 2};
}

std::pair<std::uint32_t, std::uint32_t>
crossbarAreas(std::uint32_t procs)
{
    return {std::max(1u, procs * procs / 25u), 0};
}

namespace {

/** Annealing sweeps, each of 4 x numProcs random tile-swap attempts. */
constexpr std::uint32_t kSweeps = 64;
/** Starting temperature and its per-sweep cooling factor. */
constexpr double kT0 = 4.0;
constexpr double kAlpha = 0.92;

/** Offsets of a tile's four corners, in candidate order. */
constexpr GridPoint kCornerOffsets[] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};

/** Distance from @p point to the nearest corner of @p tile. */
std::uint32_t
tileCornerDistance(const GridPoint &tile, const GridPoint &point)
{
    // Per axis, the gap from the coordinate to the interval [t, t + 1].
    const auto gap = [](std::int32_t t, std::int32_t v) {
        return v < t ? t - v : v > t + 1 ? v - t - 1 : 0;
    };
    return static_cast<std::uint32_t>(gap(tile.x, point.x) +
                                      gap(tile.y, point.y));
}

/** Full placement cost evaluator: relaxes switch corners, sums areas. */
class PlacementCost
{
  public:
    PlacementCost(const core::FinalizedDesign &design)
        : _design(design), _incident(design.numSwitches)
    {
        for (const auto &pipe : design.pipes) {
            _incident[pipe.key.a].emplace_back(pipe.key.b, pipe.links);
            if (pipe.key.b != pipe.key.a)
                _incident[pipe.key.b].emplace_back(pipe.key.a, pipe.links);
        }
    }

    /**
     * Given processor tiles, choose switch corners by a few relaxation
     * sweeps and return the total link + proc-link area.
     */
    std::uint32_t
    evaluate(const std::vector<GridPoint> &procTile,
             std::vector<GridPoint> &corners) const
    {
        const auto numSwitches = _design.numSwitches;
        corners.assign(numSwitches, GridPoint{});

        // Initialize each switch at the first corner of its first proc's
        // tile (every switch owns at least one proc after partitioning;
        // guard anyway).
        for (core::SwitchId s = 0; s < numSwitches; ++s) {
            if (!_design.switchProcs[s].empty()) {
                const auto p = _design.switchProcs[s].front();
                corners[s] = procTile[p];
            }
        }

        // Relax: move each switch to the member-tile corner minimizing
        // its local cost, holding the others fixed. A pass that moves
        // no switch leaves nothing for the next one to do.
        for (int pass = 0; pass < 3; ++pass) {
            bool moved = false;
            for (core::SwitchId s = 0; s < numSwitches; ++s)
                moved |= relaxSwitch(s, procTile, corners);
            if (!moved)
                break;
        }
        return totalCost(procTile, corners);
    }

    std::uint32_t
    totalCost(const std::vector<GridPoint> &procTile,
              const std::vector<GridPoint> &corners) const
    {
        std::uint32_t cost = 0;
        for (const auto &pipe : _design.pipes) {
            cost += pipe.links *
                    manhattan(corners[pipe.key.a], corners[pipe.key.b]);
        }
        for (core::ProcId p = 0; p < _design.numProcs; ++p) {
            cost += tileCornerDistance(procTile[p],
                                       corners[_design.procHome[p]]);
        }
        return cost;
    }

  private:
    /** Snap switch @p s to its best member-tile corner; true if it moved. */
    bool
    relaxSwitch(core::SwitchId s, const std::vector<GridPoint> &procTile,
                std::vector<GridPoint> &corners) const
    {
        const auto &members = _design.switchProcs[s];
        std::uint32_t bestCost = static_cast<std::uint32_t>(-1);
        GridPoint bestCorner = corners[s];
        for (const auto p : members) {
            for (const auto &offset : kCornerOffsets) {
                const GridPoint cand{procTile[p].x + offset.x,
                                     procTile[p].y + offset.y};
                std::uint32_t cost = 0;
                for (const auto &[other, links] : _incident[s])
                    cost += links * manhattan(cand, corners[other]);
                for (const auto q : members)
                    cost += tileCornerDistance(procTile[q], cand);
                if (cost < bestCost) {
                    bestCost = cost;
                    bestCorner = cand;
                }
            }
        }
        const bool moved = bestCorner != corners[s];
        corners[s] = bestCorner;
        return moved;
    }

    const core::FinalizedDesign &_design;
    /** (other switch, links) of each switch's pipes; self-loops once. */
    std::vector<std::vector<std::pair<core::SwitchId, std::uint32_t>>>
        _incident;
};

} // namespace

std::uint32_t
Floorplan::procDistance(core::ProcId p, core::SwitchId home) const
{
    return tileCornerDistance(procTile.at(p), switchCorner.at(home));
}

Floorplan
planFloor(const core::FinalizedDesign &design, const FloorplanConfig &config)
{
    Floorplan plan;
    const auto [w, h] = gridDims(design.numProcs);
    plan.tilesX = w;
    plan.tilesY = h;

    // Initial assignment: scan tiles in 2x2-block order and fill with
    // processors grouped by switch, so co-switched processors start in
    // compact blocks (the paper's shared-corner layout).
    std::vector<GridPoint> tiles;
    for (std::uint32_t by = 0; by < h; by += 2) {
        for (std::uint32_t bx = 0; bx < w; bx += 2) {
            for (const auto &offset : kCornerOffsets) {
                const std::uint32_t x = bx + offset.x;
                const std::uint32_t y = by + offset.y;
                if (x < w && y < h) {
                    tiles.push_back(GridPoint{static_cast<std::int32_t>(x),
                                              static_cast<std::int32_t>(y)});
                }
            }
        }
    }
    if (tiles.size() < design.numProcs)
        panic("planFloor: grid too small");

    plan.procTile.assign(design.numProcs, GridPoint{});
    std::size_t cursor = 0;
    for (core::SwitchId s = 0; s < design.numSwitches; ++s) {
        for (const auto p : design.switchProcs[s])
            plan.procTile[p] = tiles[cursor++];
    }

    // Simulated annealing over processor tile swaps.
    PlacementCost evaluator(design);
    std::vector<GridPoint> corners;
    std::vector<GridPoint> trial;
    std::uint32_t cost = evaluator.evaluate(plan.procTile, corners);
    Rng rng(config.seed);
    double temperature = kT0;
    for (std::uint32_t sweep = 0; sweep < kSweeps; ++sweep) {
        const std::uint32_t attempts = design.numProcs * 4;
        for (std::uint32_t i = 0; i < attempts; ++i) {
            const auto a =
                static_cast<core::ProcId>(rng.below(design.numProcs));
            const auto b =
                static_cast<core::ProcId>(rng.below(design.numProcs));
            if (a == b)
                continue;
            std::swap(plan.procTile[a], plan.procTile[b]);
            const std::uint32_t newCost =
                evaluator.evaluate(plan.procTile, trial);
            const auto delta = static_cast<double>(newCost) -
                               static_cast<double>(cost);
            if (delta <= 0 ||
                rng.chance(std::exp(-delta /
                                    std::max(temperature, 1e-9)))) {
                cost = newCost;
                corners.swap(trial);
            } else {
                std::swap(plan.procTile[a], plan.procTile[b]);
            }
        }
        temperature *= kAlpha;
    }

    // Final greedy polish (temperature zero).
    for (int pass = 0; pass < 2; ++pass) {
        for (core::ProcId a = 0; a < design.numProcs; ++a) {
            for (core::ProcId b = a + 1; b < design.numProcs; ++b) {
                std::swap(plan.procTile[a], plan.procTile[b]);
                const std::uint32_t newCost =
                    evaluator.evaluate(plan.procTile, trial);
                if (newCost < cost) {
                    cost = newCost;
                    corners.swap(trial);
                } else {
                    std::swap(plan.procTile[a], plan.procTile[b]);
                }
            }
        }
    }

    plan.switchCorner = corners;
    plan.switchArea = design.numSwitches;
    // A full-duplex connection of Manhattan distance d costs d units of
    // area (Figure 6); a lone unidirectional channel costs half that.
    double linkArea = 0.0;
    for (const auto &pipe : design.pipes) {
        std::uint32_t channels = pipe.linksFwd + pipe.linksBwd;
        if (channels == 0)
            channels = 2 * pipe.links;
        linkArea += 0.5 * static_cast<double>(channels) *
                    static_cast<double>(
                        manhattan(plan.switchCorner[pipe.key.a],
                                  plan.switchCorner[pipe.key.b]));
    }
    plan.linkArea = static_cast<std::uint32_t>(linkArea + 0.5);
    plan.procLinkArea = 0;
    for (core::ProcId p = 0; p < design.numProcs; ++p)
        plan.procLinkArea += plan.procDistance(p, design.procHome[p]);
    return plan;
}

} // namespace minnoc::topo
