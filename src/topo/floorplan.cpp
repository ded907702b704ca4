#include "floorplan.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <span>
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

/** Gauss-Seidel passes that relax the switch corners. */
constexpr int kPasses = 3;

/**
 * Placement cost of the processor tiles, kept over tile swaps.
 *
 * A placement's cost is its link + proc-link area once every switch is
 * snapped to its best member-tile corner. Corners start at each
 * switch's first processor's tile and relax by up to kPasses passes in
 * switch order, stopping after a pass that moved no switch.
 *
 * The committed evaluation (the record) keeps the corners after
 * initialisation and after each pass. A pass that moved nothing is a
 * fixed point, so its corners also stand for every later pass. A trial
 * swap of two tiles recomputes switch s in pass k only when an input of
 * snap() differs from the record's at that pass: its member tiles, its
 * lower-id neighbours' pass-k corners, or its higher-id neighbours' and
 * its own pass-(k-1) corners. Every other switch keeps the record's
 * corner. snap() is deterministic, so a trial's corners, the pass it
 * stops after and its cost equal those of a full relaxation.
 */
class PlacementCost
{
  public:
    /** Evaluate @p procTile in full and commit it. */
    PlacementCost(const core::FinalizedDesign &design,
                  const std::vector<GridPoint> &procTile)
        : _design(design), _incident(design.numSwitches)
    {
        for (const auto &pipe : design.pipes) {
            _incident[pipe.key.a].emplace_back(pipe.key.b, pipe.links);
            if (pipe.key.b != pipe.key.a)
                _incident[pipe.key.b].emplace_back(pipe.key.a, pipe.links);
        }
        for (core::SwitchId s = 0; s < design.numSwitches; ++s) {
            auto &adj = _incident[s];
            const auto higher = std::partition(
                adj.begin(), adj.end(),
                [s](const auto &pipe) { return pipe.first < s; });
            _numLower.push_back(
                static_cast<std::uint32_t>(higher - adj.begin()));
        }
        const std::size_t words = (design.numSwitches + 63) / 64;
        for (int k = 0; k <= kPasses; ++k) {
            _rec[k].resize(design.numSwitches);
            _changed[k].reserve(design.numSwitches);
            _dirty[k].assign(words, 0);
        }
        relaxAll(procTile, _rec);
        _trial = _rec;
        _cost = totalCost(procTile, _rec[kPasses]);
#ifdef MINNOC_SANITIZE
        _check = _rec;
#endif
    }

    /** Cost of the committed placement. */
    std::uint32_t cost() const { return _cost; }

    /** Switch corners of the committed placement. */
    const std::vector<GridPoint> &corners() const { return _rec[kPasses]; }

    /**
     * Cost of @p procTile: the committed placement with the tiles of
     * procs @p a and @p b swapped. accept() commits this trial; the
     * next trial drops it.
     */
    std::uint32_t
    trySwap(const std::vector<GridPoint> &procTile, core::ProcId a,
            core::ProcId b)
    {
        // The trial corners equal the record's except where the last
        // trial changed them.
        for (int k = 0; k <= kPasses; ++k) {
            for (const auto s : _changed[k])
                _trial[k][s] = _rec[k][s];
            _changed[k].clear();
        }
        const core::SwitchId homeIds[] = {_design.procHome[a],
                                          _design.procHome[b]};
        const std::span<const core::SwitchId> homes(
            homeIds, homeIds[0] == homeIds[1] ? 1 : 2);
        for (const auto s : homes) {
            // Their member tiles are inputs of every pass.
            update(0, s, procTile[_design.switchProcs[s].front()]);
            for (int k = 1; k <= kPasses; ++k)
                mark(k, s);
        }

        int pass = 1;
        for (; pass <= kPasses; ++pass) {
            // Dirty switches in id order; marks made on the way are for
            // higher ids, which the scan has yet to reach.
            auto &dirty = _dirty[pass];
            for (std::size_t w = 0; w < dirty.size(); ++w) {
                while (dirty[w]) {
                    const auto s = static_cast<core::SwitchId>(
                        w * 64 + std::countr_zero(dirty[w]));
                    dirty[w] &= dirty[w] - 1;
                    update(pass, s,
                           snap(s, procTile, _trial[pass], _trial[pass - 1]));
                }
            }
            if (_trial[pass] == _trial[pass - 1])
                break;
        }
        extendFixedPoint(pass);
        _trialCost = costAfterSwap(procTile, a, b, homes);

#ifdef MINNOC_SANITIZE
        relaxAll(procTile, _check);
        for (int k = 0; k <= kPasses; ++k) {
            if (_check[k] != _trial[k])
                panic("floorplan: swapping procs ", a, " and ", b,
                      " gives other pass-", k,
                      " corners than a full relaxation");
        }
        if (const auto full = totalCost(procTile, _check[kPasses]);
            full != _trialCost)
            panic("floorplan: swapping procs ", a, " and ", b, " costs ",
                  _trialCost, " incrementally, ", full, " in full");
#endif
        return _trialCost;
    }

    /** Commit the last trial. */
    void
    accept()
    {
        for (int k = 0; k <= kPasses; ++k) {
            for (const auto s : _changed[k])
                _rec[k][s] = _trial[k][s];
        }
        _cost = _trialCost;
    }

  private:
    /** Corners after initialisation (0) and after each pass. */
    using Passes = std::array<std::vector<GridPoint>, kPasses + 1>;

    /** Initialise and relax every switch: the full evaluation. */
    void
    relaxAll(const std::vector<GridPoint> &procTile, Passes &corners) const
    {
        // Each switch starts at the first corner of its first proc's
        // tile (every switch owns at least one proc after partitioning;
        // guard anyway).
        for (core::SwitchId s = 0; s < _design.numSwitches; ++s) {
            const auto &members = _design.switchProcs[s];
            corners[0][s] =
                members.empty() ? GridPoint{} : procTile[members.front()];
        }
        int pass = 1;
        for (; pass <= kPasses; ++pass) {
            for (core::SwitchId s = 0; s < _design.numSwitches; ++s) {
                corners[pass][s] = snap(s, procTile, corners[pass],
                                        corners[pass - 1]);
            }
            if (corners[pass] == corners[pass - 1])
                break;
        }
        for (int k = pass + 1; k <= kPasses; ++k)
            corners[k] = corners[pass];
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

    /**
     * Best member-tile corner of switch @p s, given the corners of this
     * pass (@p cur, for lower ids) and of the previous one (@p prev, for
     * s and higher ids). A switch without procs stays where it was.
     */
    GridPoint
    snap(core::SwitchId s, const std::vector<GridPoint> &procTile,
         const std::vector<GridPoint> &cur,
         const std::vector<GridPoint> &prev) const
    {
        const auto &members = _design.switchProcs[s];
        const auto &adj = _incident[s];
        const std::size_t numLower = _numLower[s];
        std::uint32_t bestCost = static_cast<std::uint32_t>(-1);
        GridPoint bestCorner = prev[s];
        for (const auto p : members) {
            for (const auto &offset : kCornerOffsets) {
                const GridPoint cand{procTile[p].x + offset.x,
                                     procTile[p].y + offset.y};
                std::uint32_t cost = 0;
                for (std::size_t i = 0; i < numLower; ++i)
                    cost += adj[i].second * manhattan(cand, cur[adj[i].first]);
                for (std::size_t i = numLower; i < adj.size(); ++i)
                    cost += adj[i].second * manhattan(cand, prev[adj[i].first]);
                for (const auto q : members)
                    cost += tileCornerDistance(procTile[q], cand);
                if (cost < bestCost) {
                    bestCost = cost;
                    bestCorner = cand;
                }
            }
        }
        return bestCorner;
    }

    /** Queue switch @p s for recomputation in pass @p k. */
    void
    mark(int k, core::SwitchId s)
    {
        _dirty[k][s / 64] |= std::uint64_t{1} << (s % 64);
    }

    /**
     * Set the trial's pass-@p k corner of @p s; true if it differs from
     * the record's.
     */
    bool
    put(int k, core::SwitchId s, const GridPoint &corner)
    {
        if (corner == _rec[k][s])
            return false;
        _trial[k][s] = corner;
        _changed[k].push_back(s);
        return true;
    }

    /**
     * Set the pass-@p k corner of @p s; if it differs from the record's,
     * queue the relaxations that read it: higher-id neighbours in this
     * pass, itself and lower-id neighbours in the next.
     */
    void
    update(int k, core::SwitchId s, const GridPoint &corner)
    {
        if (!put(k, s, corner))
            return;
        const bool next = k < kPasses;
        if (next)
            mark(k + 1, s);
        for (const auto &[other, links] : _incident[s]) {
            if (other < s && next)
                mark(k + 1, other);
            else if (other > s && k > 0)
                mark(k, other);
        }
    }

    /**
     * The trial stopped after pass @p last (past kPasses if every pass
     * moved), so its corners stand for every later pass.
     */
    void
    extendFixedPoint(int last)
    {
        for (int k = last + 1; k <= kPasses; ++k) {
            std::fill(_dirty[k].begin(), _dirty[k].end(), 0);
            for (core::SwitchId s = 0; s < _design.numSwitches; ++s)
                put(k, s, _trial[last][s]);
        }
    }

    /** Record's cost plus the change over the moved switches and homes. */
    std::uint32_t
    costAfterSwap(const std::vector<GridPoint> &procTile, core::ProcId a,
                  core::ProcId b,
                  std::span<const core::SwitchId> homes) const
    {
        const auto &now = _trial[kPasses];
        const auto &was = _rec[kPasses];
        const auto moved = [&](core::SwitchId s) { return now[s] != was[s]; };
        std::int64_t delta = 0;
        const auto members = [&](core::SwitchId s) {
            for (const auto q : _design.switchProcs[s]) {
                const auto &tileWas =
                    q == a ? procTile[b] : q == b ? procTile[a] : procTile[q];
                delta += static_cast<std::int64_t>(
                             tileCornerDistance(procTile[q], now[s])) -
                         tileCornerDistance(tileWas, was[s]);
            }
        };
        for (const auto s : _changed[kPasses]) {
            for (const auto &[other, links] : _incident[s]) {
                if (other < s && moved(other))
                    continue; // counted from the other end
                delta += static_cast<std::int64_t>(links) *
                         (static_cast<std::int64_t>(
                              manhattan(now[s], now[other])) -
                          manhattan(was[s], was[other]));
            }
            members(s);
        }
        for (const auto s : homes) {
            if (!moved(s))
                members(s);
        }
        return static_cast<std::uint32_t>(_cost + delta);
    }

    const core::FinalizedDesign &_design;
    /**
     * (other switch, links) of each switch's pipes, those to lower ids
     * first; self-loops once.
     */
    std::vector<std::vector<std::pair<core::SwitchId, std::uint32_t>>>
        _incident;
    /** How many of each switch's pipes lead to a lower id. */
    std::vector<std::uint32_t> _numLower;
    /** The committed evaluation. */
    Passes _rec;
    std::uint32_t _cost = 0;
    /** The trial: the record's corners except at _changed. */
    Passes _trial;
    std::uint32_t _trialCost = 0;
    /** Switches whose trial corner differs from the record's, by pass. */
    std::array<std::vector<core::SwitchId>, kPasses + 1> _changed;
    /** Bitmaps of the switches a trial recomputes, by pass (0 unused). */
    std::array<std::vector<std::uint64_t>, kPasses + 1> _dirty;
#ifdef MINNOC_SANITIZE
    /** A full relaxation of each trial, to check it against. */
    Passes _check;
#endif
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
    PlacementCost evaluator(design, plan.procTile);
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
            const auto delta =
                static_cast<double>(evaluator.trySwap(plan.procTile, a, b)) -
                static_cast<double>(evaluator.cost());
            if (delta <= 0 ||
                rng.chance(std::exp(-delta /
                                    std::max(temperature, 1e-9)))) {
                evaluator.accept();
            } else {
                std::swap(plan.procTile[a], plan.procTile[b]);
            }
        }
        temperature *= kAlpha;
    }

    // Final greedy polish (temperature zero), at most two passes. A pass
    // that accepts no swap leaves the placement, and so every trial of
    // the next pass, as it was: stop there.
    for (int pass = 0; pass < 2; ++pass) {
        bool accepted = false;
        for (core::ProcId a = 0; a < design.numProcs; ++a) {
            for (core::ProcId b = a + 1; b < design.numProcs; ++b) {
                std::swap(plan.procTile[a], plan.procTile[b]);
                if (evaluator.trySwap(plan.procTile, a, b) <
                    evaluator.cost()) {
                    evaluator.accept();
                    accepted = true;
                } else {
                    std::swap(plan.procTile[a], plan.procTile[b]);
                }
            }
        }
        if (!accepted)
            break;
    }

    plan.switchCorner = evaluator.corners();
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
