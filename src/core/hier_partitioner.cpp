#include "hier_partitioner.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "util/log.hpp"

namespace minnoc::core {

namespace {

/**
 * Weighted undirected graph over local vertex ids. `vweight[v]` is the
 * number of processors vertex v represents; `adj[v]` holds (neighbor,
 * edge weight) pairs sorted by neighbor id.
 */
struct LevelGraph
{
    std::vector<std::uint32_t> vweight;
    std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> adj;

    std::size_t size() const { return vweight.size(); }
};

/** Coarsest-graph size the matching loop aims for. */
constexpr std::size_t kCoarseTarget = 24;

/** Boundary-refinement passes per uncoarsening level. */
constexpr std::uint32_t kRefinePasses = 2;

/**
 * Heavy-edge matching: visit vertices ascending; an unmatched vertex
 * grabs its heaviest unmatched neighbor (ties toward the smaller id).
 * @return fine-to-coarse vertex map and the coarse vertex count, or
 *         coarse count == fine count when no pair matched (no progress).
 */
std::pair<std::vector<std::uint32_t>, std::size_t>
heavyEdgeMatch(const LevelGraph &g)
{
    const std::size_t n = g.size();
    constexpr auto kUnmatched = static_cast<std::uint32_t>(-1);
    std::vector<std::uint32_t> mate(n, kUnmatched);
    std::size_t pairs = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
        if (mate[v] != kUnmatched)
            continue;
        std::uint32_t best = kUnmatched;
        std::uint64_t bestW = 0;
        for (const auto &[u, w] : g.adj[v]) {
            if (mate[u] != kUnmatched || u == v)
                continue;
            if (w > bestW || (w == bestW && (best == kUnmatched ||
                                             u < best))) {
                best = u;
                bestW = w;
            }
        }
        if (best != kUnmatched) {
            mate[v] = best;
            mate[best] = v;
            ++pairs;
        }
    }

    // Assign coarse ids in ascending visit order: a vertex (or pair)
    // gets the next id the first time either member is visited.
    std::vector<std::uint32_t> map(n, kUnmatched);
    std::uint32_t next = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
        if (map[v] != kUnmatched)
            continue;
        map[v] = next;
        if (mate[v] != kUnmatched)
            map[mate[v]] = next;
        ++next;
    }
    return {std::move(map), pairs ? next : n};
}

/** Contract @p g along @p map into a graph with @p coarseN vertices. */
LevelGraph
contract(const LevelGraph &g, const std::vector<std::uint32_t> &map,
         std::size_t coarseN)
{
    LevelGraph out;
    out.vweight.assign(coarseN, 0);
    out.adj.assign(coarseN, {});
    for (std::uint32_t v = 0; v < g.size(); ++v)
        out.vweight[map[v]] += g.vweight[v];

    // Accumulate coarse edge weights; self-loops (internal edges of a
    // matched pair) vanish, which is exactly the matched weight saved.
    std::vector<std::uint64_t> row(coarseN, 0);
    std::vector<std::uint32_t> touched;
    std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>>
        halves(coarseN);
    for (std::uint32_t v = 0; v < g.size(); ++v) {
        const std::uint32_t cv = map[v];
        for (const auto &[u, w] : g.adj[v]) {
            const std::uint32_t cu = map[u];
            if (cu == cv)
                continue;
            if (row[cu] == 0)
                touched.push_back(cu);
            row[cu] += w;
        }
        // Per-fine-vertex partial rows; the sort+merge below combines
        // the two partials of a matched pair.
        halves[cv].reserve(halves[cv].size() + touched.size());
        for (const std::uint32_t cu : touched) {
            halves[cv].emplace_back(cu, row[cu]);
            row[cu] = 0;
        }
        touched.clear();
    }
    for (std::uint32_t cv = 0; cv < coarseN; ++cv) {
        auto &h = halves[cv];
        std::sort(h.begin(), h.end());
        auto &merged = out.adj[cv];
        for (const auto &[cu, w] : h) {
            if (!merged.empty() && merged.back().first == cu)
                merged.back().second += w;
            else
                merged.emplace_back(cu, w);
        }
    }
    return out;
}

/**
 * Greedy growth initial bisection of the coarsest graph: seed with the
 * heaviest vertex, grow along the strongest connection until side 0
 * reaches half the total weight.
 */
std::vector<std::uint8_t>
initialBisect(const LevelGraph &g)
{
    const std::size_t n = g.size();
    const std::uint64_t total =
        std::accumulate(g.vweight.begin(), g.vweight.end(),
                        std::uint64_t{0});
    const std::uint64_t target = total / 2;

    std::uint32_t seed = 0;
    for (std::uint32_t v = 1; v < n; ++v) {
        if (g.vweight[v] > g.vweight[seed])
            seed = v;
    }

    std::vector<std::uint8_t> part(n, 1);
    std::vector<std::uint64_t> link(n, 0); // weight into side 0
    std::vector<std::uint8_t> in(n, 0);
    auto add = [&](std::uint32_t v) {
        part[v] = 0;
        in[v] = 1;
        for (const auto &[u, w] : g.adj[v])
            link[u] += w;
    };
    add(seed);
    std::uint64_t grown = g.vweight[seed];
    while (grown < target) {
        std::uint32_t pick = static_cast<std::uint32_t>(-1);
        for (std::uint32_t v = 0; v < n; ++v) {
            if (in[v])
                continue;
            if (pick == static_cast<std::uint32_t>(-1) ||
                link[v] > link[pick]) {
                pick = v; // link ties resolve to the smallest id
            }
        }
        if (pick == static_cast<std::uint32_t>(-1))
            break; // everything is on side 0 already
        add(pick);
        grown += g.vweight[pick];
    }
    return part;
}

/**
 * FM-lite boundary refinement: greedy single-vertex moves that reduce
 * the cut, subject to the balance tolerance; imbalance-reducing
 * zero-gain moves are also taken. Neither side may empty.
 */
std::uint64_t
refine(const LevelGraph &g, std::vector<std::uint8_t> &part,
       std::uint64_t tol)
{
    const std::size_t n = g.size();
    std::uint64_t moves = 0;
    std::array<std::uint64_t, 2> size{0, 0};
    for (std::uint32_t v = 0; v < n; ++v)
        size[part[v]] += g.vweight[v];

    auto imbalance = [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a - b : b - a;
    };

    for (std::uint32_t pass = 0; pass < kRefinePasses; ++pass) {
        bool changed = false;
        for (std::uint32_t v = 0; v < n; ++v) {
            const std::uint8_t from = part[v];
            const std::uint8_t to = from ^ 1;
            const std::uint64_t w = g.vweight[v];
            if (size[from] <= w)
                continue; // would empty its side
            std::int64_t gain = 0;
            for (const auto &[u, ew] : g.adj[v]) {
                gain += part[u] == from
                            ? -static_cast<std::int64_t>(ew)
                            : static_cast<std::int64_t>(ew);
            }
            const std::uint64_t imbNow = imbalance(size[0], size[1]);
            std::array<std::uint64_t, 2> after = size;
            after[from] -= w;
            after[to] += w;
            const std::uint64_t imbNew = imbalance(after[0], after[1]);
            const bool balanced = imbNew <= std::max(tol, imbNow);
            const bool better =
                gain > 0 || (gain == 0 && imbNew < imbNow);
            if (balanced && better) {
                part[v] = to;
                size = after;
                changed = true;
                ++moves;
            }
        }
        if (!changed)
            break;
    }
    return moves;
}

/**
 * Multilevel bisection of the subgraph induced by @p verts (global
 * processor ids): coarsen by heavy-edge matching to ~kCoarseTarget
 * vertices, greedy-bisect the coarsest graph, then project back up,
 * refining the boundary at every level.
 * @return (side A, side B) as global processor ids, both non-empty.
 */
std::pair<std::vector<ProcId>, std::vector<ProcId>>
multilevelBisect(
    const std::vector<ProcId> &verts,
    const std::vector<std::vector<std::pair<ProcId, std::uint64_t>>>
        &globalAdj,
    std::uint64_t tol, HierStats &stats)
{
    const std::size_t n = verts.size();

    // Induce the local graph (vertex i == verts[i]).
    std::vector<std::uint32_t> local(globalAdj.size(),
                                     static_cast<std::uint32_t>(-1));
    for (std::uint32_t i = 0; i < n; ++i)
        local[verts[i]] = i;
    LevelGraph g;
    g.vweight.assign(n, 1);
    g.adj.assign(n, {});
    for (std::uint32_t i = 0; i < n; ++i) {
        for (const auto &[u, w] : globalAdj[verts[i]]) {
            const std::uint32_t j = local[u];
            if (j != static_cast<std::uint32_t>(-1) && j != i)
                g.adj[i].emplace_back(j, w);
        }
    }

    // Coarsen.
    std::vector<LevelGraph> levels{std::move(g)};
    std::vector<std::vector<std::uint32_t>> maps;
    while (levels.back().size() > kCoarseTarget) {
        auto [map, coarseN] = heavyEdgeMatch(levels.back());
        if (coarseN >= levels.back().size())
            break; // no edge matched: nothing left to contract
        levels.push_back(contract(levels.back(), map, coarseN));
        maps.push_back(std::move(map));
        ++stats.coarsenLevels;
    }

    // Initial partition of the coarsest level, then uncoarsen+refine.
    std::vector<std::uint8_t> part = initialBisect(levels.back());
    stats.refineMoves += refine(levels.back(), part, tol);
    for (std::size_t lvl = maps.size(); lvl-- > 0;) {
        const auto &map = maps[lvl];
        std::vector<std::uint8_t> finePart(levels[lvl].size());
        for (std::uint32_t v = 0; v < finePart.size(); ++v)
            finePart[v] = part[map[v]];
        part = std::move(finePart);
        stats.refineMoves += refine(levels[lvl], part, tol);
    }

    std::pair<std::vector<ProcId>, std::vector<ProcId>> out;
    for (std::uint32_t i = 0; i < n; ++i)
        (part[i] == 0 ? out.first : out.second).push_back(verts[i]);

    // A one-sided partition cannot drive a split; fall back to an even
    // id-order cut (can only happen on edgeless or degenerate graphs).
    if (out.first.empty() || out.second.empty()) {
        out.first.assign(verts.begin(),
                         verts.begin() + static_cast<std::ptrdiff_t>(
                                             n / 2));
        out.second.assign(verts.begin() + static_cast<std::ptrdiff_t>(
                                              n / 2),
                          verts.end());
    }
    return out;
}

} // namespace

HierStats
hierarchicalPrePartition(DesignNetwork &net,
                         const PartitionerConfig &config,
                         PartitionResult &result)
{
    HierStats stats;
    if (net.numSwitches() != 1)
        panic("hierarchicalPrePartition: network already partitioned");
    const std::uint32_t leaf = std::max(1u, config.hierarchicalLeaf);
    const std::uint32_t procs = net.numProcs();
    if (procs <= leaf)
        return stats;

    // Communication graph: edge weight = comms between the pair, both
    // directions (each crossing comm widens the eventual cut pipe).
    const CliqueSet &cliques = net.cliques();
    std::vector<std::vector<std::pair<ProcId, std::uint64_t>>> adj(procs);
    {
        std::vector<std::pair<ProcId, ProcId>> edges;
        edges.reserve(cliques.numComms());
        for (CommId c = 0; c < cliques.numComms(); ++c) {
            const Comm &comm = cliques.comm(c);
            if (comm.src != comm.dst)
                edges.emplace_back(std::min(comm.src, comm.dst),
                                   std::max(comm.src, comm.dst));
        }
        std::sort(edges.begin(), edges.end());
        for (std::size_t i = 0; i < edges.size();) {
            std::size_t j = i;
            while (j < edges.size() && edges[j] == edges[i])
                ++j;
            const auto [a, b] = edges[i];
            const auto w = static_cast<std::uint64_t>(j - i);
            adj[a].emplace_back(b, w);
            adj[b].emplace_back(a, w);
            i = j;
        }
        for (auto &row : adj)
            std::sort(row.begin(), row.end());
    }

    // Depth-first over the partition tree; the pop order (and with it
    // every new switch id) is deterministic.
    std::vector<std::pair<SwitchId, std::vector<ProcId>>> work;
    work.emplace_back(SwitchId{0}, net.procsOf(0));
    while (!work.empty()) {
        auto [s, group] = std::move(work.back());
        work.pop_back();
        if (group.size() <= leaf) {
            ++stats.leaves;
            continue;
        }
        auto [sideA, sideB] =
            multilevelBisect(group, adj, kMaxImbalance, stats);
        const SwitchId t = net.splitSwitchInto(s, sideB);
        ++stats.splits;
        ++result.numSplits;
        result.history.push_back(PartitionStep{
            PartitionStep::Kind::Split, s, t, kNoProc,
            net.totalEstimatedLinks(),
            "hier split S" + std::to_string(s)});
        if (config.paranoid)
            net.checkInvariants();
        work.emplace_back(t, std::move(sideB));
        work.emplace_back(s, std::move(sideA));
    }
    return stats;
}

} // namespace minnoc::core
