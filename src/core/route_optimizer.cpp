#include "route_optimizer.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <tuple>

#include "util/log.hpp"

namespace minnoc::core {

namespace {

/** Sum of Fast_Color estimates over a set of pipes. */
std::uint32_t
pipesCost(const DesignNetwork &net, const std::vector<PipeKey> &keys)
{
    std::uint32_t total = 0;
    for (const auto &k : keys)
        total += net.fastColor(k);
    return total;
}

/**
 * Attempt one route edit on @p c: replace the route's segment between
 * positions pos and pos+1 with the given middle switch inserted (detour)
 * or drop the switch at @p pos (straighten, middle == kNoSwitch).
 * Commits only if the summed estimate over affected pipes decreases.
 * @return links saved (0 when rejected).
 */
std::uint32_t
tryEdit(DesignNetwork &net, CommId c, std::size_t pos, SwitchId middle)
{
    const std::vector<SwitchId> oldRoute = net.route(c);
    std::vector<SwitchId> newRoute = oldRoute;

    if (middle != kNoSwitch) {
        // Detour: (a, b) -> (a, middle, b). Skip if middle already on
        // the route; routes must stay simple.
        if (std::find(oldRoute.begin(), oldRoute.end(), middle) !=
            oldRoute.end()) {
            return 0;
        }
        newRoute.insert(newRoute.begin() +
                            static_cast<std::ptrdiff_t>(pos) + 1,
                        middle);
    } else {
        // Straighten: (a, x, b) -> (a, b); pos indexes x. Endpoints are
        // pinned by the processor homes, so only interior removal.
        if (pos == 0 || pos + 1 >= oldRoute.size())
            return 0;
        if (oldRoute[pos - 1] == oldRoute[pos + 1])
            return 0; // would create an immediate repeat
        newRoute.erase(newRoute.begin() + static_cast<std::ptrdiff_t>(pos));
    }

    // Affected pipes: every adjacency that differs between the routes.
    std::vector<PipeKey> affected;
    auto collect = [&affected](const std::vector<SwitchId> &r) {
        for (std::size_t i = 0; i + 1 < r.size(); ++i)
            affected.emplace_back(r[i], r[i + 1]);
    };
    collect(oldRoute);
    collect(newRoute);
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());

    const std::uint32_t before = pipesCost(net, affected);
    net.setRoute(c, newRoute);
    const std::uint32_t after = pipesCost(net, affected);
    if (after < before)
        return before - after;
    net.setRoute(c, oldRoute);
    return 0;
}

/**
 * One Best_Route direction: for every pipe P(s, k) incident to @p s with
 * k != sibling, try detouring each of its communications through the
 * sibling, and try straightening existing detours through the sibling.
 */
void
optimizePipesOf(DesignNetwork &net, SwitchId s, SwitchId sibling,
                RouteOptStats &stats)
{
    for (const auto &key : net.pipesOf(s)) {
        const SwitchId other = (key.a == s) ? key.b : key.a;
        if (other == sibling)
            continue;

        // Snapshot the comm ids first: edits mutate the pipe sets.
        const Pipe &p = net.pipe(key);
        std::vector<CommId> comms = p.fwd.toVector();
        const std::vector<CommId> bwdIds = p.bwd.toVector();
        comms.insert(comms.end(), bwdIds.begin(), bwdIds.end());
        std::sort(comms.begin(), comms.end());
        comms.erase(std::unique(comms.begin(), comms.end()), comms.end());

        for (const CommId c : comms) {
            const auto &r = net.route(c);
            // Find an adjacency (s, other) or (other, s) in the route.
            for (std::size_t i = 0; i + 1 < r.size(); ++i) {
                const bool hits = (r[i] == s && r[i + 1] == other) ||
                                  (r[i] == other && r[i + 1] == s);
                if (!hits)
                    continue;
                ++stats.triedMoves;
                const std::uint32_t saved = tryEdit(net, c, i, sibling);
                if (saved) {
                    ++stats.committedMoves;
                    stats.linksSaved += saved;
                }
                break; // route changed or not; re-scan on next pass
            }
        }
    }

    // Straightening pass: remove detours through the sibling that no
    // longer pay for themselves.
    for (const auto &key : net.pipesOf(sibling)) {
        const Pipe &p = net.pipe(key);
        std::vector<CommId> comms = p.fwd.toVector();
        const std::vector<CommId> bwdIds = p.bwd.toVector();
        comms.insert(comms.end(), bwdIds.begin(), bwdIds.end());
        for (const CommId c : comms) {
            const auto &r = net.route(c);
            for (std::size_t i = 1; i + 1 < r.size(); ++i) {
                if (r[i] != sibling)
                    continue;
                ++stats.triedMoves;
                const std::uint32_t saved = tryEdit(net, c, i, kNoSwitch);
                if (saved) {
                    ++stats.committedMoves;
                    stats.linksSaved += saved;
                }
                break;
            }
        }
    }
}

} // namespace

RouteOptStats
bestRoute(DesignNetwork &net, SwitchId si, SwitchId sj)
{
    RouteOptStats stats;
    if (si == sj)
        panic("bestRoute: si == sj");
    optimizePipesOf(net, si, sj, stats);
    optimizePipesOf(net, sj, si, stats);
    return stats;
}

namespace {

/** Total violation of @p degrees over the budget @p max_degree. */
std::uint64_t
violation(const std::vector<std::uint32_t> &degrees,
          std::uint32_t max_degree)
{
    std::uint64_t total = 0;
    for (const auto d : degrees) {
        if (d > max_degree)
            total += d - max_degree;
    }
    return total;
}

/** Total degree violation over all switches. */
std::uint64_t
degreeViolation(const DesignNetwork &net, std::uint32_t max_degree)
{
    return violation(net.estimatedDegrees(), max_degree);
}

/**
 * The reverse of @p c when it exists and currently mirrors c's route,
 * else kNoComm. A mirrored pair is priced and rerouted jointly:
 * removing only one of them never shrinks the shared pipe (a
 * full-duplex width is the max of the two directions), so no move
 * would ever look profitable.
 */
CommId
mirroredReverse(const DesignNetwork &net, CommId c)
{
    const CliqueSet &cliques = net.cliques();
    const CommId rev = cliques.findComm(cliques.comm(c).reversed());
    if (rev == c || rev == CliqueSet::kNoComm)
        return CliqueSet::kNoComm;
    const auto &r = net.route(c);
    const auto &rr = net.route(rev);
    if (!std::equal(r.begin(), r.end(), rr.rbegin(), rr.rend()))
        return CliqueSet::kNoComm; // asymmetric: treat c alone
    return rev;
}

/** Route @p c along @p path and, when paired, @p rev along its mirror. */
void
routePair(DesignNetwork &net, CommId c, CommId rev,
          const std::vector<SwitchId> &path)
{
    net.setRoute(c, path);
    if (rev != CliqueSet::kNoComm)
        net.setRoute(rev, std::vector<SwitchId>(path.rbegin(), path.rend()));
}

/**
 * Prices the hops of a reroute of communication c (and its paired
 * reverse rev) against the live network, as if the victims were
 * removed. Only the pipes on c's route hold them, so only those get
 * victim-free copies; every other pipe is read live with its cached
 * Fast_Color values.
 */
class HopPricer
{
  public:
    static constexpr std::uint32_t kAbsent = static_cast<std::uint32_t>(-1);

    HopPricer(const DesignNetwork &net, CommId c, CommId rev)
        : _net(net), _c(c), _rev(rev)
    {
        const auto &r = net.route(c);
        for (std::size_t i = 0; i + 1 < r.size(); ++i) {
            Victim &v = _victims.emplace_back();
            v.key = PipeKey(r[i], r[i + 1]);
            const Pipe &p = net.pipe(v.key);
            v.fwd = p.fwd;
            v.bwd = p.bwd;
            for (const CommId x : {c, rev}) {
                if (x != CliqueSet::kNoComm) {
                    v.fwd.erase(x);
                    v.bwd.erase(x);
                }
            }
            v.fcFwd = net.fastColorSet(v.fwd);
            v.fcBwd = net.fastColorSet(v.bwd);
        }
    }

    /**
     * Links the victims add by riding hop (@p u, @p v): c from u to v
     * and, when paired, rev back. A full-duplex pipe needs the max of
     * its two directions; under @p uni_cost each direction is its own
     * channel set and the cost is their sum. kAbsent when no pipe joins
     * u and v.
     */
    std::uint32_t
    added(SwitchId u, SwitchId v, bool uni_cost) const
    {
        const PipeKey key(u, v);
        const CommBitset *fwd = nullptr;
        const CommBitset *bwd = nullptr;
        std::uint32_t fcFwd = 0;
        std::uint32_t fcBwd = 0;
        const auto it = std::find_if(
            _victims.begin(), _victims.end(),
            [&key](const Victim &x) { return x.key == key; });
        if (it != _victims.end()) {
            fwd = &it->fwd;
            bwd = &it->bwd;
            fcFwd = it->fcFwd;
            fcBwd = it->fcBwd;
        } else {
            const Pipe &p = _net.pipe(key);
            if (p.empty())
                return kAbsent;
            fwd = &p.fwd;
            bwd = &p.bwd;
            std::tie(fcFwd, fcBwd) = _net.fastColorDirs(p);
        }
        const bool forward = u < v;
        const std::uint32_t fcWith = _net.fastColorSetPlus(
            forward ? *fwd : *bwd, forward ? fcFwd : fcBwd, _c);
        std::uint32_t fcOther = forward ? fcBwd : fcFwd;
        if (_rev != CliqueSet::kNoComm)
            fcOther = _net.fastColorSetPlus(forward ? *bwd : *fwd, fcOther,
                                            _rev);
        if (uni_cost)
            return fcWith + fcOther - (fcFwd + fcBwd);
        return std::max(fcWith, fcOther) - std::max(fcFwd, fcBwd);
    }

  private:
    /** A pipe on the victims' route, with the victims removed. */
    struct Victim
    {
        PipeKey key;
        CommBitset fwd;
        CommBitset bwd;
        std::uint32_t fcFwd = 0;
        std::uint32_t fcBwd = 0;
    };

    const DesignNetwork &_net;
    CommId _c;
    CommId _rev;
    std::vector<Victim> _victims;
};

/**
 * Dijkstra state over switch ids. The frontier pops (dist, switch) in
 * ascending order and a switch is relaxed only on a strict
 * improvement, so ties keep the first parent found; superseded
 * frontier entries are skipped on pop.
 */
class ShortestPaths
{
  public:
    static constexpr std::uint64_t kUnreached =
        static_cast<std::uint64_t>(-1);

    ShortestPaths(std::size_t switches, SwitchId src)
        : _dist(switches, kUnreached), _parent(switches, kNoSwitch),
          _src(src)
    {
        _dist[src] = 0;
        _frontier.emplace(0, src);
    }

    /** Pop the next settled switch into (@p d, @p v); false when done. */
    bool
    pop(std::uint64_t &d, SwitchId &v)
    {
        while (!_frontier.empty()) {
            std::tie(d, v) = _frontier.top();
            _frontier.pop();
            if (d == _dist[v])
                return true;
        }
        return false;
    }

    void
    relax(SwitchId w, std::uint64_t nd, SwitchId from)
    {
        if (nd < _dist[w]) {
            _dist[w] = nd;
            _parent[w] = from;
            _frontier.emplace(nd, w);
        }
    }

    std::uint64_t dist(SwitchId v) const { return _dist[v]; }

    /** The switch path from the source to @p dst (must be reached). */
    std::vector<SwitchId>
    path(SwitchId dst) const
    {
        std::vector<SwitchId> p{dst};
        while (p.back() != _src)
            p.push_back(_parent[p.back()]);
        std::reverse(p.begin(), p.end());
        return p;
    }

  private:
    using Entry = std::pair<std::uint64_t, SwitchId>;

    std::vector<std::uint64_t> _dist;
    std::vector<SwitchId> _parent;
    SwitchId _src;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        _frontier;
};

/**
 * One consolidation attempt for a single communication (jointly with
 * its mirrored reverse, see mirroredReverse): find the cheapest path
 * over existing pipes and reroute if it beats the current route. With
 * a degree budget, @p degrees holds the current estimated degrees;
 * only a committed move changes them, and it refreshes them.
 */
bool
consolidateOne(DesignNetwork &net, CommId c, std::uint32_t max_degree,
               bool uni_cost, std::vector<std::uint32_t> &degrees)
{
    const std::vector<SwitchId> oldRoute = net.route(c);
    if (oldRoute.size() < 2)
        return false; // intra-switch: nothing to optimize
    const SwitchId src = oldRoute.front();
    const SwitchId dst = oldRoute.back();
    const CommId rev = mirroredReverse(net, c);
    const HopPricer pricer(net, c, rev);

    // Weighted hop price: links dominate, hop count breaks ties, and
    // hops touching a switch already beyond the degree budget are
    // penalized so traffic drains away from hubs instead of piling onto
    // them (total-links greed would otherwise happily grow one giant
    // hub switch). Every hop priced here is an existing pipe.
    constexpr std::uint64_t kLink = 1024;
    constexpr std::uint64_t kOverload = 64;
    constexpr std::uint64_t kHop = 1;
    auto hopPrice = [&](SwitchId u, SwitchId v) -> std::uint64_t {
        std::uint64_t price =
            static_cast<std::uint64_t>(pricer.added(u, v, uni_cost)) *
                kLink +
            kHop;
        if (max_degree)
            price += kOverload * ((degrees[u] > max_degree) +
                                  (degrees[v] > max_degree));
        return price;
    };

    std::uint64_t currentCost = 0;
    for (std::size_t i = 0; i + 1 < oldRoute.size(); ++i)
        currentCost += hopPrice(oldRoute[i], oldRoute[i + 1]);

    // Dijkstra over existing pipes from src's switch to dst's switch,
    // relaxing neighbors in ascending id order. Only a path cheaper
    // than the current route can be committed, so no tentative distance
    // at or above currentCost is recorded: the frontier runs dry once
    // nothing cheaper remains, and every distance and parent below
    // currentCost is the one an unpruned search would settle.
    ShortestPaths sp(net.numSwitches(), src);
    std::uint64_t d = 0;
    SwitchId v = kNoSwitch;
    while (sp.pop(d, v) && v != dst) {
        for (const SwitchId w : net.neighbors(v)) {
            const std::uint64_t nd = d + hopPrice(v, w);
            if (nd < currentCost)
                sp.relax(w, nd, v);
        }
    }
    if (sp.dist(dst) >= currentCost)
        return false; // nothing beats the current route
    const std::vector<SwitchId> path = sp.path(dst);

    // Commit (both directions when paired). With a degree budget in
    // force, revert any commit that worsens the total degree violation
    // — link savings must not undo repairDegrees' spreading.
    routePair(net, c, rev, path);
    if (max_degree) {
        std::vector<std::uint32_t> after = net.estimatedDegrees();
        if (violation(after, max_degree) > violation(degrees, max_degree)) {
            routePair(net, c, rev, oldRoute);
            return false;
        }
        degrees = std::move(after);
    }
    return true;
}

/**
 * Propose an alternative route for @p c (and commit its mirrored pair
 * when applicable) that avoids overloaded switches, then keep it only
 * if the global (violation, links) measure improves.
 */
bool
repairOne(DesignNetwork &net, CommId c, std::uint32_t max_degree)
{
    const std::vector<SwitchId> oldRoute = net.route(c);
    if (oldRoute.size() < 2)
        return false;
    const SwitchId src = oldRoute.front();
    const SwitchId dst = oldRoute.back();

    // One bulk degree pass feeds both the overload map and the spare
    // budget (for pricing new pipes).
    const auto degrees = net.estimatedDegrees();
    std::vector<bool> overloaded(net.numSwitches(), false);
    std::vector<std::int64_t> spare(net.numSwitches(), 0);
    bool touches = false;
    for (SwitchId s = 0; s < net.numSwitches(); ++s) {
        overloaded[s] = degrees[s] > max_degree;
        spare[s] = static_cast<std::int64_t>(max_degree) -
                   static_cast<std::int64_t>(degrees[s]);
    }
    for (const SwitchId s : oldRoute)
        touches |= overloaded[s];
    if (!touches)
        return false;

    // Candidate hops are priced by their marginal width contribution
    // with the victim pair removed (riding an existing link
    // conflict-free is much cheaper than widening).
    const CommId rev = mirroredReverse(net, c);
    const HopPricer pricer(net, c, rev);

    // Dijkstra proposal: width widening is expensive, overloaded
    // interiors are avoided hard, a new pipe is allowed when both ends
    // have spare degree.
    constexpr std::uint64_t kAvoid = 1ull << 20;
    constexpr std::uint64_t kLink = 1024;
    constexpr std::uint64_t kNewPipe = 512;
    constexpr std::uint64_t kHop = 1;
    auto price = [&](SwitchId u, SwitchId v) -> std::uint64_t {
        std::uint64_t p = kHop;
        const std::uint32_t widen = pricer.added(u, v, false);
        if (widen == HopPricer::kAbsent) {
            // New pipe: one fresh link, both endpoints must afford it.
            if (spare[u] < 1 || spare[v] < 1)
                return static_cast<std::uint64_t>(-1) / 8;
            p += kLink + kNewPipe;
        } else {
            p += static_cast<std::uint64_t>(widen) * kLink;
            // Widening a pipe consumes endpoint degree too.
            if (widen && (spare[u] < 1 || spare[v] < 1) &&
                !(overloaded[u] || overloaded[v])) {
                p += kNewPipe;
            }
        }
        if (v != dst && overloaded[v])
            p += kAvoid;
        if (u != src && overloaded[u])
            p += kAvoid;
        return p;
    };

    // Large-N mode swaps the complete-graph relaxation (every popped
    // vertex prices an edge to every other switch — O(S^2) per comm,
    // the single hottest loop in profile at 256+ ranks) for a sparse
    // one: existing pipes come from the switch's neighbor list, and
    // new-pipe offers — whose price is uniform over targets up to the
    // two overload surcharges — are broadcast at most once per penalty
    // class, from the first (hence cheapest) popped vertex of that
    // class. Offers from spare-less vertices (priced effectively
    // infinite in the dense path) are dropped entirely: a repair that
    // could only route through them would never survive the acceptance
    // check anyway. Small nets keep the dense loop so existing designs
    // reproduce byte for byte.
    const bool sparseRelax = net.numProcs() > 64;
    ShortestPaths sp(net.numSwitches(), src);
    bool bulkDone[2] = {false, false};
    std::uint64_t d = 0;
    SwitchId v = kNoSwitch;
    while (sp.pop(d, v) && v != dst) {
        if (!sparseRelax) {
            for (SwitchId w = 0; w < net.numSwitches(); ++w) {
                if (w != v)
                    sp.relax(w, d + price(v, w), v);
            }
            continue;
        }
        for (const SwitchId w : net.neighbors(v))
            sp.relax(w, d + price(v, w), v);
        if (spare[v] < 1)
            continue;
        const bool pen = v != src && overloaded[v];
        if (bulkDone[pen])
            continue; // a cheaper same-class vertex already broadcast
        bulkDone[pen] = true;
        const std::uint64_t basePrice =
            d + kHop + kLink + kNewPipe + (pen ? kAvoid : 0);
        for (SwitchId w = 0; w < net.numSwitches(); ++w) {
            if (w == v || spare[w] < 1)
                continue;
            const std::uint64_t surcharge =
                w != dst && overloaded[w] ? kAvoid : 0;
            sp.relax(w, basePrice + surcharge, v);
        }
    }
    if (sp.dist(dst) == ShortestPaths::kUnreached)
        return false;
    const std::vector<SwitchId> path = sp.path(dst);
    if (path == oldRoute)
        return false;

    // Trial apply; accept only if (violation, links) improves.
    const std::uint64_t violBefore = violation(degrees, max_degree);
    const std::uint32_t linksBefore = net.totalEstimatedLinks();
    routePair(net, c, rev, path);
    const std::uint64_t violAfter = degreeViolation(net, max_degree);
    const std::uint32_t linksAfter = net.totalEstimatedLinks();
    // Feasibility buys link slack: shedding a violation is worth up to
    // one extra link (consolidation claws links back afterwards).
    const bool accept =
        (violAfter < violBefore && linksAfter <= linksBefore + 1) ||
        (violAfter == violBefore && linksAfter < linksBefore);
    if (!accept) {
        routePair(net, c, rev, oldRoute);
        return false;
    }
    return true;
}

} // namespace

RouteOptStats
repairDegrees(DesignNetwork &net, std::uint32_t max_degree,
              std::uint32_t max_passes, Rng *rng)
{
    RouteOptStats stats;
    const auto numComms =
        static_cast<CommId>(net.cliques().numComms());
    std::vector<CommId> order(numComms);
    for (CommId c = 0; c < numComms; ++c)
        order[c] = c;
    for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
        if (degreeViolation(net, max_degree) == 0)
            break;
        if (rng)
            rng->shuffle(order);
        bool changed = false;
        for (const CommId c : order) {
            ++stats.triedMoves;
            if (repairOne(net, c, max_degree)) {
                ++stats.committedMoves;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    return stats;
}

RouteOptStats
consolidateRoutes(DesignNetwork &net, std::uint32_t max_passes,
                  std::uint32_t max_degree, Rng *rng, bool uni_cost)
{
    RouteOptStats stats;
    const auto numComms =
        static_cast<CommId>(net.cliques().numComms());
    std::vector<CommId> order(numComms);
    for (CommId c = 0; c < numComms; ++c)
        order[c] = c;
    // Degrees move only when a move commits (a reverted move restores
    // the same routes), so consolidateOne keeps this copy current.
    std::vector<std::uint32_t> degrees;
    if (max_degree)
        degrees = net.estimatedDegrees();
    for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
        const std::uint32_t before = net.totalEstimatedLinks();
        if (rng)
            rng->shuffle(order);
        bool changed = false;
        for (const CommId c : order) {
            ++stats.triedMoves;
            if (consolidateOne(net, c, max_degree, uni_cost, degrees)) {
                ++stats.committedMoves;
                changed = true;
            }
        }
        const std::uint32_t after = net.totalEstimatedLinks();
        stats.linksSaved += before > after ? before - after : 0;
        if (!changed)
            break;
    }
    return stats;
}

} // namespace minnoc::core
