#include "route_optimizer.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <span>
#include <tuple>

#include "partitioner.hpp"
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
    const CommId rev = net.cliques().reverseOf(c);
    if (rev == CliqueSet::kNoComm)
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

    explicit HopPricer(const DesignNetwork &net) : _net(net) {}

    /** Price reroutes of @p c (and @p rev) from now on. */
    const HopPricer &
    reset(CommId c, CommId rev)
    {
        _c = c;
        _rev = rev;
        const auto &r = _net.route(c);
        _numVictims = r.size() - 1;
        _victims.resize(std::max(_victims.size(), _numVictims));
        for (std::size_t i = 0; i < _numVictims; ++i) {
            Victim &v = _victims[i];
            v.slot = _net.slotOf(r[i], r[i + 1]);
            const Pipe &p = _net.pipeAt(v.slot);
            v.fwd = p.fwd; // copy-assignment reuses the capacity
            v.bwd = p.bwd;
            for (const CommId x : {c, rev}) {
                if (x != CliqueSet::kNoComm) {
                    v.fwd.erase(x);
                    v.bwd.erase(x);
                }
            }
            v.fcFwd = _net.fastColorSet(v.fwd);
            v.fcBwd = _net.fastColorSet(v.bwd);
        }
        return *this;
    }

    /**
     * Links the victims add by riding hop (@p u, @p v) over the pipe in
     * @p slot: c from u to v and, when paired, rev back. A full-duplex
     * pipe needs the max of its two directions; under @p uni_cost each
     * direction is its own channel set and the cost is their sum.
     * kAbsent when no pipe joins u and v (@p slot is kNoSlot).
     */
    std::uint32_t
    added(SwitchId u, SwitchId v, std::uint32_t slot, bool uni_cost) const
    {
        if (slot == DesignNetwork::kNoSlot)
            return kAbsent;
        const CommBitset *fwd = nullptr;
        const CommBitset *bwd = nullptr;
        std::uint32_t fcFwd = 0;
        std::uint32_t fcBwd = 0;
        const auto live = std::span(_victims).first(_numVictims);
        const auto it = std::ranges::find(live, slot, &Victim::slot);
        if (it != live.end()) {
            fwd = &it->fwd;
            bwd = &it->bwd;
            fcFwd = it->fcFwd;
            fcBwd = it->fcBwd;
        } else {
            const Pipe &p = _net.pipeAt(slot);
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
        std::uint32_t slot = 0;
        CommBitset fwd;
        CommBitset bwd;
        std::uint32_t fcFwd = 0;
        std::uint32_t fcBwd = 0;
    };

    const DesignNetwork &_net;
    CommId _c = 0;
    CommId _rev = 0;
    std::vector<Victim> _victims; ///< the first _numVictims are current
    std::size_t _numVictims = 0;
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

    /** Start a search from @p src over @p switches switches. */
    ShortestPaths &
    reset(std::size_t switches, SwitchId src)
    {
        _dist.assign(switches, kUnreached);
        _parent.assign(switches, kNoSwitch);
        _frontier.assign(1, {0, src});
        _src = src;
        _dist[src] = 0;
        return *this;
    }

    /** Pop the next settled switch into (@p d, @p v); false when done. */
    bool
    pop(std::uint64_t &d, SwitchId &v)
    {
        while (!_frontier.empty()) {
            std::pop_heap(_frontier.begin(), _frontier.end(),
                          std::greater<>());
            std::tie(d, v) = _frontier.back();
            _frontier.pop_back();
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
            _frontier.emplace_back(nd, w);
            std::push_heap(_frontier.begin(), _frontier.end(),
                           std::greater<>());
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
    std::vector<Entry> _frontier; ///< a min-heap
    SwitchId _src = kNoSwitch;
};

/**
 * What one consolidateRoutes or repairDegrees call keeps across its
 * attempts: the buffers an attempt reuses instead of allocating, the
 * estimated degrees (current after every commit), the comm order,
 * runPass's clean stamps and consolidateOne's destination stamps.
 */
struct RouteScratch
{
    explicit RouteScratch(const DesignNetwork &net)
        : pricer(net), nearDst(net.numSwitches(), 0),
          order(net.cliques().numComms()),
          cleanAt(order.size(), static_cast<std::uint32_t>(-1))
    {
        std::iota(order.begin(), order.end(), CommId{0});
    }

    HopPricer pricer;
    ShortestPaths sp;
    std::uint32_t searches = 0; ///< consolidateOne searches so far
    /** Per switch: the last search whose dst it is a pipe neighbor of. */
    std::vector<std::uint32_t> nearDst;
    std::vector<SwitchId> oldRoute;
    std::vector<std::uint32_t> degrees;
    /** The switches a trial move touches and their degrees after it. */
    std::vector<std::pair<SwitchId, std::uint32_t>> fresh;
    std::vector<CommId> order;
    std::uint32_t commits = 0;          ///< moves committed so far
    std::vector<std::uint32_t> cleanAt; ///< per comm: commits when clean
};

/** A trial move's effect, read off the switches it touches. */
struct Trial
{
    std::uint64_t violBefore = 0; ///< their degree violation before
    std::uint64_t violAfter = 0;  ///< and after the move
    std::int64_t linkDelta = 0;   ///< change in totalEstimatedLinks()
};

/**
 * Price a trial move of @p c from scratch.oldRoute to its current
 * route. Only pipes on the two routes changed, so only switches on
 * them can change degree; they and their new degrees go to
 * scratch.fresh. Each changed pipe has both ends among them, so their
 * summed degree change is twice the link change (DESIGN.md §5d).
 */
Trial
trialDegrees(const DesignNetwork &net, CommId c, std::uint32_t max_degree,
             RouteScratch &scratch)
{
    Trial t;
    scratch.fresh.clear();
    auto visit = [&](SwitchId s) {
        const std::uint32_t d = net.estimatedDegree(s);
        t.violBefore += degreeExcess(scratch.degrees[s], max_degree);
        t.violAfter += degreeExcess(d, max_degree);
        t.linkDelta += std::int64_t{d} - scratch.degrees[s];
        scratch.fresh.emplace_back(s, d);
    };
    std::ranges::for_each(scratch.oldRoute, visit);
    for (const SwitchId s : net.route(c)) {
        if (std::ranges::find(scratch.oldRoute, s) == scratch.oldRoute.end())
            visit(s);
    }
    t.linkDelta /= 2;
    return t;
}

/** Keep a trial move's degrees; sanitized builds recheck them all. */
void
commitDegrees([[maybe_unused]] const DesignNetwork &net,
              RouteScratch &scratch)
{
    for (const auto &[s, d] : scratch.fresh)
        scratch.degrees[s] = d;
#ifdef MINNOC_SANITIZE
    if (scratch.degrees != net.estimatedDegrees())
        panic("route optimizer: locally refreshed degrees are stale");
#endif
}

/**
 * One pass of @p attempt over scratch.order; @return whether a move
 * committed. A failed attempt leaves the routes as it found them, so
 * it fails again until some move commits (DESIGN.md §5d): it is
 * stamped with the commit count and skipped while that is current.
 * A skip still counts in triedMoves; sanitized builds rerun it and
 * panic if it commits.
 */
template <typename Attempt>
bool
runPass(RouteScratch &scratch, RouteOptStats &stats, Attempt attempt)
{
    const std::uint32_t start = scratch.commits;
    for (const CommId c : scratch.order) {
        ++stats.triedMoves;
        if (scratch.cleanAt[c] == scratch.commits) {
#ifdef MINNOC_SANITIZE
            if (attempt(c))
                panic("route optimizer: skipped clean comm ", c,
                      " would commit a move");
#endif
        } else if (attempt(c)) {
            ++scratch.commits;
        } else {
            scratch.cleanAt[c] = scratch.commits;
        }
    }
    stats.committedMoves += scratch.commits - start;
    return scratch.commits != start;
}

/**
 * One consolidation attempt for a single communication (jointly with
 * its mirrored reverse, see mirroredReverse): find the cheapest path
 * over existing pipes and reroute if it beats the current route. With
 * a degree budget, scratch.degrees holds the current estimated
 * degrees; only a committed move changes them, and it refreshes them.
 */
bool
consolidateOne(DesignNetwork &net, CommId c, std::uint32_t max_degree,
               bool uni_cost, RouteScratch &scratch)
{
    const std::vector<std::uint32_t> &degrees = scratch.degrees;
    const std::vector<SwitchId> &route = net.route(c);
    if (route.size() < 2)
        return false; // intra-switch: nothing to optimize
    const SwitchId src = route.front();
    const SwitchId dst = route.back();
    const CommId rev = mirroredReverse(net, c);
    const HopPricer &pricer = scratch.pricer.reset(c, rev);

    // Weighted hop price: links dominate, hop count breaks ties, and
    // hops touching a switch already beyond the degree budget are
    // penalized so traffic drains away from hubs instead of piling onto
    // them (total-links greed would otherwise happily grow one giant
    // hub switch). Every hop priced here is an existing pipe.
    constexpr std::uint64_t kLink = 1024;
    constexpr std::uint64_t kOverload = 64;
    constexpr std::uint64_t kHop = 1;
    auto overload = [&](SwitchId s) -> std::uint64_t {
        return max_degree && degrees[s] > max_degree ? kOverload : 0;
    };
    // The price of a hop that adds no link, needing no pricer: a lower
    // bound on the hop's price.
    auto basePrice = [&](SwitchId u, SwitchId v) -> std::uint64_t {
        return kHop + overload(u) + overload(v);
    };
    auto addedPrice = [&](SwitchId u, SwitchId v,
                          std::uint32_t slot) -> std::uint64_t {
        return static_cast<std::uint64_t>(
                   pricer.added(u, v, slot, uni_cost)) *
               kLink;
    };
    auto hopPrice = [&](SwitchId u, SwitchId v, std::uint32_t slot) {
        return basePrice(u, v) + addedPrice(u, v, slot);
    };

    std::uint64_t currentCost = 0;
    for (std::size_t i = 0; i + 1 < route.size(); ++i)
        currentCost += hopPrice(route[i], route[i + 1],
                                net.slotOf(route[i], route[i + 1]));

    // rest(w), a price-free lower bound on the rest of any path from w
    // to dst: nothing at dst, else at least the hop into dst, and a
    // second hop when w is no pipe neighbor of dst. It is consistent,
    // rest(u) <= price(u, w) + rest(w) for every hop (DESIGN.md §5i).
    const std::uint32_t stamp = ++scratch.searches;
    for (const Neighbor &n : net.neighbors(dst))
        scratch.nearDst[n.sw] = stamp;
    const std::uint64_t intoDst = kHop + overload(dst);
    auto rest = [&](SwitchId w) -> std::uint64_t {
        if (w == dst)
            return 0;
        return scratch.nearDst[w] == stamp ? intoDst : intoDst + kHop;
    };

    // Dijkstra over existing pipes from src's switch to dst's switch,
    // relaxing neighbors in ascending id order. Only a path cheaper
    // than the current route can be committed, so a hop (v, w) whose
    // bound d + basePrice + rest(w) reaches currentCost is skipped
    // before it is priced, and a priced one is kept only while
    // d + price + rest(w) stays below it. A switch w with
    // dist(w) + rest(w) < currentCost has, by consistency, its whole
    // shortest path through such switches, and every hop that could
    // tie or beat dist(w) passes both tests; so w keeps the exact
    // distance, the parent and the (dist, id) pop turn of an unpruned
    // search, and so does the committed path.
    ShortestPaths &sp = scratch.sp.reset(net.numSwitches(), src);
    std::uint64_t d = 0;
    SwitchId v = kNoSwitch;
    while (sp.pop(d, v) && v != dst) {
        for (const Neighbor &n : net.neighbors(v)) {
            const std::uint64_t lb = d + basePrice(v, n.sw);
            const std::uint64_t toGo = rest(n.sw);
            if (lb + toGo >= currentCost)
                continue;
            const std::uint64_t nd = lb + addedPrice(v, n.sw, n.slot);
            if (nd + toGo < currentCost)
                sp.relax(n.sw, nd, v);
        }
    }
    const bool found = sp.dist(dst) < currentCost;
    const std::vector<SwitchId> path =
        found ? sp.path(dst) : std::vector<SwitchId>{};
#ifdef MINNOC_SANITIZE
    // Rerun the search pricing every hop: it must find the same path.
    ShortestPaths &full = scratch.sp.reset(net.numSwitches(), src);
    while (full.pop(d, v) && v != dst) {
        for (const Neighbor &n : net.neighbors(v)) {
            const std::uint64_t nd = d + hopPrice(v, n.sw, n.slot);
            if (nd < currentCost)
                full.relax(n.sw, nd, v);
        }
    }
    if ((full.dist(dst) < currentCost) != found ||
        (found && full.path(dst) != path)) {
        panic("consolidateOne: the bounded search for comm ", c,
              " disagrees with the unpruned one");
    }
#endif
    if (!found)
        return false; // nothing beats the current route

    // Commit (both directions when paired). With a degree budget in
    // force, revert any commit that worsens the total degree violation
    // — link savings must not undo repairDegrees' spreading. Switches
    // off both routes keep their degrees, so the touched ones decide.
    scratch.oldRoute = route;
    routePair(net, c, rev, path);
    if (max_degree) {
        const Trial t = trialDegrees(net, c, max_degree, scratch);
        if (t.violAfter > t.violBefore) {
            routePair(net, c, rev, scratch.oldRoute);
            return false;
        }
        commitDegrees(net, scratch);
    }
    return true;
}

/**
 * Propose an alternative route for @p c (and commit its mirrored pair
 * when applicable) that avoids overloaded switches, then keep it only
 * if the network's (violation, links) measure improves, as trialDegrees
 * reads it off the touched switches. scratch.degrees holds the current
 * estimated degrees; a committed move refreshes them.
 */
bool
repairOne(DesignNetwork &net, CommId c, std::uint32_t max_degree,
          RouteScratch &scratch)
{
    const std::vector<std::uint32_t> &degrees = scratch.degrees;
    const std::vector<SwitchId> &route = net.route(c);
    if (route.size() < 2)
        return false;
    const SwitchId src = route.front();
    const SwitchId dst = route.back();

    // The degrees feed both the overload test and the spare budget
    // (for pricing new pipes).
    auto overloaded = [&](SwitchId s) { return degrees[s] > max_degree; };
    auto hasSpare = [&](SwitchId s) { return degrees[s] < max_degree; };
    if (std::ranges::none_of(route, overloaded))
        return false;

    // Candidate hops are priced by their marginal width contribution
    // with the victim pair removed (riding an existing link
    // conflict-free is much cheaper than widening).
    const CommId rev = mirroredReverse(net, c);
    const HopPricer &pricer = scratch.pricer.reset(c, rev);

    // Dijkstra proposal: width widening is expensive, overloaded
    // interiors are avoided hard, a new pipe is allowed when both ends
    // have spare degree.
    constexpr std::uint64_t kAvoid = 1ull << 20;
    constexpr std::uint64_t kLink = 1024;
    constexpr std::uint64_t kNewPipe = 512;
    constexpr std::uint64_t kHop = 1;
    auto price = [&](SwitchId u, SwitchId v,
                     std::uint32_t slot) -> std::uint64_t {
        std::uint64_t p = kHop;
        const std::uint32_t widen = pricer.added(u, v, slot, false);
        if (widen == HopPricer::kAbsent) {
            // New pipe: one fresh link, both endpoints must afford it.
            if (!hasSpare(u) || !hasSpare(v))
                return static_cast<std::uint64_t>(-1) / 8;
            p += kLink + kNewPipe;
        } else {
            p += static_cast<std::uint64_t>(widen) * kLink;
            // Widening a pipe consumes endpoint degree too.
            if (widen && (!hasSpare(u) || !hasSpare(v)) &&
                !(overloaded(u) || overloaded(v))) {
                p += kNewPipe;
            }
        }
        if (v != dst && overloaded(v))
            p += kAvoid;
        if (u != src && overloaded(u))
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
    ShortestPaths &sp = scratch.sp.reset(net.numSwitches(), src);
    bool bulkDone[2] = {false, false};
    std::uint64_t d = 0;
    SwitchId v = kNoSwitch;
    while (sp.pop(d, v) && v != dst) {
        if (!sparseRelax) {
            for (SwitchId w = 0; w < net.numSwitches(); ++w) {
                if (w != v)
                    sp.relax(w, d + price(v, w, net.slotOf(v, w)), v);
            }
            continue;
        }
        for (const Neighbor &n : net.neighbors(v))
            sp.relax(n.sw, d + price(v, n.sw, n.slot), v);
        if (!hasSpare(v))
            continue;
        const bool pen = v != src && overloaded(v);
        if (bulkDone[pen])
            continue; // a cheaper same-class vertex already broadcast
        bulkDone[pen] = true;
        const std::uint64_t basePrice =
            d + kHop + kLink + kNewPipe + (pen ? kAvoid : 0);
        for (SwitchId w = 0; w < net.numSwitches(); ++w) {
            if (w == v || !hasSpare(w))
                continue;
            const std::uint64_t surcharge =
                w != dst && overloaded(w) ? kAvoid : 0;
            sp.relax(w, basePrice + surcharge, v);
        }
    }
    if (sp.dist(dst) == ShortestPaths::kUnreached)
        return false;
    const std::vector<SwitchId> path = sp.path(dst);
    if (path == route)
        return false;

    // Trial apply; accept only if (violation, links) improves.
#ifdef MINNOC_SANITIZE
    const std::int64_t linksBefore = net.totalEstimatedLinks();
#endif
    scratch.oldRoute = route;
    routePair(net, c, rev, path);
    const Trial t = trialDegrees(net, c, max_degree, scratch);
#ifdef MINNOC_SANITIZE
    if (net.totalEstimatedLinks() - linksBefore != t.linkDelta)
        panic("repairOne: touched switches give link change ", t.linkDelta,
              ", a full scan ", net.totalEstimatedLinks() - linksBefore);
#endif
    // Feasibility buys link slack: shedding a violation is worth up to
    // one extra link (consolidation claws links back afterwards).
    const bool accept = (t.violAfter < t.violBefore && t.linkDelta <= 1) ||
                        (t.violAfter == t.violBefore && t.linkDelta < 0);
    if (!accept) {
        routePair(net, c, rev, scratch.oldRoute);
        return false;
    }
    commitDegrees(net, scratch);
    return true;
}

} // namespace

RouteOptStats
repairDegrees(DesignNetwork &net, std::uint32_t max_degree,
              std::uint32_t max_passes, Rng *rng)
{
    RouteOptStats stats;
    RouteScratch scratch(net);
    scratch.degrees = net.estimatedDegrees();
    for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
        if (degreeViolation(scratch.degrees, max_degree) == 0)
            break;
        if (rng)
            rng->shuffle(scratch.order);
        if (!runPass(scratch, stats, [&](CommId c) {
                return repairOne(net, c, max_degree, scratch);
            }))
            break;
    }
    return stats;
}

RouteOptStats
consolidateRoutes(DesignNetwork &net, std::uint32_t max_passes,
                  std::uint32_t max_degree, Rng *rng, bool uni_cost)
{
    RouteOptStats stats;
    // Degrees move only when a move commits (a reverted move restores
    // the same routes), so consolidateOne keeps this copy current.
    RouteScratch scratch(net);
    if (max_degree)
        scratch.degrees = net.estimatedDegrees();
    for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
        const std::uint32_t before = net.totalEstimatedLinks();
        if (rng)
            rng->shuffle(scratch.order);
        const bool changed = runPass(scratch, stats, [&](CommId c) {
            return consolidateOne(net, c, max_degree, uni_cost, scratch);
        });
        const std::uint32_t after = net.totalEstimatedLinks();
        stats.linksSaved += before > after ? before - after : 0;
        if (!changed)
            break;
    }
    return stats;
}

} // namespace minnoc::core
