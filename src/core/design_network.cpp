#include "design_network.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <sstream>

#include "util/log.hpp"

namespace minnoc::core {

namespace {

// Process-wide so the bench can aggregate over the many short-lived
// DesignNetwork instances a methodology run creates (one per restart),
// and sharded by thread: one counter bumped by every worker would
// bounce its cache line between cores on each query.
struct alignas(64) FcShard
{
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> hits{0};
};
FcShard g_fc[16];
std::atomic<std::size_t> g_fcThreads{0};
thread_local FcShard &t_fc =
    g_fc[g_fcThreads.fetch_add(1, std::memory_order_relaxed) %
         std::size(g_fc)];

} // namespace

FastColorStats
fastColorStats()
{
    FastColorStats s;
    for (const auto &shard : g_fc) {
        s.calls += shard.calls.load(std::memory_order_relaxed);
        s.cacheHits += shard.hits.load(std::memory_order_relaxed);
    }
    return s;
}

void
resetFastColorStats()
{
    for (auto &shard : g_fc) {
        shard.calls.store(0, std::memory_order_relaxed);
        shard.hits.store(0, std::memory_order_relaxed);
    }
}

DesignNetwork::DesignNetwork(const CliqueSet &cliques)
    : _cliques(&cliques), _numComms(cliques.numComms())
{
    const std::uint32_t procs = cliques.numProcs();
    if (procs == 0)
        panic("DesignNetwork: clique set has zero processors");

    // One megaswitch holding every processor.
    _switchProcs.emplace_back();
    _switchProcs[0].reserve(procs);
    for (ProcId p = 0; p < procs; ++p)
        _switchProcs[0].push_back(p);
    _home.assign(procs, 0);

    // Every communication routes trivially inside the megaswitch.
    _routes.assign(cliques.numComms(), std::vector<SwitchId>{0});

    _nbrs.emplace_back();

    _procComms.assign(procs, {});
    for (CommId c = 0; c < cliques.numComms(); ++c) {
        const Comm &comm = cliques.comm(c);
        if (comm.src >= procs || comm.dst >= procs)
            panic("DesignNetwork: comm ", comm, " outside proc range");
        _procComms[comm.src].push_back(c);
        if (comm.dst != comm.src)
            _procComms[comm.dst].push_back(c);
    }
}

const std::vector<ProcId> &
DesignNetwork::procsOf(SwitchId s) const
{
    if (s >= _switchProcs.size())
        panic("DesignNetwork::procsOf: bad switch ", s);
    return _switchProcs[s];
}

const std::vector<SwitchId> &
DesignNetwork::route(CommId c) const
{
    if (c >= _routes.size())
        panic("DesignNetwork::route: bad comm ", c);
    return _routes[c];
}

std::vector<SwitchId>
DesignNetwork::normalized(std::vector<SwitchId> r)
{
    // Routes must be simple paths: collapse repeats AND excise loops
    // (endpoint re-anchoring after processor moves can make a route
    // revisit a switch; everything between the two visits is a loop
    // that wastes links and could double-cross a pipe).
    std::vector<SwitchId> out;
    out.reserve(r.size());
    for (const SwitchId s : r) {
        const auto it = std::find(out.begin(), out.end(), s);
        if (it != out.end()) {
            out.erase(it + 1, out.end());
        } else {
            out.push_back(s);
        }
    }
    return out;
}

void
DesignNetwork::linkNeighbor(SwitchId s, SwitchId t)
{
    auto &v = _nbrs[s];
    v.insert(std::lower_bound(v.begin(), v.end(), t), t);
}

void
DesignNetwork::unlinkNeighbor(SwitchId s, SwitchId t)
{
    auto &v = _nbrs[s];
    const auto it = std::lower_bound(v.begin(), v.end(), t);
    if (it == v.end() || *it != t)
        panic("DesignNetwork: neighbor index missing ", t, " at ", s);
    v.erase(it);
}

void
DesignNetwork::addRouteToPipes(CommId c, const std::vector<SwitchId> &r)
{
    for (std::size_t i = 0; i + 1 < r.size(); ++i) {
        const SwitchId from = r[i];
        const SwitchId to = r[i + 1];
        auto [it, created] = _pipes.try_emplace(PipeKey(from, to));
        Pipe &p = it->second;
        if (created) {
            p.fwd.resize(_numComms);
            p.bwd.resize(_numComms);
            linkNeighbor(from, to);
            linkNeighbor(to, from);
        }
        auto &dir = (from < to) ? p.fwd : p.bwd;
        if (!dir.insert(c))
            panic("DesignNetwork: comm ", c, " crosses pipe ", from, "-",
                  to, " twice in one direction");
        p.dirty = true;
    }
}

void
DesignNetwork::removeRouteFromPipes(CommId c, const std::vector<SwitchId> &r)
{
    for (std::size_t i = 0; i + 1 < r.size(); ++i) {
        const SwitchId from = r[i];
        const SwitchId to = r[i + 1];
        const auto it = _pipes.find(PipeKey(from, to));
        if (it == _pipes.end())
            panic("DesignNetwork: route segment on missing pipe");
        auto &dir = (from < to) ? it->second.fwd : it->second.bwd;
        if (!dir.erase(c))
            panic("DesignNetwork: comm ", c, " missing from pipe set");
        it->second.dirty = true;
        if (it->second.empty()) {
            _pipes.erase(it);
            unlinkNeighbor(from, to);
            unlinkNeighbor(to, from);
        }
    }
}

void
DesignNetwork::setRoute(CommId c, std::vector<SwitchId> r)
{
    r = normalized(std::move(r));
    const Comm &comm = _cliques->comm(c);
    if (r.empty() || r.front() != _home[comm.src] ||
        r.back() != _home[comm.dst]) {
        panic("DesignNetwork::setRoute: route endpoints do not match "
              "processor homes for comm ", comm);
    }
    removeRouteFromPipes(c, _routes[c]);
    _routes[c] = std::move(r);
    addRouteToPipes(c, _routes[c]);
}

std::vector<PipeKey>
DesignNetwork::pipes() const
{
    std::vector<PipeKey> keys;
    keys.reserve(_pipes.size());
    for (const auto &[key, pipe] : _pipes)
        keys.push_back(key);
    return keys;
}

std::vector<PipeKey>
DesignNetwork::pipesOf(SwitchId s) const
{
    // Ascending neighbor ids yield ascending PipeKeys: every (x, s)
    // with x < s sorts before every (s, y) with y > s.
    std::vector<PipeKey> keys;
    if (s >= _nbrs.size())
        return keys;
    keys.reserve(_nbrs[s].size());
    for (const SwitchId t : _nbrs[s])
        keys.emplace_back(s, t);
    return keys;
}

const Pipe &
DesignNetwork::pipe(const PipeKey &key) const
{
    static const Pipe kEmpty;
    const auto it = _pipes.find(key);
    return it == _pipes.end() ? kEmpty : it->second;
}

std::uint32_t
DesignNetwork::computeFastColor(const CommBitset &comms) const
{
    // Max over cliques of |K ∩ comms|. Cliques are visited largest
    // first and only over their populated words; both cuts are exact
    // (an intersection can never exceed the smaller operand), so the
    // result is identical to the dense scan.
    const auto cap = static_cast<std::uint32_t>(comms.size());
    if (cap == 0)
        return 0;
    const auto &masks = _cliques->cliqueMasks();
    const auto &infos = _cliques->maskInfos();
    const auto &sw = comms.words();
    std::uint32_t best = 0;
    for (const std::uint32_t m : _cliques->masksBySize()) {
        if (infos[m].popcount <= best)
            break; // descending sizes: nothing later can beat best
        const auto &mw = masks[m].words();
        std::uint32_t common = 0;
        for (const std::uint32_t w : infos[m].nonzeroWords) {
            if (w >= sw.size())
                break; // nonzeroWords is ascending
            common += static_cast<std::uint32_t>(
                std::popcount(mw[w] & sw[w]));
        }
        best = std::max(best, common);
        if (best >= cap)
            break; // no clique can cover more than the whole set
    }
    return best;
}

std::uint32_t
DesignNetwork::fastColorSet(const CommBitset &comms) const
{
    t_fc.calls.fetch_add(1, std::memory_order_relaxed);
    return computeFastColor(comms);
}

std::uint32_t
DesignNetwork::fastColorSetPlus(const CommBitset &comms, std::uint32_t fc,
                                CommId extra) const
{
    t_fc.calls.fetch_add(1, std::memory_order_relaxed);
#ifdef MINNOC_SANITIZE
    if (comms.test(extra))
        panic("fastColorSetPlus: comm ", extra, " already in the set");
    if (fc != computeFastColor(comms))
        panic("fastColorSetPlus: base ", fc, " is not the set's ",
              "Fast_Color ", computeFastColor(comms));
#endif
    // A clique K containing extra gives 1 + |K ∩ comms| <= |K|; cliques
    // come largest first, so stop once |K| cannot beat best. Nothing
    // can beat |comms| + 1 either.
    const auto cap = static_cast<std::uint32_t>(comms.size()) + 1;
    const auto &masks = _cliques->cliqueMasks();
    const auto &infos = _cliques->maskInfos();
    const auto &sw = comms.words();
    std::uint32_t best = fc;
    for (const std::uint32_t m : _cliques->cliquesOf(extra)) {
        if (infos[m].popcount <= best || best >= cap)
            break;
        const auto &mw = masks[m].words();
        std::uint32_t common = 1;
        for (const std::uint32_t w : infos[m].nonzeroWords) {
            if (w >= sw.size())
                break;
            common += static_cast<std::uint32_t>(
                std::popcount(mw[w] & sw[w]));
        }
        best = std::max(best, common);
    }
    return best;
}

std::uint32_t
DesignNetwork::fastColorSetReference(const std::set<CommId> &comms) const
{
    std::uint32_t best = 0;
    for (const auto &k : _cliques->cliques()) {
        std::uint32_t common = 0;
        // k.comms is sorted; comms is an ordered set: merge-count.
        auto it = comms.begin();
        for (const CommId c : k.comms) {
            while (it != comms.end() && *it < c)
                ++it;
            if (it == comms.end())
                break;
            if (*it == c)
                ++common;
        }
        best = std::max(best, common);
    }
    return best;
}

std::uint32_t
DesignNetwork::pipeFastColor(const Pipe &p) const
{
    t_fc.calls.fetch_add(1, std::memory_order_relaxed);
    if (p.dirty) {
        p.fcFwd = computeFastColor(p.fwd);
        p.fcBwd = computeFastColor(p.bwd);
        p.dirty = false;
    } else {
        t_fc.hits.fetch_add(1, std::memory_order_relaxed);
    }
    return std::max(p.fcFwd, p.fcBwd);
}

std::uint32_t
DesignNetwork::fastColor(const PipeKey &key) const
{
    const auto it = _pipes.find(key);
    if (it == _pipes.end()) {
        // An absent pipe is trivially zero; count it as a served query.
        t_fc.calls.fetch_add(1, std::memory_order_relaxed);
        t_fc.hits.fetch_add(1, std::memory_order_relaxed);
        return 0;
    }
    return pipeFastColor(it->second);
}

std::pair<std::uint32_t, std::uint32_t>
DesignNetwork::fastColorDirs(const PipeKey &key) const
{
    const auto it = _pipes.find(key);
    if (it == _pipes.end())
        return {0, 0};
    return fastColorDirs(it->second);
}

std::pair<std::uint32_t, std::uint32_t>
DesignNetwork::fastColorDirs(const Pipe &p) const
{
    pipeFastColor(p);
    return {p.fcFwd, p.fcBwd};
}

std::uint32_t
DesignNetwork::estimatedDegree(SwitchId s) const
{
    std::uint32_t degree =
        static_cast<std::uint32_t>(procsOf(s).size());
    for (const SwitchId t : _nbrs[s]) {
        const auto it = _pipes.find(PipeKey(s, t));
        if (it == _pipes.end())
            panic("DesignNetwork: neighbor index lists missing pipe");
        degree += pipeFastColor(it->second);
    }
    return degree;
}

std::vector<std::uint32_t>
DesignNetwork::estimatedDegrees() const
{
    std::vector<std::uint32_t> degrees(_switchProcs.size());
    for (SwitchId s = 0; s < _switchProcs.size(); ++s)
        degrees[s] = static_cast<std::uint32_t>(_switchProcs[s].size());
    for (const auto &[key, pipe] : _pipes) {
        const std::uint32_t fc = pipeFastColor(pipe);
        degrees[key.a] += fc;
        degrees[key.b] += fc;
    }
    return degrees;
}

std::uint32_t
DesignNetwork::totalEstimatedLinks() const
{
    std::uint32_t total = 0;
    for (const auto &[key, pipe] : _pipes)
        total += pipeFastColor(pipe);
    return total;
}

std::uint32_t
DesignNetwork::cutEstimate(SwitchId si, SwitchId sj) const
{
    // Each incident pipe counted once: all of si's, then sj's minus
    // the shared (si, sj) pipe already visited from si's side.
    std::uint32_t total = 0;
    for (const SwitchId t : _nbrs[si]) {
        const auto it = _pipes.find(PipeKey(si, t));
        if (it == _pipes.end())
            panic("DesignNetwork: neighbor index lists missing pipe");
        total += pipeFastColor(it->second);
    }
    if (si == sj)
        return total;
    for (const SwitchId t : _nbrs[sj]) {
        if (t == si)
            continue;
        const auto it = _pipes.find(PipeKey(sj, t));
        if (it == _pipes.end())
            panic("DesignNetwork: neighbor index lists missing pipe");
        total += pipeFastColor(it->second);
    }
    return total;
}

SwitchId
DesignNetwork::splitSwitch(SwitchId s, Rng &rng)
{
    if (s >= _switchProcs.size())
        panic("DesignNetwork::splitSwitch: bad switch ", s);
    if (_switchProcs[s].size() < 2)
        panic("DesignNetwork::splitSwitch: switch ", s,
              " has fewer than two processors");

    // Copy before emplace_back: growing _switchProcs invalidates
    // references into it.
    std::vector<ProcId> pool = _switchProcs[s];
    const auto t = static_cast<SwitchId>(_switchProcs.size());
    _switchProcs.emplace_back();
    _nbrs.emplace_back();

    // Randomly pick half of the processors to move to the new switch.
    rng.shuffle(pool);
    const std::size_t moveCount = pool.size() / 2;
    for (std::size_t i = 0; i < moveCount; ++i)
        moveProc(pool[i], t);
    return t;
}

SwitchId
DesignNetwork::splitSwitchInto(SwitchId s,
                               const std::vector<ProcId> &procs_to_move)
{
    if (s >= _switchProcs.size())
        panic("DesignNetwork::splitSwitchInto: bad switch ", s);
    if (procs_to_move.empty() ||
        procs_to_move.size() >= _switchProcs[s].size()) {
        panic("DesignNetwork::splitSwitchInto: must move a strict, "
              "non-empty subset of switch ", s, "'s processors");
    }
    for (const ProcId p : procs_to_move) {
        if (p >= _home.size() || _home[p] != s)
            panic("DesignNetwork::splitSwitchInto: proc ", p,
                  " is not on switch ", s);
    }
    const auto t = static_cast<SwitchId>(_switchProcs.size());
    _switchProcs.emplace_back();
    _nbrs.emplace_back();
    for (const ProcId p : procs_to_move)
        moveProc(p, t);
    return t;
}

const std::vector<CommId> &
DesignNetwork::commsOf(ProcId p) const
{
    if (p >= _procComms.size())
        panic("DesignNetwork::commsOf: bad proc ", p);
    return _procComms[p];
}

void
DesignNetwork::recomputeEndpoints(CommId c)
{
    const Comm &comm = _cliques->comm(c);
    const auto &old = _routes[c];

    // Preserve the interior of the route; re-anchor the endpoints at the
    // (possibly new) home switches. This is the "direct path" rule: a
    // moved endpoint connects straight to the next switch on the path.
    std::vector<SwitchId> next;
    next.push_back(_home[comm.src]);
    for (std::size_t i = 1; i + 1 < old.size(); ++i)
        next.push_back(old[i]);
    next.push_back(_home[comm.dst]);

    removeRouteFromPipes(c, _routes[c]);
    _routes[c] = normalized(std::move(next));
    addRouteToPipes(c, _routes[c]);
}

void
DesignNetwork::moveProc(ProcId p, SwitchId to)
{
    if (p >= _home.size())
        panic("DesignNetwork::moveProc: bad proc ", p);
    if (to >= _switchProcs.size())
        panic("DesignNetwork::moveProc: bad switch ", to);
    const SwitchId from = _home[p];
    if (from == to)
        return;

    auto &fromProcs = _switchProcs[from];
    const auto it = std::find(fromProcs.begin(), fromProcs.end(), p);
    if (it == fromProcs.end())
        panic("DesignNetwork::moveProc: proc ", p, " not on switch ", from);
    fromProcs.erase(it);
    auto &toProcs = _switchProcs[to];
    toProcs.insert(std::upper_bound(toProcs.begin(), toProcs.end(), p), p);
    _home[p] = to;

    for (const CommId c : _procComms[p])
        recomputeEndpoints(c);
}

void
DesignNetwork::checkInvariants() const
{
    // Homes and switch membership agree.
    std::vector<std::size_t> seen(_home.size(), 0);
    for (SwitchId s = 0; s < _switchProcs.size(); ++s) {
        for (const ProcId p : _switchProcs[s]) {
            if (_home.at(p) != s)
                panic("invariant: proc ", p, " home mismatch");
            ++seen[p];
        }
        if (!std::is_sorted(_switchProcs[s].begin(), _switchProcs[s].end()))
            panic("invariant: switch proc list not sorted");
    }
    for (ProcId p = 0; p < seen.size(); ++p) {
        if (seen[p] != 1)
            panic("invariant: proc ", p, " attached ", seen[p], " times");
    }

    // Routes anchored at homes, normalized, and mirrored in pipes.
    std::map<PipeKey, Pipe> rebuilt;
    for (CommId c = 0; c < _routes.size(); ++c) {
        const auto &r = _routes[c];
        const Comm &comm = _cliques->comm(c);
        if (r.empty() || r.front() != _home[comm.src] ||
            r.back() != _home[comm.dst]) {
            panic("invariant: route of comm ", comm, " not anchored");
        }
        for (std::size_t i = 0; i + 1 < r.size(); ++i) {
            if (r[i] == r[i + 1])
                panic("invariant: route has immediate repeat");
            auto [it, created] =
                rebuilt.try_emplace(PipeKey(r[i], r[i + 1]));
            if (created) {
                it->second.fwd.resize(_numComms);
                it->second.bwd.resize(_numComms);
            }
            ((r[i] < r[i + 1]) ? it->second.fwd : it->second.bwd)
                .insert(c);
        }
    }
    if (rebuilt.size() != _pipes.size())
        panic("invariant: pipe map size mismatch");

    // The neighbor index mirrors the pipe map exactly.
    std::size_t nbrEdges = 0;
    if (_nbrs.size() != _switchProcs.size())
        panic("invariant: neighbor index size mismatch");
    for (SwitchId s = 0; s < _nbrs.size(); ++s) {
        if (!std::is_sorted(_nbrs[s].begin(), _nbrs[s].end()))
            panic("invariant: neighbor list of switch ", s, " not sorted");
        for (const SwitchId t : _nbrs[s]) {
            if (!_pipes.contains(PipeKey(s, t)))
                panic("invariant: neighbor index lists absent pipe ", s,
                      "-", t);
        }
        nbrEdges += _nbrs[s].size();
    }
    if (nbrEdges != 2 * _pipes.size())
        panic("invariant: neighbor index edge count mismatch");
    for (const auto &[key, pipe] : _pipes) {
        const auto it = rebuilt.find(key);
        if (it == rebuilt.end() || it->second.fwd != pipe.fwd ||
            it->second.bwd != pipe.bwd) {
            panic("invariant: pipe comm sets out of sync");
        }
        // The estimation cache must match a from-scratch Fast_Color.
        if (!pipe.dirty &&
            (pipe.fcFwd != computeFastColor(pipe.fwd) ||
             pipe.fcBwd != computeFastColor(pipe.bwd))) {
            panic("invariant: stale Fast_Color cache on pipe ", key.a,
                  "-", key.b);
        }
    }
}

std::string
DesignNetwork::toString() const
{
    std::ostringstream oss;
    oss << "DesignNetwork(" << numSwitches() << " switches, "
        << _pipes.size() << " pipes, est links " << totalEstimatedLinks()
        << ")\n";
    for (SwitchId s = 0; s < _switchProcs.size(); ++s) {
        oss << "  S" << s << ": procs {";
        for (std::size_t i = 0; i < _switchProcs[s].size(); ++i) {
            if (i)
                oss << ", ";
            oss << _switchProcs[s][i];
        }
        oss << "} est degree " << estimatedDegree(s) << "\n";
    }
    for (const auto &[key, pipe] : _pipes) {
        oss << "  pipe S" << key.a << "-S" << key.b << ": "
            << pipe.fwd.size() << " fwd, " << pipe.bwd.size()
            << " bwd, est links " << fastColor(key) << "\n";
    }
    return oss.str();
}

} // namespace minnoc::core
