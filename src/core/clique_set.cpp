#include "clique_set.hpp"

#include <algorithm>
#include <sstream>

#include "util/log.hpp"

namespace minnoc::core {

bool
Clique::contains(CommId c) const
{
    return std::binary_search(comms.begin(), comms.end(), c);
}

CommId
CliqueSet::internComm(const Comm &c)
{
    auto [it, inserted] =
        _index.emplace(c, static_cast<CommId>(_comms.size()));
    if (inserted) {
        _comms.push_back(c);
        _membershipValid = false;
        _masksValid = false;
    }
    return it->second;
}

CommId
CliqueSet::findComm(const Comm &c) const
{
    const auto it = _index.find(c);
    return it == _index.end() ? kNoComm : it->second;
}

bool
CliqueSet::addClique(const std::vector<Comm> &comms)
{
    std::vector<CommId> ids;
    ids.reserve(comms.size());
    for (const auto &c : comms)
        ids.push_back(internComm(c));
    return addCliqueByIds(std::move(ids));
}

bool
CliqueSet::addCliqueByIds(std::vector<CommId> ids)
{
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    if (ids.empty())
        return false;
    for (CommId id : ids) {
        if (id >= _comms.size())
            panic("CliqueSet: clique references unknown comm id ", id);
    }
    Clique clique{std::move(ids)};
    for (const auto &existing : _cliques) {
        if (existing == clique)
            return false;
    }
    _cliques.push_back(std::move(clique));
    _membershipValid = false;
    _masksValid = false;
    return true;
}

void
CliqueSet::buildMaskCaches() const
{
    _masks.assign(_cliques.size(), CommBitset(_comms.size()));
    _maskInfos.assign(_cliques.size(), MaskInfo{});
    for (std::size_t i = 0; i < _cliques.size(); ++i) {
        for (const CommId c : _cliques[i].comms)
            _masks[i].insert(c);
        auto &info = _maskInfos[i];
        const auto &words = _masks[i].words();
        for (std::size_t w = 0; w < words.size(); ++w) {
            if (words[w])
                info.nonzeroWords.push_back(
                    static_cast<std::uint32_t>(w));
        }
        info.popcount = static_cast<std::uint32_t>(_masks[i].size());
    }
    _masksBySize.resize(_cliques.size());
    for (std::size_t i = 0; i < _masksBySize.size(); ++i)
        _masksBySize[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(_masksBySize.begin(), _masksBySize.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         return _maskInfos[a].popcount >
                                _maskInfos[b].popcount;
                     });
    _commCliques.assign(_comms.size(), {});
    for (const std::uint32_t m : _masksBySize) {
        for (const CommId c : _cliques[m].comms)
            _commCliques[c].push_back(m);
    }
    _reverse.resize(_comms.size());
    for (CommId c = 0; c < _comms.size(); ++c) {
        const CommId rev = findComm(_comms[c].reversed());
        _reverse[c] = rev == c ? kNoComm : rev;
    }
    _masksValid = true;
}

void
CliqueSet::prepareCaches() const
{
    cliqueMasks();
    if (!_membershipValid)
        buildMembership();
}

std::size_t
CliqueSet::maxCliqueSize() const
{
    std::size_t best = 0;
    for (const auto &k : _cliques)
        best = std::max(best, k.size());
    return best;
}

std::size_t
CliqueSet::reduceToMaximum()
{
    // Sort indices by clique size descending; a clique can only be
    // dominated by a strictly larger or equal-size earlier clique.
    std::vector<std::size_t> order(_cliques.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return _cliques[a].size() > _cliques[b].size();
                     });

    std::vector<bool> dominated(_cliques.size(), false);
    for (std::size_t i = 0; i < order.size(); ++i) {
        const auto &big = _cliques[order[i]];
        for (std::size_t j = i + 1; j < order.size(); ++j) {
            if (dominated[order[j]])
                continue;
            const auto &small = _cliques[order[j]];
            if (std::includes(big.comms.begin(), big.comms.end(),
                              small.comms.begin(), small.comms.end())) {
                dominated[order[j]] = true;
            }
        }
    }

    std::vector<Clique> kept;
    kept.reserve(_cliques.size());
    for (std::size_t i = 0; i < _cliques.size(); ++i) {
        if (!dominated[i])
            kept.push_back(std::move(_cliques[i]));
    }
    const std::size_t removed = _cliques.size() - kept.size();
    _cliques = std::move(kept);
    if (removed) {
        _membershipValid = false;
        _masksValid = false;
    }
    return removed;
}

void
CliqueSet::buildMembership() const
{
    const std::size_t n = _comms.size();
    _membershipWords = (_cliques.size() + 63) / 64;
    _membership.assign(n * _membershipWords, 0);
    for (std::size_t k = 0; k < _cliques.size(); ++k) {
        const std::uint64_t bit = 1ULL << (k & 63);
        const std::size_t word = k >> 6;
        for (const CommId c : _cliques[k].comms)
            _membership[c * _membershipWords + word] |= bit;
    }
    _membershipValid = true;
}

bool
CliqueSet::contend(CommId a, CommId b) const
{
    if (a >= _comms.size() || b >= _comms.size())
        panic("CliqueSet::contend: comm id out of range");
    if (a == b)
        return false;
    if (!_membershipValid)
        buildMembership();
    const std::uint64_t *ra = _membership.data() + a * _membershipWords;
    const std::uint64_t *rb = _membership.data() + b * _membershipWords;
    for (std::size_t w = 0; w < _membershipWords; ++w) {
        if (ra[w] & rb[w])
            return true;
    }
    return false;
}

std::vector<std::array<ProcId, 4>>
CliqueSet::contentionSet() const
{
    std::vector<std::array<ProcId, 4>> tuples;
    const std::size_t n = _comms.size();
    for (CommId a = 0; a < n; ++a) {
        for (CommId b = 0; b < n; ++b) {
            if (contend(a, b)) {
                tuples.push_back({_comms[a].src, _comms[a].dst,
                                  _comms[b].src, _comms[b].dst});
            }
        }
    }
    return tuples;
}

std::string
CliqueSet::toString() const
{
    std::ostringstream oss;
    oss << "CliqueSet(" << _numProcs << " procs, " << _comms.size()
        << " comms, " << _cliques.size() << " cliques)\n";
    for (std::size_t i = 0; i < _cliques.size(); ++i) {
        oss << "  clique " << i << ": {";
        bool first = true;
        for (CommId id : _cliques[i].comms) {
            if (!first)
                oss << ", ";
            oss << _comms[id];
            first = false;
        }
        oss << "}\n";
    }
    return oss.str();
}

} // namespace minnoc::core
