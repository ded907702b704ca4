/**
 * @file
 * Unit tests for the routing functions.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include "core/methodology.hpp"
#include "dse/cache.hpp"
#include "sim/fault.hpp"
#include "topo/builders.hpp"
#include "topo/routing.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;
using namespace minnoc::topo;

namespace {

/**
 * The link path of (@p s, @p d) under @p routing, got by following the
 * first candidate from the source end-node to the destination end-node.
 */
std::vector<LinkId>
walkPath(const Topology &topo, const RoutingFunction &routing,
         core::ProcId s, core::ProcId d)
{
    std::vector<LinkId> path;
    NodeIdx cur = topo.procNode(s);
    while (cur != topo.procNode(d)) {
        const auto cands = routing.candidates(cur, s, d);
        if (cands.empty() || path.size() > topo.numNodes())
            return {};
        path.push_back(cands.front());
        cur = topo.link(cands.front()).to;
    }
    return path;
}

std::vector<LinkId>
walkPath(const BuiltNetwork &net, core::ProcId s, core::ProcId d)
{
    return walkPath(*net.topo, *net.routing, s, d);
}

using ProcPairs = std::vector<std::pair<core::ProcId, core::ProcId>>;

/**
 * FNV-1a digest (16 hex digits) of every (s, d) link path of @p routing
 * on @p topo, pairs in (s, d) order, each path's link ids as text.
 * Pairs listed in @p disconnected are not walked; the list itself is
 * hashed after the paths, in its order.
 */
std::string
routingDigest(const Topology &topo, const RoutingFunction &routing,
              const ProcPairs &disconnected = {})
{
    const std::set<std::pair<core::ProcId, core::ProcId>> skip(
        disconnected.begin(), disconnected.end());
    std::uint64_t h = 14695981039346656037ull;
    const core::ProcId procs = topo.numProcs();
    for (core::ProcId s = 0; s < procs; ++s) {
        for (core::ProcId d = 0; d < procs; ++d) {
            if (s == d || skip.count({s, d}))
                continue;
            std::string bytes;
            for (const LinkId id : walkPath(topo, routing, s, d))
                bytes += std::to_string(id) + ",";
            bytes += ";";
            h = dse::fnv1a64(bytes, h);
        }
    }
    for (const auto &[s, d] : disconnected)
        h = dse::fnv1a64(std::to_string(s) + ">" + std::to_string(d) + ";",
                         h);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
routingDigest(const BuiltNetwork &net)
{
    return routingDigest(*net.topo, *net.routing);
}

/** A generated network for @p ks at degree @p maxDegree. */
BuiltNetwork
designNetwork(const core::CliqueSet &ks, std::uint32_t maxDegree,
              bool unidirectional = false)
{
    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = maxDegree;
    mcfg.finalize.unidirectional = unidirectional;
    const auto outcome = core::runMethodology(ks, mcfg);
    return buildFromDesign(outcome.design, planFloor(outcome.design));
}

/** The generated network of a one-iteration NAS trace. */
BuiltNetwork
nasNetwork(trace::Benchmark bench, std::uint32_t ranks,
           std::uint32_t maxDegree)
{
    trace::NasConfig cfg;
    cfg.ranks = ranks;
    cfg.iterations = 1;
    return designNetwork(
        trace::analyzeByCall(trace::generateBenchmark(bench, cfg)),
        maxDegree);
}

/** The CG-16 generated network at degree 5, built once. */
const BuiltNetwork &
cg16Network()
{
    static const BuiltNetwork net = nasNetwork(trace::Benchmark::CG, 16, 5);
    return net;
}

/**
 * MG-8 at degree 6: two switches joined by one multi-link pipe, so
 * round-robin over parallel links shows in the paths. Built once.
 */
const BuiltNetwork &
mg8Network()
{
    static const BuiltNetwork net = nasNetwork(trace::Benchmark::MG, 8, 6);
    return net;
}

/**
 * A unidirectional design for a one-way 16-ring: its pipes carry one
 * direction only, so the fallback graph holds one-way edges. Built once.
 */
const BuiltNetwork &
ringNetwork()
{
    static const BuiltNetwork net = [] {
        core::CliqueSet ring(16);
        std::vector<core::Comm> comms;
        for (core::ProcId p = 0; p < 16; ++p)
            comms.emplace_back(p, static_cast<core::ProcId>((p + 1) % 16));
        ring.addClique(comms);
        return designNetwork(ring, 5, true);
    }();
    return net;
}

/**
 * Digest of the degraded routing on @p topo after @p randomLinks
 * seeded inter-switch failures plus the ejection link of @p deadProc.
 */
std::string
degradedDigest(const Topology &topo, std::uint32_t randomLinks,
               core::ProcId deadProc, std::uint64_t seed)
{
    sim::FaultConfig cfg;
    cfg.failLinks = {topo.ejectionLink(deadProc)};
    cfg.randomFailLinks = randomLinks;
    cfg.seed = seed;
    const sim::FaultModel faults(topo, cfg);
    const auto degraded = sim::rerouteAroundFaults(topo, faults.failedMask());
    return routingDigest(topo, *degraded.routing, degraded.disconnected);
}

/** Source-oblivious test routing that bounces between switches s, s^1. */
class PingPongRouting : public RoutingFunction
{
  public:
    explicit PingPongRouting(const Topology &topo) : _topo(&topo) {}

    std::vector<LinkId>
    candidates(NodeIdx cur, core::ProcId, core::ProcId) const override
    {
        if (_topo->isProc(cur))
            return {_topo->injectionLink(_topo->procOf(cur))};
        return {_topo->findLink(
            cur, _topo->switchNode(_topo->switchOf(cur) ^ 1))};
    }

    bool sourceOblivious() const override { return true; }
    std::string name() const override { return "ping-pong"; }

  private:
    const Topology *_topo;
};

/** Source-oblivious test routing that never offers a link. */
class DeadEndRouting : public RoutingFunction
{
  public:
    std::vector<LinkId>
    candidates(NodeIdx, core::ProcId, core::ProcId) const override
    {
        return {};
    }

    bool sourceOblivious() const override { return true; }
    std::string name() const override { return "dead-end"; }
};

} // namespace

TEST(CrossbarRouting, TwoHopPaths)
{
    const auto net = buildCrossbar(4);
    for (core::ProcId s = 0; s < 4; ++s) {
        for (core::ProcId d = 0; d < 4; ++d) {
            if (s == d)
                continue;
            EXPECT_EQ(walkPath(net, s, d).size(), 2u);
        }
    }
}

TEST(MeshDor, PathsAreMinimalAndXFirst)
{
    const auto net = buildMesh(16); // 4x4
    for (core::ProcId s = 0; s < 16; ++s) {
        for (core::ProcId d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            const auto path = walkPath(net, s, d);
            ASSERT_GE(path.size(), 2u) << "pair (" << s << "," << d << ")";
            const std::uint32_t hops =
                static_cast<std::uint32_t>(path.size()) - 2;
            const std::uint32_t manh =
                (s % 4 > d % 4 ? s % 4 - d % 4 : d % 4 - s % 4) +
                (s / 4 > d / 4 ? s / 4 - d / 4 : d / 4 - s / 4);
            EXPECT_EQ(hops, manh) << "pair (" << s << "," << d << ")";

            // X-first: once a vertical move happens no horizontal move
            // may follow.
            bool movedY = false;
            for (std::size_t i = 1; i + 1 < path.size(); ++i) {
                const auto &l = net.topo->link(path[i]);
                const auto a = net.topo->switchOf(l.from);
                const auto b = net.topo->switchOf(l.to);
                const bool vertical = (a % 4) == (b % 4);
                if (vertical)
                    movedY = true;
                else
                    EXPECT_FALSE(movedY) << "Y before X on (" << s << ","
                                         << d << ")";
            }
        }
    }
}

TEST(MeshDor, DeterministicSingleCandidate)
{
    const auto net = buildMesh(8);
    const auto cands =
        net.routing->candidates(net.topo->procNode(0), 0, 5);
    EXPECT_EQ(cands.size(), 1u);
}

TEST(TorusTfar, OffersBothMinimalDirections)
{
    const auto net = buildTorus(16); // 4x4
    // From (0,0) to (2,2): x distance 2 either way, y distance 2 either
    // way: four candidates at the source switch.
    const auto cands = net.routing->candidates(
        net.topo->switchNode(0), 0, 10); // proc 10 = (2,2)
    EXPECT_EQ(cands.size(), 4u);
}

TEST(TorusTfar, SingleDirectionWhenAligned)
{
    const auto net = buildTorus(16);
    // From (0,0) to (1,0): one x hop forward is strictly shorter.
    const auto cands =
        net.routing->candidates(net.topo->switchNode(0), 0, 1);
    EXPECT_EQ(cands.size(), 1u);
    EXPECT_EQ(net.topo->link(cands[0]).to, net.topo->switchNode(1));
}

TEST(TorusTfar, EjectsAtDestinationSwitch)
{
    const auto net = buildTorus(8);
    const auto cands =
        net.routing->candidates(net.topo->switchNode(3), 0, 3);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(net.topo->link(cands[0]).to, net.topo->procNode(3));
}

TEST(TorusTfar, WrapsAround)
{
    const auto net = buildTorus(16);
    // From (0,0) to (3,0): wrap -x (1 hop) beats +x (3 hops).
    const auto cands =
        net.routing->candidates(net.topo->switchNode(0), 0, 3);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(net.topo->link(cands[0]).to, net.topo->switchNode(3));
}

TEST(ValidateRouting, BaselinesAreSourceOblivious)
{
    for (const auto &net : {buildCrossbar(16), buildMesh(64),
                            buildTorus(16)}) {
        EXPECT_TRUE(net.routing->sourceOblivious()) << net.topo->name();
        EXPECT_NO_FATAL_FAILURE(validateRouting(*net.topo, *net.routing));
    }
}

TEST(ValidateRouting, PerDestinationCatchesLoop)
{
    const auto net = buildMesh(4); // 2x2: switch pairs 0-1 and 2-3
    EXPECT_DEATH(validateRouting(*net.topo, PingPongRouting(*net.topo)),
                 "livelock");
}

TEST(ValidateRouting, PerDestinationCatchesNoCandidates)
{
    const auto net = buildMesh(4);
    EXPECT_DEATH(validateRouting(*net.topo, DeadEndRouting()),
                 "no candidates");
}

TEST(ValidateRouting, PerPairCatchesLoop)
{
    const auto net = buildMesh(4);
    auto table = makeUpDownRouting(*net.topo);
    ASSERT_FALSE(table->sourceOblivious());
    // A continuous path from 0 to 1 that passes switch 0 twice: the walk
    // leaves switch 0 for switch 1 and is sent back every time.
    const auto s0 = net.topo->switchNode(0);
    const auto s1 = net.topo->switchNode(1);
    const auto there = net.topo->findLink(s0, s1);
    const auto back = net.topo->findLink(s1, s0);
    table->setPath(0, 1,
                   {net.topo->injectionLink(0), there, back, there,
                    net.topo->ejectionLink(1)});
    EXPECT_DEATH(validateRouting(*net.topo, *table), "livelock");
}

TEST(TableRouting, RejectsDiscontinuousPath)
{
    const auto net = buildMesh(4);
    TableRouting table(*net.topo, "bad");
    // Injection link of 0 followed by ejection of 3 is discontinuous on
    // a 2x2 mesh (different switches).
    EXPECT_DEATH(table.setPath(0, 3,
                               {net.topo->injectionLink(0),
                                net.topo->ejectionLink(3)}),
                 "discontinuous");
}

TEST(TableRouting, MissingPathPanics)
{
    const auto net = buildMesh(4);
    TableRouting table(*net.topo, "empty");
    EXPECT_DEATH(table.path(0, 1), "no path");
}

TEST(DesignRouting, CoversAllPairsIncludingUnknown)
{
    // Build a design from CG-8 and confirm the routing table serves
    // every pair, including those CG never communicates.
    trace::NasConfig cfg;
    cfg.ranks = 8;
    cfg.iterations = 1;
    const auto tr = trace::generateCG(cfg);
    const auto ks = trace::analyzeByCall(tr);
    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = 5;
    const auto outcome = core::runMethodology(ks, mcfg);
    const auto plan = planFloor(outcome.design);
    const auto net = buildFromDesign(outcome.design, plan);

    const auto *table =
        dynamic_cast<const TableRouting *>(net.routing.get());
    ASSERT_NE(table, nullptr);
    for (core::ProcId s = 0; s < 8; ++s) {
        for (core::ProcId d = 0; d < 8; ++d) {
            if (s != d) {
                EXPECT_TRUE(table->hasPath(s, d));
            }
        }
    }
    // validateRouting re-walks every pair; rerun explicitly.
    EXPECT_NO_FATAL_FAILURE(validateRouting(*net.topo, *net.routing));
}

TEST(DesignRouting, KnownCommsFollowFinalizedColors)
{
    trace::NasConfig cfg;
    cfg.ranks = 8;
    cfg.iterations = 1;
    const auto tr = trace::generateCG(cfg);
    const auto ks = trace::analyzeByCall(tr);
    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = 5;
    const auto outcome = core::runMethodology(ks, mcfg);
    const auto plan = planFloor(outcome.design);
    const auto net = buildFromDesign(outcome.design, plan);
    const auto *table =
        dynamic_cast<const TableRouting *>(net.routing.get());
    ASSERT_NE(table, nullptr);

    // Every design comm's path length equals its switch route length +1
    // (injection + per-pipe links + ejection).
    for (core::CommId c = 0; c < outcome.design.comms.size(); ++c) {
        const auto &comm = outcome.design.comms[c];
        if (comm.src == comm.dst)
            continue;
        const auto &route = outcome.design.routes[c];
        const auto &path = table->path(comm.src, comm.dst);
        EXPECT_EQ(path.size(), route.size() + 1);
    }
}

// Every (s, d) link path of the baseline networks, pinned so the way
// routing is computed can change without changing a single route.
TEST(RoutingBytes, Mesh)
{
    EXPECT_EQ(routingDigest(buildMesh(7)), "9a44a5341a096bc7");    // 7x1
    EXPECT_EQ(routingDigest(buildMesh(8)), "90b51449280a7253");    // 4x2
    EXPECT_EQ(routingDigest(buildMesh(16)), "3cc1604ba8f4d659");   // 4x4
    EXPECT_EQ(routingDigest(buildMesh(64)), "42cfaed80537fe7f");   // 8x8
    EXPECT_EQ(routingDigest(buildMesh(1024)), "40fc4c0982093817"); // 32x32
}

TEST(RoutingBytes, Crossbar)
{
    EXPECT_EQ(routingDigest(buildCrossbar(16)), "fbcc5f173698aaad");
    EXPECT_EQ(routingDigest(buildCrossbar(64)), "ff4d1491c049616d");
}

// The irregular tables: every (s, d) path of the generated networks'
// fallback, of up*/down* and of degraded routing, pinned so the way the
// tables are built can change without changing a single route.
TEST(RoutingBytes, DesignFallback)
{
    EXPECT_EQ(routingDigest(cg16Network()), "71d07063c1b2f4ba");
    EXPECT_EQ(routingDigest(mg8Network()), "5e7032f1bb0f3445");
    EXPECT_EQ(routingDigest(ringNetwork()), "52147848d0c3d7b9");
}

TEST(RoutingBytes, UpDown)
{
    auto updown = [](const BuiltNetwork &net) {
        return routingDigest(*net.topo, *makeUpDownRouting(*net.topo));
    };
    EXPECT_EQ(updown(cg16Network()), "137a0812956f5852");
    EXPECT_EQ(updown(mg8Network()), "f6ed1d6021d3ea43");
    EXPECT_EQ(updown(buildMesh(16)), "38c68706a5ffe75d");
    EXPECT_EQ(updown(buildTorus(16)), "eca46dcfa0042f81");
}

TEST(RoutingBytes, Degraded)
{
    // 8x8 mesh: six failed inter-switch links and proc 9's ejection.
    EXPECT_EQ(degradedDigest(*buildMesh(64).topo, 6, 9, 7),
              "1b2eff87e5e5c2bc");
    EXPECT_EQ(degradedDigest(*cg16Network().topo, 3, 5, 7),
              "ef88e897a739fdeb");
    // The ring's failures split its switches: unreachable pairs too.
    EXPECT_EQ(degradedDigest(*ringNetwork().topo, 3, 5, 7),
              "5f6547ab3e915037");
}
