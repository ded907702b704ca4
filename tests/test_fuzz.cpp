/**
 * @file
 * Randomized property and fuzz tests: the invariants that must hold
 * for *any* input, not just the benchmark suite.
 *
 *  - DesignNetwork: arbitrary interleavings of split / move / setRoute
 *    keep every internal invariant intact.
 *  - Methodology: any random clique set yields a Theorem-1-clean,
 *    strongly connected design whose routes all materialize.
 *  - Simulator: flits are conserved (everything injected is delivered
 *    exactly once), channels stay FIFO, results are deterministic.
 *  - Serve protocol: parsing is total — truncated, mutated, garbage
 *    and oversized request lines always map to a structured error,
 *    never an abort, a throw, or a half-populated request.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "coh/coherence.hpp"
#include "core/methodology.hpp"
#include "graph/connectivity.hpp"
#include "graph/digraph.hpp"
#include "serve/protocol.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "topo/floorplan.hpp"
#include "trace/nas_generators.hpp"
#include "util/rng.hpp"

using namespace minnoc;
using namespace minnoc::core;

namespace {

/** Random clique set: phases of random partial permutations. */
CliqueSet
randomCliques(std::uint32_t procs, std::uint32_t phases, Rng &rng)
{
    CliqueSet ks(procs);
    for (std::uint32_t k = 0; k < phases; ++k) {
        std::vector<ProcId> perm(procs);
        for (ProcId p = 0; p < procs; ++p)
            perm[p] = p;
        rng.shuffle(perm);
        std::vector<Comm> comms;
        for (ProcId p = 0; p < procs; ++p) {
            if (perm[p] != p && rng.chance(0.8))
                comms.emplace_back(p, perm[p]);
        }
        if (!comms.empty())
            ks.addClique(comms);
    }
    if (ks.numCliques() == 0)
        ks.addClique({Comm(0, 1)});
    return ks;
}

} // namespace

class FuzzSeeds : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzSeeds, DesignNetworkOpsKeepInvariants)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    CliqueSet ks = randomCliques(12, 4, rng);
    DesignNetwork net(ks);

    for (int op = 0; op < 120; ++op) {
        const auto kind = rng.below(3);
        if (kind == 0) {
            // Split a random splittable switch.
            std::vector<SwitchId> splittable;
            for (SwitchId s = 0; s < net.numSwitches(); ++s) {
                if (net.procsOf(s).size() >= 2)
                    splittable.push_back(s);
            }
            if (!splittable.empty())
                net.splitSwitch(
                    splittable[rng.below(splittable.size())], rng);
        } else if (kind == 1) {
            // Move a random proc to a random switch.
            const auto p =
                static_cast<ProcId>(rng.below(net.numProcs()));
            const auto s =
                static_cast<SwitchId>(rng.below(net.numSwitches()));
            net.moveProc(p, s);
        } else {
            // Reroute a random comm along a random simple walk.
            const auto c =
                static_cast<CommId>(rng.below(ks.numComms()));
            const auto &comm = ks.comm(c);
            const SwitchId from = net.homeOf(comm.src);
            const SwitchId to = net.homeOf(comm.dst);
            std::vector<SwitchId> route{from};
            if (from != to) {
                // Random middle switch not equal to endpoints.
                if (net.numSwitches() > 2 && rng.chance(0.5)) {
                    const auto mid = static_cast<SwitchId>(
                        rng.below(net.numSwitches()));
                    if (mid != from && mid != to)
                        route.push_back(mid);
                }
                route.push_back(to);
            }
            net.setRoute(c, route);
        }
        net.checkInvariants();
    }
}

TEST_P(FuzzSeeds, MethodologyOnRandomPatterns)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
    const std::uint32_t procs = 6 + static_cast<std::uint32_t>(
                                        rng.below(10));
    CliqueSet ks = randomCliques(procs, 3, rng);

    MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 6;
    cfg.restarts = 4;
    const auto outcome = runMethodology(ks, cfg);

    // Theorem 1 always holds regardless of feasibility.
    EXPECT_TRUE(outcome.violations.empty());

    // The switch graph is strongly connected over provisioned channels.
    graph::Digraph sg(outcome.design.numSwitches);
    for (const auto &p : outcome.design.pipes) {
        if (p.linksFwd)
            sg.addEdge(p.key.a, p.key.b);
        if (p.linksBwd)
            sg.addEdge(p.key.b, p.key.a);
    }
    EXPECT_TRUE(graph::isStronglyConnected(sg));

    // It must materialize into a routable topology.
    const auto plan = topo::planFloor(outcome.design);
    const auto net = topo::buildFromDesign(outcome.design, plan);
    EXPECT_NO_FATAL_FAILURE(
        topo::validateRouting(*net.topo, *net.routing));
}

TEST_P(FuzzSeeds, SimulatorConservesPackets)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
    const std::uint32_t ranks = 8;
    const auto mesh = topo::buildMesh(ranks);
    sim::Network net(*mesh.topo, *mesh.routing, sim::SimConfig{});

    // Random burst of packets.
    const std::uint32_t count =
        20 + static_cast<std::uint32_t>(rng.below(60));
    std::map<std::pair<core::ProcId, core::ProcId>,
             std::vector<sim::PacketId>>
        perChannel;
    for (std::uint32_t i = 0; i < count; ++i) {
        const auto s = static_cast<core::ProcId>(rng.below(ranks));
        auto d = static_cast<core::ProcId>(rng.below(ranks - 1));
        if (d >= s)
            ++d;
        const auto bytes = 4 + rng.below(512);
        const auto id = net.enqueue(s, d, bytes, 0, 0);
        perChannel[{d, s}].push_back(id);
    }

    sim::Cycle now = 0;
    while (!net.idle() && now < 1'000'000)
        net.step(++now);
    ASSERT_TRUE(net.idle());

    // Conservation: every packet delivered exactly once, in channel
    // FIFO order.
    EXPECT_EQ(net.stats().packetsDelivered, count);
    for (const auto &[channel, ids] : perChannel) {
        const auto flow = net.flow(channel.first, channel.second);
        for (const auto id : ids) {
            EXPECT_TRUE(net.hasDelivered(flow));
            EXPECT_EQ(net.consumeDelivered(flow), id);
        }
        EXPECT_FALSE(net.hasDelivered(flow));
    }
}

TEST_P(FuzzSeeds, SimulatorIsDeterministic)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 3);
    trace::Trace tr("fuzz", 8);
    std::map<std::pair<core::ProcId, core::ProcId>,
             std::vector<std::uint32_t>>
        sent;
    std::uint32_t call = 0;
    for (int i = 0; i < 40; ++i) {
        const auto s = static_cast<core::ProcId>(rng.below(8));
        auto d = static_cast<core::ProcId>(rng.below(7));
        if (d >= s)
            ++d;
        tr.push(s, trace::TraceOp::compute(
                       static_cast<std::int64_t>(rng.below(200))));
        tr.push(s, trace::TraceOp::send(d, 16 + rng.below(256), call));
        sent[{s, d}].push_back(call);
        ++call;
    }
    for (const auto &[channel, calls] : sent) {
        for (const auto c : calls) {
            // Bytes irrelevant for matching; engine matches per channel
            // FIFO. Replays need exact byte matches for validate.
            (void)c;
        }
    }
    // Post receives per channel (bytes must mirror the sends).
    for (core::ProcId s = 0; s < 8; ++s) {
        for (const auto &op : tr.timeline(s)) {
            if (op.kind == trace::OpKind::Send)
                tr.push(op.peer,
                        trace::TraceOp::recv(s, op.bytes, op.callId));
        }
    }
    tr.validateMatching();

    const auto torus = topo::buildTorus(8);
    const auto a = sim::runTrace(tr, *torus.topo, *torus.routing);
    const auto b = sim::runTrace(tr, *torus.topo, *torus.routing);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.commTime, b.commTime);
    EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
}

// ------------------------------------------------- serve request parser

namespace {

/** A well-formed submission line to mutate and truncate. */
std::string
validServeRequest()
{
    trace::NasConfig cfg;
    cfg.ranks = 8;
    cfg.iterations = 1;
    const auto tr = trace::generateCG(cfg);
    std::ostringstream traceOs;
    tr.save(traceOs);
    std::ostringstream os;
    os << "{\"id\": \"fuzz\", \"cmd\": \"design\", \"trace\": \""
       << serve::jsonEscape(traceOs.str())
       << "\", \"restarts\": 2, \"seed\": 1}";
    return os.str();
}

/**
 * The totality property: any line maps to a request or a structured
 * error with a taxonomy code and a non-empty message. Never throws.
 */
void
expectTotal(const std::string &line)
{
    serve::RequestError error;
    std::optional<serve::Request> req;
    ASSERT_NO_THROW(req = serve::parseRequest(line, error))
        << "parser threw on " << line.size() << "-byte input";
    if (!req.has_value()) {
        EXPECT_FALSE(error.message.empty());
        EXPECT_NE(serve::errorCodeName(error.code), nullptr);
    }
}

} // namespace

TEST_P(FuzzSeeds, ServeParserIsTotalOnGarbageBytes)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 11);
    for (int round = 0; round < 200; ++round) {
        std::string line(rng.below(512), '\0');
        for (auto &c : line)
            c = static_cast<char>(rng.below(256));
        expectTotal(line);
    }
    // JSON-ish garbage: balanced-looking but meaningless structures.
    const char *shards[] = {"{",      "}",    "[",     "]",  "\"",
                            ":",      ",",    "null",  "{}", "1e999",
                            "\\u00",  "cmd",  "design"};
    for (int round = 0; round < 200; ++round) {
        std::string line;
        const auto parts = 1 + rng.below(24);
        for (std::uint64_t i = 0; i < parts; ++i)
            line += shards[rng.below(std::size(shards))];
        expectTotal(line);
    }
}

TEST(ServeFuzz, TruncatedSubmissionsAlwaysParseError)
{
    const auto full = validServeRequest();
    serve::RequestError error;
    ASSERT_TRUE(serve::parseRequest(full, error).has_value());

    // Every proper prefix is rejected cleanly (step keeps runtime
    // sane; boundary prefixes near the end are covered exactly).
    for (std::size_t len = 0; len < full.size();
         len += (len + 64 < full.size() ? 37 : 1)) {
        const auto prefix = full.substr(0, len);
        serve::RequestError e;
        const auto req = serve::parseRequest(prefix, e);
        EXPECT_FALSE(req.has_value())
            << "truncated prefix of " << len << " bytes parsed";
        EXPECT_FALSE(e.message.empty());
    }
}

TEST_P(FuzzSeeds, MutatedSubmissionsNeverCrashTheParser)
{
    const auto full = validServeRequest();
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
    for (int round = 0; round < 100; ++round) {
        std::string line = full;
        const auto flips = 1 + rng.below(8);
        for (std::uint64_t i = 0; i < flips; ++i)
            line[rng.below(line.size())] =
                static_cast<char>(rng.below(256));
        expectTotal(line);
    }
}

TEST(ServeFuzz, OversizedSubmissionIsRejectedNotBuffered)
{
    std::string line(serve::kMaxRequestBytes + 1, 'a');
    serve::RequestError error;
    EXPECT_FALSE(serve::parseRequest(line, error).has_value());
    EXPECT_EQ(error.code, serve::ErrorCode::ParseError);
    EXPECT_FALSE(error.message.empty());
}

TEST(ServeFuzz, HostileParameterRangesAreValidationErrors)
{
    const char *lines[] = {
        // Grid big enough to be a denial of service.
        "{\"id\": \"g\", \"cmd\": \"explore\", \"trace\": \"t\","
        " \"degrees\": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,"
        "19,20,21,22,23,24,25,26,27,28,29,30,31,32],"
        " \"seeds\": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,"
        "19,20,21,22,23,24,25,26,27,28,29,30,31,32],"
        " \"vcs\": [1,2,3,4,5,6,7,8]}",
        // Value outside the representable range.
        "{\"id\": \"r\", \"cmd\": \"design\", \"trace\": \"t\","
        " \"restarts\": 18446744073709551616}",
        // Wrong types everywhere.
        "{\"id\": \"w\", \"cmd\": \"design\", \"trace\": 7}",
        "{\"id\": \"x\", \"cmd\": [\"design\"], \"trace\": \"t\"}",
        // Absurd deadline.
        "{\"id\": \"d\", \"cmd\": \"design\", \"trace\": \"t\","
        " \"deadline_ms\": -5}",
    };
    for (const auto *line : lines) {
        serve::RequestError error;
        EXPECT_FALSE(serve::parseRequest(line, error).has_value())
            << line;
        EXPECT_EQ(error.code, serve::ErrorCode::ValidationError)
            << line;
    }
}

// ----------------------------------------------- dse_shard request fuzz

namespace {

/** A well-formed coordinator-style dse_shard line to mutate. */
std::string
validDseShardLine()
{
    trace::NasConfig cfg;
    cfg.ranks = 8;
    cfg.iterations = 1;
    const auto tr = trace::generateCG(cfg);
    std::ostringstream traceOs;
    tr.save(traceOs);
    std::ostringstream os;
    os << "{\"id\": \"3\", \"cmd\": \"dse_shard\", \"attempt\": 1,"
          " \"job_index\": 3, \"sig\": \"1469598103934665603\","
          " \"degrees\": [4], \"restarts\": [2], \"seeds\": [1],"
          " \"unidirectional\": [0, 1], \"vcs\": [2, 3], \"vc_depth\": 4,"
          " \"phase_windows\": [0], \"reconfig_cost\": 0,"
          " \"threshold\": 0.35, \"min_phase_windows\": 2,"
          " \"matrix_weight\": 0.5, \"power\": \"activity\","
          " \"deadline_ms\": 10000, \"trace\": \""
       << serve::jsonEscape(traceOs.str()) << "\"}";
    return os.str();
}

} // namespace

TEST(ServeFuzz, WellFormedDseShardParses)
{
    serve::RequestError error;
    const auto req = serve::parseRequest(validDseShardLine(), error);
    ASSERT_TRUE(req.has_value()) << error.message;
    EXPECT_EQ(req->cmd, serve::Cmd::DseShard);
    EXPECT_EQ(req->attempt, 1u);
    EXPECT_EQ(req->jobIndex, 3u);
    EXPECT_EQ(req->sig, "1469598103934665603");
    EXPECT_EQ(req->grid.maxDegrees, std::vector<std::uint32_t>{4});
    EXPECT_EQ(req->grid.vcs, (std::vector<std::uint32_t>{2, 3}));
    EXPECT_EQ(req->grid.expand().size(), 4u);
    EXPECT_EQ(req->matrixWeight, 0.5);
    EXPECT_EQ(req->deadlineMs, 10'000);
    EXPECT_EQ(req->power, "activity");
}

TEST_P(FuzzSeeds, MutatedDseShardsNeverCrashTheParser)
{
    const auto full = validDseShardLine();
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 48611 + 7);
    for (int round = 0; round < 100; ++round) {
        std::string line = full;
        const auto flips = 1 + rng.below(8);
        for (std::uint64_t i = 0; i < flips; ++i)
            line[rng.below(line.size())] =
                static_cast<char>(rng.below(256));
        expectTotal(line);
    }
}

TEST(ServeFuzz, TruncatedDseShardsAlwaysParseError)
{
    const auto full = validDseShardLine();
    for (std::size_t len = 0; len < full.size();
         len += (len + 64 < full.size() ? 37 : 1)) {
        serve::RequestError e;
        const auto req = serve::parseRequest(full.substr(0, len), e);
        EXPECT_FALSE(req.has_value())
            << "truncated dse_shard prefix of " << len << " bytes parsed";
        EXPECT_FALSE(e.message.empty());
    }
}

TEST(ServeFuzz, HostileDseShardFieldsAreValidationErrors)
{
    const std::string head =
        "{\"id\": \"j\", \"cmd\": \"dse_shard\", \"trace\": \"t\","
        " \"sig\": \"s\"";
    const char *tails[] = {
        // Unknown / misplaced fields from sibling commands.
        ", \"window\": 8}",          // phase_job-only key
        ", \"expected_phases\": 3}", // phase_job-only key
        ", \"max_degree\": 4}",      // scalar of design/phases/phase_job
        ", \"bogus\": 1}",
        // Out-of-range values.
        ", \"attempt\": 0}",
        ", \"attempt\": 3}",
        ", \"vcs\": [0]}",
        ", \"vcs\": [33]}",
        ", \"vc_depth\": 65}",
        ", \"degrees\": [65]}",
        ", \"matrix_weight\": 1.5}",
        ", \"reconfig_cost\": -1}",
        ", \"seeds\": [18446744073709551616]}",
        // Wrong types.
        ", \"job_index\": \"three\"}",
        ", \"unidirectional\": 0}",
        ", \"restarts\": 2}",
        // Power tier: only the two model names are valid.
        ", \"power\": \"nuclear\"}",
        ", \"power\": \"\"}",
        ", \"power\": 1}",
        ", \"power\": [\"static\"]}",
    };
    for (const auto *tail : tails) {
        serve::RequestError error;
        const std::string line = head + tail;
        EXPECT_FALSE(serve::parseRequest(line, error).has_value())
            << line;
        EXPECT_EQ(error.code, serve::ErrorCode::ValidationError)
            << line;
    }

    // A shard's sub-grid is bounded like any explore grid: 2
    // directionalities x 32 VC counts x 17 phase windows = 1088 jobs.
    std::string vcs;
    for (int v = 1; v <= 32; ++v)
        vcs += (v > 1 ? ", " : "") + std::to_string(v);
    std::string windows;
    for (int w = 0; w <= 16; ++w)
        windows += (w ? ", " : "") + std::to_string(w * 100);
    const std::string big =
        head + ", \"degrees\": [4], \"restarts\": [2], \"seeds\": [1]," +
        " \"unidirectional\": [0, 1], \"vcs\": [" + vcs +
        "], \"phase_windows\": [" + windows + "]}";
    serve::RequestError bigError;
    EXPECT_FALSE(serve::parseRequest(big, bigError).has_value());
    EXPECT_EQ(bigError.code, serve::ErrorCode::ValidationError);
    EXPECT_NE(bigError.message.find("grid expands to 1088 jobs"),
              std::string::npos)
        << bigError.message;

    // sig is mandatory and bounded: absent, empty and oversized all
    // fail closed.
    const char *sigLines[] = {
        "{\"id\": \"j\", \"cmd\": \"dse_shard\", \"trace\": \"t\"}",
        "{\"id\": \"j\", \"cmd\": \"dse_shard\", \"trace\": \"t\","
        " \"sig\": \"\"}",
    };
    for (const auto *line : sigLines) {
        serve::RequestError error;
        EXPECT_FALSE(serve::parseRequest(line, error).has_value())
            << line;
        EXPECT_EQ(error.code, serve::ErrorCode::ValidationError);
    }
    serve::RequestError error;
    const std::string fat =
        "{\"id\": \"j\", \"cmd\": \"dse_shard\", \"trace\": \"t\","
        " \"sig\": \"" +
        std::string(2000, 'x') + "\"}";
    EXPECT_FALSE(serve::parseRequest(fat, error).has_value());
    EXPECT_EQ(error.code, serve::ErrorCode::ValidationError);

    // phase_job has its own allowlist: grid keys are rejected.
    const std::string pj =
        "{\"id\": \"p\", \"cmd\": \"phase_job\", \"trace\": \"t\","
        " \"sig\": \"s\", \"window\": 8, \"unidirectional\": [0]}";
    serve::RequestError pe;
    EXPECT_FALSE(serve::parseRequest(pj, pe).has_value());
    EXPECT_EQ(pe.code, serve::ErrorCode::ValidationError);
}

// ------------------------------------------------- coherence mix fuzz

namespace {

/**
 * parseMix totality: any string maps to a mix or to nullopt with a
 * non-empty error. Never throws or aborts. A returned mix is always
 * finite, non-negative, and not all-zero.
 */
void
expectMixTotal(const std::string &text)
{
    std::string error;
    std::optional<coh::SharingMix> mix;
    ASSERT_NO_THROW(mix = coh::parseMix(text, error))
        << "parseMix threw on " << text.size() << "-byte input";
    if (!mix.has_value()) {
        EXPECT_FALSE(error.empty());
        return;
    }
    double sum = 0.0;
    for (const double w : mix->weights) {
        EXPECT_TRUE(std::isfinite(w));
        EXPECT_GE(w, 0.0);
        sum += w;
    }
    EXPECT_GT(sum, 0.0);
}

} // namespace

TEST_P(FuzzSeeds, ParseMixIsTotalOnGarbageBytes)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 2417 + 5);
    for (int round = 0; round < 200; ++round) {
        std::string text(rng.below(96), '\0');
        for (auto &c : text)
            c = static_cast<char>(rng.below(256));
        expectMixTotal(text);
    }
    // Mix-shaped garbage: valid tokens in hostile arrangements.
    const char *shards[] = {"private",  "read_shared",
                            "migratory", "producer_consumer",
                            ":",         ",",
                            "0.5",       "-1",
                            "1e999",     "nan",
                            "inf",       "0x10",
                            "",          " "};
    for (int round = 0; round < 200; ++round) {
        std::string text;
        const auto parts = 1 + rng.below(12);
        for (std::uint64_t i = 0; i < parts; ++i)
            text += shards[rng.below(std::size(shards))];
        expectMixTotal(text);
    }
}

TEST_P(FuzzSeeds, MutatedValidMixesNeverCrashTheParser)
{
    const std::string full =
        "private:0.4,read_shared:0.3,migratory:0.2,"
        "producer_consumer:0.1";
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 6701 + 9);
    for (int round = 0; round < 200; ++round) {
        std::string text = full;
        const auto flips = 1 + rng.below(6);
        for (std::uint64_t i = 0; i < flips; ++i)
            text[rng.below(text.size())] =
                static_cast<char>(rng.below(256));
        expectMixTotal(text);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Range(1, 13));
