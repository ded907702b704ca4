/**
 * @file
 * Byte pins for the configuration signatures that content-addressed
 * cache keys hash: the methodology and floorplan signatures at their
 * defaults and in one non-default variant, one explore job signature,
 * and the phases-request signature.
 *
 * Several fields these strings print are fixed constants rather than
 * settable knobs. They stay in the strings, so every cache key recorded
 * before they became constants still hits. A change that moves any of
 * these bytes invalidates every stored result and needs a cache-salt
 * bump of its own.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/methodology.hpp"
#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"
#include "serve/jobwire.hpp"
#include "topo/floorplan.hpp"

using namespace minnoc;

namespace {

const std::string kMethodologyDefault =
    "deg=5;pps=0;seed=1;imb=2;splits=0;mps=0;anneal=0;t0=2;alpha=0.85;"
    "mpl=8;opt=1;cons=1;cp=4;ucost=0;budget=2000000;uni=0;rounds=8;"
    "reduce=1;restarts=16;merge=1";

const std::string kFloorplanDefault =
    "fpseed=1;sweeps=64;t0=4;alpha=0.92000000000000004";

const std::string kPowerDefault =
    "esw=1;ewire=0.5;lsw=0.00050000000000000001;"
    "lwire=0.00020000000000000001";

const std::string kSimDefault =
    "vcs=3;vcd=4;flit=4;so=10;ro=10;dto=50000;dp=200;dsi=512;rec=64;"
    "max=2000000000";

} // namespace

TEST(SignatureBytes, MethodologyDefault)
{
    EXPECT_EQ(core::MethodologyConfig{}.signature(), kMethodologyDefault);
}

TEST(SignatureBytes, MethodologyUnidirectionalHierarchical)
{
    core::MethodologyConfig cfg;
    cfg.finalize.unidirectional = true;
    cfg.partitioner.hierarchicalThreshold = 16;
    EXPECT_EQ(cfg.signature(),
              "deg=5;pps=0;seed=1;imb=2;splits=0;mps=0;anneal=0;t0=2;"
              "alpha=0.85;mpl=8;opt=1;cons=1;cp=4;ucost=0;budget=2000000;"
              "uni=1;rounds=8;reduce=1;restarts=16;merge=1;hier=16,8");
}

TEST(SignatureBytes, FloorplanDefault)
{
    EXPECT_EQ(topo::FloorplanConfig{}.signature(), kFloorplanDefault);
}

TEST(SignatureBytes, ExploreJob)
{
    // A job's methodology runs 8 restarts, not the config default 16.
    EXPECT_EQ(dse::jobSignature(dse::JobParams{}, dse::ExploreConfig{}),
              "deg=5;pps=0;seed=1;imb=2;splits=0;mps=0;anneal=0;t0=2;"
              "alpha=0.85;mpl=8;opt=1;cons=1;cp=4;ucost=0;budget=2000000;"
              "uni=0;rounds=8;reduce=1;restarts=8;merge=1|" +
                  kFloorplanDefault + "|" + kPowerDefault + "|" +
                  kSimDefault);
}

TEST(SignatureBytes, PhasesRequest)
{
    EXPECT_EQ(serve::phasesSignature(phase::PhaseEvalConfig{}),
              kMethodologyDefault + "|" + kFloorplanDefault + "|" +
                  kPowerDefault + "|" + kSimDefault +
                  "|win=64;thresh=0.40000000000000002;minwin=2;mw=0.5;"
                  "rc=500");
}
