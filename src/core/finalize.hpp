/**
 * @file
 * Finalization of a partitioned design (paper Appendix, step 3).
 *
 * Once the partitioning loop settles, the exact number of links per pipe
 * is fixed by formally coloring each pipe's two directional conflict
 * graphs (vertices: communications through the pipe in that direction;
 * edges: pairs that co-occur in some contention clique). Each
 * communication's color picks the physical link it uses on the pipe,
 * which yields a complete link-level source-routing table. Strong
 * connectivity (Definition 1) is restored afterwards if routing demand
 * alone left switch islands.
 */

#ifndef MINNOC_CORE_FINALIZE_HPP
#define MINNOC_CORE_FINALIZE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "design_network.hpp"

namespace minnoc::core {

/** Finalization knobs. */
struct FinalizeConfig
{
    /**
     * Provision unidirectional links instead of full-duplex pairs
     * (paper footnote 1): each pipe direction gets exactly the
     * channels its coloring demands, which saves wires on asymmetric
     * patterns, and strong connectivity of the *directed* switch graph
     * is patched explicitly.
     */
    bool unidirectional = false;
};

/** One finalized pipe: physical link count plus per-comm link choice. */
struct FinalizedPipe
{
    PipeKey key;
    /**
     * Number of full-duplex physical links between the two switches
     * (always max(linksFwd, linksBwd); this is also the pipe's
     * switch-port cost).
     */
    std::uint32_t links = 0;
    /** Channels provisioned a -> b (== links in duplex mode). */
    std::uint32_t linksFwd = 0;
    /** Channels provisioned b -> a (== links in duplex mode). */
    std::uint32_t linksBwd = 0;
    /** Link index used by each comm traversing a -> b. */
    std::map<CommId, std::uint32_t> fwdLink;
    /** Link index used by each comm traversing b -> a. */
    std::map<CommId, std::uint32_t> bwdLink;
    /** True if this pipe exists only to restore connectivity. */
    bool connectivityOnly = false;
};

/**
 * A finished network design: the immutable output of the methodology,
 * consumed by the topology/floorplan layer and the simulator.
 */
struct FinalizedDesign
{
    std::uint32_t numProcs = 0;
    std::uint32_t numSwitches = 0;
    /** Processor list per switch. */
    std::vector<std::vector<ProcId>> switchProcs;
    /** Home switch per processor. */
    std::vector<SwitchId> procHome;
    /** Switch-level route per communication (indexed by CommId). */
    std::vector<std::vector<SwitchId>> routes;
    /** Finalized pipes, sorted by key. */
    std::vector<FinalizedPipe> pipes;
    /** Communications registry (paired with the originating CliqueSet). */
    std::vector<Comm> comms;
    /** True when every conflict graph was colored exactly. */
    bool colorsExact = true;
    /** True when the design provisions unidirectional channels. */
    bool unidirectional = false;

    /** Index of the pipe with @p key, or npos. */
    std::size_t pipeIndex(const PipeKey &key) const;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** Exact degree of switch @p s: procs + links over incident pipes. */
    std::uint32_t switchDegree(SwitchId s) const;

    /** Total full-duplex links between switches. */
    std::uint32_t totalLinks() const;

    /** Total directed channels (fwd + bwd over all pipes). */
    std::uint32_t totalChannels() const;

    /** Human-readable dump. */
    std::string toString() const;
};

/**
 * Finalize @p net: exact-color every pipe, assign per-comm links, and
 * patch connectivity. @p net is not modified.
 */
FinalizedDesign finalizeDesign(const DesignNetwork &net,
                               const FinalizeConfig &config = {});

} // namespace minnoc::core

#endif // MINNOC_CORE_FINALIZE_HPP
