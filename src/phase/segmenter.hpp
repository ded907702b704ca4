/**
 * @file
 * Phase-aware workload segmentation.
 *
 * The paper's methodology assumes one stationary communication pattern
 * per application, but real workloads run through temporal phases
 * (setup / iterate / reduce) whose patterns differ. The segmenter
 * splits a Trace into such phases with sliding-window change-point
 * detection: the trace's messages are ordered by their ideal-replay
 * start times, grouped into fixed-size windows, and adjacent windows
 * are compared with a communication-pattern distance — normalized
 * traffic-matrix L1 distance blended with call-site-set Jaccard
 * dissimilarity. A window boundary whose distance exceeds the merge
 * threshold starts a new phase; phases shorter than the minimum length
 * are merged into their successor. The result is deterministic: equal
 * traces and configs yield byte-equal segmentations.
 */

#ifndef MINNOC_PHASE_SEGMENTER_HPP
#define MINNOC_PHASE_SEGMENTER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace minnoc::phase {

/** Change-point detection knobs. */
struct PhaseConfig
{
    /** Messages per sliding window. */
    std::uint32_t windowMessages = 64;

    /**
     * Adjacent-window distance (in [0, 1]) above which a window starts
     * a new phase; below it the windows merge into the same phase.
     */
    double mergeThreshold = 0.4;

    /** Minimum phase length in windows (shorter phases are merged). */
    std::uint32_t minPhaseWindows = 2;

    /**
     * Canonical parameter string covering every knob that changes the
     * segmentation (content-addressed caches hash it).
     */
    std::string signature() const;
};

/** One detected temporal phase. */
struct PhaseInfo
{
    std::uint32_t index = 0;

    /** Inclusive window range of the phase. */
    std::uint32_t firstWindow = 0;
    std::uint32_t lastWindow = 0;

    /** Call sites owned by this phase (sorted, disjoint across phases). */
    std::vector<std::uint32_t> calls;

    /** Messages / payload bytes of the owned call sites. */
    std::size_t messages = 0;
    std::uint64_t bytes = 0;

    /** Ideal-replay time span of the owned messages. */
    double startTime = 0.0;
    double endTime = 0.0;
};

/** The full result of one segmentation run. */
struct Segmentation
{
    static constexpr std::uint32_t kNoPhase =
        static_cast<std::uint32_t>(-1);

    PhaseConfig config;

    /** Total messages and windows the detector saw. */
    std::size_t numMessages = 0;
    std::uint32_t numWindows = 0;

    /**
     * Blended distance between window i-1 and window i (index 0 is
     * always 0); exposed for reports and threshold tuning.
     */
    std::vector<double> distances;

    /** Window indices where an accepted phase boundary starts. */
    std::vector<std::uint32_t> boundaries;

    /** Detected phases in temporal order (never empty if messages). */
    std::vector<PhaseInfo> phases;

    /**
     * Owning phase per call site, indexed by callId (kNoPhase for ids
     * the trace never uses). A call site straddling a detected boundary
     * is owned by the phase holding the majority of its messages
     * (earliest phase on ties), so ownership partitions the call sites.
     */
    std::vector<std::uint32_t> callPhase;
};

/**
 * Segment @p trace into temporal phases. Deterministic; a trace with
 * no communications yields an empty segmentation (no phases).
 */
Segmentation segmentTrace(const trace::Trace &trace,
                          const PhaseConfig &config = {});

/**
 * Extract the sub-trace of phase @p p: Send/Recv ops of the phase's
 * owned call sites plus the Compute ops leading up to them (a rank's
 * trailing computes stay with its last communication's phase). The
 * result preserves per-channel FIFO order and send/recv matching, so
 * it replays on the flit simulator like any other trace.
 */
trace::Trace phaseSubTrace(const trace::Trace &trace,
                           const Segmentation &seg, std::uint32_t p);

} // namespace minnoc::phase

#endif // MINNOC_PHASE_SEGMENTER_HPP
