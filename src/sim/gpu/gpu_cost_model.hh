/**
 * @file
 * GPU timing model: warp-level replay of the work-group trace.
 *
 * Models the relevant behaviour of the paper's NVIDIA K20c (Kepler):
 *  - 32-lane warps execute in lock step; the k-th access of each lane
 *    forms one memory instruction whose cost is the number of 128-byte
 *    segments it touches (coalescing -- the Fig. 9/11b effect);
 *  - the texture path has its own small cache (the spmv-jds texture
 *    placement effect, Fig. 10b);
 *  - scratchpad is fast but serializes on bank conflicts;
 *  - divergent branches serialize both paths;
 *  - ALU time per warp is the *maximum* over its lanes, so a warp with
 *    one active lane still pays full time (the 22.7x diagonal-matrix
 *    effect of Fig. 11b);
 *  - cost is split into a throughput part (issue bandwidth, shared
 *    among resident blocks) and a latency part (hidden by occupancy).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "kdp/kernel.hh"
#include "kdp/trace.hh"

#include "sim/cache/cache.hh"
#include "sim/op_index.hh"

namespace dysel {
namespace sim {

/** Tunable GPU cost parameters (cycles unless noted). */
struct GpuCostParams
{
    unsigned warpSize = 32;
    unsigned warpSchedulers = 4;
    double issueOp = 4.0;        ///< issue cost of one warp instruction
    double txCost = 26.0;        ///< per 128B global transaction (miss)
    double txHitCost = 14.0;     ///< per 128B transaction hitting L2
    double l2HitLatency = 80.0;  ///< latency of an L2-hit memory op
    double memLatency = 320.0;   ///< latency of a DRAM memory op
    double scratchAccess = 4.0;  ///< conflict-free scratchpad op
    double bankConflictExtra = 4.0; ///< extra per serialized bank round
    double texHit = 5.0;         ///< per 32B texture segment (thruput)
    double texMissExtra = 10.0;  ///< extra per missing segment (fill)
    double texMissLatency = 300.0;
    double constCost = 12.0;     ///< per distinct address (serialized)
    double atomicPerLane = 24.0; ///< serialization per participating lane
    double divergentBranch = 16.0;
    double aluOp = 1.0;
    double barrierCost = 30.0;
    unsigned segmentBytes = 128; ///< coalescing granularity
    /** Latency multiplier when the variant software-prefetches. */
    double prefetchLatencyFactor = 0.7;
    /**
     * Memory-level parallelism within a warp: outstanding loads
     * overlap, so only 1/mlpFactor of the summed per-op latency is
     * actually exposed.
     */
    double mlpFactor = 16.0;
};

/** Per-SM mutable model state plus the replay buffers it reuses. */
struct GpuSmState
{
    Cache texCache;
    OpIndex ops;                         ///< warp op index of one replay
    std::vector<std::uint64_t> segs;     ///< distinct keys of one warp op
    std::vector<double> warpThruput;     ///< per-warp throughput cycles
    std::vector<double> warpLatency;     ///< per-warp latency cycles

    explicit GpuSmState(const CacheConfig &tex_cfg) : texCache(tex_cfg) {}
};

/** Two-component cost of one work-group. */
struct GpuWgCost
{
    double throughputCycles = 0.0; ///< issue-bandwidth bound work
    double latencyCycles = 0.0;    ///< hideable memory latency
};

/**
 * Replay @p trace at warp granularity and return its cost components.
 *
 * @param trace      recorded execution of the work-group
 * @param traits     variant traits
 * @param groupSize  work-items per group
 * @param sm         executing SM's state (texture cache; mutated)
 * @param l2         device-wide L2 (mutated)
 * @param p          cost constants
 */
GpuWgCost gpuWorkGroupCost(const kdp::WorkGroupTrace &trace,
                           const kdp::VariantTraits &traits,
                           std::uint32_t groupSize, GpuSmState &sm,
                           Cache &l2, const GpuCostParams &p);

} // namespace sim
} // namespace dysel
