/**
 * @file
 * CPU timing model: trace-driven cache simulation plus a vectorization
 * model.
 *
 * Models the relevant behaviour of the paper's Intel i7-3820 + Intel
 * OpenCL stack:
 *  - work-item code is serialized into loops whose memory behaviour we
 *    replay through a per-core L1/L2 and shared L3 (data locality is
 *    what the LC scheduling experiments, Figs. 8/10a/11a, measure);
 *  - the implicit vectorizer packs @c vectorWidth adjacent work-items
 *    into SIMD lanes; contiguous same-op accesses become one vector
 *    load, non-contiguous become gathers, and divergent branches pay
 *    masking costs that grow with width (the Fig. 1 effect);
 *  - scratchpad ("local") memory lowers to plain cached memory, so
 *    tiling through it buys no latency and costs real instructions
 *    (the Fig. 10a effect).
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

/** Tunable cost parameters (cycles unless noted). */
struct CpuCostParams
{
    double l1Hit = 1.0;
    double l2Hit = 8.0;
    double l3Hit = 30.0;
    double memAccess = 120.0;
    double aluOp = 1.0;
    /** Extra factor on non-contiguous vector memory ops (gather). */
    double gatherFactor = 1.6;
    /**
     * Width-dependent part of the gather cost: packing/unpacking
     * overhead grows with the SIMD width (lane-crossing shuffles),
     * which is why very wide vectors lose on gather-heavy kernels
     * (the Fig. 1 spmv-jds effect).
     */
    double gatherWidthFactor = 0.3;
    /** Cycles per SIMD lane charged per divergent branch group. */
    double divergeMaskCost = 6.0;
    /** Issue cost of one (possibly vector) memory operation. */
    double memIssue = 0.5;
    /**
     * Extra cycles per memory access when the variant carries
     * software-prefetch instructions: useless work on a CPU whose
     * hardware prefetchers already cover streaming patterns.
     */
    double prefetchOverhead = 0.3;
    /**
     * Extra cycles per scratchpad ("local memory") access.  OpenCL
     * local memory lowers to plain cached memory on a CPU, so staging
     * data through it buys no latency and costs the extra address
     * arithmetic and copies (the paper's Fig. 10a observation that
     * scratchpad tiling slows CPUs down).
     */
    double scratchLowerExtra = 2.0;
};

/**
 * Per-core private cache state, persistent across work-groups, plus
 * the replay buffers the core's cost model reuses.
 */
struct CpuCoreState
{
    Cache l1;
    Cache l2;
    OpIndex ops;                      ///< SIMD op index of one replay
    std::vector<std::uint64_t> addrs; ///< addresses of one SIMD op

    CpuCoreState(const CacheConfig &l1_cfg, const CacheConfig &l2_cfg)
        : l1(l1_cfg), l2(l2_cfg)
    {}
};

/**
 * Compute the cost in cycles of one work-group's trace on one core.
 *
 * @param trace  recorded execution of the work-group
 * @param traits variant traits (vector width)
 * @param core   the executing core's private caches (mutated)
 * @param l3     the shared last-level cache (mutated)
 * @param params cost constants
 * @return simulated cycles
 */
double cpuWorkGroupCycles(const kdp::WorkGroupTrace &trace,
                          const kdp::VariantTraits &traits,
                          CpuCoreState &core, Cache &l3,
                          const CpuCostParams &params);

} // namespace sim
} // namespace dysel
