#include "gpu_cost_model.hh"

#include <algorithm>
#include <vector>

namespace dysel {
namespace sim {

GpuWgCost
gpuWorkGroupCost(const kdp::WorkGroupTrace &trace,
                 const kdp::VariantTraits &traits, std::uint32_t groupSize,
                 GpuSmState &sm, Cache &l2, const GpuCostParams &p)
{
    const unsigned w = p.warpSize;
    const unsigned num_warps = (groupSize + w - 1) / w;
    OpIndex &ops = sm.ops;
    std::vector<std::uint64_t> &segs = sm.segs;
    std::vector<double> &warp_thruput = sm.warpThruput;
    std::vector<double> &warp_latency = sm.warpLatency;
    warp_thruput.assign(num_warps, 0.0);
    warp_latency.assign(num_warps, 0.0);

    // Walk warp instructions in first-touch order for the caches.
    ops.build(trace.accesses, w);
    for (std::uint32_t i = 0; i < trace.accesses.size(); ++i) {
        if (!ops.opens(i))
            continue;
        const auto &first = trace.accesses[i];
        const unsigned warp = first.lane / w;
        const std::uint32_t op = ops.slot(i);

        // The sorted distinct keys of the op's members.  A repeat of
        // the previous member's key is skipped on the way in; unique
        // would drop it anyway.
        auto distinctKeys = [&](auto key) {
            segs.clear();
            for (const std::uint32_t *m = ops.begin(op); m != ops.end(op);
                 ++m) {
                const std::uint64_t k = key(trace.accesses[*m]);
                if (segs.empty() || segs.back() != k)
                    segs.push_back(k);
            }
            std::sort(segs.begin(), segs.end());
            segs.erase(std::unique(segs.begin(), segs.end()), segs.end());
        };

        double thruput = p.issueOp;
        double latency = 0.0;
        switch (first.space) {
          case kdp::MemSpace::Global: {
            distinctKeys([&](const kdp::MemAccess &a) {
                return a.addr / p.segmentBytes;
            });
            bool all_hit = true;
            for (std::uint64_t s : segs) {
                const bool hit = l2.access(s * p.segmentBytes);
                all_hit &= hit;
                thruput += hit ? p.txHitCost : p.txCost;
            }
            latency += all_hit ? p.l2HitLatency : p.memLatency;
            const bool any_atomic =
                std::any_of(ops.begin(op), ops.end(op), [&](std::uint32_t m) {
                    return trace.accesses[m].atomic;
                });
            if (any_atomic)
                thruput += p.atomicPerLane * static_cast<double>(ops.size(op));
            break;
          }
          case kdp::MemSpace::Texture: {
            distinctKeys([](const kdp::MemAccess &a) { return a.addr / 32; });
            bool all_hit = true;
            for (std::uint64_t s : segs) {
                const bool hit = sm.texCache.access(s * 32);
                all_hit &= hit;
                thruput += p.texHit;
                if (!hit)
                    thruput += p.texMissExtra;
            }
            if (!all_hit)
                latency += p.texMissLatency;
            break;
          }
          case kdp::MemSpace::Scratchpad: {
            // Bank conflicts: 32 four-byte banks; the op serializes
            // into as many rounds as the most contended bank holds
            // distinct addresses.
            distinctKeys([](const kdp::MemAccess &a) { return a.addr; });
            unsigned bank_count[32] = {};
            unsigned worst = 1;
            for (std::uint64_t addr : segs)
                worst = std::max(worst, ++bank_count[(addr / 4) % 32]);
            thruput += p.scratchAccess
                       + static_cast<double>(worst - 1)
                             * p.bankConflictExtra;
            break;
          }
          case kdp::MemSpace::Constant: {
            distinctKeys([](const kdp::MemAccess &a) { return a.addr; });
            thruput += p.constCost * static_cast<double>(segs.size());
            break;
          }
        }
        warp_thruput[warp] += thruput;
        warp_latency[warp] += latency;
    }

    // Divergent branches serialize both sides.
    ops.build(trace.branches, w);
    for (std::uint32_t warp = 0; warp < ops.groups(); ++warp)
        for (std::uint32_t op = ops.groupBegin(warp); op < ops.groupEnd(warp);
             ++op)
            if (ops.divergent(trace.branches, op))
                warp_thruput[warp] += p.divergentBranch;

    // Lock-step ALU: a warp is as slow as its busiest lane.
    for (unsigned warp = 0; warp < num_warps; ++warp) {
        std::uint64_t worst = 0;
        const std::uint32_t lo = warp * w;
        const std::uint32_t hi =
            std::min<std::uint32_t>(groupSize, lo + w);
        for (std::uint32_t lane = lo; lane < hi; ++lane)
            worst = std::max(worst, trace.laneFlops[lane]);
        warp_thruput[warp] += static_cast<double>(worst) * p.aluOp;
    }

    GpuWgCost cost;
    for (unsigned warp = 0; warp < num_warps; ++warp) {
        cost.throughputCycles += warp_thruput[warp];
        cost.latencyCycles += warp_latency[warp];
    }
    // Outstanding loads overlap within a warp (memory-level
    // parallelism); software prefetch overlaps part of what remains.
    cost.latencyCycles /= p.mlpFactor;
    if (traits.softwarePrefetch)
        cost.latencyCycles *= p.prefetchLatencyFactor;
    // Warps of one block dual-issue across the schedulers.
    const double overlap =
        std::min<double>(num_warps, p.warpSchedulers);
    cost.throughputCycles /= overlap;
    cost.latencyCycles /= overlap;
    cost.throughputCycles +=
        static_cast<double>(trace.barriers) * p.barrierCost;
    return cost;
}

} // namespace sim
} // namespace dysel
