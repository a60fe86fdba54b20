/**
 * @file
 * Equivalence and allocation tests of the trace-replay cost models.
 *
 * The reference below is the hash-map replay the cost models used
 * before the dense op index (OpIndex), kept frozen: seeded random
 * traces go through it and through cpuWorkGroupCycles /
 * gpuWorkGroupCost on twin cache states, and every returned double
 * must match bit for bit, as must the caches' counters afterwards.
 * The traces cover all four memory spaces, atomics, loadSpan widths,
 * uneven per-lane sequence counts, group sizes that are not a multiple
 * of the warp size, mixed and uniform branches, vector widths 1-16 and
 * software prefetch.  A second test asserts that steady-state replay
 * performs no heap allocation, through a global operator-new hook.
 */
// The replaced global operator new below is malloc-backed; GCC pairs
// it against the library operator delete at inlined call sites and
// warns spuriously -- the replacement covers both sides.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/cpu/cpu_device.hh"
#include "sim/gpu/gpu_device.hh"
#include "support/rng.hh"

// ---- operator-new hook ----------------------------------------------

namespace {
bool gCountAllocs = false;
std::uint64_t gAllocCount = 0;
} // namespace

void *
operator new(std::size_t sz)
{
    if (gCountAllocs)
        ++gAllocCount;
    if (void *p = std::malloc(sz ? sz : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t sz)
{
    if (gCountAllocs)
        ++gAllocCount;
    if (void *p = std::malloc(sz ? sz : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

// ---- frozen reference -----------------------------------------------

namespace dysel {
namespace sim {
namespace ref {
namespace cpu {

namespace {

/** Cost of one scalar access through the L1/L2/L3 hierarchy. */
double
hierarchyCost(std::uint64_t addr, CpuCoreState &core, Cache &l3,
              const CpuCostParams &p)
{
    if (core.l1.access(addr))
        return p.l1Hit;
    if (core.l2.access(addr))
        return p.l2Hit;
    if (l3.access(addr))
        return p.l3Hit;
    return p.memAccess;
}

/** Scalar replay: every access pays its own hierarchy cost. */
double
scalarCost(const kdp::WorkGroupTrace &trace, CpuCoreState &core, Cache &l3,
           const CpuCostParams &p)
{
    double cycles = 0.0;
    for (const auto &a : trace.accesses) {
        cycles += p.memIssue + hierarchyCost(a.addr, core, l3, p);
        if (a.space == kdp::MemSpace::Scratchpad)
            cycles += p.scratchLowerExtra;
    }
    cycles += static_cast<double>(trace.totalFlops()) * p.aluOp;
    return cycles;
}

/** Key identifying one vector machine op: (lane group, op seq). */
struct OpKey
{
    std::uint32_t laneGroup;
    std::uint32_t seq;

    bool operator==(const OpKey &o) const
    {
        return laneGroup == o.laneGroup && seq == o.seq;
    }
};

struct OpKeyHash
{
    std::size_t
    operator()(const OpKey &k) const
    {
        return (static_cast<std::size_t>(k.laneGroup) << 32) ^ k.seq;
    }
};

/**
 * Vectorized replay.  Accesses with the same per-lane sequence number
 * inside a group of @p w adjacent lanes form one SIMD memory op:
 * contiguous ops touch the hierarchy once per distinct line,
 * non-contiguous ops pay every element plus a gather penalty.
 */
double
vectorCost(const kdp::WorkGroupTrace &trace,
           const kdp::VariantTraits &traits, CpuCoreState &core, Cache &l3,
           const CpuCostParams &p)
{
    const unsigned w = traits.vectorWidth;

    // Bucket access indices by machine op.
    std::unordered_map<OpKey, std::vector<std::uint32_t>, OpKeyHash> ops;
    ops.reserve(trace.accesses.size() / w + 1);
    for (std::uint32_t i = 0; i < trace.accesses.size(); ++i) {
        const auto &a = trace.accesses[i];
        ops[{a.lane / w, a.seq}].push_back(i);
    }

    // Emit machine ops in first-touch order to approximate the real
    // interleaving for the cache model.
    std::vector<bool> emitted(trace.accesses.size(), false);
    double cycles = 0.0;
    std::vector<std::uint64_t> addrs;
    for (std::uint32_t i = 0; i < trace.accesses.size(); ++i) {
        if (emitted[i])
            continue;
        const auto &a = trace.accesses[i];
        const auto &members = ops[{a.lane / w, a.seq}];
        addrs.clear();
        for (std::uint32_t m : members) {
            emitted[m] = true;
            addrs.push_back(trace.accesses[m].addr);
        }
        if (a.space == kdp::MemSpace::Scratchpad)
            cycles += p.scratchLowerExtra
                      * static_cast<double>(members.size());
        std::sort(addrs.begin(), addrs.end());

        bool broadcast = true;
        for (std::size_t k = 1; broadcast && k < addrs.size(); ++k)
            broadcast = addrs[k] == addrs[0];

        bool contiguous = addrs.size() == w;
        for (std::size_t k = 1; contiguous && k < addrs.size(); ++k)
            contiguous = addrs[k] - addrs[k - 1] == a.bytes;

        if (broadcast) {
            // All lanes read the same element: one scalar load plus a
            // register splat.
            cycles += p.memIssue + hierarchyCost(addrs[0], core, l3, p);
        } else if (contiguous) {
            // One wide access: touch each distinct line once.
            const std::uint64_t line = core.l1.lineSize();
            double worst = 0.0;
            std::uint64_t prev_line = ~std::uint64_t{0};
            for (std::uint64_t addr : addrs) {
                const std::uint64_t ln = addr / line;
                if (ln == prev_line)
                    continue;
                prev_line = ln;
                worst = std::max(worst,
                                 hierarchyCost(addr, core, l3, p));
            }
            cycles += p.memIssue + worst;
        } else {
            // Gather/scatter: every element pays, plus packing
            // overhead that grows with the SIMD width.
            double sum = 0.0;
            for (std::uint64_t addr : addrs)
                sum += hierarchyCost(addr, core, l3, p);
            cycles += p.memIssue * addrs.size()
                      + sum * (p.gatherFactor
                               + p.gatherWidthFactor
                                     * static_cast<double>(w));
        }
    }

    // Divergence: branch groups with mixed outcomes cost masking work
    // proportional to the SIMD width.
    std::unordered_map<OpKey, std::pair<bool, bool>, OpKeyHash> branch;
    branch.reserve(trace.branches.size() / w + 1);
    for (const auto &b : trace.branches) {
        auto &[saw_taken, saw_not] = branch[{b.lane / w, b.seq}];
        (b.taken ? saw_taken : saw_not) = true;
    }
    std::uint64_t divergent = 0;
    for (const auto &[key, outcome] : branch)
        if (outcome.first && outcome.second)
            ++divergent;
    // Masking waste grows superlinearly with the SIMD width: the
    // number of divergent groups roughly halves when the width
    // doubles, so a linear-in-w cost would be width-invariant; the
    // quadratic term models the growing fraction of wasted lanes per
    // divergent region.
    cycles += static_cast<double>(divergent) * p.divergeMaskCost
              * static_cast<double>(w) * static_cast<double>(w) / 4.0;

    // ALU work shrinks by the vector width.
    cycles += static_cast<double>(trace.totalFlops()) * p.aluOp
              / static_cast<double>(w);
    return cycles;
}

} // namespace

double
cpuWorkGroupCycles(const kdp::WorkGroupTrace &trace,
                   const kdp::VariantTraits &traits, CpuCoreState &core,
                   Cache &l3, const CpuCostParams &params)
{
    double cycles = traits.vectorWidth <= 1
                        ? scalarCost(trace, core, l3, params)
                        : vectorCost(trace, traits, core, l3, params);
    if (traits.softwarePrefetch)
        cycles += params.prefetchOverhead
                  * static_cast<double>(trace.accesses.size());
    return cycles;
}

} // namespace cpu

namespace gpu {

namespace {

struct OpKey
{
    std::uint32_t warp;
    std::uint32_t seq;

    bool operator==(const OpKey &o) const
    {
        return warp == o.warp && seq == o.seq;
    }
};

struct OpKeyHash
{
    std::size_t
    operator()(const OpKey &k) const
    {
        return (static_cast<std::size_t>(k.warp) << 32) ^ k.seq;
    }
};

} // namespace

GpuWgCost
gpuWorkGroupCost(const kdp::WorkGroupTrace &trace,
                 const kdp::VariantTraits &traits, std::uint32_t groupSize,
                 GpuSmState &sm, Cache &l2, const GpuCostParams &p)
{
    const unsigned w = p.warpSize;
    const unsigned num_warps = (groupSize + w - 1) / w;

    // Bucket the accesses into warp instructions.
    std::unordered_map<OpKey, std::vector<std::uint32_t>, OpKeyHash> ops;
    ops.reserve(trace.accesses.size() / w + 1);
    for (std::uint32_t i = 0; i < trace.accesses.size(); ++i) {
        const auto &a = trace.accesses[i];
        ops[{a.lane / w, a.seq}].push_back(i);
    }

    std::vector<double> warp_thruput(num_warps, 0.0);
    std::vector<double> warp_latency(num_warps, 0.0);

    // Walk instructions in first-touch order for the caches.
    std::vector<bool> emitted(trace.accesses.size(), false);
    std::vector<std::uint64_t> segs;
    for (std::uint32_t i = 0; i < trace.accesses.size(); ++i) {
        if (emitted[i])
            continue;
        const auto &first = trace.accesses[i];
        const unsigned warp = first.lane / w;
        const auto &members = ops[{warp, first.seq}];

        double thruput = p.issueOp;
        double latency = 0.0;
        switch (first.space) {
          case kdp::MemSpace::Global: {
            segs.clear();
            bool any_atomic = false;
            for (std::uint32_t m : members) {
                emitted[m] = true;
                segs.push_back(trace.accesses[m].addr / p.segmentBytes);
                any_atomic |= trace.accesses[m].atomic;
            }
            std::sort(segs.begin(), segs.end());
            segs.erase(std::unique(segs.begin(), segs.end()), segs.end());
            bool all_hit = true;
            for (std::uint64_t s : segs) {
                const bool hit = l2.access(s * p.segmentBytes);
                all_hit &= hit;
                thruput += hit ? p.txHitCost : p.txCost;
            }
            latency += all_hit ? p.l2HitLatency : p.memLatency;
            if (any_atomic)
                thruput += p.atomicPerLane
                           * static_cast<double>(members.size());
            break;
          }
          case kdp::MemSpace::Texture: {
            segs.clear();
            for (std::uint32_t m : members) {
                emitted[m] = true;
                segs.push_back(trace.accesses[m].addr / 32);
            }
            std::sort(segs.begin(), segs.end());
            segs.erase(std::unique(segs.begin(), segs.end()), segs.end());
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
            // into as many rounds as the most contended bank.
            std::unordered_map<unsigned, unsigned> bank_count;
            std::unordered_set<std::uint64_t> distinct;
            for (std::uint32_t m : members) {
                emitted[m] = true;
                const std::uint64_t addr = trace.accesses[m].addr;
                if (distinct.insert(addr).second)
                    ++bank_count[(addr / 4) % 32];
            }
            unsigned worst = 1;
            for (const auto &[bank, cnt] : bank_count)
                worst = std::max(worst, cnt);
            thruput += p.scratchAccess
                       + static_cast<double>(worst - 1)
                             * p.bankConflictExtra;
            break;
          }
          case kdp::MemSpace::Constant: {
            std::unordered_set<std::uint64_t> distinct;
            for (std::uint32_t m : members) {
                emitted[m] = true;
                distinct.insert(trace.accesses[m].addr);
            }
            thruput += p.constCost * static_cast<double>(distinct.size());
            break;
          }
        }
        warp_thruput[warp] += thruput;
        warp_latency[warp] += latency;
    }

    // Divergent branches serialize both sides.
    std::unordered_map<OpKey, std::pair<bool, bool>, OpKeyHash> branch;
    branch.reserve(trace.branches.size() / w + 1);
    for (const auto &b : trace.branches) {
        auto &[saw_taken, saw_not] = branch[{b.lane / w, b.seq}];
        (b.taken ? saw_taken : saw_not) = true;
    }
    for (const auto &[key, outcome] : branch)
        if (outcome.first && outcome.second)
            warp_thruput[key.warp] += p.divergentBranch;

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

} // namespace gpu
} // namespace ref
} // namespace sim
} // namespace dysel

// ---- random traces --------------------------------------------------

namespace {

using namespace dysel;
using namespace dysel::sim;

/** One machine op of a random trace, shared by all lanes at a seq. */
struct OpShape
{
    kdp::MemSpace space;
    std::uint16_t bytes;    ///< 4 (scalar) or a loadSpan width
    unsigned pattern;       ///< 0 contiguous, 1 broadcast, 2 strided, 3 random
    bool atomic;
    std::uint64_t base;
};

/** Visit lanes with @p count[lane] events each, interleaved at random
 *  while every lane's own events stay in sequence order. */
template <typename Fn>
void
interleave(support::Rng &rng, const std::vector<std::uint32_t> &count, Fn fn)
{
    std::vector<std::uint32_t> live, done(count.size(), 0);
    for (std::uint32_t lane = 0; lane < count.size(); ++lane)
        if (count[lane] > 0)
            live.push_back(lane);
    while (!live.empty()) {
        const std::size_t k = rng.nextBelow(live.size());
        const std::uint32_t lane = live[k];
        fn(lane, done[lane]++);
        if (done[lane] == count[lane]) {
            live[k] = live.back();
            live.pop_back();
        }
    }
}

kdp::WorkGroupTrace
randomTrace(support::Rng &rng, std::uint32_t group_size)
{
    static constexpr kdp::MemSpace spaces[] = {
        kdp::MemSpace::Global, kdp::MemSpace::Texture,
        kdp::MemSpace::Scratchpad, kdp::MemSpace::Constant};
    static constexpr std::uint16_t widths[] = {4, 4, 8, 16, 32};

    kdp::WorkGroupTrace t;
    t.reset(group_size);

    std::vector<OpShape> shapes(1 + rng.nextBelow(24));
    for (OpShape &s : shapes) {
        s.space = spaces[rng.nextBelow(4)];
        s.bytes = widths[rng.nextBelow(5)];
        s.pattern = static_cast<unsigned>(rng.nextBelow(4));
        s.atomic = s.space == kdp::MemSpace::Global && rng.nextBool(0.15);
        s.base = 0x10000 * (1 + rng.nextBelow(64)) + 4 * rng.nextBelow(64);
    }
    std::vector<std::uint32_t> count(group_size);
    for (auto &c : count)
        c = static_cast<std::uint32_t>(rng.nextBelow(shapes.size() + 1));
    interleave(rng, count, [&](std::uint32_t lane, std::uint32_t seq) {
        const OpShape &s = shapes[seq];
        std::uint64_t addr = s.base;
        switch (s.pattern) {
          case 0: // contiguous, now and then broken by one stray lane
            addr += std::uint64_t{lane} * s.bytes;
            if (rng.nextBool(0.05))
                addr += 4096;
            break;
          case 1:
            break;
          case 2:
            addr += std::uint64_t{lane} * s.bytes * 17;
            break;
          default:
            addr += 4 * rng.nextBelow(1 << 14);
        }
        t.accesses.push_back({addr, lane, seq, s.bytes, s.space,
                              s.atomic || rng.nextBool(0.2), s.atomic});
    });

    // Branches: at each seq either every lane agrees or each lane draws.
    std::vector<int> outcome(1 + rng.nextBelow(8));
    for (int &o : outcome)
        o = static_cast<int>(rng.nextBelow(3)); // 0/1 uniform, 2 mixed
    std::vector<std::uint32_t> branches(group_size);
    for (auto &c : branches)
        c = static_cast<std::uint32_t>(rng.nextBelow(outcome.size() + 1));
    interleave(rng, branches, [&](std::uint32_t lane, std::uint32_t seq) {
        const bool taken =
            outcome[seq] == 2 ? rng.nextBool(0.5) : outcome[seq] == 1;
        t.branches.push_back({lane, seq, taken});
    });

    for (auto &f : t.laneFlops)
        f = rng.nextBelow(1000);
    t.barriers = static_cast<std::uint32_t>(rng.nextBelow(4));
    return t;
}

/** Group sizes, several of them not a multiple of the warp size. */
std::uint32_t
randomGroupSize(support::Rng &rng)
{
    static constexpr std::uint32_t sizes[] = {1, 7, 32, 33, 64, 100, 256};
    return sizes[rng.nextBelow(std::size(sizes))];
}

kdp::VariantTraits
randomTraits(support::Rng &rng)
{
    kdp::VariantTraits traits;
    traits.vectorWidth = 1u << rng.nextBelow(5); // 1, 2, 4, 8, 16
    traits.softwarePrefetch = rng.nextBool(0.5);
    return traits;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectSameCounters(const Cache &got, const Cache &want)
{
    EXPECT_EQ(got.accesses(), want.accesses());
    EXPECT_EQ(got.misses(), want.misses());
}

} // namespace

TEST(CostModel, CpuReplayMatchesFrozenReference)
{
    support::Rng rng(0xc057);
    const CpuConfig cfg;
    CpuCoreState core(cfg.l1, cfg.l2), ref_core(cfg.l1, cfg.l2);
    Cache l3(cfg.l3), ref_l3(cfg.l3);
    for (int i = 0; i < 600; ++i) {
        const kdp::WorkGroupTrace trace =
            randomTrace(rng, randomGroupSize(rng));
        const kdp::VariantTraits traits = randomTraits(rng);
        const double got =
            cpuWorkGroupCycles(trace, traits, core, l3, cfg.cost);
        const double want = ref::cpu::cpuWorkGroupCycles(
            trace, traits, ref_core, ref_l3, cfg.cost);
        ASSERT_TRUE(sameBits(got, want))
            << "trace " << i << " width " << traits.vectorWidth << ": "
            << got << " vs reference " << want;
    }
    expectSameCounters(core.l1, ref_core.l1);
    expectSameCounters(core.l2, ref_core.l2);
    expectSameCounters(l3, ref_l3);
    EXPECT_GT(l3.misses(), 0u);
}

TEST(CostModel, GpuReplayMatchesFrozenReference)
{
    support::Rng rng(0x6057);
    const GpuConfig cfg;
    GpuSmState sm(cfg.tex), ref_sm(cfg.tex);
    Cache l2(cfg.l2), ref_l2(cfg.l2);
    for (int i = 0; i < 600; ++i) {
        const std::uint32_t group_size = randomGroupSize(rng);
        const kdp::WorkGroupTrace trace = randomTrace(rng, group_size);
        const kdp::VariantTraits traits = randomTraits(rng);
        const GpuWgCost got =
            gpuWorkGroupCost(trace, traits, group_size, sm, l2, cfg.cost);
        const GpuWgCost want = ref::gpu::gpuWorkGroupCost(
            trace, traits, group_size, ref_sm, ref_l2, cfg.cost);
        ASSERT_TRUE(sameBits(got.throughputCycles, want.throughputCycles))
            << "trace " << i << ": " << got.throughputCycles
            << " vs reference " << want.throughputCycles;
        ASSERT_TRUE(sameBits(got.latencyCycles, want.latencyCycles))
            << "trace " << i << ": " << got.latencyCycles
            << " vs reference " << want.latencyCycles;
    }
    expectSameCounters(sm.texCache, ref_sm.texCache);
    expectSameCounters(l2, ref_l2);
    EXPECT_GT(l2.misses(), 0u);
}

TEST(CostModel, SteadyStateReplayAllocatesNothing)
{
    support::Rng rng(0xa110c);
    struct Sample
    {
        kdp::WorkGroupTrace trace;
        kdp::VariantTraits traits;
        std::uint32_t groupSize;
    };
    std::vector<Sample> samples;
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t group_size = randomGroupSize(rng);
        samples.push_back(
            {randomTrace(rng, group_size), randomTraits(rng), group_size});
    }
    const CpuConfig cpu;
    const GpuConfig gpu;
    CpuCoreState core(cpu.l1, cpu.l2);
    Cache l3(cpu.l3);
    GpuSmState sm(gpu.tex);
    Cache l2(gpu.l2);
    double sink = 0;
    auto pass = [&] {
        for (const Sample &s : samples) {
            sink += cpuWorkGroupCycles(s.trace, s.traits, core, l3, cpu.cost);
            sink += gpuWorkGroupCost(s.trace, s.traits, s.groupSize, sm, l2,
                                     gpu.cost)
                        .throughputCycles;
        }
    };
    pass(); // warm-up: the replay buffers reach their working size
    gAllocCount = 0;
    gCountAllocs = true;
    pass();
    gCountAllocs = false;
    EXPECT_EQ(gAllocCount, 0u);
    EXPECT_GT(sink, 0.0);
}
