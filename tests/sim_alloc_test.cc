/**
 * @file
 * Heap-allocation test of the steady-state work-group path.
 *
 * A launch's set-up may allocate (its ActiveLaunch, its callbacks, a
 * report's strings), but nothing per work-group may: once a device has
 * run a launch of a kernel, a further launch of it must allocate
 * exactly as often with N work-groups as with 2N.  Allocations are
 * counted through a global operator-new hook around the measured
 * launch only.  Covered: a CPU and a GPU solo launch straight on the
 * devices, and a CPU Runtime::launchFused of eight members packed
 * eight member groups to a physical group (one rebased context per
 * member group).
 */
// The replaced global operator new below is malloc-backed; GCC pairs
// it against the library operator delete at inlined call sites and
// warns spuriously -- the replacement covers both sides.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "dysel/runtime.hh"
#include "kdp/context.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/gpu/gpu_device.hh"

using namespace dysel;

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

namespace {

constexpr std::uint32_t kLanes = 8;

/** Heap allocations made while @p body runs. */
template <typename Body>
std::uint64_t
allocsDuring(Body &&body)
{
    gAllocCount = 0;
    gCountAllocs = true;
    body();
    gCountAllocs = false;
    return gAllocCount;
}

/**
 * An 8-lane kernel touching every recorded op kind: a load, a branch,
 * ALU work, a scratchpad round trip and a store per lane.  One unit
 * per group.  Arguments: (in, out, units).
 */
kdp::KernelVariant
tinyKernel()
{
    kdp::KernelVariant v;
    v.name = "tiny";
    v.groupSize = kLanes;
    v.waFactor = 1;
    v.traits.scratchBytes = kLanes * sizeof(float);
    v.fn = [](kdp::GroupCtx &g, const kdp::KernelArgs &a) {
        const auto &in = a.buf<float>(0);
        auto &out = a.buf<float>(1);
        const auto units = static_cast<std::uint64_t>(a.scalarInt(2));
        const std::uint64_t u = g.unitBase();
        if (u >= units)
            return;
        const kdp::Local<float> tile = g.allocLocal<float>(kLanes);
        for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
            const std::uint64_t i = u * kLanes + lane;
            const float x = g.load(in, i, lane);
            g.branch(lane, i % 2 == 0);
            g.flops(lane, 3);
            tile.set(g, lane, x + 1.0f, lane);
        }
        g.barrier();
        for (std::uint32_t lane = 0; lane < kLanes; ++lane)
            g.store(out, u * kLanes + lane, tile.get(g, lane, lane), lane);
    };
    return v;
}

/** Input and output of @p units units, with their argument list. */
struct Job
{
    kdp::Buffer<float> in, out;
    kdp::KernelArgs args;

    explicit Job(std::uint64_t units)
        : in(units * kLanes, kdp::MemSpace::Global, "in"),
          out(units * kLanes, kdp::MemSpace::Global, "out")
    {
        args.add(in).add(out).add(static_cast<std::int64_t>(units));
    }

    bool
    correct() const
    {
        for (std::uint64_t i = 0; i < in.size(); ++i)
            if (out.at(i) != in.at(i) + 1.0f)
                return false;
        return true;
    }
};

/**
 * Allocations of one solo launch of @p groups groups of @p v on
 * @p dev, run to completion.
 */
std::uint64_t
soloLaunchAllocs(sim::Device &dev, const kdp::KernelVariant &v, Job &job,
                 std::uint64_t groups)
{
    bool done = false;
    sim::Launch launch;
    launch.variant = &v;
    launch.args = job.args;
    launch.numGroups = groups;
    launch.onComplete = [&done](const sim::LaunchStats &) { done = true; };
    const std::uint64_t n = allocsDuring([&] {
        dev.submit(std::move(launch));
        dev.run();
    });
    EXPECT_TRUE(done);
    return n;
}

void
expectSoloSteadyState(sim::Device &dev)
{
    const kdp::KernelVariant v = tinyKernel();
    constexpr std::uint64_t kGroups = 64;
    Job job(2 * kGroups);
    // Warm-up: sizes the trace, the replay buffers, the event queue
    // and the dispatch queue for the larger launch.
    soloLaunchAllocs(dev, v, job, 2 * kGroups);
    const std::uint64_t small = soloLaunchAllocs(dev, v, job, kGroups);
    const std::uint64_t large = soloLaunchAllocs(dev, v, job, 2 * kGroups);
    EXPECT_TRUE(job.correct());
    EXPECT_EQ(small, large) << "allocations grow with the work-group count";
}

/** Allocations of one launchFused of eight members of @p units each. */
std::uint64_t
fusedLaunchAllocs(runtime::Runtime &rt, std::vector<std::unique_ptr<Job>> &jobs,
                  std::uint64_t units)
{
    std::vector<runtime::FusedSlice> slices;
    for (auto &job : jobs)
        slices.push_back({&job->args, units, 0});
    runtime::LaunchReport report;
    support::Status st;
    const std::uint64_t n = allocsDuring([&] {
        st = rt.launchFused("tiny", 0, slices, runtime::LaunchOptions(),
                            report);
    });
    EXPECT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(report.fusedJobs, jobs.size());
    return n;
}

} // namespace

TEST(SimAlloc, CpuSoloLaunchAllocatesNothingPerGroup)
{
    sim::CpuDevice dev;
    expectSoloSteadyState(dev);
}

TEST(SimAlloc, GpuSoloLaunchAllocatesNothingPerGroup)
{
    sim::GpuDevice dev;
    expectSoloSteadyState(dev);
}

TEST(SimAlloc, CpuFusedLaunchAllocatesNothingPerGroup)
{
    sim::CpuDevice dev;
    runtime::Runtime rt(dev);
    rt.addKernel("tiny", tinyKernel());
    constexpr std::uint64_t kUnits = 32;
    std::vector<std::unique_ptr<Job>> jobs;
    for (int m = 0; m < 8; ++m)
        jobs.push_back(std::make_unique<Job>(2 * kUnits));
    fusedLaunchAllocs(rt, jobs, 2 * kUnits);
    const std::uint64_t small = fusedLaunchAllocs(rt, jobs, kUnits);
    const std::uint64_t large = fusedLaunchAllocs(rt, jobs, 2 * kUnits);
    for (const auto &job : jobs)
        EXPECT_TRUE(job->correct());
    EXPECT_EQ(small, large) << "allocations grow with the work-group count";
}
