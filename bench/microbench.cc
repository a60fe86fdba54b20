/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate itself:
 * cache model throughput, trace-replay cost models, and the event
 * engine.  These bound the wall-clock cost of the reproduction (the
 * simulated kernels execute millions of traced accesses per figure).
 */
#include <benchmark/benchmark.h>

#include "kdp/context.hh"
#include "sim/cache/cache.hh"
#include "sim/cpu/cpu_cost_model.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/event_engine.hh"
#include "sim/gpu/gpu_cost_model.hh"
#include "sim/gpu/gpu_device.hh"
#include "support/rng.hh"

using namespace dysel;
using namespace dysel::sim;

static void
BM_CacheSequentialAccess(benchmark::State &state)
{
    Cache cache({32 * 1024, 8, 64});
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheSequentialAccess);

static void
BM_CacheRandomAccess(benchmark::State &state)
{
    Cache cache({32 * 1024, 8, 64});
    support::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.next() & 0xfffff));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheRandomAccess);

/** The evaluation CPU's shared L3: 10 MiB, 20 ways, 64 B lines. */
static void
BM_CacheL3SequentialAccess(benchmark::State &state)
{
    Cache cache(CpuConfig().l3);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheL3SequentialAccess);

/** Random lines over 32 MiB: most accesses miss and walk all 20 ways. */
static void
BM_CacheL3RandomAccess(benchmark::State &state)
{
    Cache cache(CpuConfig().l3);
    support::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.next() & 0x1ffffff));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheL3RandomAccess);

static void
BM_EventEngineScheduleFire(benchmark::State &state)
{
    for (auto _ : state) {
        EventEngine engine;
        for (int i = 0; i < 1024; ++i)
            engine.schedule(static_cast<TimeNs>(i), [] {});
        engine.run();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventEngineScheduleFire);

namespace {

kdp::WorkGroupTrace
makeTrace(unsigned lanes, unsigned ops_per_lane)
{
    static kdp::Buffer<float> buf(1 << 20, kdp::MemSpace::Global, "b");
    kdp::WorkGroupTrace t;
    t.reset(lanes);
    kdp::GroupCtx g(0, lanes, 1, &t);
    for (unsigned i = 0; i < ops_per_lane; ++i)
        for (unsigned lane = 0; lane < lanes; ++lane)
            g.load(buf, (std::uint64_t{i} * lanes + lane) % (1 << 20),
                   lane);
    return t;
}

/**
 * A trace mixing every recorded op kind: per lane, a global load, a
 * constant load (one address per 8 lanes), a scratchpad store and a
 * bank-conflicting scratchpad load, and a branch whose outcome is
 * uniform on even ops and splits by lane parity on odd ones.
 */
kdp::WorkGroupTrace
makeMixedTrace(unsigned lanes, unsigned ops_per_lane)
{
    static kdp::Buffer<float> buf(1 << 20, kdp::MemSpace::Global, "b");
    static kdp::Buffer<float> cbuf(1 << 10, kdp::MemSpace::Constant, "c");
    kdp::WorkGroupTrace t;
    t.reset(lanes);
    kdp::GroupCtx g(0, lanes, 1, &t);
    const kdp::Local<float> tile = g.allocLocal<float>(lanes * 4);
    for (unsigned i = 0; i < ops_per_lane; ++i)
        for (unsigned lane = 0; lane < lanes; ++lane) {
            g.load(buf, (std::uint64_t{i} * lanes + lane) % (1 << 20), lane);
            g.load(cbuf, (i * 8 + lane / 8) % (1 << 10), lane);
            tile.set(g, lane, 1.0f, lane);
            tile.get(g, (lane * 4) % (lanes * 4), lane);
            g.branch(lane, i % 2 == 0 || lane % 2 == 0);
            g.flops(lane, 4);
        }
    return t;
}

} // namespace

static void
BM_CpuCostModelScalarReplay(benchmark::State &state)
{
    const auto trace = makeTrace(64, 256);
    CpuConfig cfg;
    CpuCoreState core(cfg.l1, cfg.l2);
    Cache l3(cfg.l3);
    kdp::VariantTraits traits;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cpuWorkGroupCycles(trace, traits, core, l3, cfg.cost));
    state.SetItemsProcessed(state.iterations() * trace.accesses.size());
}
BENCHMARK(BM_CpuCostModelScalarReplay);

static void
BM_CpuCostModelVectorReplay(benchmark::State &state)
{
    const auto trace = makeTrace(64, 256);
    CpuConfig cfg;
    CpuCoreState core(cfg.l1, cfg.l2);
    Cache l3(cfg.l3);
    kdp::VariantTraits traits;
    traits.vectorWidth = 8;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cpuWorkGroupCycles(trace, traits, core, l3, cfg.cost));
    state.SetItemsProcessed(state.iterations() * trace.accesses.size());
}
BENCHMARK(BM_CpuCostModelVectorReplay);

static void
BM_CpuCostModelVectorReplayBranches(benchmark::State &state)
{
    const auto trace = makeMixedTrace(64, 64);
    CpuConfig cfg;
    CpuCoreState core(cfg.l1, cfg.l2);
    Cache l3(cfg.l3);
    kdp::VariantTraits traits;
    traits.vectorWidth = 8;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cpuWorkGroupCycles(trace, traits, core, l3, cfg.cost));
    state.SetItemsProcessed(state.iterations() * trace.accesses.size());
}
BENCHMARK(BM_CpuCostModelVectorReplayBranches);

static void
BM_GpuCostModelWarpReplay(benchmark::State &state)
{
    const auto trace = makeTrace(64, 256);
    GpuConfig cfg;
    GpuSmState sm(cfg.tex);
    Cache l2(cfg.l2);
    kdp::VariantTraits traits;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            gpuWorkGroupCost(trace, traits, 64, sm, l2, cfg.cost));
    state.SetItemsProcessed(state.iterations() * trace.accesses.size());
}
BENCHMARK(BM_GpuCostModelWarpReplay);

static void
BM_GpuCostModelScratchConstReplay(benchmark::State &state)
{
    const auto trace = makeMixedTrace(64, 64);
    GpuConfig cfg;
    GpuSmState sm(cfg.tex);
    Cache l2(cfg.l2);
    kdp::VariantTraits traits;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            gpuWorkGroupCost(trace, traits, 64, sm, l2, cfg.cost));
    state.SetItemsProcessed(state.iterations() * trace.accesses.size());
}
BENCHMARK(BM_GpuCostModelScratchConstReplay);

static void
BM_TraceRecording(benchmark::State &state)
{
    kdp::Buffer<float> buf(1 << 16, kdp::MemSpace::Global, "b");
    kdp::WorkGroupTrace t;
    for (auto _ : state) {
        t.reset(64);
        kdp::GroupCtx g(0, 64, 1, &t);
        for (unsigned i = 0; i < 64; ++i)
            for (unsigned lane = 0; lane < 64; ++lane)
                g.load(buf, (std::uint64_t{i} * 64 + lane) % (1 << 16),
                       lane);
    }
    state.SetItemsProcessed(state.iterations() * 64 * 64);
}
BENCHMARK(BM_TraceRecording);

BENCHMARK_MAIN();
