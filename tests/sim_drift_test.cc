/**
 * @file
 * Virtual-time drift guard for the simulator core.
 *
 * Runs a fixed list of DySel rows, each trimmed to its profiled first
 * iteration, under Sync and Async orchestration on fresh evaluation
 * devices, and compares every run with a golden: the selected variant,
 * the elapsed virtual time and the output check.  The rows cover the
 * scalar and vector CPU replays and the GPU global, texture,
 * scratchpad and constant paths.  A host-side change to the cache or
 * the cost models must leave every number here unchanged; a change
 * that moves virtual time on purpose updates the goldens and says so;
 * every run prints its golden line in the table's format.
 *
 * One more row pins Runtime::launchFused: eight members of a tiny
 * vector kernel packed eight member groups to a physical group, each
 * member group on a rebased context whose per-lane sequence numbers
 * restart at 0, on a fresh CPU device.
 *
 * Device addresses come from one process-wide counter, so a run's
 * virtual time depends on every buffer allocated before it.  The rows
 * therefore run in one test, in a fixed order (the fused row last),
 * and nothing else in this binary allocates device buffers.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dysel/runtime.hh"
#include "kdp/context.hh"
#include "workloads/devices.hh"
#include "workloads/evaluate.hh"
#include "workloads/particlefilter.hh"
#include "workloads/sgemm.hh"
#include "workloads/spmv_csr.hh"
#include "workloads/spmv_jds.hh"

using namespace dysel;
using runtime::Orchestration;
using workloads::SpmvInput;
using workloads::Workload;

namespace {

struct Row
{
    const char *name;
    bool gpu;
    std::function<Workload()> make;
};

struct Golden
{
    const char *row;
    Orchestration orch;
    const char *selected;
    sim::TimeNs virtualNs;
};

const std::vector<Row> &
rows()
{
    static const std::vector<Row> r = {
        {"cpu:spmv-csr(random)", false,
         [] { return workloads::makeSpmvCsrCpuLc(SpmvInput::Random); }},
        {"cpu:spmv-jds(vector)", false,
         [] { return workloads::makeSpmvJdsVectorCpu(); }},
        {"cpu:sgemm(vector)", false,
         [] { return workloads::makeSgemmVectorCpu(64, 64, 64); }},
        {"gpu:spmv-csr(placement)", true,
         [] { return workloads::makeSpmvCsrGpuPlacement(); }},
        {"gpu:particlefilter", true,
         [] { return workloads::makeParticleFilterGpu(); }},
        {"gpu:spmv-csr(random)", true,
         [] { return workloads::makeSpmvCsrGpuInputDep(SpmvInput::Random); }},
        {"gpu:sgemm(mixed)", true,
         [] { return workloads::makeSgemmMixed(64, 64, 64); }},
    };
    return r;
}

/** Captured on the exact-LRU timestamp cache and hash-map replay. */
const std::vector<Golden> goldens = {
    {"cpu:spmv-csr(random)", Orchestration::Sync, "scalar-dfo", 366036},
    {"cpu:spmv-csr(random)", Orchestration::Async, "scalar-dfo", 367126},
    {"cpu:spmv-jds(vector)", Orchestration::Sync, "4-way", 933799},
    {"cpu:spmv-jds(vector)", Orchestration::Async, "4-way", 940031},
    {"cpu:sgemm(vector)", Orchestration::Sync, "scalar", 54676},
    {"cpu:sgemm(vector)", Orchestration::Async, "scalar", 54676},
    {"gpu:spmv-csr(placement)", Orchestration::Sync, "porple-fermi", 2324480},
    {"gpu:spmv-csr(placement)", Orchestration::Async, "porple-fermi", 2300661},
    {"gpu:particlefilter", Orchestration::Sync, "porple-b", 1474682},
    {"gpu:particlefilter", Orchestration::Async, "porple-b", 1456219},
    {"gpu:spmv-csr(random)", Orchestration::Sync, "vector", 707653},
    {"gpu:spmv-csr(random)", Orchestration::Async, "vector", 807730},
    {"gpu:sgemm(mixed)", Orchestration::Sync, "base", 32536},
    {"gpu:sgemm(mixed)", Orchestration::Async, "base", 32536},
};

/** The fused row's golden virtual ns, captured before kdp::GroupCtx
 *  took its lane counters from the trace. */
constexpr sim::TimeNs kFusedGoldenNs = 6254;

/** Member count and per-member units of the fused row. */
constexpr std::size_t kFusedMembers = 8;

std::uint64_t
fusedUnits(std::size_t member)
{
    return 20 + 3 * member;
}

/**
 * The fused row's kernel: one unit per 8-lane group (pack 8), 4-wide
 * vector traits, so the replay merges ops by (lane / 4, seq).  Per
 * lane it loads, branches, round-trips a zero-filled scratchpad slot,
 * and stores.  Arguments: (in, out, units).
 */
kdp::KernelVariant
fusedKernel()
{
    kdp::KernelVariant v;
    v.name = "fused-vec4";
    v.groupSize = 8;
    v.waFactor = 1;
    v.traits.vectorWidth = 4;
    v.traits.scratchBytes = 8 * sizeof(float);
    v.fn = [](kdp::GroupCtx &g, const kdp::KernelArgs &a) {
        const auto &in = a.buf<float>(0);
        auto &out = a.buf<float>(1);
        const auto units = static_cast<std::uint64_t>(a.scalarInt(2));
        const std::uint64_t u = g.unitBase();
        if (u >= units)
            return;
        const kdp::Local<float> tile = g.allocLocal<float>(8);
        for (std::uint32_t lane = 0; lane < 8; ++lane) {
            const std::uint64_t i = u * 8 + lane;
            const float x = g.load(in, i, lane);
            g.branch(lane, i % 3 == 0);
            g.flops(lane, 2);
            tile.set(g, lane, tile.get(g, lane, lane) + x, lane);
        }
        for (std::uint32_t lane = 0; lane < 8; ++lane) {
            const std::uint64_t i = u * 8 + lane;
            g.store(out, i, 2.0f * tile.get(g, 7 - lane, lane) + 1.0f,
                    lane);
        }
    };
    return v;
}

/** Run the fused row; returns the launch's virtual ns. */
sim::TimeNs
runFusedRow(bool &outputs_ok)
{
    std::unique_ptr<sim::Device> dev = workloads::cpuFactory()();
    runtime::Runtime rt(*dev);
    rt.addKernel("drift-fused", fusedKernel());

    std::vector<std::unique_ptr<kdp::Buffer<float>>> ins, outs;
    std::vector<kdp::KernelArgs> args(kFusedMembers);
    std::vector<runtime::FusedSlice> slices;
    for (std::size_t m = 0; m < kFusedMembers; ++m) {
        const std::uint64_t n = fusedUnits(m) * 8;
        ins.push_back(std::make_unique<kdp::Buffer<float>>(
            n, kdp::MemSpace::Global, "in"));
        outs.push_back(std::make_unique<kdp::Buffer<float>>(
            n, kdp::MemSpace::Global, "out"));
        for (std::uint64_t i = 0; i < n; ++i)
            ins[m]->at(i) = static_cast<float>(i % 13 + m);
        args[m].add(*ins[m]);
        args[m].add(*outs[m]);
        args[m].add(static_cast<std::int64_t>(fusedUnits(m)));
        slices.push_back({&args[m], fusedUnits(m), 0});
    }

    runtime::LaunchReport report;
    const support::Status st = rt.launchFused(
        "drift-fused", 0, slices, runtime::LaunchOptions(), report);
    outputs_ok = st.ok();
    for (std::size_t m = 0; m < kFusedMembers && outputs_ok; ++m)
        for (std::uint64_t i = 0; i < fusedUnits(m) * 8; ++i) {
            const std::uint64_t src = (i / 8) * 8 + (7 - i % 8);
            if (outs[m]->at(i) != 2.0f * ins[m]->at(src) + 1.0f)
                outputs_ok = false;
        }
    return report.elapsed();
}

const char *
orchName(Orchestration o)
{
    return o == Orchestration::Sync ? "Sync" : "Async";
}

} // namespace

TEST(SimDrift, VirtualTimeMatchesGoldens)
{
    std::size_t next = 0;
    for (const Row &row : rows()) {
        Workload w = row.make();
        w.iterations = 1;
        for (Orchestration orch : {Orchestration::Sync, Orchestration::Async}) {
            runtime::LaunchOptions opt;
            opt.orch = orch;
            const workloads::DyselRun run = workloads::runDysel(
                row.gpu ? workloads::gpuFactory() : workloads::cpuFactory(),
                w, opt);
            std::printf("    {\"%s\", Orchestration::%s, \"%s\", %llu},\n",
                        row.name, orchName(orch),
                        run.firstIteration.selectedName.c_str(),
                        static_cast<unsigned long long>(run.elapsed));
            EXPECT_TRUE(run.ok) << row.name << " " << orchName(orch);
            ASSERT_LT(next, goldens.size()) << "no golden for " << row.name;
            const Golden &g = goldens[next++];
            EXPECT_STREQ(g.row, row.name);
            EXPECT_EQ(g.orch, orch);
            EXPECT_EQ(run.firstIteration.selectedName, g.selected)
                << row.name << " " << orchName(orch);
            EXPECT_EQ(run.elapsed, g.virtualNs)
                << row.name << " " << orchName(orch);
        }
    }
    EXPECT_EQ(next, goldens.size());

    bool fused_ok = false;
    const sim::TimeNs fused_ns = runFusedRow(fused_ok);
    std::printf("    fused row: %llu virtual ns\n",
                static_cast<unsigned long long>(fused_ns));
    EXPECT_TRUE(fused_ok);
    EXPECT_EQ(fused_ns, kFusedGoldenNs);
}
