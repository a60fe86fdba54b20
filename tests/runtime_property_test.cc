/**
 * @file
 * Property sweeps over the DySel runtime: for every combination of
 * profiling mode, orchestration, device kind, and work-assignment
 * pairing, the runtime must (a) cover every workload unit exactly
 * once in the final output, (b) select the genuinely faster variant,
 * and (c) respect the Table 1 space bounds.  Parameterized gtest
 * keeps each combination an individually reported test.
 */
#include <gtest/gtest.h>

#include "dysel/runtime.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/gpu/gpu_device.hh"

using namespace dysel;
using namespace dysel::runtime;

namespace {

constexpr std::uint32_t laneCount = 16;

/** Marker kernel: out[unit] = marker; `cost` ALU ops per unit. */
kdp::KernelVariant
markerKernel(const char *name, std::int32_t marker, std::uint64_t cost,
             std::uint64_t waf)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = laneCount;
    v.waFactor = waf;
    v.sandboxIndex = {0};
    v.fn = [marker, cost](kdp::GroupCtx &g, const kdp::KernelArgs &args) {
        auto &out = args.buf<std::int32_t>(0);
        const auto units = static_cast<std::uint64_t>(args.scalarInt(1));
        for (std::uint64_t u = g.unitBase();
             u < g.unitBase() + g.waFactor(); ++u) {
            if (u >= units)
                break;
            const auto lane = static_cast<std::uint32_t>(u % laneCount);
            g.store(out, u, marker, lane);
            g.flops(lane, cost);
        }
    };
    return v;
}

struct Combo
{
    ProfilingMode mode;
    Orchestration orch;
    bool gpu;
    std::uint64_t wafSlow;
    std::uint64_t wafFast;
};

std::string
comboName(const ::testing::TestParamInfo<Combo> &info)
{
    const Combo &c = info.param;
    std::string s = compiler::profilingModeName(c.mode);
    s += std::string("_") + orchestrationName(c.orch);
    s += c.gpu ? "_gpu" : "_cpu";
    s += "_waf" + std::to_string(c.wafSlow) + "x"
         + std::to_string(c.wafFast);
    for (char &ch : s)
        if (ch == '-')
            ch = '_';
    return s;
}

class RuntimeSweep : public ::testing::TestWithParam<Combo>
{
};

} // namespace

TEST_P(RuntimeSweep, CoverageSelectionAndSpaceBounds)
{
    const Combo c = GetParam();

    std::unique_ptr<sim::Device> device;
    if (c.gpu)
        device = std::make_unique<sim::GpuDevice>();
    else
        device = std::make_unique<sim::CpuDevice>();
    Runtime rt(*device);

    rt.addKernel("k", markerKernel("slow", 1, 3000, c.wafSlow));
    rt.addKernel("k", markerKernel("fast", 2, 100, c.wafFast));

    constexpr std::uint64_t units = 4096;
    kdp::Buffer<std::int32_t> out(units, kdp::MemSpace::Global, "out");
    out.fill(-1);
    kdp::KernelArgs args;
    args.add(out).add(static_cast<std::int64_t>(units));

    LaunchOptions opt;
    opt.mode = c.mode;
    opt.orch = c.orch;
    const auto report = rt.launchKernel("k", units, args, opt);

    // (b) The faster variant wins in every configuration.
    EXPECT_EQ(report.selectedName, "fast");
    EXPECT_TRUE(report.profiled);
    EXPECT_EQ(report.mode, c.mode);

    // (a) Full coverage: every unit written by some variant, and in
    // swap mode exclusively by the winner.
    for (std::uint64_t u = 0; u < units; ++u) {
        EXPECT_NE(out.at(u), -1) << "unit " << u << " never computed";
        if (c.mode == ProfilingMode::Swap)
            EXPECT_EQ(out.at(u), 2);
    }

    // (c) Table 1 space bounds.
    switch (c.mode) {
      case ProfilingMode::Fully:
        EXPECT_EQ(report.extraBytes, 0u);
        break;
      case ProfilingMode::Hybrid:
        EXPECT_LE(report.extraBytes, 1u * out.sizeBytes());
        break;
      case ProfilingMode::Swap:
        EXPECT_LE(report.extraBytes, 2u * out.sizeBytes());
        EXPECT_EQ(report.orch, Orchestration::Sync); // Table 1: no async
        break;
    }

    // Profiling volume stays within the configured cap.
    EXPECT_LE(report.productiveUnits, units / 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, RuntimeSweep,
    ::testing::Values(
        // Mode x orchestration on CPU, uniform factors.
        Combo{ProfilingMode::Fully, Orchestration::Sync, false, 1, 1},
        Combo{ProfilingMode::Fully, Orchestration::Async, false, 1, 1},
        Combo{ProfilingMode::Hybrid, Orchestration::Sync, false, 1, 1},
        Combo{ProfilingMode::Hybrid, Orchestration::Async, false, 1, 1},
        Combo{ProfilingMode::Swap, Orchestration::Sync, false, 1, 1},
        Combo{ProfilingMode::Swap, Orchestration::Async, false, 1, 1},
        // Same on GPU.
        Combo{ProfilingMode::Fully, Orchestration::Sync, true, 1, 1},
        Combo{ProfilingMode::Fully, Orchestration::Async, true, 1, 1},
        Combo{ProfilingMode::Hybrid, Orchestration::Sync, true, 1, 1},
        Combo{ProfilingMode::Hybrid, Orchestration::Async, true, 1, 1},
        Combo{ProfilingMode::Swap, Orchestration::Sync, true, 1, 1},
        // Mixed work assignment factors (coarsened winners/losers).
        Combo{ProfilingMode::Fully, Orchestration::Sync, false, 1, 16},
        Combo{ProfilingMode::Fully, Orchestration::Async, false, 16, 1},
        Combo{ProfilingMode::Fully, Orchestration::Sync, true, 1, 16},
        Combo{ProfilingMode::Fully, Orchestration::Async, true, 16, 1},
        Combo{ProfilingMode::Hybrid, Orchestration::Sync, false, 4, 8},
        Combo{ProfilingMode::Hybrid, Orchestration::Sync, true, 8, 4},
        Combo{ProfilingMode::Swap, Orchestration::Sync, false, 2, 32},
        Combo{ProfilingMode::Swap, Orchestration::Sync, true, 32, 2}),
    comboName);
