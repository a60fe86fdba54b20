/**
 * @file
 * Tests for the DySel runtime: registration, the three productive
 * profiling modes (including the Table 1 properties), selection
 * caching, orchestration, and workload-coverage invariants.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "dysel/runtime.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/gpu/gpu_device.hh"

using namespace dysel;
using namespace dysel::runtime;

namespace {

constexpr std::uint32_t laneCount = 8;

/**
 * Test kernel: writes `marker` into out[unit] for every covered unit
 * and burns `flops_per_unit` ALU ops, so tests can observe both which
 * variant processed each unit and relative speeds.
 */
kdp::KernelVariant
markerKernel(const char *name, std::int32_t marker,
             std::uint64_t flops_per_unit, std::uint64_t wa_factor = 1)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = laneCount;
    v.waFactor = wa_factor;
    v.sandboxIndex = {0};
    v.fn = [marker, flops_per_unit](kdp::GroupCtx &g,
                                    const kdp::KernelArgs &args) {
        auto &out = args.buf<std::int32_t>(0);
        const auto units = static_cast<std::uint64_t>(args.scalarInt(1));
        for (std::uint64_t u = g.unitBase();
             u < g.unitBase() + g.waFactor(); ++u) {
            if (u >= units)
                break;
            const auto lane =
                static_cast<std::uint32_t>(u % laneCount);
            g.store(out, u, marker, lane);
            g.flops(lane, flops_per_unit);
        }
    };
    return v;
}

compiler::KernelInfo
regularInfo(const char *sig)
{
    compiler::KernelInfo info;
    info.signature = sig;
    info.loops = {{"wi", compiler::BoundKind::Constant, true, false,
                   laneCount}};
    info.outputArgs = {0};
    return info;
}

struct Fixture
{
    sim::CpuDevice device;
    Runtime rt{device};
    kdp::Buffer<std::int32_t> out{4096, kdp::MemSpace::Global, "out"};
    kdp::KernelArgs args;

    Fixture()
    {
        out.fill(-1);
        args.add(out).add(static_cast<std::int64_t>(out.size()));
    }

    /** Count units whose marker is @p marker. */
    std::uint64_t
    countMarker(std::int32_t marker, std::uint64_t units) const
    {
        std::uint64_t n = 0;
        for (std::uint64_t i = 0; i < units; ++i)
            n += out.at(i) == marker;
        return n;
    }
};

} // namespace

TEST(RuntimeRegistration, CountsVariants)
{
    sim::CpuDevice device;
    Runtime rt(device);
    EXPECT_EQ(rt.variantCount("k"), 0u);
    rt.addKernel("k", markerKernel("a", 0, 10));
    rt.addKernel("k", markerKernel("b", 1, 10));
    EXPECT_EQ(rt.variantCount("k"), 2u);
    EXPECT_EQ(rt.variants("k")[1].name, "b");
}

TEST(RuntimeRegistration, DuplicateVariantNameIsRejected)
{
    sim::CpuDevice device;
    Runtime rt(device);
    rt.addKernel("k", markerKernel("a", 0, 10));
    // Registration errors are recoverable caller errors: the fallible
    // API reports InvalidArgument, the legacy wrapper throws.
    const auto st = rt.tryAddKernel("k", markerKernel("a", 1, 10));
    EXPECT_EQ(st.code(), support::StatusCode::InvalidArgument);
    EXPECT_NE(st.message().find("duplicate"), std::string::npos);
    EXPECT_THROW(rt.addKernel("k", markerKernel("a", 1, 10)),
                 std::invalid_argument);
    EXPECT_EQ(rt.variantCount("k"), 1u);
}

TEST(RuntimeRegistration, StatusApiReportsCodesWithoutThrowing)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("only", 1, 10));
    f.rt.setKernelInfo("k", regularInfo("k"));

    EXPECT_EQ(f.rt.findVariants("nope"), nullptr);
    ASSERT_NE(f.rt.findVariants("k"), nullptr);
    EXPECT_EQ(f.rt.findVariants("k")->size(), 1u);

    runtime::LaunchReport report;
    EXPECT_EQ(f.rt.launch("nope", 100, f.args, LaunchOptions(), report)
                  .code(),
              support::StatusCode::NotFound);
    EXPECT_EQ(f.rt.launch("k", 0, f.args, LaunchOptions(), report)
                  .code(),
              support::StatusCode::InvalidArgument);
    EXPECT_EQ(f.rt.tryImportSelection("nope", 0).code(),
              support::StatusCode::NotFound);
    EXPECT_EQ(f.rt.tryImportSelection("k", 5).code(),
              support::StatusCode::InvalidArgument);

    const auto ok = f.rt.launch("k", 2048, f.args, LaunchOptions(),
                                report);
    EXPECT_TRUE(ok.ok()) << ok.toString();
    EXPECT_EQ(report.selectedName, "only");
    EXPECT_EQ(f.countMarker(1, 2048), 2048u);
}

TEST(RuntimeRegistration, UnknownSignatureThrows)
{
    Fixture f;
    // Unknown signatures are a recoverable caller error (the dispatch
    // service catches them per job), so they throw instead of
    // fatalling, and the message names the offending signature.
    try {
        f.rt.launchKernel("nope", 100, f.args);
        FAIL() << "launchKernel on an unknown signature did not throw";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("nope"),
                  std::string::npos);
    }
    EXPECT_THROW(f.rt.variants("nope"), std::out_of_range);
    EXPECT_THROW(f.rt.importSelection("nope", 0), std::out_of_range);
    EXPECT_FALSE(f.rt.hasKernel("nope"));
}

TEST(RuntimeRegistration, VariantsLookupRoutesThroughStatus)
{
    // variants() is now a wrapper over the typed NotFound Status: the
    // thrown out_of_range must carry the Status message (naming the
    // signature), and the noexcept lookup stays the primary path.
    Fixture f;
    f.rt.addKernel("k", markerKernel("only", 1, 10));
    try {
        f.rt.variants("missing_sig");
        FAIL() << "variants() on an unknown signature did not throw";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("missing_sig"),
                  std::string::npos);
    }
    ASSERT_NE(f.rt.findVariants("k"), nullptr);
    EXPECT_EQ(&f.rt.variants("k"), f.rt.findVariants("k"));
}

TEST(RuntimeRegistration, RemoveKernelForgetsPoolAndSelection)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("slow", 1, 4000));
    f.rt.addKernel("k", markerKernel("fast", 2, 100));
    f.rt.setKernelInfo("k", regularInfo("k"));
    f.rt.launchKernel("k", 2048, f.args);
    ASSERT_TRUE(f.rt.cachedSelection("k").has_value());

    EXPECT_TRUE(f.rt.hasKernel("k"));
    f.rt.removeKernel("k");
    EXPECT_FALSE(f.rt.hasKernel("k"));
    EXPECT_FALSE(f.rt.cachedSelection("k").has_value());
    EXPECT_EQ(f.rt.variantCount("k"), 0u);
    f.rt.removeKernel("k"); // removing a missing pool is a no-op

    // The signature can be re-registered from scratch.
    f.rt.addKernel("k", markerKernel("only", 7, 10));
    EXPECT_EQ(f.rt.variantCount("k"), 1u);
}

TEST(Runtime, ImportedSelectionServesPlainLaunches)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("slow", 1, 4000));
    f.rt.addKernel("k", markerKernel("fast", 2, 100));
    f.rt.setKernelInfo("k", regularInfo("k"));

    f.rt.importSelection("k", 1);
    LaunchOptions opt;
    opt.profiling = false;
    auto report = f.rt.launchKernel("k", 2048, f.args, opt);
    EXPECT_TRUE(report.fromCache);
    EXPECT_FALSE(report.profiled);
    EXPECT_EQ(report.selectedName, "fast");
    EXPECT_EQ(f.countMarker(2, 2048), 2048u);

    EXPECT_THROW(f.rt.importSelection("k", 5), std::invalid_argument);

    auto exported = f.rt.exportSelections();
    ASSERT_EQ(exported.count("k"), 1u);
    EXPECT_EQ(exported["k"], 1);
}

TEST(Runtime, LaunchObserverSeesEveryLaunch)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("slow", 1, 4000));
    f.rt.addKernel("k", markerKernel("fast", 2, 100));
    f.rt.setKernelInfo("k", regularInfo("k"));

    std::vector<LaunchReport> seen;
    f.rt.setLaunchObserver(
        [&seen](const LaunchReport &r) { seen.push_back(r); });

    f.rt.launchKernel("k", 2048, f.args);
    LaunchOptions opt;
    opt.profiling = false;
    f.rt.launchKernel("k", 2048, f.args, opt);

    ASSERT_EQ(seen.size(), 2u);
    EXPECT_TRUE(seen[0].profiled);
    EXPECT_FALSE(seen[1].profiled);
    EXPECT_TRUE(seen[1].fromCache);
    EXPECT_EQ(seen[1].selectedName, "fast");

    f.rt.setLaunchObserver(nullptr); // detaching is allowed
    f.rt.launchKernel("k", 2048, f.args, opt);
    EXPECT_EQ(seen.size(), 2u);
}

TEST(Runtime, SingleVariantRunsPlainly)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("only", 7, 10));
    auto report = f.rt.launchKernel("k", 1000, f.args);
    EXPECT_FALSE(report.profiled);
    EXPECT_EQ(report.selected, 0);
    EXPECT_EQ(f.countMarker(7, 1000), 1000u);
}

TEST(Runtime, SelectsTheFasterVariant)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("slow", 1, 4000));
    f.rt.addKernel("k", markerKernel("fast", 2, 100));
    f.rt.setKernelInfo("k", regularInfo("k"));
    auto report = f.rt.launchKernel("k", 2048, f.args);
    EXPECT_TRUE(report.profiled);
    EXPECT_EQ(report.selectedName, "fast");
    EXPECT_EQ(report.mode, ProfilingMode::Fully);
}

TEST(Runtime, FullyProductiveSlicesContribute)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("slow", 1, 4000));
    f.rt.addKernel("k", markerKernel("fast", 2, 100));
    f.rt.setKernelInfo("k", regularInfo("k"));
    LaunchOptions opt;
    opt.orch = Orchestration::Sync;
    opt.profileRepeats = 1;
    auto report = f.rt.launchKernel("k", 2048, f.args, opt);

    // No extra space in fully-productive mode (Table 1).
    EXPECT_EQ(report.extraBytes, 0u);
    EXPECT_EQ(report.productiveUnits, report.profiledUnits);
    // Every unit was processed exactly once: the loser's profiling
    // slice keeps its marker; everything else carries the winner's.
    const std::uint64_t slice = report.productiveUnits / 2;
    EXPECT_EQ(f.countMarker(1, 2048), slice);
    EXPECT_EQ(f.countMarker(2, 2048), 2048 - slice);
    EXPECT_EQ(f.countMarker(-1, 2048), 0u);
}

TEST(Runtime, HybridModeSandboxesLosers)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("slow", 1, 4000));
    f.rt.addKernel("k", markerKernel("fast", 2, 100));
    auto info = regularInfo("k");
    info.loops.push_back(
        {"j", compiler::BoundKind::DataDependent, false, false, 8});
    f.rt.setKernelInfo("k", info);

    LaunchOptions opt;
    opt.orch = Orchestration::Sync;
    opt.profileRepeats = 1;
    auto report = f.rt.launchKernel("k", 2048, f.args, opt);
    EXPECT_EQ(report.mode, ProfilingMode::Hybrid);
    EXPECT_EQ(report.selectedName, "fast");
    // Extra space: at most K-1 copies of the output (Table 1).
    EXPECT_LE(report.extraBytes, 1u * f.out.sizeBytes());
    EXPECT_GT(report.extraBytes, 0u);
    // Only the first variant's profiling writes reach the real
    // output; it covered [0, slice).
    const std::uint64_t slice = report.productiveUnits;
    EXPECT_EQ(f.countMarker(1, 2048), slice);
    EXPECT_EQ(f.countMarker(2, 2048), 2048 - slice);
    EXPECT_EQ(report.profiledUnits, 2 * slice); // both ran the slice
}

TEST(Runtime, SwapModeKeepsOnlyTheWinnersOutput)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("slow", 1, 4000));
    f.rt.addKernel("k", markerKernel("fast", 2, 100));
    auto info = regularInfo("k");
    info.usesGlobalAtomics = true;
    f.rt.setKernelInfo("k", info);

    auto report = f.rt.launchKernel("k", 2048, f.args);
    EXPECT_EQ(report.mode, ProfilingMode::Swap);
    EXPECT_EQ(report.orch, Orchestration::Sync); // no async for swap
    EXPECT_EQ(report.selectedName, "fast");
    // Extra space: at most K copies (Table 1).
    EXPECT_LE(report.extraBytes, 2u * f.out.sizeBytes());
    // The winner's private output was swapped in: every unit carries
    // the winner's marker, including the profiled slice.
    EXPECT_EQ(f.countMarker(2, 2048), 2048u);
}

TEST(Runtime, ExplicitModeOverridesAnalysis)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("slow", 1, 4000));
    f.rt.addKernel("k", markerKernel("fast", 2, 100));
    f.rt.setKernelInfo("k", regularInfo("k")); // would be Fully
    LaunchOptions opt;
    opt.mode = ProfilingMode::Swap;
    auto report = f.rt.launchKernel("k", 2048, f.args, opt);
    EXPECT_EQ(report.mode, ProfilingMode::Swap);
    EXPECT_EQ(f.countMarker(2, 2048), 2048u);
}

TEST(Runtime, SmallWorkloadDeactivatesProfiling)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("slow", 1, 4000));
    f.rt.addKernel("k", markerKernel("fast", 2, 100));
    f.rt.setKernelInfo("k", regularInfo("k"));
    auto report = f.rt.launchKernel("k", 64, f.args);
    EXPECT_FALSE(report.profiled);
    EXPECT_EQ(report.selected, 0); // default variant
    EXPECT_EQ(f.countMarker(1, 64), 64u);
}

TEST(Runtime, SelectionCacheServesIterativeLaunches)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("slow", 1, 4000));
    f.rt.addKernel("k", markerKernel("fast", 2, 100));
    f.rt.setKernelInfo("k", regularInfo("k"));

    // First iteration: profiling on.
    auto first = f.rt.launchKernel("k", 2048, f.args);
    EXPECT_TRUE(first.profiled);
    ASSERT_TRUE(f.rt.cachedSelection("k").has_value());
    EXPECT_EQ(*f.rt.cachedSelection("k"), first.selected);

    // Later iterations: profiling off, cached winner reused.
    LaunchOptions opt;
    opt.profiling = false;
    auto later = f.rt.launchKernel("k", 2048, f.args, opt);
    EXPECT_FALSE(later.profiled);
    EXPECT_TRUE(later.fromCache);
    EXPECT_EQ(later.selectedName, "fast");

    f.rt.clearSelectionCache();
    EXPECT_FALSE(f.rt.cachedSelection("k").has_value());
}

TEST(Runtime, ProfilingOffWithoutCacheUsesDefault)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("a", 1, 100));
    f.rt.addKernel("k", markerKernel("b", 2, 100));
    LaunchOptions opt;
    opt.profiling = false;
    opt.initialVariant = 1;
    auto report = f.rt.launchKernel("k", 1024, f.args, opt);
    EXPECT_FALSE(report.fromCache);
    EXPECT_EQ(report.selectedName, "b");
    EXPECT_EQ(f.countMarker(2, 1024), 1024u);
}

TEST(Runtime, AsyncDispatchesEagerChunks)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("slow", 1, 40000));
    f.rt.addKernel("k", markerKernel("fast", 2, 100));
    f.rt.setKernelInfo("k", regularInfo("k"));
    LaunchOptions opt;
    opt.orch = Orchestration::Async;
    opt.initialVariant = 1; // eager work runs with "fast"
    opt.eagerChunkUnits = 128;
    auto report = f.rt.launchKernel("k", 2048, f.args, opt);
    EXPECT_GE(report.eagerChunks, 1u);
    EXPECT_EQ(f.countMarker(-1, 2048), 0u); // full coverage
}

TEST(Runtime, AsyncMatchesSyncOutputs)
{
    for (auto orch : {Orchestration::Sync, Orchestration::Async}) {
        Fixture f;
        f.rt.addKernel("k", markerKernel("slow", 1, 4000));
        f.rt.addKernel("k", markerKernel("fast", 2, 100));
        f.rt.setKernelInfo("k", regularInfo("k"));
        LaunchOptions opt;
        opt.orch = orch;
        auto report = f.rt.launchKernel("k", 2048, f.args, opt);
        EXPECT_EQ(report.selectedName, "fast");
        EXPECT_EQ(f.countMarker(-1, 2048), 0u);
    }
}

TEST(Runtime, MixedWorkAssignmentFactorsAlignSlices)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("fine", 1, 4000, 1));
    f.rt.addKernel("k", markerKernel("coarse", 2, 100, 16));
    f.rt.setKernelInfo("k", regularInfo("k"));
    auto report = f.rt.launchKernel("k", 2048, f.args);
    EXPECT_EQ(report.selectedName, "coarse");
    EXPECT_EQ(f.countMarker(-1, 2048), 0u);
    // Both variants profiled the same number of units (safe point).
    ASSERT_EQ(report.profiles.size(), 2u);
    EXPECT_EQ(report.profiles[0].units, report.profiles[1].units);
}

TEST(Runtime, ReportsPerVariantProfiles)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("slow", 1, 4000));
    f.rt.addKernel("k", markerKernel("fast", 2, 100));
    f.rt.setKernelInfo("k", regularInfo("k"));
    auto report = f.rt.launchKernel("k", 2048, f.args);
    ASSERT_EQ(report.profiles.size(), 2u);
    EXPECT_EQ(report.profiles[0].name, "slow");
    EXPECT_EQ(report.profiles[1].name, "fast");
    EXPECT_GT(report.profiles[0].metric, report.profiles[1].metric);
    EXPECT_GT(report.endTime, report.startTime);
}

TEST(Runtime, GpuPathSelectsCorrectlyToo)
{
    sim::GpuDevice device;
    Runtime rt(device);
    kdp::Buffer<std::int32_t> out(8192, kdp::MemSpace::Global, "out");
    out.fill(-1);
    kdp::KernelArgs args;
    args.add(out).add(static_cast<std::int64_t>(out.size()));

    rt.addKernel("k", markerKernel("slow", 1, 4000));
    rt.addKernel("k", markerKernel("fast", 2, 100));
    rt.setKernelInfo("k", regularInfo("k"));
    auto report = rt.launchKernel("k", 8192, args);
    EXPECT_EQ(report.selectedName, "fast");
    for (std::uint64_t i = 0; i < 8192; ++i)
        EXPECT_NE(out.at(i), -1);
}

TEST(Runtime, InitialVariantOutOfRangeIsInvalidArgument)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("a", 1, 100));
    LaunchOptions opt;
    opt.initialVariant = 5;
    runtime::LaunchReport report;
    EXPECT_EQ(f.rt.launch("k", 1024, f.args, opt, report).code(),
              support::StatusCode::InvalidArgument);
    EXPECT_THROW(f.rt.launchKernel("k", 1024, f.args, opt),
                 std::invalid_argument);
}

TEST(Runtime, EmptyWorkloadIsInvalidArgument)
{
    Fixture f;
    f.rt.addKernel("k", markerKernel("a", 1, 100));
    EXPECT_THROW(f.rt.launchKernel("k", 0, f.args),
                 std::invalid_argument);
}
