/**
 * @file
 * Variant-guard tests: the buffer checks (tolerance comparator,
 * canary redzones, NaN/Inf screen), the strike ledger and blacklist,
 * the runtime's in-profiling validation of misbehaving variants (one
 * test per check), productive-slice repair, the all-failed and
 * all-blacklisted failure paths, and the acceptance storm: a pool
 * with one corrupt-output, one out-of-bounds-writing, and one hanging
 * variant beside two healthy ones completes every launch with
 * ground-truth output, blacklists exactly the three bad variants
 * (reconciled 1:1 against the fault injector's log), and a restarted
 * service importing the saved store never schedules them again.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dysel/guard/guard.hh"
#include "dysel/runtime.hh"
#include "dysel/store/selection_store.hh"
#include "serve/dispatch_service.hh"
#include "submit_one.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/fault.hh"

using namespace dysel;
using namespace dysel::serve;
using guard::CheckKind;
using guard::GuardConfig;
using guard::VariantGuard;
using sim::FaultInjector;
using sim::VariantFaultKind;

namespace {

constexpr std::uint32_t laneCount = 8;

/**
 * Marker kernel over a float output: out[unit] = marker.  @p ran, if
 * given, records that the variant really executed -- how the restart
 * tests prove a blacklisted variant was never scheduled.
 */
kdp::KernelVariant
floatKernel(const char *name, float marker, std::uint64_t flops_per_unit,
            std::atomic<bool> *ran = nullptr)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = laneCount;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    v.fn = [marker, flops_per_unit, ran](kdp::GroupCtx &g,
                                         const kdp::KernelArgs &args) {
        if (ran)
            ran->store(true);
        auto &out = args.buf<float>(0);
        const auto units = static_cast<std::uint64_t>(args.scalarInt(1));
        for (std::uint64_t u = g.unitBase();
             u < g.unitBase() + g.waFactor(); ++u) {
            if (u >= units)
                break;
            const auto lane = static_cast<std::uint32_t>(u % laneCount);
            g.store(out, u, marker, lane);
            g.flops(lane, flops_per_unit);
        }
    };
    return v;
}

compiler::KernelInfo
floatInfo(const std::string &sig)
{
    compiler::KernelInfo info;
    info.signature = sig;
    info.loops = {{"wi", compiler::BoundKind::Constant, true, false,
                   laneCount}};
    info.outputArgs = {0};
    return info;
}

/** Guard-enabled runtime configuration. */
runtime::RuntimeConfig
guardedConfig(unsigned strike_limit)
{
    runtime::RuntimeConfig cfg;
    cfg.guard.enabled = true;
    cfg.guard.strikeLimit = strike_limit;
    return cfg;
}

/**
 * Launch options the guard tests pin down: explicit swap profiling
 * (every variant writes a private clone -- the fully-checkable mode)
 * and a single profiling execution per variant, so every guard
 * detection corresponds to exactly one injector log entry.
 */
runtime::LaunchOptions
guardedOpt(runtime::ProfilingMode mode = runtime::ProfilingMode::Swap)
{
    runtime::LaunchOptions opt;
    opt.mode = mode;
    opt.orch = runtime::Orchestration::Sync;
    opt.profileRepeats = 1;
    return opt;
}

/** One launch's float output buffer and args. */
struct GProbe
{
    std::string sig;
    std::uint64_t units;
    kdp::Buffer<float> out;
    kdp::KernelArgs args;

    GProbe(std::string s, std::uint64_t n)
        : sig(std::move(s)), units(n),
          out(n, kdp::MemSpace::Global, "out")
    {
        out.fill(-1.0f);
        args.add(out).add(static_cast<std::int64_t>(n));
    }

    void
    expectGroundTruth(float marker) const
    {
        for (std::uint64_t u = 0; u < units; ++u)
            ASSERT_EQ(out.at(u), marker) << "unit " << u;
    }
};

/**
 * Pool of three equivalent variants; the bad one profiles fastest, so
 * only a guard strike can keep it from winning the selection.
 */
void
registerBadVariantPool(runtime::Runtime &rt, const std::string &sig,
                       float marker)
{
    rt.removeKernel(sig);
    rt.addKernel(sig, floatKernel("v-good-slow", marker, 4000));
    rt.addKernel(sig, floatKernel("v-bad", marker, 100));
    rt.addKernel(sig, floatKernel("v-good", marker, 1000));
    rt.setKernelInfo(sig, floatInfo(sig));
}

} // namespace

// ---- Buffer checks -----------------------------------------------------

TEST(GuardUnit, ComparatorToleratesFloatNoiseOnly)
{
    VariantGuard g; // absTol 1e-6, relTol 1e-4
    kdp::Buffer<float> ref(8), cand(8);
    ref.fill(1.0f);
    cand.fill(1.0f);
    EXPECT_TRUE(g.outputsMatch(ref, cand));

    // Reordered-reduction-sized noise passes; a real wrong value
    // does not.
    cand.at(0) = 1.00005f;
    EXPECT_TRUE(g.outputsMatch(ref, cand));
    cand.at(0) = 1.01f;
    EXPECT_FALSE(g.outputsMatch(ref, cand));

    // Identical NaN poisoning compares equal here: flagging it is
    // the NaN screen's job, not the comparator's.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    ref.at(3) = nan;
    cand.at(0) = 1.0f;
    EXPECT_FALSE(g.outputsMatch(ref, cand));
    cand.at(3) = nan;
    EXPECT_TRUE(g.outputsMatch(ref, cand));
}

TEST(GuardUnit, ComparatorIsExactForIntsAndRejectsShapeMismatch)
{
    VariantGuard g;
    kdp::Buffer<std::int32_t> a(8), b(8);
    a.fill(42);
    b.fill(42);
    EXPECT_TRUE(g.outputsMatch(a, b));
    b.at(7) = 43;
    EXPECT_FALSE(g.outputsMatch(a, b));

    // Different element types or data sizes never match.
    kdp::Buffer<float> f(8);
    EXPECT_FALSE(g.outputsMatch(a, f));
    kdp::Buffer<std::int32_t> shorter(7);
    EXPECT_FALSE(g.outputsMatch(a, shorter));

    // A padded clone still matches its origin: only the data region
    // is compared, not the redzone.
    b.at(7) = 42;
    auto padded = b.clonePadded(4);
    VariantGuard::paintRedzone(*padded);
    EXPECT_TRUE(g.outputsMatch(a, *padded));
}

TEST(GuardUnit, RedzoneCanaryCatchesOutOfBoundsBytes)
{
    kdp::Buffer<std::int32_t> b(16);
    b.fill(5);
    auto padded = b.clonePadded(8);
    EXPECT_EQ(padded->size(), 24u);
    EXPECT_EQ(padded->redzone(), 8u);
    EXPECT_EQ(padded->dataElems(), 16u);

    VariantGuard::paintRedzone(*padded);
    EXPECT_TRUE(VariantGuard::redzoneIntact(*padded));
    // Painting leaves the data region alone.
    EXPECT_EQ(static_cast<kdp::Buffer<std::int32_t> &>(*padded).at(3), 5);

    // One byte past the data region trips the canary.
    auto *bytes = static_cast<unsigned char *>(padded->rawData());
    bytes[padded->dataElems() * padded->elemSize()] ^= 0xff;
    EXPECT_FALSE(VariantGuard::redzoneIntact(*padded));

    // A buffer without a redzone is trivially intact.
    EXPECT_TRUE(VariantGuard::redzoneIntact(b));
}

TEST(GuardUnit, NanInfScreenCoversFloatDataOnly)
{
    kdp::Buffer<float> f(8);
    EXPECT_FALSE(VariantGuard::hasNanOrInf(f));
    f.at(2) = std::numeric_limits<float>::quiet_NaN();
    EXPECT_TRUE(VariantGuard::hasNanOrInf(f));
    f.at(2) = 0.0f;
    f.at(5) = -std::numeric_limits<float>::infinity();
    EXPECT_TRUE(VariantGuard::hasNanOrInf(f));

    // Integer buffers never report poisoning (every bit pattern is a
    // value).
    kdp::Buffer<std::int32_t> i(8);
    i.fill(-1);
    EXPECT_FALSE(VariantGuard::hasNanOrInf(i));

    // Poison in the redzone is not a data-region finding; the canary
    // check owns that territory.
    kdp::Buffer<float> src(4);
    auto padded = src.clonePadded(4);
    auto *vals = static_cast<float *>(padded->rawData());
    vals[5] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(VariantGuard::hasNanOrInf(*padded));
}

// ---- Ledger and blacklist ----------------------------------------------

TEST(GuardUnit, StrikesAccumulateAndBlacklistOnceAtTheLimit)
{
    GuardConfig cfg;
    cfg.enabled = true;
    cfg.strikeLimit = 2;
    VariantGuard g(cfg);

    std::vector<std::string> fired;
    g.setBlacklistObserver([&](const std::string &sig,
                               const std::string &variant,
                               const std::string &reason) {
        fired.push_back(sig + "/" + variant + "/" + reason);
    });

    EXPECT_FALSE(g.strike("k", "v", CheckKind::Mismatch));
    EXPECT_FALSE(g.isBlacklisted("k", "v"));
    EXPECT_TRUE(fired.empty());
    g.pass("k", "w");

    // The second strike crosses the limit: blacklisted, observer
    // fires exactly once, on the transition.
    EXPECT_TRUE(g.strike("k", "v", CheckKind::Redzone));
    EXPECT_TRUE(g.isBlacklisted("k", "v"));
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], "k/v/redzone");

    // Further strikes keep counting but never re-fire.
    EXPECT_FALSE(g.strike("k", "v", CheckKind::NanInf));
    EXPECT_EQ(fired.size(), 1u);

    const auto h = g.health("k", "v");
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->strikes, 3u);
    EXPECT_EQ(h->mismatches, 1u);
    EXPECT_EQ(h->redzones, 1u);
    EXPECT_EQ(h->nans, 1u);
    EXPECT_TRUE(h->blacklisted);
    EXPECT_EQ(h->lastReason, "nan");
    const auto w = g.health("k", "w");
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(w->passes, 1u);

    EXPECT_EQ(g.checkCount(CheckKind::Mismatch), 1u);
    EXPECT_EQ(g.checkCount(CheckKind::Redzone), 1u);
    EXPECT_EQ(g.checkCount(CheckKind::NanInf), 1u);
    EXPECT_EQ(g.checkCount(CheckKind::Watchdog), 0u);
    EXPECT_EQ(g.blacklistCount(), 1u);

    // Seeded entries (from a loaded store) exclude but are neither
    // counted as strike blacklistings nor echoed to the observer.
    g.blacklist("k2", "x", "watchdog");
    EXPECT_TRUE(g.isBlacklisted("k2", "x"));
    EXPECT_EQ(g.blacklistCount(), 1u);
    EXPECT_EQ(fired.size(), 1u);
}

// ---- Runtime validation, one test per check ----------------------------

namespace {

/**
 * Shared scenario: a pool whose fastest variant carries @p kind.  The
 * guard must strike it with @p check, select the fastest survivor,
 * keep the output ground-truth correct, blacklist the offender
 * (strikeLimit 1), and exclude it from the next launch -- with the
 * detection reconciling 1:1 against the injector's log.
 */
void
runBadVariantCase(VariantFaultKind kind, const std::string &check)
{
    FaultInjector faults;
    sim::CpuDevice dev;
    dev.setFaultInjector(&faults);
    runtime::Runtime rt(dev, guardedConfig(1));
    registerBadVariantPool(rt, "k", 7.0f);
    faults.setVariantFault("v-bad", kind);

    GProbe p("k", 2048);
    runtime::LaunchReport report;
    const auto st = rt.launch("k", p.units, p.args, guardedOpt(), report);
    ASSERT_TRUE(st.ok()) << st.toString();

    // Without the guard the bad variant would have won on speed.
    EXPECT_EQ(report.selectedName, "v-good");
    ASSERT_EQ(report.guardEvents.size(), 1u);
    EXPECT_EQ(report.guardEvents[0].variant, "v-bad");
    EXPECT_EQ(report.guardEvents[0].check, check);
    EXPECT_EQ(report.guardExcluded, 0u);
    p.expectGroundTruth(7.0f);

    EXPECT_TRUE(rt.guard().isBlacklisted("k", "v-bad"));
    const auto h = rt.guard().health("k", "v-bad");
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->strikes, 1u);
    EXPECT_EQ(h->lastReason, check);

    // Exactly one fault application was logged, of the right kind.
    EXPECT_EQ(faults.variantTotal(), 1u);
    EXPECT_EQ(faults.variantCount(kind), 1u);

    // The next profiled launch excludes the offender up front; the
    // injector never sees it again.
    p.out.fill(-1.0f);
    ASSERT_TRUE(rt.launch("k", p.units, p.args, guardedOpt(), report)
                    .ok());
    EXPECT_EQ(report.guardExcluded, 1u);
    EXPECT_TRUE(report.guardEvents.empty());
    EXPECT_EQ(report.selectedName, "v-good");
    EXPECT_EQ(faults.variantTotal(), 1u);
    p.expectGroundTruth(7.0f);
}

} // namespace

TEST(RuntimeGuard, CorruptOutputCaughtByReferenceCrossCheck)
{
    runBadVariantCase(VariantFaultKind::CorruptOutput, "mismatch");
}

TEST(RuntimeGuard, OobWriteCaughtByCanaryRedzone)
{
    runBadVariantCase(VariantFaultKind::OobWrite, "redzone");
}

TEST(RuntimeGuard, NanOutputCaughtByPoisonScreen)
{
    runBadVariantCase(VariantFaultKind::NanOutput, "nan");
}

TEST(RuntimeGuard, KernelHangCaughtByWatchdog)
{
    runBadVariantCase(VariantFaultKind::KernelHang, "watchdog");
}

TEST(RuntimeGuard, StrikeLimitToleratesFirstOffense)
{
    FaultInjector faults;
    sim::CpuDevice dev;
    dev.setFaultInjector(&faults);
    runtime::Runtime rt(dev, guardedConfig(2));
    registerBadVariantPool(rt, "k", 7.0f);
    faults.setVariantFault("v-bad", VariantFaultKind::CorruptOutput);

    unsigned fired = 0;
    rt.guard().setBlacklistObserver(
        [&](const std::string &, const std::string &,
            const std::string &) { fired++; });

    // First offense: struck and excluded from this selection, but
    // not yet blacklisted.
    GProbe p("k", 2048);
    runtime::LaunchReport report;
    ASSERT_TRUE(rt.launch("k", p.units, p.args, guardedOpt(), report)
                    .ok());
    ASSERT_EQ(report.guardEvents.size(), 1u);
    EXPECT_FALSE(rt.guard().isBlacklisted("k", "v-bad"));
    EXPECT_EQ(fired, 0u);
    p.expectGroundTruth(7.0f);

    // Second offense (the fault is persistent): blacklisted.
    p.out.fill(-1.0f);
    ASSERT_TRUE(rt.launch("k", p.units, p.args, guardedOpt(), report)
                    .ok());
    EXPECT_TRUE(rt.guard().isBlacklisted("k", "v-bad"));
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(faults.variantCount(VariantFaultKind::CorruptOutput), 2u);
    p.expectGroundTruth(7.0f);

    // Third launch: excluded without executing.
    p.out.fill(-1.0f);
    ASSERT_TRUE(rt.launch("k", p.units, p.args, guardedOpt(), report)
                    .ok());
    EXPECT_EQ(report.guardExcluded, 1u);
    EXPECT_EQ(faults.variantCount(VariantFaultKind::CorruptOutput), 2u);
    p.expectGroundTruth(7.0f);
}

TEST(RuntimeGuard, HybridHangRepairsTheDefaultSlice)
{
    // In hybrid profiling variant 0 writes units [0, slice) of the
    // real output.  When it hangs, those units were never produced;
    // the winner must re-execute them or the launch is silently
    // incomplete.
    FaultInjector faults;
    sim::CpuDevice dev;
    dev.setFaultInjector(&faults);
    runtime::Runtime rt(dev, guardedConfig(1));
    rt.removeKernel("k");
    rt.addKernel("k", floatKernel("v-hang", 7.0f, 100));
    rt.addKernel("k", floatKernel("v-good", 7.0f, 1000));
    rt.setKernelInfo("k", floatInfo("k"));
    faults.setVariantFault("v-hang", VariantFaultKind::KernelHang);

    GProbe p("k", 2048);
    runtime::LaunchReport report;
    const auto st = rt.launch(
        "k", p.units, p.args,
        guardedOpt(runtime::ProfilingMode::Hybrid), report);
    ASSERT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(report.selectedName, "v-good");
    ASSERT_EQ(report.guardEvents.size(), 1u);
    EXPECT_EQ(report.guardEvents[0].check, "watchdog");
    EXPECT_EQ(report.guardRepairs, 1u);
    p.expectGroundTruth(7.0f);
}

TEST(RuntimeGuard, FullyModeWatchdogRepairsTheHungSlice)
{
    // Fully-productive profiling has no sandboxes, so only the
    // watchdog covers it -- and a hung variant's slice of the real
    // output must be re-executed by the winner.
    FaultInjector faults;
    sim::CpuDevice dev;
    dev.setFaultInjector(&faults);
    runtime::Runtime rt(dev, guardedConfig(1));
    rt.removeKernel("k");
    rt.addKernel("k", floatKernel("v-good-slow", 7.0f, 4000));
    rt.addKernel("k", floatKernel("v-hang", 7.0f, 100));
    rt.addKernel("k", floatKernel("v-good", 7.0f, 1000));
    rt.setKernelInfo("k", floatInfo("k"));
    faults.setVariantFault("v-hang", VariantFaultKind::KernelHang);

    GProbe p("k", 2048);
    runtime::LaunchReport report;
    const auto st = rt.launch(
        "k", p.units, p.args,
        guardedOpt(runtime::ProfilingMode::Fully), report);
    ASSERT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(report.selectedName, "v-good");
    ASSERT_EQ(report.guardEvents.size(), 1u);
    EXPECT_EQ(report.guardEvents[0].variant, "v-hang");
    EXPECT_EQ(report.guardEvents[0].check, "watchdog");
    EXPECT_EQ(report.guardRepairs, 1u);
    p.expectGroundTruth(7.0f);
}

TEST(RuntimeGuard, AllVariantsFailingValidationIsDataLoss)
{
    FaultInjector faults;
    sim::CpuDevice dev;
    dev.setFaultInjector(&faults);
    runtime::Runtime rt(dev, guardedConfig(1));
    rt.removeKernel("k");
    rt.addKernel("k", floatKernel("v-nan", 7.0f, 100));
    rt.addKernel("k", floatKernel("v-hang", 7.0f, 200));
    rt.setKernelInfo("k", floatInfo("k"));
    faults.setVariantFault("v-nan", VariantFaultKind::NanOutput);
    faults.setVariantFault("v-hang", VariantFaultKind::KernelHang);

    GProbe p("k", 2048);
    runtime::LaunchReport report;
    const auto st = rt.launch("k", p.units, p.args, guardedOpt(), report);
    EXPECT_EQ(st.code(), support::StatusCode::DataLoss);
    EXPECT_NE(st.message().find("guard"), std::string::npos);
    // No untrusted output leaked into the real buffer.
    for (std::uint64_t u = 0; u < p.units; ++u)
        ASSERT_EQ(p.out.at(u), -1.0f);

    // Both struck out (strikeLimit 1): the pool is now empty.
    const auto again =
        rt.launch("k", p.units, p.args, guardedOpt(), report);
    EXPECT_EQ(again.code(), support::StatusCode::FailedPrecondition);
    EXPECT_NE(again.message().find("blacklisted"), std::string::npos);
}

TEST(RuntimeGuard, ImportSelectionRejectsBlacklistedVariant)
{
    sim::CpuDevice dev;
    runtime::Runtime rt(dev, guardedConfig(1));
    registerBadVariantPool(rt, "k", 7.0f);
    rt.guard().blacklist("k", "v-bad", "mismatch");

    const auto st = rt.tryImportSelection("k", 1); // v-bad
    EXPECT_EQ(st.code(), support::StatusCode::FailedPrecondition);
    EXPECT_FALSE(rt.cachedSelection("k").has_value());
    EXPECT_TRUE(rt.tryImportSelection("k", 2).ok()); // v-good
}

// ---- Service-level flows -----------------------------------------------

namespace {

/** Flags recording which bad variants ever executed. */
struct BadRan
{
    std::atomic<bool> corrupt{false};
    std::atomic<bool> oob{false};
    std::atomic<bool> hang{false};

    bool any() const { return corrupt || oob || hang; }
};

/**
 * The acceptance-storm pool: two healthy variants bracket a
 * corrupt-output, an out-of-bounds-writing, and a hanging variant,
 * all nominally writing the same marker.  Every bad variant profiles
 * faster than the best healthy one.
 */
void
registerStormPool(runtime::Runtime &rt, const std::string &sig,
                  float marker, BadRan *ran)
{
    rt.removeKernel(sig);
    rt.addKernel(sig, floatKernel("v-good-slow", marker, 4000));
    rt.addKernel(sig, floatKernel("v-corrupt", marker, 100,
                                  ran ? &ran->corrupt : nullptr));
    rt.addKernel(sig, floatKernel("v-oob", marker, 200,
                                  ran ? &ran->oob : nullptr));
    rt.addKernel(sig, floatKernel("v-hang", marker, 300,
                                  ran ? &ran->hang : nullptr));
    rt.addKernel(sig, floatKernel("v-good", marker, 1000));
    rt.setKernelInfo(sig, floatInfo(sig));
}

JobSpec
makeStormJob(GProbe &p, float marker, BadRan *ran)
{
    JobSpec job;
    job.signature(p.sig);
    job.units(p.units);
    job.args(p.args);
    job.options(guardedOpt());
    job.ensureRegistered([&p, marker, ran](runtime::Runtime &rt) {
        registerStormPool(rt, p.sig, marker, ran);
    });
    return job;
}

ServiceConfig
guardedServiceConfig()
{
    ServiceConfig cfg;
    cfg.runtime.guard.enabled = true;
    cfg.runtime.guard.strikeLimit = 1;
    return cfg;
}

} // namespace

TEST(ServiceGuard, BlacklistedStoredWinnerIsDemotedToAMiss)
{
    store::SelectionStore store;
    DispatchService svc(store, guardedServiceConfig());
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    const std::string fp = svc.device(0).fingerprint();
    svc.start();

    // The restart/peer-worker scenario: a valid record whose winner
    // was blacklisted after the record was written (blacklisting
    // before the record exists skips the invalidation sweep).
    store.blacklistVariant("k", "v-bad", fp, "mismatch");
    runtime::LaunchReport fake;
    fake.signature = "k";
    fake.profiled = true;
    fake.totalUnits = 2048;
    fake.selected = 1;
    fake.selectedName = "v-bad";
    runtime::VariantProfile slow;
    slow.name = "v-good-slow";
    slow.metric = 4000;
    slow.units = 256;
    runtime::VariantProfile bad;
    bad.name = "v-bad";
    bad.metric = 100;
    bad.units = 256;
    fake.profiles = {slow, bad};
    store.recordProfile(fp, fake);
    ASSERT_TRUE(store.lookup("k", fp, 2048).has_value());

    GProbe p("k", 2048);
    JobSpec job;
    job.signature("k");
    job.units(p.units);
    job.args(p.args);
    job.options(guardedOpt());
    job.ensureRegistered([&p](runtime::Runtime &rt) {
        rt.removeKernel("k");
        rt.addKernel("k", floatKernel("v-good-slow", 7.0f, 4000));
        rt.addKernel("k", floatKernel("v-bad", 7.0f, 100));
        rt.setKernelInfo("k", floatInfo("k"));
    });
    JobHandle h = submitOne(svc, job);
    const JobResult r = h.result();
    ASSERT_TRUE(r.ok()) << r.status.toString();

    // The poisoned warm start was refused; the guard (seeded from
    // the store) left a single healthy variant, which ran plain.
    EXPECT_FALSE(r.warmStart);
    EXPECT_EQ(r.report.selectedName, "v-good-slow");
    EXPECT_EQ(svc.metrics().counterValue("guard.blocked_warmstart"), 1u);
    p.expectGroundTruth(7.0f);
    svc.stop();
}

TEST(ServiceGuard, AcceptanceStormQuarantinesExactlyTheBadVariants)
{
    // Scripted persistent variant faults: the same three bad variants
    // misbehave in every pool.
    FaultInjector faults;
    faults.setVariantFault("v-corrupt", VariantFaultKind::CorruptOutput);
    faults.setVariantFault("v-oob", VariantFaultKind::OobWrite);
    faults.setVariantFault("v-hang", VariantFaultKind::KernelHang);

    store::SelectionStore store;
    DispatchService svc(store, guardedServiceConfig());
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.device(0).setFaultInjector(&faults);
    const std::string fp = svc.device(0).fingerprint();
    svc.start();

    constexpr unsigned N = 16;
    constexpr std::uint64_t units = 2048;
    std::vector<std::unique_ptr<GProbe>> probes;
    std::vector<JobHandle> handles;
    for (unsigned i = 0; i < N; ++i) {
        const float marker = static_cast<float>(10 + i % 4);
        probes.push_back(std::make_unique<GProbe>(
            "s" + std::to_string(i % 4), units));
        handles.push_back(
            submitOne(svc, makeStormJob(*probes.back(), marker, nullptr)));
        handles.back().wait();
    }
    svc.drain();

    // 100% completion with ground-truth output.  The first job of
    // each signature profiles and strikes all three bad variants in
    // one pass; every later job warm-starts on the stored winner.
    for (unsigned i = 0; i < N; ++i) {
        const JobResult &r = handles[i].result();
        ASSERT_TRUE(r.ok()) << "job " << i << ": "
                            << r.status.toString();
        if (i < 4) {
            EXPECT_TRUE(r.report.profiled);
            EXPECT_FALSE(r.warmStart);
            EXPECT_EQ(r.report.guardEvents.size(), 3u);
            EXPECT_EQ(r.report.selectedName, "v-good");
        } else {
            EXPECT_TRUE(r.warmStart);
        }
        probes[i]->expectGroundTruth(static_cast<float>(10 + i % 4));
    }
    const auto &m = svc.metrics();
    EXPECT_EQ(m.counterValue("jobs.completed"), std::uint64_t{N});
    EXPECT_EQ(m.counterValue("jobs.failed"), 0u);

    // Guard counters reconcile 1:1 against the injector's log of
    // applied variant faults: one detection per application.
    EXPECT_EQ(m.counterValue("guard.mismatch"),
              faults.variantCount(VariantFaultKind::CorruptOutput));
    EXPECT_EQ(m.counterValue("guard.redzone"),
              faults.variantCount(VariantFaultKind::OobWrite));
    EXPECT_EQ(m.counterValue("guard.watchdog"),
              faults.variantCount(VariantFaultKind::KernelHang));
    EXPECT_EQ(m.counterValue("guard.nan"),
              faults.variantCount(VariantFaultKind::NanOutput));
    EXPECT_EQ(m.counterValue("guard.mismatch"), 4u);
    EXPECT_EQ(m.counterValue("guard.redzone"), 4u);
    EXPECT_EQ(m.counterValue("guard.watchdog"), 4u);
    EXPECT_EQ(m.counterValue("guard.nan"), 0u);
    EXPECT_EQ(faults.variantTotal(), 12u);
    EXPECT_EQ(m.counterValue("guard.repair"), 0u); // swap discards

    // Exactly the three bad variants of each signature are
    // blacklisted, with the check that caught them as the reason.
    EXPECT_EQ(m.counterValue("guard.blacklist"), 12u);
    ASSERT_EQ(store.blacklistSize(), 12u);
    for (const auto &e : store.blacklistEntries()) {
        EXPECT_EQ(e.device, fp);
        EXPECT_EQ(e.strikes, 1u);
        if (e.variant == "v-corrupt") {
            EXPECT_EQ(e.reason, "mismatch");
        } else if (e.variant == "v-oob") {
            EXPECT_EQ(e.reason, "redzone");
        } else if (e.variant == "v-hang") {
            EXPECT_EQ(e.reason, "watchdog");
        } else {
            ADD_FAILURE() << "unexpected blacklisted variant "
                          << e.variant;
        }
    }
    svc.stop();

    // ---- Restart from the saved store ----------------------------------
    const std::string path =
        ::testing::TempDir() + "guard_storm_store.json";
    ASSERT_TRUE(store.saveFile(path).ok());
    store::SelectionStore store2;
    ASSERT_TRUE(store2.loadFile(path).ok());
    ASSERT_EQ(store2.blacklistSize(), 12u);

    // No injector on the restarted service: the loaded blacklist
    // alone must keep the bad variants from ever being scheduled,
    // which the execution flags prove.
    DispatchService svc2(store2, guardedServiceConfig());
    svc2.addDevice(std::make_unique<sim::CpuDevice>());
    svc2.start();
    BadRan ran;

    // A different size bucket misses the store and re-profiles: the
    // guard, seeded from the loaded blacklist, excludes all three
    // bad variants up front.
    std::vector<std::unique_ptr<GProbe>> probes2;
    for (unsigned i = 0; i < 4; ++i) {
        const float marker = static_cast<float>(10 + i);
        probes2.push_back(std::make_unique<GProbe>(
            "s" + std::to_string(i), 5000));
        JobHandle h =
            submitOne(svc2, makeStormJob(*probes2.back(), marker, &ran));
        const JobResult r = h.result();
        ASSERT_TRUE(r.ok()) << r.status.toString();
        EXPECT_TRUE(r.report.profiled);
        EXPECT_EQ(r.report.guardExcluded, 3u);
        EXPECT_TRUE(r.report.guardEvents.empty());
        EXPECT_EQ(r.report.selectedName, "v-good");
        probes2[i]->expectGroundTruth(marker);
    }

    // The original size bucket warm-starts on the stored winner.
    GProbe warm("s0", units);
    JobHandle h = submitOne(svc2, makeStormJob(warm, 10.0f, &ran));
    const JobResult r = h.result();
    ASSERT_TRUE(r.ok()) << r.status.toString();
    EXPECT_TRUE(r.warmStart);
    EXPECT_EQ(r.report.selectedName, "v-good");
    warm.expectGroundTruth(10.0f);

    EXPECT_FALSE(ran.any());
    EXPECT_EQ(svc2.metrics().counterValue("guard.excluded"), 12u);
    EXPECT_EQ(svc2.metrics().counterValue("guard.blacklist"), 0u);
    svc2.stop();

    // A bare restarted Runtime seeded from the loaded store refuses
    // to import a blacklisted selection outright.
    sim::CpuDevice dev2;
    runtime::Runtime rt2(dev2, guardedConfig(1));
    registerStormPool(rt2, "s0", 10.0f, nullptr);
    for (const auto &[variant, reason] :
         store2.blacklistedVariants("s0", dev2.fingerprint())) {
        rt2.guard().blacklist("s0", variant, reason);
    }
    EXPECT_EQ(rt2.tryImportSelection("s0", 1).code(), // v-corrupt
              support::StatusCode::FailedPrecondition);
    EXPECT_TRUE(rt2.tryImportSelection("s0", 4).ok()); // v-good
}
