/**
 * @file
 * Fault-tolerance tests: the seeded fault injector itself, how the
 * runtime surfaces injected device faults as typed Statuses, and the
 * dispatch service's recovery machinery -- retry with re-routing and
 * virtual backoff, per-job deadlines, the per-device circuit breaker,
 * selection quarantine on warm-start failures, and the acceptance
 * storm: ~10% injected launch failures plus one permanently hung
 * device, with 100% job completion, ground-truth outputs, and metrics
 * that reconcile exactly against the injectors' event logs.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "serve/dispatch_service.hh"
#include "submit_one.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/fault.hh"

using namespace dysel;
using namespace dysel::serve;
using sim::FaultConfig;
using sim::FaultInjector;
using sim::FaultKind;

namespace {

constexpr std::uint32_t laneCount = 8;

/** Marker kernel as in runtime/service tests: out[unit] = marker. */
kdp::KernelVariant
markerKernel(const char *name, std::int32_t marker,
             std::uint64_t flops_per_unit)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = laneCount;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    v.fn = [marker, flops_per_unit](kdp::GroupCtx &g,
                                    const kdp::KernelArgs &args) {
        auto &out = args.buf<std::int32_t>(0);
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
regularInfo(const std::string &sig)
{
    compiler::KernelInfo info;
    info.signature = sig;
    info.loops = {{"wi", compiler::BoundKind::Constant, true, false,
                   laneCount}};
    info.outputArgs = {0};
    return info;
}

/**
 * Pool whose two variants write the SAME marker at different speeds:
 * any selection, retry, or fallback produces the identical output, so
 * fault-tolerant runs can be compared against fault-free ground truth
 * unit by unit.
 */
void
registerEquivalentPool(runtime::Runtime &rt, const std::string &sig,
                       std::int32_t marker)
{
    rt.removeKernel(sig);
    rt.addKernel(sig, markerKernel("v-slow", marker, 4000));
    rt.addKernel(sig, markerKernel("v-fast", marker, 100));
    rt.setKernelInfo(sig, regularInfo(sig));
}

/** One job's buffers and args. */
struct Probe
{
    std::string sig;
    std::uint64_t units;
    kdp::Buffer<std::int32_t> out;
    kdp::KernelArgs args;

    Probe(std::string s, std::uint64_t n)
        : sig(std::move(s)), units(n),
          out(n, kdp::MemSpace::Global, "out")
    {
        out.fill(-1);
        args.add(out).add(static_cast<std::int64_t>(n));
    }
};

JobSpec
makeJob(Probe &p, std::int32_t marker)
{
    JobSpec job;
    job.signature(p.sig);
    job.units(p.units);
    job.args(p.args);
    job.ensureRegistered([&p, marker](runtime::Runtime &rt) {
        registerEquivalentPool(rt, p.sig, marker);
    });
    return job;
}

/**
 * Submit and block; returns a copy because the result reference is
 * only valid while the handle is alive.
 */
JobResult
submitAndWait(DispatchService &svc, const JobSpec &job)
{
    JobHandle h = submitOne(svc, job);
    return h.result();
}

/** Single-runtime fixture with an attached injector. */
struct RuntimeFixture
{
    FaultInjector faults;
    sim::CpuDevice dev;
    runtime::Runtime rt{dev};
    Probe probe{"k", 2048};

    explicit RuntimeFixture(FaultConfig cfg = FaultConfig())
        : faults(cfg)
    {
        dev.setFaultInjector(&faults);
        registerEquivalentPool(rt, "k", 3);
    }

    support::Status launch(runtime::LaunchReport &report)
    {
        return rt.launch("k", probe.units, probe.args,
                         runtime::LaunchOptions(), report);
    }
};

} // namespace

TEST(FaultInjector, SameSeedSameSchedule)
{
    FaultConfig cfg;
    cfg.launchFailProb = 0.2;
    cfg.latencySpikeProb = 0.1;
    cfg.hangProb = 0.05;
    cfg.seed = 42;

    FaultInjector a(cfg), b(cfg);
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(a.decide("d", "v", i), b.decide("d", "v", i));
    EXPECT_EQ(a.total(), b.total());
    EXPECT_EQ(a.aborts(), b.aborts());
    EXPECT_GT(a.count(FaultKind::LaunchFail), 0u);
    EXPECT_GT(a.count(FaultKind::LatencySpike), 0u);
    EXPECT_GT(a.count(FaultKind::Hang), 0u);
    // The log and the per-kind counters agree.
    EXPECT_EQ(a.events().size(), a.total());
}

TEST(FaultInjector, ScriptedFaultsPrecedeRandomDraw)
{
    FaultInjector inj; // all probabilities zero
    inj.failNext(2);
    inj.hangNext();
    inj.spikeNext();
    EXPECT_EQ(inj.decide("d", "v", 0), FaultKind::LaunchFail);
    EXPECT_EQ(inj.decide("d", "v", 1), FaultKind::LaunchFail);
    EXPECT_EQ(inj.decide("d", "v", 2), FaultKind::Hang);
    EXPECT_EQ(inj.decide("d", "v", 3), FaultKind::LatencySpike);
    EXPECT_EQ(inj.decide("d", "v", 4), FaultKind::None);
    EXPECT_EQ(inj.total(), 4u);
    EXPECT_EQ(inj.aborts(), 3u);
    const auto events = inj.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].kind, FaultKind::LaunchFail);
    EXPECT_EQ(events[2].kind, FaultKind::Hang);
    EXPECT_EQ(events[2].device, "d");
    EXPECT_EQ(events[2].time, 2);
}

TEST(RuntimeFault, LaunchFailSurfacesAsUnavailable)
{
    RuntimeFixture f;
    f.faults.failNext();

    runtime::LaunchReport report;
    const auto st = f.launch(report);
    EXPECT_EQ(st.code(), support::StatusCode::Unavailable);
    EXPECT_NE(st.message().find("launch failure"), std::string::npos);

    // The device survives: the next launch runs to completion and
    // covers the whole workload.
    const auto again = f.launch(report);
    EXPECT_TRUE(again.ok()) << again.toString();
    for (std::uint64_t u = 0; u < f.probe.units; ++u)
        ASSERT_EQ(f.probe.out.at(u), 3);
}

TEST(RuntimeFault, HangSurfacesAsDeadlineExceededAndStallsClock)
{
    RuntimeFixture f;
    f.faults.hangNext();

    const sim::TimeNs before = f.dev.now();
    runtime::LaunchReport report;
    const auto st = f.launch(report);
    EXPECT_EQ(st.code(), support::StatusCode::DeadlineExceeded);
    // The hang charges its stall to the device's virtual clock.
    EXPECT_GE(f.dev.now() - before, f.faults.config().hangStallNs);

    EXPECT_TRUE(f.launch(report).ok());
}

TEST(RuntimeFault, LatencySpikeSlowsButCompletesCorrectly)
{
    // Baseline: fault-free elapsed time of the warm (plain) launch.
    RuntimeFixture clean;
    runtime::LaunchReport report;
    ASSERT_TRUE(clean.launch(report).ok()); // profiles + caches
    ASSERT_TRUE(clean.launch(report).ok()); // plain
    const sim::TimeNs plainNs = report.elapsed();

    RuntimeFixture spiked;
    ASSERT_TRUE(spiked.launch(report).ok());
    spiked.faults.spikeNext();
    spiked.probe.out.fill(-1);
    ASSERT_TRUE(spiked.launch(report).ok());
    // Same selection, same output, but stretched work-groups.
    EXPECT_GT(report.elapsed(), plainNs);
    EXPECT_EQ(spiked.faults.count(FaultKind::LatencySpike), 1u);
    for (std::uint64_t u = 0; u < spiked.probe.units; ++u)
        ASSERT_EQ(spiked.probe.out.at(u), 3);
}

TEST(ServiceFault, RetryReroutesToHealthyDevice)
{
    store::SelectionStore store;
    DispatchService svc(store);
    FaultInjector faults; // scripted only
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.device(0).setFaultInjector(&faults);
    svc.start();

    // The first (least-loaded) route lands on device 0, which drops
    // the launch; the retry must exclude it and succeed on device 1.
    faults.failNext();
    Probe p("k", 2048);
    const JobResult r = submitAndWait(svc, makeJob(p, 5));
    EXPECT_TRUE(r.ok()) << r.status.toString();
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(r.deviceIndex, 1u);
    EXPECT_EQ(r.backoffNs, ServiceConfig().backoffBaseNs);
    for (std::uint64_t u = 0; u < p.units; ++u)
        ASSERT_EQ(p.out.at(u), 5);

    const auto &m = svc.metrics();
    EXPECT_EQ(m.counterValue("recover.retries"), 1u);
    EXPECT_EQ(m.counterValue("jobs.completed"), 1u);
    EXPECT_EQ(m.counterValue("jobs.failed"), 0u);
    svc.stop();
}

TEST(ServiceFault, BackoffDoublesPerAttemptOnSingleDevice)
{
    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.maxAttempts = 4;
    DispatchService svc(store, cfg);
    FaultInjector faults;
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.device(0).setFaultInjector(&faults);
    svc.start();

    // Three scripted failures on the only device: the job keeps
    // coming back to it (the exclusion set resets when every device
    // has failed) with exponentially growing charged backoff.
    faults.failNext(3);
    Probe p("k", 2048);
    const JobResult r = submitAndWait(svc, makeJob(p, 6));
    EXPECT_TRUE(r.ok()) << r.status.toString();
    EXPECT_EQ(r.attempts, 4u);
    // base + 2*base + 4*base after the three failed attempts.
    EXPECT_EQ(r.backoffNs, 7 * cfg.backoffBaseNs);
    EXPECT_EQ(svc.metrics().counterValue("recover.retries"), 3u);
    svc.stop();
}

TEST(ServiceFault, RetriesExhaustedFailsWithLastError)
{
    store::SelectionStore store;
    DispatchService svc(store); // maxAttempts = 3
    FaultInjector faults;
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.device(0).setFaultInjector(&faults);
    svc.start();

    faults.failNext(3);
    Probe p("k", 2048);
    const JobResult r = submitAndWait(svc, makeJob(p, 6));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), support::StatusCode::Unavailable);
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_EQ(svc.metrics().counterValue("jobs.failed"), 1u);
    EXPECT_EQ(svc.metrics().counterValue("recover.retries"), 2u);

    // The device is healthy again afterwards.
    Probe ok("k2", 2048);
    EXPECT_TRUE(submitAndWait(svc, makeJob(ok, 6)).ok());
    svc.stop();
}

TEST(ServiceFault, DeadlineBudgetStopsRetrying)
{
    store::SelectionStore store;
    DispatchService svc(store);
    FaultInjector faults;
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.device(0).setFaultInjector(&faults);
    svc.start();

    // The first attempt fails; the retry's backoff alone would blow
    // the (tiny) deadline, so the job gives up as DeadlineExceeded.
    faults.failNext();
    Probe p("k", 2048);
    JobSpec job = makeJob(p, 6);
    job.deadline(1);
    const JobResult r = submitAndWait(svc, std::move(job));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), support::StatusCode::DeadlineExceeded);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_EQ(svc.metrics().counterValue("recover.timeouts"), 1u);
    EXPECT_EQ(svc.metrics().counterValue("recover.retries"), 0u);
    svc.stop();
}

TEST(ServiceFault, BreakerTripsShedsProbesAndRecovers)
{
    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.affinity = false; // route purely by load / breaker state
    cfg.breakerThreshold = 2;
    cfg.breakerCooldown = 2;
    DispatchService svc(store, cfg);
    FaultInjector faults;
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.device(0).setFaultInjector(&faults);
    svc.start();

    auto runOne = [&](const std::string &sig) {
        Probe p(sig, 2048);
        const JobResult r = submitAndWait(svc, makeJob(p, 8));
        EXPECT_TRUE(r.ok()) << r.status.toString();
        return r.deviceIndex;
    };

    // Jobs A and B land on device 0 first (equal load, lowest index),
    // fail there, and retry onto device 1.  Two consecutive failures
    // trip device 0's breaker.
    faults.failNext(3); // A, B, and later the first probe
    EXPECT_EQ(runOne("a"), 1u);
    EXPECT_EQ(runOne("b"), 1u);
    EXPECT_EQ(svc.metrics().counterValue("breaker.trips"), 1u);

    // While open, routing sheds device 0 for breakerCooldown = 2
    // decisions: jobs C and D go straight to device 1, attempt 1.
    for (const char *sig : {"c", "d"}) {
        Probe p(sig, 2048);
        const JobResult r = submitAndWait(svc, makeJob(p, 8));
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.deviceIndex, 1u);
        EXPECT_EQ(r.attempts, 1u);
    }

    // The cooldown is spent: job E probes device 0, which still
    // fails (third scripted fault) -> the breaker reopens and the
    // job finishes on device 1.
    {
        Probe p("e", 2048);
        const JobResult r = submitAndWait(svc, makeJob(p, 8));
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.deviceIndex, 1u);
        EXPECT_EQ(r.attempts, 2u);
    }
    EXPECT_EQ(svc.metrics().counterValue("breaker.reopens"), 1u);

    // Another cooldown (jobs F, G), then the probe succeeds: closed.
    for (const char *sig : {"f", "g"}) {
        Probe p(sig, 2048);
        EXPECT_EQ(submitAndWait(svc, makeJob(p, 8)).deviceIndex, 1u);
    }
    {
        Probe p("h", 2048);
        const JobResult r = submitAndWait(svc, makeJob(p, 8));
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.deviceIndex, 0u);
        EXPECT_EQ(r.attempts, 1u);
    }
    EXPECT_EQ(svc.metrics().counterValue("breaker.closes"), 1u);
    EXPECT_EQ(svc.metrics().counterValue("breaker.trips"), 1u);
    svc.stop();
}

TEST(ServiceFault, WarmStartFailureQuarantinesStoredSelection)
{
    store::SelectionStore store;
    DispatchService svc(store);
    FaultInjector faults;
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.device(0).setFaultInjector(&faults);
    svc.start();

    // Cold job profiles and stores the winner.
    Probe cold("k", 2048);
    ASSERT_TRUE(submitAndWait(svc, makeJob(cold, 9)).ok());
    ASSERT_TRUE(store.lookup("k", svc.device(0).fingerprint(), 2048)
                    .has_value());

    // The warm-started launch is dropped: the stored selection is
    // quarantined and the retry serves the runner-up, warm.
    faults.failNext();
    Probe warm("k", 2048);
    const JobResult r = submitAndWait(svc, makeJob(warm, 9));
    EXPECT_TRUE(r.ok()) << r.status.toString();
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_TRUE(r.warmStart);
    EXPECT_EQ(store.quarantineCount(), 1u);
    EXPECT_EQ(svc.metrics().counterValue("store.quarantine"), 1u);
    for (std::uint64_t u = 0; u < warm.units; ++u)
        ASSERT_EQ(warm.out.at(u), 9);
    svc.stop();
}

namespace {

/** Shared storm driver; @p serial waits per job, else drains. */
void
runStorm(bool serial)
{
    // Device 0 hangs every launch; devices 1 and 2 drop ~10%.
    FaultConfig hungCfg;
    hungCfg.hangProb = 1.0;
    hungCfg.hangStallNs = 1'000'000; // keep virtual stalls cheap
    FaultConfig flakyCfg;
    flakyCfg.launchFailProb = 0.1;
    flakyCfg.seed = 0xbeef;
    FaultInjector hung(hungCfg);
    FaultInjector flaky1(flakyCfg);
    flakyCfg.seed = 0xbeef + 1;
    FaultInjector flaky2(flakyCfg);

    store::SelectionStore store;
    ServiceConfig cfg;
    // Serially the retry schedule is deterministic and five attempts
    // always complete every job; concurrently the interleaving shifts
    // which PRNG draw each attempt sees, so give unlucky jobs room.
    cfg.maxAttempts = serial ? 5 : 8;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.device(0).setFaultInjector(&hung);
    svc.device(1).setFaultInjector(&flaky1);
    svc.device(2).setFaultInjector(&flaky2);
    svc.start();

    constexpr unsigned N = 40;
    constexpr std::uint64_t units = 2048;
    std::vector<std::unique_ptr<Probe>> probes;
    std::vector<JobHandle> handles;
    for (unsigned i = 0; i < N; ++i) {
        const std::int32_t marker =
            static_cast<std::int32_t>(10 + i % 4);
        probes.push_back(std::make_unique<Probe>(
            "s" + std::to_string(i % 4), units));
        handles.push_back(
            submitOne(svc, makeJob(*probes.back(), marker)));
        if (serial)
            handles.back().wait();
    }
    svc.drain();

    // Serially: 100% completion.  Concurrently a pathologically
    // unlucky job may still exhaust its attempts; such a failure must
    // carry the injected fault's code, never a logic error.  Either
    // way every completed job's output matches the fault-free ground
    // truth unit for unit.
    std::uint64_t completed = 0;
    for (unsigned i = 0; i < N; ++i) {
        const JobResult &r = handles[i].result();
        if (serial)
            ASSERT_TRUE(r.ok()) << "job " << i << ": "
                                << r.status.toString();
        if (!r.ok()) {
            EXPECT_EQ(r.attempts, cfg.maxAttempts);
            EXPECT_TRUE(r.status.code()
                            == support::StatusCode::Unavailable
                        || r.status.code()
                            == support::StatusCode::DeadlineExceeded)
                << r.status.toString();
            continue;
        }
        ++completed;
        const auto marker = static_cast<std::int32_t>(10 + i % 4);
        for (std::uint64_t u = 0; u < units; ++u)
            ASSERT_EQ(probes[i]->out.at(u), marker)
                << "job " << i << " unit " << u;
    }

    // Fault-free ground truth for one representative signature: a
    // clean single-runtime run writes exactly the marker everywhere.
    {
        sim::CpuDevice dev;
        runtime::Runtime rt(dev);
        registerEquivalentPool(rt, "s0", 10);
        Probe ref("s0", units);
        rt.launchKernel("s0", units, ref.args);
        for (std::uint64_t u = 0; u < units; ++u)
            ASSERT_EQ(ref.out.at(u), 10);
    }

    // The metrics reconcile exactly against the injectors' logs:
    // every aborted launch is a failed attempt, and every failed
    // attempt was either retried or failed the job.
    const auto &m = svc.metrics();
    const std::uint64_t aborts =
        hung.aborts() + flaky1.aborts() + flaky2.aborts();
    EXPECT_EQ(m.counterValue("jobs.completed"), completed);
    EXPECT_EQ(m.counterValue("jobs.failed"), N - completed);
    if (serial)
        EXPECT_EQ(completed, std::uint64_t{N});
    EXPECT_EQ(m.counterValue("recover.retries")
                  + m.counterValue("jobs.failed"),
              aborts);
    // Hangs and only hangs surface as attempt timeouts.
    EXPECT_EQ(m.counterValue("recover.timeouts"), hung.aborts());
    // The permanently hung device tripped its breaker and never
    // completed a job.
    EXPECT_GE(m.counterValue("breaker.trips"), 1u);
    const auto devJobs = [](unsigned i) {
        return support::MetricsRegistry::labeled(
            "device.jobs", "device", "dev" + std::to_string(i));
    };
    EXPECT_EQ(m.counterValue(devJobs(0)), 0u);
    EXPECT_GT(m.counterValue(devJobs(1)) + m.counterValue(devJobs(2)),
              0u);
    svc.stop();
}

} // namespace

TEST(ServiceFault, AcceptanceStormSerialDeterministic)
{
    runStorm(true);
}

TEST(ServiceFault, AcceptanceStormConcurrentInvariants)
{
    runStorm(false);
}
