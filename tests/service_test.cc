/**
 * @file
 * Tests for the multi-device dispatch service: multi-threaded smoke
 * test against single-runtime ground truth, warm start from the
 * shared selection store, size-bucket sensitivity, drift-triggered
 * quarantine and re-profiling, job handles and cancellation, error
 * propagation for unknown signatures, and the metrics export.
 */
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/dispatch_service.hh"
#include "sim/cpu/cpu_device.hh"
#include "submit_one.hh"

using namespace dysel;
using namespace dysel::serve;

namespace {

constexpr std::uint32_t laneCount = 8;

/** Same marker-kernel scheme as runtime_test: writes `marker` into
 *  out[unit] and burns `flops_per_unit` ALU ops per unit. */
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

void
registerPool(runtime::Runtime &rt, const std::string &sig,
             std::uint64_t slow_flops = 4000,
             std::uint64_t fast_flops = 100)
{
    rt.removeKernel(sig);
    rt.addKernel(sig, markerKernel("slow", 1, slow_flops));
    rt.addKernel(sig, markerKernel("fast", 2, fast_flops));
    rt.setKernelInfo(sig, regularInfo(sig));
}

/** One job's state: its output buffer, args, and completion record. */
struct Probe
{
    std::string sig;
    std::uint64_t units;
    kdp::Buffer<std::int32_t> out;
    kdp::KernelArgs args;
    JobResult result;
    bool finished = false;

    Probe(std::string s, std::uint64_t n)
        : sig(std::move(s)), units(n),
          out(n, kdp::MemSpace::Global, "out")
    {
        out.fill(-1);
        args.add(out).add(static_cast<std::int64_t>(n));
    }
};

JobSpec
makeJob(Probe &p, std::mutex &mu, std::uint64_t slow_flops = 4000,
        std::uint64_t fast_flops = 100)
{
    JobSpec job;
    job.signature(p.sig).units(p.units).args(p.args);
    job.ensureRegistered([&p, slow_flops,
                          fast_flops](runtime::Runtime &rt) {
        registerPool(rt, p.sig, slow_flops, fast_flops);
    });
    job.onDone([&p, &mu](const JobResult &r) {
        std::lock_guard<std::mutex> lock(mu);
        p.result = r;
        p.finished = true;
    });
    return job;
}

struct ServiceFixture
{
    store::SelectionStore store;
    DispatchService svc;
    std::mutex mu;

    explicit ServiceFixture(unsigned devices = 2,
                            store::StoreConfig scfg =
                                store::StoreConfig(),
                            ServiceConfig cfg = ServiceConfig())
        : store(scfg), svc(store, cfg)
    {
        for (unsigned i = 0; i < devices; ++i)
            svc.addDevice(std::make_unique<sim::CpuDevice>());
        svc.start();
    }
};

} // namespace

TEST(DispatchService, SmokeMatchesSingleRuntime)
{
    // N jobs with distinct signatures spread across two identical CPU
    // devices; each job's output must match the same launch on a
    // standalone single-device runtime.
    constexpr unsigned N = 8;
    constexpr std::uint64_t units = 2048;

    ServiceFixture f;
    std::vector<std::unique_ptr<Probe>> probes;
    for (unsigned i = 0; i < N; ++i)
        probes.push_back(
            std::make_unique<Probe>("k" + std::to_string(i), units));
    for (auto &p : probes)
        submitOne(f.svc, makeJob(*p, f.mu));
    f.svc.stop();

    for (auto &p : probes) {
        ASSERT_TRUE(p->finished);
        ASSERT_TRUE(p->result.ok()) << p->result.status.toString();
        EXPECT_EQ(p->result.attempts, 1u);
        EXPECT_TRUE(p->result.report.profiled); // cold store
        EXPECT_EQ(p->result.report.selectedName, "fast");

        // Ground truth: the same cold launch on a lone runtime.
        sim::CpuDevice dev;
        runtime::Runtime rt(dev);
        registerPool(rt, p->sig);
        Probe ref(p->sig, units);
        auto report = rt.launchKernel(ref.sig, units, ref.args);
        EXPECT_EQ(report.selectedName, p->result.report.selectedName);
        EXPECT_EQ(report.profiledUnits, p->result.report.profiledUnits);
        for (std::uint64_t u = 0; u < units; ++u)
            ASSERT_EQ(p->out.at(u), ref.out.at(u))
                << p->sig << " unit " << u;
    }

    // Least-loaded routing used both devices.
    const auto &m = f.svc.metrics();
    const auto devJobs = [](unsigned i) {
        return support::MetricsRegistry::labeled(
            "device.jobs", "device", "dev" + std::to_string(i));
    };
    EXPECT_GT(m.counterValue(devJobs(0)), 0u);
    EXPECT_GT(m.counterValue(devJobs(1)), 0u);
    EXPECT_EQ(m.counterValue(devJobs(0)) + m.counterValue(devJobs(1)),
              std::uint64_t{N});
    EXPECT_EQ(m.counterValue("jobs.completed"), std::uint64_t{N});
    EXPECT_EQ(m.counterValue("jobs.failed"), 0u);
}

TEST(DispatchService, SecondLaunchWarmStartsFromStore)
{
    ServiceFixture f;
    Probe first("k", 2048);
    submitOne(f.svc, makeJob(first, f.mu));
    f.svc.drain();
    ASSERT_TRUE(first.result.ok()) << first.result.status.toString();
    EXPECT_FALSE(first.result.warmStart);
    EXPECT_TRUE(first.result.report.profiled);

    Probe second("k", 2048);
    submitOne(f.svc, makeJob(second, f.mu));
    f.svc.drain();
    ASSERT_TRUE(second.result.ok()) << second.result.status.toString();
    EXPECT_TRUE(second.result.warmStart);
    EXPECT_EQ(second.result.report.profiledUnits, 0u);
    EXPECT_EQ(second.result.report.selectedName, "fast");
    // The whole output carries the winner's marker: no profiling ran.
    for (std::uint64_t u = 0; u < second.units; ++u)
        ASSERT_EQ(second.out.at(u), 2);
    // Affinity pinned the signature to the profiling device.
    EXPECT_EQ(second.result.deviceIndex, first.result.deviceIndex);

    EXPECT_EQ(f.store.hits(), 1u);
    EXPECT_EQ(f.store.misses(), 1u);
    EXPECT_EQ(f.svc.metrics().counterValue("store.hit"), 1u);
    EXPECT_EQ(f.svc.metrics().counterValue("store.miss"), 1u);
}

TEST(DispatchService, ChangedSizeBucketReprofiles)
{
    ServiceFixture f;
    Probe small("k", 2048); // bucket 11
    submitOne(f.svc, makeJob(small, f.mu));
    f.svc.drain();

    Probe large("k", 8192); // bucket 13: a store miss
    submitOne(f.svc, makeJob(large, f.mu));
    f.svc.drain();
    ASSERT_TRUE(large.result.ok()) << large.result.status.toString();
    EXPECT_FALSE(large.result.warmStart);
    EXPECT_TRUE(large.result.report.profiled);
    EXPECT_GT(large.result.report.profiledUnits, 0u);
    EXPECT_EQ(f.store.size(), 2u);
}

TEST(DispatchService, DriftQuarantinesThenReprofilesAfterCooldown)
{
    store::StoreConfig scfg;
    scfg.quarantineCooldown = 2;
    ServiceFixture f(1, scfg);
    // Job 1 profiles; jobs 2-3 warm-start and seed/confirm the plain
    // throughput baseline.
    for (int i = 0; i < 3; ++i) {
        Probe p("k", 2048);
        submitOne(f.svc, makeJob(p, f.mu));
        f.svc.drain();
        ASSERT_TRUE(p.result.ok()) << p.result.status.toString();
        EXPECT_EQ(p.result.warmStart, i > 0);
    }

    // The kernel's behaviour shifts: the cached winner is now 20x
    // slower.  The plain run deviates from the stored baseline beyond
    // the drift factor, quarantining the winner...
    Probe shifted("k", 2048);
    submitOne(f.svc, makeJob(shifted, f.mu, 4000, 2000));
    f.svc.drain();
    ASSERT_TRUE(shifted.result.ok()) << shifted.result.status.toString();
    EXPECT_TRUE(shifted.result.warmStart); // served before detection
    EXPECT_EQ(f.store.quarantineCount(), 1u);
    EXPECT_EQ(f.svc.metrics().counterValue("store.quarantine"), 1u);

    // ...so the record still serves warm, but with the runner-up.
    Probe fallback("k", 2048);
    submitOne(f.svc, makeJob(fallback, f.mu, 4000, 2000));
    f.svc.drain();
    ASSERT_TRUE(fallback.result.ok())
        << fallback.result.status.toString();
    EXPECT_TRUE(fallback.result.warmStart);
    EXPECT_EQ(fallback.result.report.selectedName, "slow");
    // The whole output carries the fallback's marker.
    for (std::uint64_t u = 0; u < fallback.units; ++u)
        ASSERT_EQ(fallback.out.at(u), 1);

    // The second cooldown observation invalidates the record...
    Probe cooled("k", 2048);
    submitOne(f.svc, makeJob(cooled, f.mu, 4000, 2000));
    f.svc.drain();
    ASSERT_TRUE(cooled.result.ok()) << cooled.result.status.toString();
    EXPECT_EQ(f.store.driftInvalidations(), 0u);
    EXPECT_EQ(
        f.svc.metrics().counterValue("store.drift_invalidation"), 1u);

    // ...so the next launch re-profiles against the new behaviour,
    // and the once-quarantined pool competes from scratch.
    Probe after("k", 2048);
    submitOne(f.svc, makeJob(after, f.mu, 4000, 2000));
    f.svc.drain();
    ASSERT_TRUE(after.result.ok()) << after.result.status.toString();
    EXPECT_FALSE(after.result.warmStart);
    EXPECT_TRUE(after.result.report.profiled);
}

TEST(DispatchService, UnknownSignatureFailsTheJobNotTheService)
{
    ServiceFixture f;
    Probe bad("unregistered", 2048);
    JobSpec job = makeJob(bad, f.mu);
    job.ensureRegistered(nullptr); // nothing registers the kernel
    submitOne(f.svc, job);
    f.svc.drain();
    ASSERT_TRUE(bad.finished);
    EXPECT_FALSE(bad.result.ok());
    EXPECT_EQ(bad.result.status.code(),
              support::StatusCode::NotFound);
    EXPECT_NE(bad.result.status.message().find("unregistered"),
              std::string::npos);
    // NotFound is not retryable: one attempt, no re-routing.
    EXPECT_EQ(bad.result.attempts, 1u);
    EXPECT_EQ(f.svc.metrics().counterValue("jobs.failed"), 1u);
    EXPECT_EQ(f.svc.metrics().counterValue("recover.retries"), 0u);

    // The worker survives and serves the next job.
    Probe good("k", 2048);
    submitOne(f.svc, makeJob(good, f.mu));
    f.svc.drain();
    ASSERT_TRUE(good.result.ok()) << good.result.status.toString();
}

TEST(DispatchService, SubmitBeforeStartThrows)
{
    store::SelectionStore store;
    DispatchService svc(store);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    std::mutex mu;
    Probe p("k", 2048);
    EXPECT_THROW(submitOne(svc, makeJob(p, mu)), std::logic_error);
}

TEST(DispatchService, HandleWaitsAndExposesResult)
{
    ServiceFixture f;
    Probe p("k", 2048);
    JobHandle h = submitOne(f.svc, makeJob(p, f.mu));
    ASSERT_TRUE(h.valid());
    EXPECT_GT(h.id(), 0u);
    const JobResult &r = h.result(); // blocks until completion
    EXPECT_TRUE(h.done());
    EXPECT_TRUE(r.ok()) << r.status.toString();
    EXPECT_EQ(r.id, h.id());
    EXPECT_EQ(r.report.selectedName, "fast");
    // Too late to cancel a finished job.
    EXPECT_FALSE(h.cancel());

    JobHandle empty;
    EXPECT_FALSE(empty.valid());
    EXPECT_FALSE(empty.done());
    EXPECT_FALSE(empty.cancel());
    EXPECT_THROW(empty.result(), std::logic_error);
}

TEST(DispatchService, CancelPendingJobBeforeDispatch)
{
    ServiceFixture f(1); // one device: jobs queue strictly in order
    std::promise<void> release;
    auto released = release.get_future().share();

    // Job 1 parks the single worker inside ensureRegistered, so job 2
    // is guaranteed to still be queued when it is cancelled.
    Probe blocker("k", 2048);
    JobSpec job1 = makeJob(blocker, f.mu);
    job1.ensureRegistered([&blocker, released](runtime::Runtime &rt) {
        released.wait();
        registerPool(rt, blocker.sig, 4000, 100);
    });
    JobHandle h1 = submitOne(f.svc, job1);

    Probe victim("k", 2048);
    JobHandle h2 = submitOne(f.svc, makeJob(victim, f.mu));
    EXPECT_TRUE(h2.cancel());
    EXPECT_FALSE(h2.cancel()); // idempotence: already cancelled
    EXPECT_TRUE(h2.done());
    EXPECT_EQ(h2.result().status.code(),
              support::StatusCode::Cancelled);

    release.set_value();
    f.svc.drain();
    EXPECT_TRUE(h1.result().ok()) << h1.result().status.toString();
    // The cancelled job never ran: no output was written.  Its done
    // callback still fires exactly once, with the Cancelled result
    // (every job reaches its callback on every terminal path).
    for (std::uint64_t u = 0; u < victim.units; ++u)
        ASSERT_EQ(victim.out.at(u), -1);
    EXPECT_TRUE(victim.finished);
    EXPECT_EQ(victim.result.status.code(),
              support::StatusCode::Cancelled);
    EXPECT_EQ(f.svc.metrics().counterValue("jobs.cancelled"), 1u);
    EXPECT_EQ(f.svc.metrics().counterValue("jobs.completed"), 1u);
}

TEST(DispatchService, MetricsExportCoversJobsAndStore)
{
    ServiceFixture f;
    for (int i = 0; i < 2; ++i) {
        Probe p("k", 2048);
        submitOne(f.svc, makeJob(p, f.mu));
        f.svc.drain();
    }
    const std::string text = f.svc.metrics().renderText();
    EXPECT_NE(text.find("jobs.completed 2"), std::string::npos);
    EXPECT_NE(text.find("store.hit 1"), std::string::npos);
    EXPECT_NE(text.find("store.miss 1"), std::string::npos);
    EXPECT_NE(text.find("job.device_ns{"), std::string::npos);

    const auto json = f.svc.metrics().renderJson();
    EXPECT_EQ(json.at("counters").at("jobs.completed").asUint(), 2u);
    EXPECT_TRUE(json.at("histograms").has("job.device_ns"));
}
