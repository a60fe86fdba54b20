/**
 * @file
 * Live introspection plane + selection-quality audit tests
 * (DESIGN §11).
 *
 * The admin plane must answer every endpoint with a valid, parseable
 * response WHILE a fault-injected storm hammers the service -- both
 * driven directly (AdminPlane::handleTarget) and over the loopback
 * HTTP front.  The audit's exactly-once contract is checked by
 * reconciling the audit.* counters 1:1 against the tracer's
 * job-correlated instants, and the auditor's demotion decision is
 * pinned down deterministically at the unit level.  The batched-path
 * reconciliation test asserts the fused launch path keeps the job
 * metrics exactly-once against the handles the submitters hold.  CI
 * runs this binary under ASan and TSan (ctest label
 * `observability`).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "serve/admin/admin_plane.hh"
#include "serve/dispatch_service.hh"
#include "submit_one.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/fault.hh"
#include "support/json.hh"
#include "support/net/http.hh"
#include "support/rng.hh"

using namespace dysel;
using namespace dysel::serve;

namespace {

constexpr std::uint32_t laneCount = 8;

std::int32_t
digestOf(std::uint64_t u)
{
    return static_cast<std::int32_t>((u * 2654435761ull) & 0x7fffffff);
}

kdp::KernelVariant
workKernel(const char *name, std::uint64_t flops_per_unit)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = laneCount;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    v.fn = [flops_per_unit](kdp::GroupCtx &g,
                            const kdp::KernelArgs &args) {
        auto &out = args.buf<std::int32_t>(0);
        const auto units = static_cast<std::uint64_t>(args.scalarInt(1));
        for (std::uint64_t u = g.unitBase();
             u < g.unitBase() + g.waFactor(); ++u) {
            if (u >= units)
                break;
            const auto lane = static_cast<std::uint32_t>(u % laneCount);
            g.store(out, u, digestOf(u), lane);
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

support::Status
installPools(DispatchService &svc, const std::vector<std::string> &sigs)
{
    return svc.registerKernelPool([sigs](runtime::Runtime &rt) {
        for (const auto &sig : sigs) {
            rt.addKernel(sig, workKernel("slow", 4000));
            rt.addKernel(sig, workKernel("fast", 100));
            rt.setKernelInfo(sig, regularInfo(sig));
        }
    });
}

/** Every page must parse as its declared content type. */
void
expectValidResponse(const admin::AdminResponse &resp,
                    const std::string &endpoint)
{
    if (endpoint == "/readyz") {
        EXPECT_TRUE(resp.status == 200 || resp.status == 503)
            << endpoint;
    } else {
        EXPECT_EQ(resp.status, 200) << endpoint;
    }
    ASSERT_FALSE(resp.body.empty()) << endpoint;
    if (resp.contentType.rfind("application/json", 0) == 0) {
        EXPECT_NO_THROW(support::Json::parse(resp.body))
            << endpoint << ": " << resp.body.substr(0, 200);
    } else if (endpoint == "/metrics") {
        // Prometheus exposition: every non-comment line must end in
        // a parseable number.
        std::istringstream in(resp.body);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            const auto sp = line.rfind(' ');
            ASSERT_NE(sp, std::string::npos) << line;
            char *end = nullptr;
            std::strtod(line.c_str() + sp + 1, &end);
            EXPECT_TRUE(end && *end == '\0') << line;
        }
    }
}

} // namespace

// ---- request parsing ------------------------------------------------

TEST(AdminPlaneParse, SplitsPathAndDecodesQuery)
{
    auto req = admin::AdminPlane::parseTarget(
        "/debug/flight?worker=3&verbose=");
    EXPECT_EQ(req.path, "/debug/flight");
    EXPECT_EQ(req.query.at("worker"), "3");
    EXPECT_EQ(req.query.at("verbose"), "");

    req = admin::AdminPlane::parseTarget("/metrics");
    EXPECT_EQ(req.path, "/metrics");
    EXPECT_TRUE(req.query.empty());

    // %-decoding and '+' for spaces.
    req = admin::AdminPlane::parseTarget("/x?key=a%2Fb+c");
    EXPECT_EQ(req.query.at("key"), "a/b c");

    // Degenerate inputs parse without throwing.
    req = admin::AdminPlane::parseTarget("/x?");
    EXPECT_TRUE(req.query.empty());
    req = admin::AdminPlane::parseTarget("/x?&&=v&");
    EXPECT_EQ(req.path, "/x");
}

// ---- live endpoints under storm -------------------------------------

TEST(AdminPlane, EveryEndpointAnswersDuringAFaultInjectedStorm)
{
    constexpr unsigned kSubmitters = 4;
    constexpr std::uint64_t kJobsPerSubmitter = 150;
    constexpr std::uint64_t kUnits = 512; // profilable

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.audit.sampleRate = 0.25;
    DispatchService svc(store, cfg);

    sim::FaultConfig fcfg;
    fcfg.launchFailProb = 0.05;
    fcfg.latencySpikeProb = 0.03;
    fcfg.seed = 0x0b5;
    sim::FaultInjector faults(fcfg);
    for (unsigned d = 0; d < 2; ++d) {
        const unsigned idx =
            svc.addDevice(std::make_unique<sim::CpuDevice>());
        svc.device(idx).setFaultInjector(&faults);
    }
    std::vector<std::string> sigs = {"obs0", "obs1", "obs2"};
    ASSERT_TRUE(installPools(svc, sigs).ok());
    svc.tracer().setEnabled(true);
    svc.start();

    admin::AdminPlane plane(svc);

    // The HTTP front on an ephemeral loopback port, serving the same
    // plane the direct queries hit.
    support::net::HttpServer http;
    ASSERT_TRUE(http.start(0,
                           [&plane](const support::net::HttpRequest &r) {
                               const admin::AdminResponse a =
                                   plane.handleTarget(r.target);
                               support::net::HttpResponse out;
                               out.status = a.status;
                               out.contentType = a.contentType;
                               out.body = a.body;
                               return out;
                           })
                    .ok());
    ASSERT_NE(http.port(), 0);

    std::atomic<unsigned> submittersDone{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kSubmitters; ++t) {
        threads.emplace_back([&, t] {
            support::Rng rng(0x0b50 + t);
            kdp::Buffer<std::int32_t> out(kUnits, kdp::MemSpace::Global,
                                          "obs.out");
            for (std::uint64_t j = 0; j < kJobsPerSubmitter; ++j) {
                JobSpec job;
                job.signature(sigs[rng.nextBelow(sigs.size())]);
                job.units(kUnits);
                job.mutableArgs().add(out).add(
                    static_cast<std::int64_t>(kUnits));
                JobHandle h = submitOne(svc, job);
                (void)h.result(); // closed loop
            }
            submittersDone.fetch_add(1, std::memory_order_release);
        });
    }

    const std::vector<std::string> endpoints = {
        "/metrics",       "/healthz",
        "/readyz",        "/debug/selections",
        "/debug/flight?worker=0", "/debug/trace?last=32",
        "/debug/audit",   "/debug/predictor",
        "/"};

    // Query every endpoint repeatedly while the storm runs; the loop
    // is guaranteed to overlap the storm because the submitters are
    // still running until the counter says otherwise.
    std::size_t laps = 0;
    while (submittersDone.load(std::memory_order_acquire)
           < kSubmitters) {
        for (const auto &ep : endpoints) {
            const admin::AdminResponse resp = plane.handleTarget(ep);
            expectValidResponse(resp, ep);
        }
        ++laps;
    }
    EXPECT_GE(laps, 1u);

    // One full pass over the HTTP front too (the service is still
    // running -- stop() hasn't been called).
    for (const auto &ep : endpoints) {
        std::string body;
        int status = 0;
        const auto st = support::net::httpGet("127.0.0.1", http.port(),
                                              ep, body, status);
        ASSERT_TRUE(st.ok()) << ep << ": " << st.toString();
        admin::AdminResponse resp;
        resp.status = status;
        resp.body = body;
        resp.contentType = ep == "/metrics"
                                   || ep.rfind("/debug/flight", 0) == 0
                               ? "text/plain"
                               : "application/json";
        expectValidResponse(resp, ep);
    }

    // Error paths stay structured JSON.
    EXPECT_EQ(plane.handleTarget("/nope").status, 404);
    EXPECT_EQ(plane.handleTarget("/debug/flight").status, 400);
    EXPECT_EQ(plane.handleTarget("/debug/flight?worker=banana").status,
              400);
    EXPECT_EQ(plane.handleTarget("/debug/flight?worker=99").status,
              404);
    {
        std::string body;
        int status = 0;
        ASSERT_TRUE(support::net::httpGet("127.0.0.1", http.port(),
                                          "/nope", body, status)
                        .ok());
        EXPECT_EQ(status, 404);
        EXPECT_NO_THROW(support::Json::parse(body));
    }

    for (auto &th : threads)
        th.join();
    svc.drain();

    // While running with closed breakers, the service is ready.
    EXPECT_EQ(plane.handleTarget("/readyz").status, 200);
    // The health snapshot agrees with a drained service.
    {
        const auto h = svc.health();
        EXPECT_TRUE(h.running);
        EXPECT_EQ(h.inFlight, 0u);
        EXPECT_EQ(h.devices.size(), 2u);
    }

    http.stop();
    svc.stop();

    // Stopped means not ready (503), but /healthz still answers.
    EXPECT_EQ(plane.handleTarget("/readyz").status, 503);
    EXPECT_EQ(plane.handleTarget("/healthz").status, 200);

    // The selections debug page reflects the storm's records.
    const auto sel = plane.handleTarget("/debug/selections");
    const auto parsed = support::Json::parse(sel.body);
    EXPECT_FALSE(parsed.at("records").items().empty());
}

// ---- audit reconciliation -------------------------------------------

TEST(SelectionAudit, CountersReconcileOneToOneAgainstTracerInstants)
{
    constexpr unsigned kSubmitters = 4;
    constexpr std::uint64_t kJobsPerSubmitter = 100;
    constexpr std::uint64_t kUnits = 512;

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.audit.sampleRate = 0.5; // every 2nd eligible warm hit
    DispatchService svc(store, cfg);
    for (unsigned d = 0; d < 2; ++d)
        svc.addDevice(std::make_unique<sim::CpuDevice>());
    std::vector<std::string> sigs = {"aud0", "aud1"};
    ASSERT_TRUE(installPools(svc, sigs).ok());
    svc.tracer().setEnabled(true);
    svc.start();

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kSubmitters; ++t) {
        threads.emplace_back([&, t] {
            support::Rng rng(0xa0d + t);
            kdp::Buffer<std::int32_t> out(kUnits, kdp::MemSpace::Global,
                                          "aud.out");
            for (std::uint64_t j = 0; j < kJobsPerSubmitter; ++j) {
                JobSpec job;
                job.signature(sigs[rng.nextBelow(sigs.size())]);
                job.units(kUnits);
                job.mutableArgs().add(out).add(
                    static_cast<std::int64_t>(kUnits));
                JobHandle h = submitOne(svc, job);
                (void)h.result();
            }
        });
    }
    for (auto &th : threads)
        th.join();
    svc.drain();
    svc.stop();

    auto &m = svc.metrics();
    const auto &tr = svc.tracer();
    ASSERT_NE(svc.auditor(), nullptr);

    // The storm is warm-hit dominated, so the auditor must have
    // sampled; every sample is exactly one counter increment and
    // exactly one job-correlated tracer instant.
    EXPECT_GT(m.counterValue("audit.samples"), 0u);
    EXPECT_EQ(m.counterValue("audit.samples"),
              tr.countNamed("audit.sample"));
    EXPECT_EQ(m.counterValue("audit.demotions"),
              tr.countNamed("audit.demoted"));
    EXPECT_EQ(m.counterValue("audit.probe_failed"),
              tr.countNamed("audit.probe_failed"));

    // The auditor's own totals agree with the registry.
    EXPECT_EQ(svc.auditor()->samples(),
              m.counterValue("audit.samples"));
    EXPECT_EQ(svc.auditor()->demotions(),
              m.counterValue("audit.demotions"));
    EXPECT_EQ(svc.auditor()->probeFailures(),
              m.counterValue("audit.probe_failed"));

    // The regret histogram saw exactly the sampled population.
    EXPECT_EQ(m.histogram("audit.regret_pct").count(),
              m.counterValue("audit.samples"));

    // Both variants agree on the output, so the winner is the truly
    // faster one and sampled regret stays moderate on average.
    EXPECT_LT(svc.auditor()->meanRegret(), 1.0);
}

TEST(SelectionAudit, ShadowProbesNeverPolluteTheDriftBaseline)
{
    // A served-from-cache run (fromCache, !profiled) normally feeds
    // the store's drift EMA via noteServed/observePlain.  The audit's
    // shadow probes run the *runner-up*, whose unit time is way off
    // the winner's baseline -- if they leaked into the baseline they
    // would trigger bogus drift invalidations.  With audit at 100%
    // and hundreds of warm hits, surviving records must stay valid
    // and undemoted (both variants agree on outputs, so the fast
    // winner is genuinely best).
    constexpr std::uint64_t kUnits = 512;
    constexpr unsigned kWarmHits = 60;

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.audit.sampleRate = 1.0; // sample every warm hit
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    ASSERT_TRUE(installPools(svc, {"drift0"}).ok());
    svc.start();

    kdp::Buffer<std::int32_t> out(kUnits, kdp::MemSpace::Global,
                                  "drift.out");
    for (unsigned j = 0; j < kWarmHits; ++j) {
        JobSpec job;
        job.signature("drift0");
        job.units(kUnits);
        job.mutableArgs().add(out).add(static_cast<std::int64_t>(kUnits));
        JobHandle h = submitOne(svc, job);
        ASSERT_TRUE(h.result().ok()) << h.result().status.toString();
    }
    svc.drain();
    svc.stop();

    ASSERT_NE(svc.auditor(), nullptr);
    EXPECT_GT(svc.auditor()->samples(), 10u);
    EXPECT_EQ(svc.auditor()->demotions(), 0u);
    EXPECT_EQ(svc.metrics().counterValue("store.drift_invalidation"),
              0u);
    EXPECT_EQ(svc.metrics().counterValue("store.quarantine"), 0u);
    for (const auto &rec : store.records()) {
        EXPECT_TRUE(rec.valid) << rec.signature;
        EXPECT_EQ(rec.quarantinedVariant, -1) << rec.signature;
        EXPECT_EQ(rec.selectedName, "fast") << rec.signature;
    }
}

TEST(SelectionAudit, DemotesAPersistentlyRegrettedSelection)
{
    // Unit-level determinism: feed the auditor samples whose served
    // winner is 2x slower than the runner-up.  After minSamples the
    // EMA crosses the threshold and the auditor demotes through the
    // store's quarantine path -- all observable via counters, the
    // tracer, and the verdict.
    store::SelectionStore store;
    support::MetricsRegistry metrics;
    support::tracing::Tracer tracer;
    tracer.setEnabled(true);
    const std::uint64_t track = tracer.track("audit-test");

    obs::AuditConfig cfg;
    cfg.sampleRate = 1.0;
    cfg.regretThreshold = 0.25;
    cfg.minSamples = 3;
    obs::SelectionAuditor auditor(store, metrics, &tracer, cfg);

    obs::AuditSample s;
    s.signature = "k";
    s.device = "cpu/fake";
    s.units = 512;
    s.winner = "slow";
    s.runnerUp = "fast";
    s.winnerUnitNs = 200.0;
    s.runnerUpUnitNs = 100.0;
    s.traceTrack = track;
    s.jobId = 42;
    s.nowNs = 1000;

    obs::AuditVerdict v;
    for (unsigned i = 0; i < 3; ++i) {
        v = auditor.ingest(s);
        EXPECT_DOUBLE_EQ(v.regret, 1.0);
    }
    EXPECT_TRUE(v.demoted);
    EXPECT_EQ(auditor.samples(), 3u);
    EXPECT_EQ(auditor.demotions(), 1u);
    EXPECT_EQ(metrics.counterValue("audit.samples"), 3u);
    EXPECT_EQ(metrics.counterValue("audit.demotions"), 1u);
    EXPECT_EQ(tracer.countNamed("audit.sample"), 3u);
    EXPECT_EQ(tracer.countNamed("audit.demoted"), 1u);

    // Post-demotion the key state restarts: one fresh good sample
    // must not re-demote.
    s.winnerUnitNs = 100.0;
    s.runnerUpUnitNs = 100.0;
    v = auditor.ingest(s);
    EXPECT_DOUBLE_EQ(v.regret, 0.0);
    EXPECT_FALSE(v.demoted);
    EXPECT_EQ(v.keySamples, 1u);

    // Degenerate probes count as failures, never as samples.
    s.winnerUnitNs = 0.0;
    (void)auditor.ingest(s);
    EXPECT_EQ(auditor.probeFailures(), 1u);
    EXPECT_EQ(tracer.countNamed("audit.probe_failed"), 1u);
    EXPECT_EQ(auditor.samples(), 4u);
}

TEST(SelectionAudit, ConfigValidationRejectsNonsense)
{
    obs::AuditConfig cfg;
    EXPECT_TRUE(cfg.validate().ok()); // disabled default

    cfg.sampleRate = 1.5;
    EXPECT_FALSE(cfg.validate().ok());
    cfg.sampleRate = 0.02;
    EXPECT_TRUE(cfg.validate().ok());
    EXPECT_EQ(cfg.stride(), 50u);

    cfg.regretThreshold = 0.0;
    EXPECT_FALSE(cfg.validate().ok());
    cfg.regretThreshold = 0.25;
    cfg.emaAlpha = 0.0;
    EXPECT_FALSE(cfg.validate().ok());
    cfg.emaAlpha = 0.3;
    cfg.minSamples = 0;
    EXPECT_FALSE(cfg.validate().ok());
    cfg.minSamples = 3;
    cfg.probeUnitsMax = 1;
    cfg.probeUnitsMin = 32;
    EXPECT_FALSE(cfg.validate().ok());

    // The service config surfaces the same check.
    ServiceConfig scfg;
    scfg.audit.sampleRate = 2.0;
    EXPECT_FALSE(scfg.validate().ok());
}

// ---- batched-path metrics reconciliation ----------------------------

TEST(BatchedMetrics, FusedStormReconcilesExactlyOnceAgainstHandles)
{
    // A fused-launch storm: bursts of same-key non-profilable jobs
    // that the batcher gathers into fused launches.  Whatever mix of
    // fused, demoted, and solo execution results, the metrics must
    // reconcile exactly-once against the handles the submitter holds:
    // every ok handle is one jobs.completed increment and exactly one
    // job.device_ns / per-worker latency histogram observation.
    constexpr std::uint64_t kBursts = 40;
    constexpr std::size_t kBurst = 6;
    constexpr std::uint64_t kUnits = 96; // same bucket, not profilable

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.batch.maxJobs = 8;
    cfg.batch.windowNs = 200'000;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    ASSERT_TRUE(installPools(svc, {"fuse0"}).ok());
    svc.start();

    std::uint64_t okJobs = 0, badJobs = 0, fusedJobs = 0;
    std::vector<kdp::Buffer<std::int32_t>> outs;
    for (std::size_t i = 0; i < kBurst; ++i)
        outs.emplace_back(kUnits, kdp::MemSpace::Global, "fuse.out");
    for (std::uint64_t b = 0; b < kBursts; ++b) {
        std::vector<JobSpec> specs(kBurst);
        for (std::size_t i = 0; i < kBurst; ++i) {
            specs[i].signature("fuse0").units(kUnits);
            specs[i].mutableArgs().add(outs[i]).add(
                static_cast<std::int64_t>(kUnits));
        }
        auto handles = svc.submitMany(specs);
        for (auto &h : handles) {
            const JobResult &r = h.result();
            if (r.ok()) {
                ++okJobs;
                if (r.report.fused)
                    ++fusedJobs;
            } else {
                ++badJobs;
            }
        }
    }
    svc.drain();
    svc.stop();

    auto &m = svc.metrics();
    const std::uint64_t total = kBursts * kBurst;
    EXPECT_EQ(okJobs + badJobs, total);
    EXPECT_EQ(m.counterValue("jobs.submitted"), total);
    EXPECT_EQ(m.counterValue("jobs.completed"), okJobs);
    EXPECT_EQ(m.counterValue("jobs.failed"), badJobs);

    // Exactly-once histogram contract: one device-time observation
    // per completed job, fused or solo, never double-counted.
    EXPECT_EQ(m.histogram("job.device_ns").count(), okJobs);
    EXPECT_EQ(m.histogram("job.attempts").count(), total);

    // The storm genuinely exercised fusion, and the batch counters
    // agree with what the handles reported.
    EXPECT_GT(m.counterValue("batch.launches"), 0u);
    EXPECT_EQ(m.counterValue("batch.jobs"), fusedJobs);
    EXPECT_GE(m.counterValue("batch.jobs"),
              m.counterValue("batch.launches"));
    EXPECT_EQ(m.histogram("batch.size").count(),
              m.counterValue("batch.launches"));

    // batch.demoted jobs still completed exactly once above; the
    // counter only explains the fused/solo split.
    EXPECT_LE(m.counterValue("batch.demoted"), total - fusedJobs);
}
