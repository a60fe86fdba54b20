/**
 * @file
 * Observability tests: tracer span nesting across threads,
 * flight-recorder wraparound, Chrome trace-event export validated
 * through support::Json, correlation-id propagation from the dispatch
 * service through the runtime to device submits, trace/counter
 * reconciliation, the deterministic storm lifecycle (queue span,
 * profiling passes, guard strike, retry, winner execution -- one
 * correlation id), the failing job's flight-recorder Status payload,
 * the structured LaunchReport selection timeline, the learned-
 * selection instants (predict.hit / predict.miss / predict.demoted
 * correlated to their job ids and reconciled 1:1 against the
 * predict.* counters), and the Prometheus / text metric exports.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dysel/predict/predictor.hh"
#include "dysel/runtime.hh"
#include "serve/dispatch_service.hh"
#include "submit_one.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/fault.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/tracing/flight_recorder.hh"
#include "support/tracing/tracer.hh"

using namespace dysel;
using namespace dysel::serve;
using sim::FaultInjector;
using sim::VariantFaultKind;
using support::Json;
using support::MetricsRegistry;
using support::tracing::FlightRecorder;
using support::tracing::TraceEvent;
using support::tracing::Tracer;

namespace {

constexpr std::uint32_t laneCount = 8;

/** Float marker kernel (guard-checkable): out[unit] = marker. */
kdp::KernelVariant
floatKernel(const char *name, float marker, std::uint64_t flops_per_unit)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = laneCount;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    v.fn = [marker, flops_per_unit](kdp::GroupCtx &g,
                                    const kdp::KernelArgs &args) {
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

/** Three-variant pool; the bad one profiles fastest. */
void
registerPool(runtime::Runtime &rt, const std::string &sig, float marker)
{
    rt.removeKernel(sig);
    rt.addKernel(sig, floatKernel("v-good-slow", marker, 4000));
    rt.addKernel(sig, floatKernel("v-bad", marker, 100));
    rt.addKernel(sig, floatKernel("v-good", marker, 1000));
    rt.setKernelInfo(sig, floatInfo(sig));
}

/** Guard-on, swap-profiling launch options (fully checkable). */
runtime::LaunchOptions
guardedOpt()
{
    runtime::LaunchOptions opt;
    opt.mode = runtime::ProfilingMode::Swap;
    opt.orch = runtime::Orchestration::Sync;
    opt.profileRepeats = 1;
    return opt;
}

/** One launch's float output buffer and args. */
struct Probe
{
    std::uint64_t units;
    kdp::Buffer<float> out;
    kdp::KernelArgs args;

    explicit Probe(std::uint64_t n)
        : units(n), out(n, kdp::MemSpace::Global, "out")
    {
        out.fill(-1.0f);
        args.add(out).add(static_cast<std::int64_t>(n));
    }
};

JobSpec
stormJob(Probe &p, const std::string &sig, float marker)
{
    JobSpec job;
    job.signature(sig);
    job.units(p.units);
    job.args(p.args);
    job.options(guardedOpt());
    job.ensureRegistered([&p, sig, marker](runtime::Runtime &rt) {
        registerPool(rt, sig, marker);
    });
    return job;
}

/** Events of @p name carrying correlation @p cid. */
std::vector<TraceEvent>
eventsOf(const std::vector<TraceEvent> &events, const std::string &name,
         std::uint64_t cid)
{
    std::vector<TraceEvent> out;
    for (const auto &ev : events)
        if (ev.name == name && ev.correlation == cid)
            out.push_back(ev);
    return out;
}

} // namespace

// ---- FlightRecorder ----------------------------------------------------

TEST(FlightRecorder, RetainsTheLastCapacityRecordsAcrossWraparound)
{
    FlightRecorder fr(8);
    EXPECT_EQ(fr.capacity(), 8u);
    for (std::uint64_t i = 0; i < 20; ++i)
        fr.record(/*ts=*/i * 10, /*job=*/i, "phase" + std::to_string(i),
                  "d" + std::to_string(i));

    EXPECT_EQ(fr.recorded(), 20u);
    const auto snap = fr.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    // Oldest-first: records 12..19 survive.
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].job, 12 + i);
        EXPECT_EQ(snap[i].ts, (12 + i) * 10);
        EXPECT_EQ(snap[i].phase, "phase" + std::to_string(12 + i));
    }

    const std::string dump = fr.dump();
    EXPECT_NE(dump.find("20 recorded, last 8"), std::string::npos);
    EXPECT_NE(dump.find("phase=phase19"), std::string::npos);
    // Overwritten records are gone from the dump.
    EXPECT_EQ(dump.find("phase=phase11"), std::string::npos);
}

TEST(FlightRecorder, ZeroCapacityIsClampedAndEmptyDumpIsWellFormed)
{
    FlightRecorder fr(0);
    EXPECT_EQ(fr.capacity(), 1u);
    EXPECT_EQ(fr.snapshot().size(), 0u);
    EXPECT_NE(fr.dump().find("0 recorded"), std::string::npos);
}

// ---- Tracer ------------------------------------------------------------

TEST(Tracer, DisabledTracerRecordsNothing)
{
    Tracer t;
    const auto tid = t.track("w");
    t.instant(tid, "x", 1);
    t.complete(tid, "y", 1, 2);
    EXPECT_EQ(t.eventCount(), 0u);

    t.setEnabled(true);
    t.instant(tid, "x", 1);
    EXPECT_EQ(t.eventCount(), 1u);
}

TEST(Tracer, NestedSpansFromConcurrentThreadsStayBalancedPerTrack)
{
    Tracer t;
    t.setEnabled(true);
    constexpr unsigned nThreads = 2;
    constexpr unsigned nSpans = 50;

    std::vector<std::thread> threads;
    for (unsigned w = 0; w < nThreads; ++w) {
        threads.emplace_back([&t, w] {
            const auto tid =
                t.track("worker" + std::to_string(w));
            for (unsigned i = 0; i < nSpans; ++i) {
                const std::uint64_t base = i * 100;
                t.begin(tid, "outer", base, /*cid=*/w + 1);
                t.begin(tid, "inner", base + 10, w + 1,
                        {{"i", std::to_string(i)}});
                t.end(tid, "inner", base + 20, w + 1);
                t.end(tid, "outer", base + 30, w + 1);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(t.eventCount(), nThreads * nSpans * 4);
    EXPECT_EQ(t.countNamed("outer"), nThreads * nSpans * 2);

    // Per track, B and E interleave with non-negative depth and end
    // balanced -- the property chrome://tracing needs to nest them.
    std::map<std::uint64_t, int> depth;
    for (const auto &ev : t.snapshot()) {
        if (ev.phase == TraceEvent::Phase::Begin)
            depth[ev.tid]++;
        else if (ev.phase == TraceEvent::Phase::End) {
            depth[ev.tid]--;
            ASSERT_GE(depth[ev.tid], 0);
        }
    }
    ASSERT_EQ(depth.size(), nThreads);
    for (const auto &[tid, d] : depth)
        EXPECT_EQ(d, 0) << "tid " << tid;
}

TEST(Tracer, ChromeExportIsValidJsonWithPhTsTidAndTrackNames)
{
    Tracer t;
    t.setEnabled(true);
    const auto tid = t.track("dev0:test");
    t.complete(tid, "queue", 1000, 3000, /*cid=*/7,
               {{"attempt", "1"}});
    t.instant(tid, "retry", 4000, 7, {{"to", "dev1"}});

    const Json root = Json::parse(t.exportChromeTrace().dump());
    ASSERT_TRUE(root.isObject());
    const Json &events = root.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    // 2 metadata records (thread_name + thread_sort_index) + 2 events.
    ASSERT_EQ(events.items().size(), 4u);

    bool sawName = false, sawQueue = false, sawRetry = false;
    for (const auto &e : events.items()) {
        ASSERT_TRUE(e.isObject());
        const std::string ph = e.at("ph").asString();
        EXPECT_TRUE(ph == "M" || ph == "X" || ph == "i") << ph;
        EXPECT_EQ(e.at("pid").asUint(), 1u);
        EXPECT_EQ(e.at("tid").asUint(), tid);
        if (ph == "M" && e.stringOr("name", "") == "thread_name") {
            EXPECT_EQ(e.at("args").at("name").asString(), "dev0:test");
            sawName = true;
            continue;
        }
        if (ph == "M")
            continue;
        // ts is microseconds: 1000 ns -> 1 us.
        EXPECT_GE(e.at("ts").asNumber(), 1.0);
        EXPECT_EQ(e.at("args").at("cid").asUint(), 7u);
        if (ph == "X") {
            EXPECT_EQ(e.at("dur").asNumber(), 2.0);
            EXPECT_EQ(e.at("args").at("attempt").asString(), "1");
            sawQueue = true;
        }
        if (ph == "i") {
            EXPECT_EQ(e.at("s").asString(), "t");
            sawRetry = true;
        }
    }
    EXPECT_TRUE(sawName);
    EXPECT_TRUE(sawQueue);
    EXPECT_TRUE(sawRetry);
}

// ---- End-to-end correlation --------------------------------------------

TEST(TracingService, CorrelationIdPropagatesServiceToRuntimeToDevice)
{
    store::SelectionStore store;
    DispatchService svc(store);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.tracer().setEnabled(true);
    svc.start();

    Probe p(2048);
    JobHandle h = submitOne(svc, stormJob(p, "k", 5.0f));
    const JobResult r = h.result();
    ASSERT_TRUE(r.ok()) << r.status.toString();
    svc.stop();

    const std::uint64_t cid = h.id();
    ASSERT_NE(cid, 0u);
    const auto events = svc.tracer().snapshot();

    // Service layer: the queue span.
    const auto queue = eventsOf(events, "queue", cid);
    ASSERT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue[0].phase, TraceEvent::Phase::Complete);

    // Runtime layer: the launch span and the profiling passes.
    ASSERT_EQ(eventsOf(events, "launch", cid).size(), 1u);
    std::set<std::string> passes;
    for (const auto &ev : events)
        if (ev.correlation == cid && ev.name.rfind("profile:", 0) == 0)
            passes.insert(ev.name);
    EXPECT_GE(passes.size(), 2u);

    // Winner execution, and device-level submits, same cid.
    EXPECT_GE(eventsOf(events, "execute", cid).size(), 1u);
    EXPECT_GE(eventsOf(events, "device.submit", cid).size(), 1u);

    // Everything this single-job service traced belongs to the job.
    for (const auto &ev : events)
        EXPECT_EQ(ev.correlation, cid) << ev.name;
}

TEST(TracingService, DeterministicStormLifecycleUnderOneCorrelationId)
{
    // Scripted faults, so the lifecycle is exact: attempt 1 lands on
    // dev0 and fails (failNext), the retry re-routes to dev1, where
    // profiling runs with a corrupt variant -- guard strike -- and the
    // healthy winner executes the remainder.
    FaultInjector cpu0Faults, cpu1Faults;
    cpu0Faults.failNext();
    cpu1Faults.setVariantFault("v-bad", VariantFaultKind::CorruptOutput);

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.runtime.guard.enabled = true;
    DispatchService svc(store, cfg);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.device(0).setFaultInjector(&cpu0Faults);
    svc.device(1).setFaultInjector(&cpu1Faults);
    svc.tracer().setEnabled(true);
    svc.start();

    Probe p(2048);
    JobHandle h = submitOne(svc, stormJob(p, "k", 5.0f));
    const JobResult r = h.result();
    ASSERT_TRUE(r.ok()) << r.status.toString();
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(r.deviceIndex, 1u);
    svc.stop();

    const std::uint64_t cid = h.id();
    const auto events = svc.tracer().snapshot();

    // The full lifecycle under one correlation id: two queue spans
    // (one per attempt), the retry instant, >= 2 profiling passes
    // with variant names, the guard strike, and the winner execution.
    EXPECT_EQ(eventsOf(events, "queue", cid).size(), 2u);
    const auto retries = eventsOf(events, "retry", cid);
    ASSERT_EQ(retries.size(), 1u);
    std::set<std::string> passes;
    for (const auto &ev : events)
        if (ev.correlation == cid && ev.name.rfind("profile:", 0) == 0)
            passes.insert(ev.name);
    EXPECT_GE(passes.size(), 2u);
    EXPECT_TRUE(passes.count("profile:v-good"));

    const auto strikes = eventsOf(events, "guard.strike", cid);
    ASSERT_GE(strikes.size(), 1u);
    bool badStruck = false;
    for (const auto &ev : strikes)
        for (const auto &[k, v] : ev.args)
            if (k == "variant" && v == "v-bad")
                badStruck = true;
    EXPECT_TRUE(badStruck);
    EXPECT_GE(eventsOf(events, "execute", cid).size(), 1u);

    // The retry instant names both devices and the failure code.
    const auto &retry = retries[0];
    std::map<std::string, std::string> args(retry.args.begin(),
                                            retry.args.end());
    EXPECT_EQ(args["from"], "dev0");
    EXPECT_EQ(args["to"], "dev1");
    EXPECT_EQ(args["code"], "UNAVAILABLE");

    // Trace/counter reconciliation: span counts match the recovery
    // and guard counters the service exported.
    const auto &m = svc.metrics();
    EXPECT_EQ(svc.tracer().countNamed("retry"),
              m.counterValue("recover.retries"));
    EXPECT_EQ(svc.tracer().countNamed("guard.strike"),
              m.counterValue("guard.mismatch")
                  + m.counterValue("guard.redzone")
                  + m.counterValue("guard.nan")
                  + m.counterValue("guard.watchdog"));

    // And the export of this storm is structurally valid Chrome JSON.
    const Json root = Json::parse(svc.tracer().exportChromeTrace().dump());
    const auto &items = root.at("traceEvents").items();
    ASSERT_FALSE(items.empty());
    for (const auto &e : items) {
        const std::string ph = e.at("ph").asString();
        EXPECT_TRUE(ph == "M" || ph == "B" || ph == "E" || ph == "X"
                    || ph == "i")
            << ph;
        if (ph != "M")
            EXPECT_GE(e.at("ts").asNumber(), 0.0);
    }
}

TEST(TracingService, FailingJobCarriesFlightRecorderPayload)
{
    // One device, every attempt scripted to fail: the final Status
    // must carry the worker's flight-recorder dump naming the device
    // and the phases it went through.
    FaultInjector faults;
    faults.failNext(3);

    store::SelectionStore store;
    DispatchService svc(store);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.device(0).setFaultInjector(&faults);
    svc.start();

    Probe p(2048);
    JobHandle h = submitOne(svc, stormJob(p, "k", 5.0f));
    const JobResult r = h.result();
    svc.stop();

    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.attempts, 3u);
    ASSERT_TRUE(r.status.hasPayload());
    const std::string &dump = r.status.payload();
    EXPECT_NE(dump.find("flight recorder"), std::string::npos);
    EXPECT_NE(dump.find("phase=failed"), std::string::npos);
    EXPECT_NE(dump.find("phase=claim"), std::string::npos);
    EXPECT_NE(dump.find("phase=launch"), std::string::npos);
    EXPECT_NE(dump.find("dev=" + r.deviceName), std::string::npos);
    EXPECT_NE(dump.find("job=" + std::to_string(r.id)),
              std::string::npos);

    // A successful job's status carries no payload.
    Probe p2(2048);
    store::SelectionStore store2;
    DispatchService svc2(store2);
    svc2.addDevice(std::make_unique<sim::CpuDevice>());
    svc2.start();
    const JobResult ok = submitOne(svc2, stormJob(p2, "k", 5.0f)).result();
    svc2.stop();
    ASSERT_TRUE(ok.ok());
    EXPECT_FALSE(ok.status.hasPayload());
}

// ---- Selection timeline ------------------------------------------------

TEST(TracingRuntime, LaunchReportCarriesStructuredSelectionTimeline)
{
    FaultInjector faults;
    faults.setVariantFault("v-bad", VariantFaultKind::CorruptOutput);

    sim::CpuDevice dev;
    dev.setFaultInjector(&faults);
    runtime::RuntimeConfig cfg;
    cfg.guard.enabled = true;
    runtime::Runtime grt(dev, cfg);
    registerPool(grt, "k", 5.0f);
    // v-good is blacklisted up front; v-good-slow (the registration
    // default) stays the healthy cross-check reference.
    grt.guard().blacklist("k", "v-good", "test");

    Probe p(2048);
    const auto report = grt.launchKernel("k", p.units, p.args,
                                         guardedOpt());
    EXPECT_EQ(report.selectedName, "v-good-slow");

    // One timeline entry per registered variant, registration order.
    ASSERT_EQ(report.timeline.size(), 3u);
    const auto &slow = report.timeline[0];
    const auto &bad = report.timeline[1];
    const auto &good = report.timeline[2];

    EXPECT_EQ(slow.variant, "v-good-slow");
    EXPECT_EQ(slow.guardOutcome, "pass");
    EXPECT_TRUE(slow.selected);
    EXPECT_GT(slow.units, 0u);
    EXPECT_GT(slow.metric, 0u);
    EXPECT_LT(slow.startTime, slow.endTime);

    EXPECT_EQ(bad.variant, "v-bad");
    EXPECT_EQ(bad.guardOutcome, "mismatch");
    EXPECT_FALSE(bad.selected);
    EXPECT_GT(bad.units, 0u);

    EXPECT_EQ(good.variant, "v-good");
    EXPECT_EQ(good.guardOutcome, "blacklisted");
    EXPECT_EQ(good.units, 0u);
    EXPECT_FALSE(good.selected);

    // The timeline reconciles with the flat profile list.
    std::uint64_t profiledUnits = 0;
    for (const auto &pass : report.timeline)
        profiledUnits += pass.units;
    EXPECT_EQ(profiledUnits, report.profiledUnits);
}

// ---- Learned selection instants ----------------------------------------

TEST(TracingService, PredictInstantsCorrelateAndReconcileWithCounters)
{
    // Three jobs exercise every predict.* emission path under the
    // tracer: job 1 runs against a cold model (predict.miss, full
    // profile trains the predictor), job 2 runs after store.clear()
    // so the exact winner serves a profiling-free predict.hit, and
    // job 3 is predicted again but its warm launch is scripted to
    // fail -- the demotion observer fires predict.demoted on the
    // worker thread under the failing job's correlation id, and the
    // retry falls back to a corrective profiling pass.
    FaultInjector faults;

    store::SelectionStore store;
    predict::SelectionPredictor predictor;
    DispatchService svc(store);
    svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.device(0).setFaultInjector(&faults);
    svc.setPredictor(&predictor);
    svc.tracer().setEnabled(true);
    svc.start();

    Probe p1(2048);
    JobHandle h1 = submitOne(svc, stormJob(p1, "k", 5.0f));
    const JobResult r1 = h1.result();
    ASSERT_TRUE(r1.ok()) << r1.status.toString();
    EXPECT_FALSE(r1.predicted);
    EXPECT_GT(r1.report.profiledUnits, 0u);

    store.clear();
    Probe p2(2048);
    JobHandle h2 = submitOne(svc, stormJob(p2, "k", 5.0f));
    const JobResult r2 = h2.result();
    ASSERT_TRUE(r2.ok()) << r2.status.toString();
    EXPECT_TRUE(r2.predicted);
    EXPECT_EQ(r2.report.profiledUnits, 0u);

    store.clear();
    faults.failNext();
    Probe p3(2048);
    JobHandle h3 = submitOne(svc, stormJob(p3, "k", 5.0f));
    const JobResult r3 = h3.result();
    ASSERT_TRUE(r3.ok()) << r3.status.toString();
    EXPECT_EQ(r3.attempts, 2u);
    svc.stop();

    const auto events = svc.tracer().snapshot();

    // Job 1: one predict.miss under its own correlation id.
    ASSERT_EQ(eventsOf(events, "predict.miss", h1.id()).size(), 1u);
    EXPECT_TRUE(eventsOf(events, "predict.hit", h1.id()).empty());

    // Job 2: one predict.hit naming the winner, its calibrated
    // confidence, and the exact-winner evidence source.
    const auto hits = eventsOf(events, "predict.hit", h2.id());
    ASSERT_EQ(hits.size(), 1u);
    std::map<std::string, std::string> hitArgs(hits[0].args.begin(),
                                               hits[0].args.end());
    EXPECT_FALSE(hitArgs["variant"].empty());
    EXPECT_EQ(hitArgs["source"], "exact");
    EXPECT_EQ(hitArgs["distance"], "0");
    EXPECT_GE(std::stod(hitArgs["confidence"]), 0.65);

    // Job 3: predicted hit, demotion, then a corrective miss -- all
    // three instants under the failing job's correlation id.
    ASSERT_EQ(eventsOf(events, "predict.hit", h3.id()).size(), 1u);
    const auto demoted = eventsOf(events, "predict.demoted", h3.id());
    ASSERT_EQ(demoted.size(), 1u);
    std::map<std::string, std::string> demArgs(demoted[0].args.begin(),
                                               demoted[0].args.end());
    EXPECT_EQ(demArgs["signature"], "k");
    EXPECT_EQ(demArgs["variant"], hitArgs["variant"]);
    ASSERT_EQ(eventsOf(events, "predict.miss", h3.id()).size(), 1u);

    // Trace/counter reconciliation: every predict.* counter increment
    // has exactly one matching tracer instant, and the totals match
    // the scripted lifecycle (2 hits, 2 misses, 1 demotion).
    const auto &m = svc.metrics();
    EXPECT_EQ(svc.tracer().countNamed("predict.hit"),
              m.counterValue("predict.hit"));
    EXPECT_EQ(svc.tracer().countNamed("predict.miss"),
              m.counterValue("predict.miss"));
    EXPECT_EQ(svc.tracer().countNamed("predict.demoted"),
              m.counterValue("predict.demoted"));
    EXPECT_EQ(m.counterValue("predict.hit"), 2u);
    EXPECT_EQ(m.counterValue("predict.miss"), 2u);
    EXPECT_EQ(m.counterValue("predict.demoted"), 1u);
    EXPECT_EQ(m.counterValue("predict.train"), 2u);
    EXPECT_EQ(predictor.demotions(), 1u);

    // Both exports carry the predict.* families.
    const std::string prom = m.renderPrometheus();
    EXPECT_NE(prom.find("predict_hit 2"), std::string::npos);
    EXPECT_NE(prom.find("predict_miss 2"), std::string::npos);
    EXPECT_NE(prom.find("predict_demoted 1"), std::string::npos);
    EXPECT_NE(prom.find("predict_train 2"), std::string::npos);
    const std::string text = m.renderText();
    EXPECT_NE(text.find("predict.hit 2"), std::string::npos);
    EXPECT_NE(text.find("predict.demoted 1"), std::string::npos);
}

// ---- Metrics export ----------------------------------------------------

TEST(Metrics, LabeledBuildsTheCanonicalSuffixForm)
{
    EXPECT_EQ(MetricsRegistry::labeled("device.jobs", "device", "dev0"),
              "device.jobs{device=\"dev0\"}");
}

TEST(Metrics, LabeledEscapesHostileLabelValues)
{
    // Backslash, double quote, and newline are the three characters
    // the 0.0.4 text format requires escaping inside a label value; a
    // device name carrying all of them must not corrupt the set.
    EXPECT_EQ(MetricsRegistry::escapeLabelValue("a\\b\"c\nd"),
              "a\\\\b\\\"c\\nd");
    EXPECT_EQ(MetricsRegistry::labeled("device.jobs", "device",
                                       "dev\"0\\evil\nname"),
              "device.jobs{device=\"dev\\\"0\\\\evil\\nname\"}");
}

TEST(Metrics, PrometheusSurvivesAHostileDeviceLabel)
{
    MetricsRegistry reg;
    reg.counter(MetricsRegistry::labeled("device.jobs", "device",
                                         "dev\"0\\x\ny"))
        .inc(7);

    const std::string prom = reg.renderPrometheus();
    // The hostile value renders escaped, on one line.
    EXPECT_NE(prom.find("device_jobs{device=\"dev\\\"0\\\\x\\ny\"} 7"),
              std::string::npos);
    // No exposition line is torn: every line is a comment or ends in
    // a numeric sample value.
    std::istringstream is(prom);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        EXPECT_NO_THROW((void)std::stod(line.substr(sp + 1))) << line;
    }
}

TEST(Metrics, PrometheusEmitsHelpOncePerFamily)
{
    MetricsRegistry reg;
    reg.counter(MetricsRegistry::labeled("device.jobs", "device", "dev0"))
        .inc();
    reg.counter(MetricsRegistry::labeled("device.jobs", "device", "dev1"))
        .inc();
    reg.histogram("lat.ns").observe(4);

    const std::string prom = reg.renderPrometheus();
    const auto firstHelp = prom.find("# HELP device_jobs ");
    ASSERT_NE(firstHelp, std::string::npos);
    EXPECT_EQ(prom.find("# HELP device_jobs ", firstHelp + 1),
              std::string::npos);
    EXPECT_NE(prom.find("# HELP lat_ns "), std::string::npos);
    // HELP precedes TYPE for each family.
    EXPECT_LT(firstHelp, prom.find("# TYPE device_jobs counter"));
}

TEST(Metrics, PrometheusRendersCountersWithLabelsAndSanitizedNames)
{
    MetricsRegistry reg;
    reg.counter(MetricsRegistry::labeled("device.jobs", "device", "dev0"))
        .inc(3);
    reg.counter(MetricsRegistry::labeled("device.jobs", "device", "dev1"))
        .inc(5);
    reg.counter("store.hit").inc(2);

    const std::string prom = reg.renderPrometheus();
    EXPECT_NE(prom.find("# TYPE device_jobs counter"), std::string::npos);
    EXPECT_NE(prom.find("device_jobs{device=\"dev0\"} 3"),
              std::string::npos);
    EXPECT_NE(prom.find("device_jobs{device=\"dev1\"} 5"),
              std::string::npos);
    EXPECT_NE(prom.find("store_hit 2"), std::string::npos);
    // One TYPE line per family, not per labeled sample.
    const auto first = prom.find("# TYPE device_jobs counter");
    EXPECT_EQ(prom.find("# TYPE device_jobs counter", first + 1),
              std::string::npos);
}

TEST(Metrics, PrometheusRendersCumulativeHistogramBuckets)
{
    MetricsRegistry reg;
    auto &h = reg.histogram("lat.ns");
    h.observe(1);
    h.observe(3);
    h.observe(100);

    const std::string prom = reg.renderPrometheus();
    EXPECT_NE(prom.find("# TYPE lat_ns histogram"), std::string::npos);
    // Power-of-two bounds, cumulative counts.
    EXPECT_NE(prom.find("lat_ns_bucket{le=\"2\"} 1"), std::string::npos);
    EXPECT_NE(prom.find("lat_ns_bucket{le=\"4\"} 2"), std::string::npos);
    EXPECT_NE(prom.find("lat_ns_bucket{le=\"128\"} 3"),
              std::string::npos);
    EXPECT_NE(prom.find("lat_ns_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(prom.find("lat_ns_sum 104"), std::string::npos);
    EXPECT_NE(prom.find("lat_ns_count 3"), std::string::npos);
}

TEST(Metrics, PrometheusHistogramLabelsLandOnEverySample)
{
    MetricsRegistry reg;
    reg.histogram(
           MetricsRegistry::labeled("device.latency_ns", "device", "dev0"))
        .observe(10);

    const std::string prom = reg.renderPrometheus();
    EXPECT_NE(prom.find(
                  "device_latency_ns_bucket{device=\"dev0\",le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(prom.find("device_latency_ns_sum{device=\"dev0\"} 10"),
              std::string::npos);
    EXPECT_NE(prom.find("device_latency_ns_count{device=\"dev0\"} 1"),
              std::string::npos);
}

TEST(Metrics, TextExportIsNameSortedWithP90AndP95)
{
    MetricsRegistry reg;
    // Created deliberately out of name order.
    reg.counter("zeta").inc();
    reg.histogram("mid.latency").observe(4);
    reg.counter("alpha").inc(2);

    const std::string text = reg.renderText();
    const auto posAlpha = text.find("alpha 2");
    const auto posMid = text.find("mid.latency{");
    const auto posZeta = text.find("zeta 1");
    ASSERT_NE(posAlpha, std::string::npos);
    ASSERT_NE(posMid, std::string::npos);
    ASSERT_NE(posZeta, std::string::npos);
    EXPECT_LT(posAlpha, posMid);
    EXPECT_LT(posMid, posZeta);
    EXPECT_NE(text.find("p90="), std::string::npos);
    EXPECT_NE(text.find("p95="), std::string::npos);
}

TEST(Metrics, QuantilesClampToTheObservedMax)
{
    MetricsRegistry reg;
    auto &h = reg.histogram("one");
    h.observe(3);
    // A single sample of 3 lands in bucket [2,4); the raw bucket
    // upper bound (4) must not leak past the observed max.
    EXPECT_EQ(h.quantile(0.5), 3.0);
    EXPECT_EQ(h.quantile(0.99), 3.0);

    auto &empty = reg.histogram("none");
    EXPECT_EQ(empty.quantile(0.5), 0.0);
    EXPECT_EQ(empty.count(), 0u);
    // An empty histogram renders without NaN/Inf artifacts.
    const std::string text = reg.renderText();
    EXPECT_NE(text.find("none{count=0"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos);
}
