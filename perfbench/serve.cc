/**
 * @file
 * The `serve_cold` and `serve_warm` workloads: a closed loop of one
 * submitter against a DispatchService with two default simulated CPUs
 * (guard, coalescing and batching on; faults, predictor, audit and
 * federation off).  The submitter sends bursts of kBurst jobs through
 * submitMany and waits for each burst.
 *
 *  - serve_cold: every burst targets a (signature, size class) key
 *    not seen before in the run, so each burst is one cold miss that
 *    micro-profiles plus followers.
 *  - serve_warm: a fixed key set whose selections were profiled in
 *    set-up, saved and loaded back, as a restarted dyseld does; every
 *    measured job is a store hit.
 *
 * The kernels are the benchmark's own: every variant writes the same
 * closed form, so each output is checked against a value computed
 * here, independently of which variant ran.
 */
#include "serve.hh"

#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "dysel/runtime.hh"
#include "dysel/store/selection_store.hh"
#include "kdp/buffer.hh"
#include "serve/dispatch_service.hh"
#include "sim/cpu/cpu_device.hh"

#include "layers.hh"

namespace perfbench {

namespace {

using namespace dysel;

constexpr std::uint32_t kLanes = 8;
constexpr std::size_t kBurst = 8;
/**
 * Size classes (store buckets 9-11).  An odd count puts the median
 * latency inside the middle class's bursts rather than on the gap
 * between two classes, where it would jump from run to run.
 */
constexpr std::array<std::uint64_t, 3> kClassUnits = {512, 1024, 2048};
constexpr std::uint64_t kMaxUnits = 2048;
constexpr unsigned kDecoys = 3;
/** A lap is the unit of measurement: 1152 jobs, so that each lap's
 *  p99 latency has ten samples beyond it. */
constexpr std::size_t kBurstsPerLap = 144;
/** serve_warm's key set: kWarmSignatures x size classes keys, each
 *  visited three times per lap. */
constexpr std::size_t kWarmSignatures = 16;
/** serve_cold's fresh signatures; each serves one round of classes. */
constexpr std::size_t kColdSignatures = 12288;
/** Set-ups per run (the median is reported; the last one is used):
 *  serve_warm's take ~0.15 s each, serve_cold's ~0.04 s. */
constexpr unsigned kWarmSetups = 9, kColdSetups = 11;

/** The value every variant writes to element @p i of a job's output. */
std::int32_t
closedForm(std::uint64_t i, std::int64_t salt)
{
    const std::uint64_t x = (i + static_cast<std::uint64_t>(salt))
        * 2654435761ull;
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(x) >> 1);
}

/**
 * One variant of the benchmark kernel.  Arguments: (out, units, salt,
 * slot).  One work-group covers one unit of kLanes elements; the
 * variants differ only in the ALU work they charge.
 */
kdp::KernelVariant
closedFormKernel(std::string name, std::uint64_t flopsPerItem)
{
    kdp::KernelVariant v;
    v.name = std::move(name);
    v.groupSize = kLanes;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    v.fn = [flopsPerItem](kdp::GroupCtx &g, const kdp::KernelArgs &a) {
        auto &out = a.buf<std::int32_t>(0);
        const auto units = static_cast<std::uint64_t>(a.scalarInt(1));
        const std::int64_t salt = a.scalarInt(2);
        const std::uint64_t u = g.unitBase();
        if (u >= units)
            return;
        for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
            const std::uint64_t i = u * kLanes + lane;
            g.store(out, i, closedForm(i, salt), lane);
            g.flops(lane, flopsPerItem);
        }
    };
    return v;
}

compiler::KernelInfo
closedFormInfo(const std::string &sig)
{
    compiler::KernelInfo info;
    info.signature = sig;
    info.loops = {{"wi", compiler::BoundKind::Constant, true, false, kLanes}};
    info.outputArgs = {0};
    return info;
}

// ---- Kernel-body time stamps (traced runs only) ----------------------

/**
 * Stamp clock.  A serve job makes about a thousand kernel-body calls
 * of some 70 ns each, so the per-call stamp must cost far less than a
 * steady_clock read: on x86-64 it is the invariant TSC, elsewhere
 * steady_clock nanoseconds.  ticksPerUs() converts.
 */
std::uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
#endif
}

/** Ticks per microsecond, measured against steady_clock once. */
double
ticksPerUs()
{
    static const double rate = [] {
        const auto t0 = Clock::now();
        const std::uint64_t k0 = ticks();
        while (secondsSince(t0) < 0.02) {
        }
        const std::uint64_t k1 = ticks();
        return static_cast<double>(k1 - k0) / (secondsSince(t0) * 1e6);
    }();
    return rate;
}

/** Stamps of one burst slot, in ticks(). */
struct JobStamps
{
    std::atomic<std::uint64_t> first{0};
    std::atomic<std::uint64_t> last{0};
    std::atomic<std::uint64_t> done{0};
};

constexpr std::size_t kSlots = 16;
std::array<JobStamps, kSlots> gStamps;
std::atomic<bool> gStamping{false};

/**
 * Wrap @p v so each body call stamps the job's slot, read from the
 * last kernel argument: the first call's start and every call's end.
 * With stamping off the wrapper only forwards.
 */
kdp::KernelVariant
stamped(kdp::KernelVariant v)
{
    v.fn = [inner = std::move(v.fn)](kdp::GroupCtx &g,
                                     const kdp::KernelArgs &a) {
        if (!gStamping.load(std::memory_order_relaxed)) {
            inner(g, a);
            return;
        }
        JobStamps &s = gStamps[static_cast<std::size_t>(
            a.scalarInt(a.size() - 1))];
        if (s.first.load(std::memory_order_relaxed) == 0)
            s.first.store(ticks(), std::memory_order_relaxed);
        inner(g, a);
        s.last.store(ticks(), std::memory_order_relaxed);
    };
    return v;
}

// ---- The service under test -------------------------------------------

serve::ServiceConfig
serviceConfig()
{
    serve::ServiceConfig c;
    c.runtime.guard.enabled = true;
    c.coalesce = true;
    c.batch.maxJobs = kBurst;
    return c;
}

/** A store and the two-CPU service that uses it. */
struct Rig
{
    store::SelectionStore store;
    serve::DispatchService svc{store, serviceConfig()};

    Rig()
    {
        for (int d = 0; d < 2; ++d)
            svc.addDevice(std::make_unique<sim::CpuDevice>());
    }
};


/** Installer of the closed-form pool for @p sigs. */
std::function<void(runtime::Runtime &)>
closedFormPool(std::vector<std::string> sigs, bool wrap)
{
    return [sigs = std::move(sigs), wrap](runtime::Runtime &rt) {
        auto add = [&](const std::string &sig, kdp::KernelVariant v) {
            rt.addKernel(sig, wrap ? stamped(std::move(v)) : std::move(v));
        };
        for (const std::string &sig : sigs) {
            add(sig, closedFormKernel("fast", 16));
            for (unsigned d = 1; d <= kDecoys; ++d)
                add(sig, closedFormKernel("slow" + std::to_string(d),
                                          400ull * d));
            rt.setKernelInfo(sig, closedFormInfo(sig));
        }
    };
}

/** Counters of the service's registry read around a phase. */
struct Counters
{
    std::uint64_t storeHit = 0, storeMiss = 0, coalesceHit = 0,
                  batchLaunches = 0, batchJobs = 0, groups = 0, events = 0;
};

/** Read between bursts, when every submitted job has completed. */
Counters
readCounters(serve::DispatchService &svc)
{
    auto &reg = svc.metrics();
    Counters c;
    c.storeHit = reg.counter("store.hit").value();
    c.storeMiss = reg.counter("store.miss").value();
    c.coalesceHit = reg.counter("coalesce.hit").value();
    c.batchLaunches = reg.counter("batch.launches").value();
    c.batchJobs = reg.counter("batch.jobs").value();
    for (unsigned d = 0; d < svc.deviceCount(); ++d) {
        auto &dev = dynamic_cast<sim::CpuDevice &>(svc.device(d));
        c.groups += dev.groupsExecuted();
        c.events += dev.engine().eventsFired();
    }
    return c;
}

/** Serving-path observations of a traced phase. */
struct Observed
{
    std::vector<double> submitUs, queueUs, execUs, completeUs, wakeUs;
    /** Per burst: share of its jobs on the device that got the most. */
    std::vector<double> busiestShare;
    std::uint64_t jobs = 0;
    double wallS = 0, cpuS = 0;
    Counters before, after;
};

double
perJob(std::uint64_t count, std::uint64_t jobs)
{
    return jobs ? static_cast<double>(count) / static_cast<double>(jobs)
                : 0.0;
}

void
addServeMetrics(const Observed &o, Result &out)
{
    out.add("serve.submit_us", median(o.submitUs), "us");
    out.add("serve.queue_us", median(o.queueUs), "us");
    out.add("serve.exec_us", median(o.execUs), "us");
    out.add("serve.complete_us", median(o.completeUs), "us");
    out.add("serve.wake_us", median(o.wakeUs), "us");
    double shareSum = 0;
    for (double s : o.busiestShare)
        shareSum += s;
    out.add("serve.busiest_device_share",
            o.busiestShare.empty()
                ? 0.0
                : shareSum / static_cast<double>(o.busiestShare.size()),
            "ratio");
    out.add("serve.cpu_util", o.wallS > 0 ? o.cpuS / o.wallS : 0.0,
            "ratio");
    const std::uint64_t launches =
        o.after.batchLaunches - o.before.batchLaunches;
    out.add("serve.batch_avg_jobs",
            perJob(o.after.batchJobs - o.before.batchJobs, launches),
            "count");
    out.add("serve.coalesce_hits",
            perJob(o.after.coalesceHit - o.before.coalesceHit, o.jobs),
            "count/op");
    out.add("dysel.store.hits",
            perJob(o.after.storeHit - o.before.storeHit, o.jobs),
            "count/op");
    out.add("dysel.store.misses",
            perJob(o.after.storeMiss - o.before.storeMiss, o.jobs),
            "count/op");
}

/** Per-job outcome of one burst. */
struct JobOutcome
{
    bool ok = false;
    unsigned device = 0;
    sim::TimeNs deviceNs = 0;
    bool profiled = false;
    double latencyUs = 0;
};

/**
 * Submit @p specs as one burst, wait for every handle, and record
 * latencies (and, when traced, the stamp-derived stage times into
 * @p obs).  Returns the burst's wall seconds, submit to last wait.
 */
double
runBurst(serve::DispatchService &svc, std::span<serve::JobSpec> specs,
         std::span<serve::JobHandle> handles, std::span<JobOutcome> outcomes,
         Observed *obs)
{
    const std::size_t n = specs.size();
    if (obs)
        for (std::size_t j = 0; j < n; ++j) {
            gStamps[j].first.store(0);
            gStamps[j].last.store(0);
            gStamps[j].done.store(0);
            specs[j].onDone([s = &gStamps[j]](const serve::JobResult &) {
                s->done.store(ticks(), std::memory_order_relaxed);
            });
        }
    const std::uint64_t k0 = ticks();
    const auto t0 = Clock::now();
    svc.submitMany(specs, handles);
    const auto tSubmitted = Clock::now();
    std::array<Clock::time_point, kSlots> waited;
    std::array<std::uint64_t, kSlots> kWaited{};
    for (std::size_t j = 0; j < n; ++j) {
        handles[j].wait();
        waited[j] = Clock::now();
        kWaited[j] = ticks();
    }
    const double burstS = secondsBetween(t0, waited[n - 1]);
    for (std::size_t j = 0; j < n; ++j) {
        const serve::JobResult &r = handles[j].result();
        JobOutcome &o = outcomes[j];
        o.ok = r.ok();
        o.device = r.deviceIndex;
        o.deviceNs = r.deviceTimeNs;
        o.profiled = r.report.profiled;
        o.latencyUs = secondsBetween(t0, waited[j]) * 1e6;
    }
    if (obs) {
        obs->submitUs.push_back(secondsBetween(t0, tSubmitted) * 1e6);
        // Microseconds from stamp a to stamp b (0 when b precedes a).
        auto us = [](std::uint64_t a, std::uint64_t b) {
            return b > a ? static_cast<double>(b - a) / ticksPerUs() : 0.0;
        };
        for (std::size_t j = 0; j < n; ++j) {
            const JobStamps &s = gStamps[j];
            const std::uint64_t first = s.first.load(), last = s.last.load(),
                                done = s.done.load();
            if (first != 0 && done != 0) {
                obs->queueUs.push_back(us(k0, first));
                obs->execUs.push_back(us(first, last));
                obs->completeUs.push_back(us(last, done));
                obs->wakeUs.push_back(us(done, kWaited[j]));
            }
            ++obs->jobs;
        }
        std::array<std::size_t, kSlots> onDevice{};
        for (std::size_t j = 0; j < n; ++j)
            ++onDevice[std::min<std::size_t>(outcomes[j].device, kSlots - 1)];
        obs->busiestShare.push_back(
            static_cast<double>(
                *std::max_element(onDevice.begin(), onDevice.end()))
            / static_cast<double>(n));
        for (std::size_t j = 0; j < n; ++j)
            specs[j].onDone({});
    }
    return burstS;
}

// ---- serve_cold / serve_warm ------------------------------------------

/** One burst of the traffic: a (signature, size class) key. */
struct Key
{
    std::size_t sig;
    std::size_t cls;
};

/** Seeded traffic of whole laps of kBurstsPerLap bursts. */
class Traffic
{
  public:
    Traffic(bool warm, std::uint64_t seed) : warm_(warm), rng_(seed) {}

    /** The next lap, or an empty lap when fresh keys ran out. */
    std::vector<Key>
    nextLap()
    {
        std::vector<Key> lap;
        if (warm_) {
            // Rounds of every key once, each in a seeded order.
            while (lap.size() < kBurstsPerLap) {
                std::vector<Key> round;
                for (std::size_t s = 0; s < kWarmSignatures; ++s)
                    for (std::size_t c = 0; c < kClassUnits.size(); ++c)
                        round.push_back({s, c});
                std::shuffle(round.begin(), round.end(), rng_);
                lap.insert(lap.end(), round.begin(), round.end());
            }
            return lap;
        }
        // One round per fresh signature: every size class once, in a
        // seeded order.
        const std::size_t rounds = kBurstsPerLap / kClassUnits.size();
        if (nextSig_ + rounds > kColdSignatures)
            return lap;
        for (std::size_t r = 0; r < rounds; ++r, ++nextSig_) {
            std::array<std::size_t, kClassUnits.size()> cls;
            for (std::size_t c = 0; c < cls.size(); ++c)
                cls[c] = c;
            std::shuffle(cls.begin(), cls.end(), rng_);
            for (std::size_t c : cls)
                lap.push_back({nextSig_, c});
        }
        return lap;
    }

  private:
    bool warm_;
    std::mt19937_64 rng_;
    std::size_t nextSig_ = 0;
};

/** A workload session: the rig, its signatures, buffers and specs. */
struct Session
{
    std::unique_ptr<Rig> rig;
    std::vector<std::string> sigs;
    std::vector<std::unique_ptr<kdp::Buffer<std::int32_t>>> bufs;
    std::array<serve::JobSpec, kBurst> specs;
    std::array<serve::JobHandle, kBurst> handles;
    std::array<JobOutcome, kBurst> outcomes;
    std::array<std::int64_t, kBurst> salts{};
    std::int64_t nextSalt = 1;
    double buildS = 0;
    /** Per device index; read once, formatting one is not free. */
    std::vector<std::string> fingerprints;

    Session(std::vector<std::string> signatures, bool wrap)
        : rig(std::make_unique<Rig>()), sigs(std::move(signatures))
    {
        for (unsigned d = 0; d < rig->svc.deviceCount(); ++d)
            fingerprints.push_back(rig->svc.device(d).fingerprint());
        const auto t0 = Clock::now();
        for (std::size_t j = 0; j < kBurst; ++j)
            bufs.push_back(std::make_unique<kdp::Buffer<std::int32_t>>(
                kMaxUnits * kLanes, kdp::MemSpace::Global, "out"));
        rig->svc.registerKernelPool(closedFormPool(sigs, wrap))
            .throwIfError();
        buildS = secondsSince(t0);
    }

    /**
     * Run one burst on @p key and check it: every completed job's
     * output must equal the closed form.  Returns the burst seconds;
     * counts jobs and failures into @p res.
     */
    double
    burst(const Key &key, Result &res, Observed *obs,
          std::vector<StoreKey> *keys = nullptr)
    {
        const std::uint64_t units = kClassUnits[key.cls];
        for (std::size_t j = 0; j < kBurst; ++j) {
            salts[j] = nextSalt++;
            kdp::KernelArgs &a = specs[j].mutableArgs();
            a.clear();
            a.add(*bufs[j])
                .add(static_cast<std::int64_t>(units))
                .add(salts[j])
                .add(static_cast<std::int64_t>(j));
            specs[j].signature(sigs[key.sig]).units(units);
        }
        const double s = runBurst(rig->svc, specs, handles, outcomes, obs);
        for (std::size_t j = 0; j < kBurst; ++j) {
            ++res.attempted;
            if (!outcomes[j].ok) {
                ++res.failed;
                continue;
            }
            const std::int32_t *out = bufs[j]->host();
            for (std::uint64_t i = 0; i < units * kLanes; ++i)
                if (out[i] != closedForm(i, salts[j])) {
                    std::printf("check: %s units=%llu job %zu: element %llu "
                                "is wrong\n",
                                sigs[key.sig].c_str(),
                                static_cast<unsigned long long>(units), j,
                                static_cast<unsigned long long>(i));
                    ++res.failed;
                    res.correct = false;
                    break;
                }
            if (keys)
                keys->push_back(
                    {sigs[key.sig], fingerprints[outcomes[j].device], units});
        }
        return s;
    }

    /** The fast variant must be the stored winner of every key. */
    bool
    fastWinsEverywhere(const std::vector<Key> &touched)
    {
        for (const Key &k : touched) {
            auto rec = rig->store.peek(sigs[k.sig], fingerprints[0],
                                       kClassUnits[k.cls]);
            if (!rec || rec->selectedName != "fast") {
                std::printf("check: stored winner of %s units=%llu is %s\n",
                            sigs[k.sig].c_str(),
                            static_cast<unsigned long long>(
                                kClassUnits[k.cls]),
                            rec ? rec->selectedName.c_str() : "missing");
                return false;
            }
        }
        return true;
    }
};

std::vector<std::string>
signatures(const char *prefix, std::size_t n)
{
    std::vector<std::string> s;
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(prefix + std::to_string(i));
    return s;
}

/** Measured laps of one phase, one entry per lap. */
struct Laps
{
    std::vector<double> seconds, virtualMs;
    std::uint64_t jobs = 0;
    /**
     * Fastest burst seconds of each size class, and fastest
     * submit-to-result latency of each (size class, position in the
     * burst).  The serve workloads' host time is spent on the device
     * worker threads, where a SpeedProbe cannot run beside it (a probe
     * on the submitter thread made the spread worse), so their host
     * times come from these minima over thousands of ~2 ms bursts: over
     * five 30-s runs of each serve workload the spread of a lap time
     * built from them was 0.04-0.08, against 0.18 for the fastest lap
     * and 0.11-0.18 for the tenth-fastest burst.
     */
    std::array<double, kClassUnits.size()> fastestBurstS;
    std::array<std::array<double, kBurst>, kClassUnits.size()> fastestUs;
    std::vector<Key> touched;
    bool warmViolated = false;

    Laps()
    {
        fastestBurstS.fill(1e9);
        for (auto &c : fastestUs)
            c.fill(1e12);
    }

    /** A lap's seconds on a quiet host: its bursts at their fastest. */
    double
    quietLapS() const
    {
        double s = 0;
        for (double b : fastestBurstS)
            s += b * static_cast<double>(kBurstsPerLap / kClassUnits.size());
        return s;
    }

    /** Latency quantile over the (class, position) fastest latencies. */
    double
    quietLatencyUs(double q) const
    {
        std::vector<double> v;
        for (const auto &c : fastestUs)
            v.insert(v.end(), c.begin(), c.end());
        return quantile(v, q);
    }
};

/**
 * Run whole laps until @p seconds elapse (or @p maxLaps laps, when
 * nonzero).  Returns false when fresh keys ran out.
 */
bool
runLaps(Session &s, Traffic &traffic, bool warm, double seconds,
        std::size_t maxLaps, Result &res, Laps &laps, Observed *obs,
        std::vector<StoreKey> *keys, DeviceReports *reports)
{
    const auto m0 = Clock::now();
    while (maxLaps ? laps.seconds.size() < maxLaps
                   : (laps.seconds.empty() || secondsSince(m0) < seconds)) {
        const std::vector<Key> lap = traffic.nextLap();
        if (lap.empty())
            return false;
        double lapS = 0, lapVirtualNs = 0;
        for (const Key &k : lap) {
            const double burstS = s.burst(k, res, obs, keys);
            lapS += burstS;
            laps.fastestBurstS[k.cls] =
                std::min(laps.fastestBurstS[k.cls], burstS);
            for (std::size_t j = 0; j < kBurst; ++j) {
                const JobOutcome &o = s.outcomes[j];
                lapVirtualNs += static_cast<double>(o.deviceNs);
                laps.fastestUs[k.cls][j] =
                    std::min(laps.fastestUs[k.cls][j], o.latencyUs);
                ++laps.jobs;
                if (warm && o.profiled)
                    laps.warmViolated = true;
                if (reports && o.profiled)
                    reports->emplace_back(s.fingerprints[o.device],
                                          s.handles[j].result().report);
            }
            laps.touched.push_back(k);
        }
        laps.seconds.push_back(lapS);
        laps.virtualMs.push_back(lapVirtualNs / 1e6);
    }
    return true;
}

/**
 * serve_warm set-up: one cold burst on every key of the fixed set
 * through a throwaway service, saveFile, then a fresh service whose
 * store is loadFile'd from it.  Returns the started session.
 */
std::unique_ptr<Session>
warmSetup(const Options &opt, bool wrap, Result &res, DeviceReports &reports)
{
    const std::vector<std::string> sigs = signatures("warm", kWarmSignatures);
    const std::string path =
        (std::filesystem::path(opt.scratch) / "warm.store.json").string();
    {
        Session cold(sigs, false);
        cold.rig->svc.start();
        Result setupRes;
        for (std::size_t sig = 0; sig < kWarmSignatures; ++sig)
            for (std::size_t c = 0; c < kClassUnits.size(); ++c) {
                cold.burst({sig, c}, setupRes, nullptr);
                for (std::size_t j = 0; j < kBurst; ++j)
                    if (cold.outcomes[j].profiled)
                        reports.emplace_back(
                            cold.fingerprints[cold.outcomes[j].device],
                            cold.handles[j].result().report);
            }
        if (!setupRes.correct || setupRes.failed) {
            res.correct = false;
            std::printf("check: serve_warm set-up lap failed\n");
        }
        cold.rig->svc.stop();
        if (!cold.rig->store.saveFile(path).ok())
            res.correct = false;
    }
    auto s = std::make_unique<Session>(sigs, wrap);
    const support::Status st = s->rig->store.loadFile(path);
    std::filesystem::remove(path);
    if (!st.ok()) {
        std::printf("check: store load failed: %s\n", st.toString().c_str());
        res.correct = false;
    }
    s->rig->svc.start();
    return s;
}

std::unique_ptr<Session>
coldSetup(bool wrap)
{
    auto s = std::make_unique<Session>(signatures("cold", kColdSignatures),
                                       wrap);
    s->rig->svc.start();
    return s;
}

/**
 * Isolated runtime replay: the closed-form pool on one fresh CPU
 * device, each (signature, class) launched profiled and then from the
 * cached selection.  Adds the dysel launch times and
 * sim.host_ns_per_group.
 */
bool
replayRuntime(Result &out)
{
    sim::CpuDevice dev;
    runtime::Runtime rt(dev, serviceConfig().runtime);
    const std::vector<std::string> sigs = signatures("replay", 4);
    closedFormPool(sigs, false)(rt);
    kdp::Buffer<std::int32_t> buf(kMaxUnits * kLanes);
    std::vector<double> profiledS, cachedS;
    double totalS = 0;
    const std::uint64_t groups0 = dev.groupsExecuted();
    bool ok = true;
    std::int64_t salt = 1;
    for (const std::string &sig : sigs)
        for (std::uint64_t units : kClassUnits)
            for (bool profiling : {true, false}) {
                kdp::KernelArgs a;
                a.add(buf).add(static_cast<std::int64_t>(units)).add(salt)
                    .add(0);
                runtime::LaunchOptions lo;
                lo.profiling = profiling;
                const auto t0 = Clock::now();
                const runtime::LaunchReport r =
                    rt.launchKernel(sig, units, a, lo);
                const double s = secondsSince(t0);
                totalS += s;
                (profiling ? profiledS : cachedS).push_back(s);
                ok = ok && r.profiled == profiling;
                for (std::uint64_t i = 0; i < units * kLanes; ++i)
                    ok = ok && buf.host()[i] == closedForm(i, salt);
                ++salt;
            }
    out.add("dysel.profiled_launch_s", median(profiledS), "s");
    out.add("dysel.cached_launch_s", median(cachedS), "s");
    out.add("sim.host_ns_per_group",
            totalS * 1e9
                / static_cast<double>(dev.groupsExecuted() - groups0),
            "ns");
    return ok;
}

} // namespace

Result
runServe(const Options &opt, bool warm)
{
    Result res;
    const char *name = warm ? "serve_warm" : "serve_cold";
    const bool wrap = opt.trace;
    SpeedProbe probe;
    std::vector<HostSample> setups;
    DeviceReports setupReports;
    std::unique_ptr<Session> s;
    for (unsigned i = 0; i < (warm ? kWarmSetups : kColdSetups); ++i) {
        s.reset(); // the previous session's service stops first
        setupReports.clear();
        setups.push_back(probed(probe, [&] {
            s = warm ? warmSetup(opt, wrap, res, setupReports)
                     : coldSetup(wrap);
        }));
    }
    Traffic traffic(warm, opt.seed);

    auto finishChecks = [&](const Laps &laps) {
        if (warm && laps.warmViolated) {
            std::printf("check: a measured serve_warm job profiled\n");
            res.correct = false;
        }
        if (!s->fastWinsEverywhere(laps.touched))
            res.correct = false;
    };

    if (!opt.trace) {
        Laps laps;
        if (!runLaps(*s, traffic, warm, opt.seconds, 0, res, laps, nullptr,
                     nullptr, nullptr))
            std::printf("%s: fresh keys ran out; the run is shorter\n",
                        name);
        s->rig->svc.stop();
        finishChecks(laps);
        const double lapS = laps.quietLapS();
        std::printf("%s: %zu laps of %zu jobs, %llu jobs in all; lap seconds "
                    "as measured min %.4f median %.4f max %.4f, from the "
                    "fastest bursts %.4f; latency percentiles over %zu "
                    "(class, position) minima of ~%llu samples each\n",
                    name, laps.seconds.size(), kBurstsPerLap * kBurst,
                    static_cast<unsigned long long>(laps.jobs),
                    quantile(laps.seconds, 0), median(laps.seconds),
                    quantile(laps.seconds, 1), lapS,
                    kClassUnits.size() * kBurst,
                    static_cast<unsigned long long>(
                        laps.jobs / (kClassUnits.size() * kBurst)));
        res.add("setup_s", median(scaled(setups, probe.quiet())), "s");
        res.add("wall_s", lapS, "s");
        res.add("virtual_ms", median(laps.virtualMs), "vms");
        res.add("jobs_per_s",
                static_cast<double>(kBurstsPerLap * kBurst) / lapS, "1/s");
        res.add("job_p50_us", laps.quietLatencyUs(0.5), "us");
        res.add("job_p99_us", laps.quietLatencyUs(0.99), "us");
        res.add("peak_rss_mb", peakRssMb(), "MB");
        return res;
    }

    // Traced run: untraced laps for up to half the time, then the same
    // number of laps with every kernel-body call stamped.
    Laps untraced, traced;
    const double cpu0 = processCpuSeconds();
    const auto u0 = Clock::now();
    runLaps(*s, traffic, warm, opt.seconds / 2, 0, res, untraced, nullptr,
            nullptr, nullptr);
    Observed obs;
    obs.wallS = secondsSince(u0);
    obs.cpuS = processCpuSeconds() - cpu0;

    std::vector<StoreKey> keys;
    DeviceReports reports;
    obs.before = readCounters(s->rig->svc);
    gStamping.store(true);
    runLaps(*s, traffic, warm, 0, untraced.seconds.size(), res, traced, &obs,
            &keys, warm ? nullptr : &reports);
    gStamping.store(false);
    obs.after = readCounters(s->rig->svc);
    // Burst time only: the benchmark's own bookkeeping is excluded.
    double untracedWall = 0, tracedWall = 0;
    for (double lapS : untraced.seconds)
        untracedWall += lapS;
    for (double lapS : traced.seconds)
        tracedWall += lapS;

    // LaunchReport sums of the traced jobs.
    std::uint64_t profiledUnits = 0, productiveUnits = 0, eagerChunks = 0,
                  extraBytes = 0;
    for (const auto &[fp, r] : reports) {
        profiledUnits += r.profiledUnits;
        productiveUnits += r.productiveUnits;
        eagerChunks += r.eagerChunks;
        extraBytes += r.extraBytes;
    }
    s->rig->svc.stop();
    finishChecks(untraced);
    finishChecks(traced);

    std::printf("trace overhead: traced laps %.3f s, untraced laps %.3f s, "
                "difference %+.3f s\n",
                tracedWall, untracedWall, tracedWall - untracedWall);
    const double jobs = static_cast<double>(obs.jobs);
    res.add("trace.overhead_s", tracedWall - untracedWall, "s");
    res.add("workloads.build_s", s->buildS, "s");
    if (!replayRuntime(res))
        res.correct = false;
    res.add("dysel.profiled_units", static_cast<double>(profiledUnits) / jobs,
            "count/op");
    res.add("dysel.productive_units",
            static_cast<double>(productiveUnits) / jobs, "count/op");
    res.add("dysel.eager_chunks", static_cast<double>(eagerChunks) / jobs,
            "count/op");
    res.add("dysel.extra_bytes", static_cast<double>(extraBytes) / jobs,
            "B/op");
    const std::uint64_t events = obs.after.events - obs.before.events;
    res.add("sim.groups",
            static_cast<double>(obs.after.groups - obs.before.groups) / jobs,
            "count/op");
    res.add("sim.events", static_cast<double>(events) / jobs, "count/op");
    replayEngine(std::min<std::uint64_t>(events, 1u << 21), res);

    // kdp / sim replays on the fast variant, one sample per class.
    const kdp::KernelVariant fast = closedFormKernel("fast", 16);
    std::vector<kdp::KernelArgs> args(kClassUnits.size());
    std::vector<KernelSample> samples;
    for (std::size_t c = 0; c < kClassUnits.size(); ++c) {
        args[c].add(*s->bufs[0])
            .add(static_cast<std::int64_t>(kClassUnits[c]))
            .add(std::int64_t{1})
            .add(std::int64_t{0});
        samples.push_back({&fast, &args[c], kClassUnits[c]});
    }
    replayKernelLayers(samples, 16, res);
    addServeMetrics(obs, res);
    // serve_warm profiles only in set-up: replay the set-up's reports,
    // which rebuild the store its set-up loads.
    if (!replayStore(warm ? setupReports : reports, keys, opt.scratch, res))
        res.correct = false;
    return res;
}

bool
probeServe(const std::vector<ProbeJob> &jobs, Result &out)
{
    Rig rig;
    std::vector<workloads::Workload *> ws;
    for (const ProbeJob &j : jobs)
        ws.push_back(j.w);
    rig.svc
        .registerKernelPool([ws](runtime::Runtime &rt) {
            for (workloads::Workload *w : ws) {
                for (const kdp::KernelVariant &v : w->variants)
                    rt.addKernel(w->signature, stamped(v));
                rt.setKernelInfo(w->signature, w->info);
            }
        })
        .throwIfError();
    rig.svc.start();

    std::vector<serve::JobSpec> specs(ws.size());
    std::vector<serve::JobHandle> handles(ws.size());
    std::vector<JobOutcome> outcomes(ws.size());
    for (std::size_t j = 0; j < ws.size(); ++j) {
        kdp::KernelArgs a = ws[j]->args;
        a.add(static_cast<std::int64_t>(j));
        specs[j].signature(ws[j]->signature).units(ws[j]->units).args(a);
    }
    Observed obs;
    bool ok = true;
    obs.before = readCounters(rig.svc);
    gStamping.store(true);
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    // A cold burst that profiles every row, then a warm one.
    for (int pass = 0; pass < 2; ++pass) {
        for (workloads::Workload *w : ws)
            w->resetOutput();
        runBurst(rig.svc, specs, handles, outcomes, &obs);
        for (std::size_t j = 0; j < ws.size(); ++j)
            ok = ok && outcomes[j].ok && ws[j]->check();
    }
    obs.wallS = secondsSince(t0);
    obs.cpuS = processCpuSeconds() - cpu0;
    gStamping.store(false);
    obs.after = readCounters(rig.svc);
    rig.svc.stop();
    addServeMetrics(obs, out);
    return ok;
}

} // namespace perfbench
