#include "dispatch_service.hh"

#include <algorithm>
#include <chrono>
#include <climits>
#include <stdexcept>

#include "dysel/fed/replicator.hh"
#include "support/logging.hh"

namespace dysel {
namespace serve {

namespace {

std::string
devKey(unsigned idx)
{
    return "dev" + std::to_string(idx);
}

/**
 * Canonical per-device metric name (DESIGN §7): a shared family name
 * plus a device label, e.g. `device.jobs{device="dev0"}`, replacing
 * the old ad-hoc "dev0.jobs" dotted prefixes.
 */
std::string
devMetric(const char *family, unsigned idx)
{
    return support::MetricsRegistry::labeled(family, "device",
                                             devKey(idx));
}

bool
contains(const std::vector<unsigned> &v, unsigned x)
{
    return std::find(v.begin(), v.end(), x) != v.end();
}

/** Whether a failed attempt with @p code is worth another device. */
bool
retryableCode(support::StatusCode code)
{
    switch (code) {
      case support::StatusCode::Unavailable:
      case support::StatusCode::DeadlineExceeded:
      case support::StatusCode::Internal:
        return true;
      default:
        return false;
    }
}

/**
 * Whether a failed attempt with @p code says something about device
 * health (the breaker watches these, not job-level failures such as
 * an unknown signature).
 */
bool
isDeviceFault(support::StatusCode code)
{
    return code == support::StatusCode::Unavailable
           || code == support::StatusCode::DeadlineExceeded;
}

std::uint64_t
wallNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Fixed-precision rendering of a confidence (trace attributes). */
std::string
confStr(double c)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.3f", c);
    return buf;
}

const std::vector<unsigned> kNoExclusions;

/**
 * The worker currently driving this thread, for observers that fire
 * from inside store calls (e.g. the predicted-selection demotion
 * feed): runJob() stamps these so the observer can emit a tracer
 * instant on the right track, with the right device clock, correlated
 * to the job that triggered the demotion.
 */
thread_local std::uint64_t tlJobId = 0;
thread_local std::uint64_t tlTraceTrack = 0;
thread_local sim::Device *tlDevice = nullptr;

} // namespace

support::Status
ServiceConfig::validate() const
{
    if (maxAttempts == 0)
        return support::Status::invalidArgument(
            "ServiceConfig: maxAttempts must be >= 1");
    if (maxAttempts > 32)
        return support::Status::invalidArgument(
            "ServiceConfig: maxAttempts > 32 overflows the exponential "
            "backoff shift");
    if (breakerThreshold == 0)
        return support::Status::invalidArgument(
            "ServiceConfig: breakerThreshold must be >= 1");
    if (batch.maxJobs == 0)
        return support::Status::invalidArgument(
            "ServiceConfig: batch.maxJobs must be >= 1 "
            "(1 disables batching)");
    if (maxQueueDepth > 0 && batch.maxJobs > maxQueueDepth)
        return support::Status::invalidArgument(
            "ServiceConfig: batch.maxJobs ("
            + std::to_string(batch.maxJobs)
            + ") exceeds maxQueueDepth ("
            + std::to_string(maxQueueDepth)
            + "); a full batch could never accumulate");
    if (batch.windowNs > 0 && !batch.enabled())
        return support::Status::invalidArgument(
            "ServiceConfig: batch.windowNs set while batching is "
            "disabled (batch.maxJobs <= 1)");
    if (auto st = audit.validate(); !st.ok())
        return st;
    return support::Status();
}

bool
JobHandle::done() const
{
    if (!state_)
        return false;
    const int p = state_->phase.load(std::memory_order_acquire);
    return p == detail::JobState::Done
           || p == detail::JobState::Cancelled;
}

void
JobHandle::wait() const
{
    if (!state_)
        return;
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] {
        const int p = state_->phase.load(std::memory_order_acquire);
        return p == detail::JobState::Done
               || p == detail::JobState::Cancelled;
    });
}

const JobResult &
JobHandle::result() const
{
    if (!state_)
        throw std::logic_error("JobHandle: result() on empty handle");
    wait();
    return state_->result;
}

bool
JobHandle::cancel()
{
    if (!state_)
        return false;
    int expected = detail::JobState::Queued;
    if (!state_->phase.compare_exchange_strong(
            expected, detail::JobState::Cancelled)) {
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(state_->mu);
        state_->result.id = state_->id;
        state_->result.status = support::Status::cancelled(
            "job " + std::to_string(state_->id)
            + " cancelled before dispatch");
    }
    state_->cv.notify_all();
    return true;
}

DispatchService::DispatchService(store::SelectionStore &st,
                                 ServiceConfig cfg)
    : store_(st), config(cfg), batcher(cfg.batch)
{
    config.validate().throwIfError();
    // Hot-path metric handles are resolved once; the registry hands
    // out stable references, so per-job increments skip the name
    // formatting and map lookup entirely.
    submittedCounter = &reg.counter("jobs.submitted");
    completedCounter = &reg.counter("jobs.completed");
    failedCounter = &reg.counter("jobs.failed");
    cancelledCounter = &reg.counter("jobs.cancelled");
    storeHitCounter = &reg.counter("store.hit");
    storeMissCounter = &reg.counter("store.miss");
    batchLaunchCounter = &reg.counter("batch.launches");
    batchJobsCounter = &reg.counter("batch.jobs");
    batchDemotedCounter = &reg.counter("batch.demoted");
    batchSizeHist = &reg.histogram("batch.size");
    deviceNsHist = &reg.histogram("job.device_ns");
    attemptsHist = &reg.histogram("job.attempts");
    backoffHist = &reg.histogram("job.backoff_ns");
    if (config.audit.enabled())
        auditor_ = std::make_unique<obs::SelectionAuditor>(
            store_, reg, &tracer_, config.audit);
}

DispatchService::~DispatchService()
{
    stop();
    if (predictor_) {
        // The store outlives the service: drop the observers that
        // capture `this` before they can dangle.
        store_.setProfileObserver(nullptr);
        store_.setDemotionObserver(nullptr);
    }
}

void
DispatchService::setPredictor(predict::SelectionPredictor *predictor)
{
    if (started.load(std::memory_order_acquire))
        throw std::logic_error(
            "DispatchService: setPredictor after start()");
    predictor_ = predictor;
    if (!predictor_) {
        store_.setProfileObserver(nullptr);
        store_.setDemotionObserver(nullptr);
        return;
    }
    // The training feed: every completed profiling pass the store
    // records becomes one online training example.
    store_.setProfileObserver([this](const store::SelectionRecord &rec) {
        predictor_->observeProfile(rec);
        reg.counter("predict.train").inc();
    });
    // The corrective feed: a predicted selection that drifted,
    // failed, or got blacklisted is demoted back to a forced profile;
    // tell the predictor so it unlearns the winner and pays the
    // calibration penalty.
    store_.setDemotionObserver(
        [this](const store::SelectionRecord &rec) {
            predictor_->observeDemotion(rec.signature, rec.device,
                                        rec.bucket);
            reg.counter("predict.demoted").inc();
            if (tracer_.enabled() && tlDevice) {
                tracer_.instant(
                    tlTraceTrack, "predict.demoted", tlDevice->now(),
                    tlJobId,
                    {{"signature", rec.signature},
                     {"variant", rec.selectedName},
                     {"confidence",
                      confStr(rec.predictedConfidence)}});
            }
        });
}

void
DispatchService::setFederation(fed::Replicator *fedp)
{
    if (started.load(std::memory_order_acquire))
        throw std::logic_error(
            "DispatchService: setFederation after start()");
    fed_ = fedp;
    if (fed_)
        fed_->bindMetrics(&reg);
}

unsigned
DispatchService::addDevice(std::unique_ptr<sim::Device> device)
{
    if (started.load(std::memory_order_acquire))
        throw std::logic_error(
            "DispatchService: addDevice after start()");
    if (!device)
        throw std::invalid_argument("DispatchService: null device");
    auto w = std::make_unique<Worker>();
    w->dev = std::move(device);
    w->rt = std::make_unique<runtime::Runtime>(*w->dev, config.runtime);
    w->fingerprint = w->dev->fingerprint();
    const auto idx = static_cast<unsigned>(workers.size());

    w->flight.reset(config.flightRecorderCapacity);
    // One trace track per device worker; the runtime draws its spans
    // on the same track (profiling passes get subtracks of it).
    const std::string trackName = devKey(idx) + ":" + w->dev->name();
    w->traceTrack = tracer_.track(trackName);
    w->rt->setTracer(&tracer_, trackName);

    w->jobsCounter = &reg.counter(devMetric("device.jobs", idx));
    w->storeHitsCounter =
        &reg.counter(devMetric("device.store_hits", idx));
    w->profiledCounter = &reg.counter(devMetric("device.profiled", idx));
    w->latencyHist = &reg.histogram(devMetric("device.latency_ns", idx));

    // Feed the store from every launch on this runtime: profiled
    // launches refresh their record, plain cache-served launches
    // update the drift baseline (and may quarantine / invalidate).
    // Fused launches are excluded from the baseline -- they amortize
    // launch overhead across members, so their per-unit time is not
    // comparable to a solo run; runBatch() accounts them through
    // SelectionStore::noteServed() instead.  Shadow audit probes are
    // excluded too: a tiny forced-variant slice carries non-amortized
    // launch overhead, and the auditor does its own accounting.
    w->rt->setLaunchObserver(
        [this, fp = w->fingerprint](const runtime::LaunchReport &r) {
            if (r.profiled) {
                // tlJobId doubles as the launch's trace correlation
                // id; stamping it into the record lets a follower
                // replica's warm hit trace back to this profiling
                // pass (DESIGN §13).
                store_.recordProfile(fp, r, tlJobId);
                reg.counter("store.record").inc();
            } else if (r.fromCache && !r.fused && !r.shadow) {
                switch (store_.observePlain(fp, r)) {
                  case store::Observation::Quarantined:
                    reg.counter("store.quarantine").inc();
                    break;
                  case store::Observation::Invalidated:
                    reg.counter("store.drift_invalidation").inc();
                    break;
                  case store::Observation::Ok:
                    break;
                }
            }
            // Guard telemetry: one "guard.<check>" count per
            // detection, reconcilable 1:1 with the fault injector's
            // variant-fault log.
            for (const auto &ev : r.guardEvents)
                reg.counter("guard." + ev.check).inc();
            if (r.guardExcluded > 0)
                reg.counter("guard.excluded").inc(r.guardExcluded);
            if (r.guardRepairs > 0)
                reg.counter("guard.repair").inc(r.guardRepairs);
        });

    // Persist guard blacklistings: a variant that struck out on this
    // device is recorded in the store under the device fingerprint,
    // so it is never re-served -- across restarts included.
    w->rt->guard().setBlacklistObserver(
        [this, fp = w->fingerprint](const std::string &sig,
                                    const std::string &variant,
                                    const std::string &reason) {
            store_.blacklistVariant(sig, variant, fp, reason);
            reg.counter("guard.blacklist").inc();
        });

    // Kernel pools registered before this device existed still apply
    // to it (registerKernelPool retains every installer).
    {
        std::lock_guard<std::mutex> lock(poolMu);
        for (const auto &installer : installers)
            installer(*w->rt);
        w->installersApplied = installers.size();
    }

    workers.push_back(std::move(w));
    return idx;
}

sim::Device &
DispatchService::device(unsigned idx)
{
    return *workers.at(idx)->dev;
}

const runtime::Runtime &
DispatchService::runtimeAt(unsigned idx) const
{
    return *workers.at(idx)->rt;
}

support::Status
DispatchService::registerKernelPool(
    std::function<void(runtime::Runtime &)> installer)
{
    if (!installer)
        return support::Status::invalidArgument(
            "DispatchService: empty kernel-pool installer");
    std::lock_guard<std::mutex> lock(poolMu);
    if (!started.load(std::memory_order_acquire)) {
        // No workers running: install on every runtime right here.
        try {
            for (auto &w : workers)
                installer(*w->rt);
        } catch (const std::exception &e) {
            return support::Status::internal(
                std::string("registerKernelPool: installer threw: ")
                + e.what());
        }
        installers.push_back(std::move(installer));
        for (auto &w : workers)
            w->installersApplied = installers.size();
        installerCount.store(installers.size(),
                             std::memory_order_release);
        return support::Status();
    }
    // Workers are live: retain the installer; each worker applies it
    // on its own thread before its next job (applyPendingInstallers),
    // so the runtime is only ever touched by its worker.
    installers.push_back(std::move(installer));
    installerCount.store(installers.size(), std::memory_order_release);
    for (auto &w : workers)
        w->qcv.notify_all();
    return support::Status();
}

void
DispatchService::applyPendingInstallers(unsigned idx)
{
    Worker &w = *workers[idx];
    if (w.installersApplied
        == installerCount.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::mutex> lock(poolMu);
    while (w.installersApplied < installers.size()) {
        try {
            installers[w.installersApplied](*w.rt);
        } catch (const std::exception &e) {
            reg.counter("pool.install_failed").inc();
            support::warn("kernel-pool installer failed on %s: %s",
                          w.dev->name().c_str(), e.what());
        }
        ++w.installersApplied;
    }
}

BufferPool::Stats
DispatchService::poolStats(unsigned idx) const
{
    return workers.at(idx)->pool.stats();
}

DispatchService::ServiceHealth
DispatchService::health() const
{
    ServiceHealth out;
    out.running = started.load(std::memory_order_acquire);
    out.inFlight = inFlight.load(std::memory_order_acquire);
    out.devices.resize(workers.size());
    for (unsigned i = 0; i < workers.size(); ++i) {
        const Worker &w = *workers[i];
        DeviceHealth &d = out.devices[i];
        d.index = i;
        d.name = w.dev->name();
        d.fingerprint = w.fingerprint;
        d.load = w.load.load(std::memory_order_relaxed);
        d.clockNs = w.clockNs.load(std::memory_order_relaxed);
    }
    {
        // Breaker fields live under routeMu; taken once for all
        // devices, never together with a shard lock.
        std::lock_guard<std::mutex> lock(routeMu);
        for (unsigned i = 0; i < workers.size(); ++i) {
            const Worker &w = *workers[i];
            out.devices[i].breakerOpen = w.breakerOpen;
            out.devices[i].breakerCooldownLeft = w.breakerCooldownLeft;
            out.devices[i].consecFailures = w.consecFailures;
        }
    }
    for (unsigned i = 0; i < workers.size(); ++i) {
        Worker &w = *workers[i];
        std::lock_guard<std::mutex> lock(w.qmu);
        out.devices[i].queueDepth = w.queue.size();
    }
    return out;
}

std::string
DispatchService::flightDump(unsigned idx) const
{
    return workers.at(idx)->flight.dump();
}

void
DispatchService::start()
{
    if (started.load(std::memory_order_acquire))
        return;
    if (workers.empty())
        throw std::logic_error("DispatchService: start() with no devices");
    stopping.store(false, std::memory_order_release);
    {
        // Serialize against registerKernelPool(): an installer either
        // completes its inline application before workers exist or
        // sees started == true and defers to the workers.
        std::lock_guard<std::mutex> lock(poolMu);
        started.store(true, std::memory_order_release);
    }
    for (unsigned i = 0; i < workers.size(); ++i)
        workers[i]->thread = std::thread([this, i] { workerLoop(i); });
}

unsigned
DispatchService::route(const std::string &signature,
                       const std::vector<unsigned> &excluded)
{
    std::lock_guard<std::mutex> lock(routeMu);
    const std::size_t n = workers.size();
    // An open breaker sheds load for breakerCooldown routing
    // decisions; once the cooldown is spent the device becomes
    // eligible for exactly one probe job (the cooldown is re-armed
    // when the probe is placed, and the breaker closes or reopens on
    // the probe's result).
    auto admissible = [this](unsigned i) {
        Worker &w = *workers[i];
        if (!w.breakerOpen)
            return true;
        if (w.breakerCooldownLeft > 0) {
            w.breakerCooldownLeft--;
            return false;
        }
        return true; // half-open: probe allowed
    };

    auto finish = [this](unsigned pick) {
        if (workers[pick]->breakerOpen)
            workers[pick]->breakerCooldownLeft = config.breakerCooldown;
        return pick;
    };

    if (n <= 64) {
        // Submission hot path: candidate tiers as bitmasks, no heap.
        std::uint64_t admissibleMask = 0;
        std::uint64_t nonExcludedMask = 0;
        for (unsigned i = 0; i < n; ++i) {
            if (contains(excluded, i))
                continue;
            nonExcludedMask |= std::uint64_t(1) << i;
            if (admissible(i))
                admissibleMask |= std::uint64_t(1) << i;
        }
        std::uint64_t pool =
            admissibleMask ? admissibleMask : nonExcludedMask;
        if (pool == 0) {
            // Everything is excluded or shedding: all devices.
            pool = n == 64 ? ~std::uint64_t(0)
                           : (std::uint64_t(1) << n) - 1;
        }
        if (config.affinity) {
            auto it = affinityMap.find(signature);
            if (it != affinityMap.end()
                && ((pool >> it->second) & 1) != 0)
                return finish(it->second);
        }
        unsigned best = UINT_MAX;
        for (unsigned i = 0; i < n; ++i) {
            if (((pool >> i) & 1) == 0)
                continue;
            if (best == UINT_MAX
                || workers[i]->load.load(std::memory_order_relaxed)
                       < workers[best]->load.load(
                           std::memory_order_relaxed))
                best = i;
        }
        return finish(best);
    }

    // Large-fleet fallback (allocates; n > 64 is not the hot path).
    std::vector<unsigned> pool;
    for (unsigned i = 0; i < n; ++i)
        if (!contains(excluded, i) && admissible(i))
            pool.push_back(i);
    if (pool.empty()) {
        for (unsigned i = 0; i < n; ++i)
            if (!contains(excluded, i))
                pool.push_back(i);
    }
    if (pool.empty()) {
        pool.resize(n);
        for (unsigned i = 0; i < n; ++i)
            pool[i] = i;
    }
    if (config.affinity) {
        auto it = affinityMap.find(signature);
        if (it != affinityMap.end() && contains(pool, it->second))
            return finish(it->second);
    }
    unsigned best = pool[0];
    for (unsigned i : pool)
        if (workers[i]->load.load(std::memory_order_relaxed)
            < workers[best]->load.load(std::memory_order_relaxed))
            best = i;
    return finish(best);
}

void
DispatchService::breakerObserve(unsigned idx, bool deviceFault)
{
    std::lock_guard<std::mutex> lock(routeMu);
    Worker &w = *workers[idx];
    if (deviceFault) {
        w.consecFailures++;
        if (w.breakerOpen) {
            // The half-open probe failed: re-arm the cooldown.
            w.breakerCooldownLeft = config.breakerCooldown;
            reg.counter("breaker.reopens").inc();
        } else if (w.consecFailures >= config.breakerThreshold) {
            w.breakerOpen = true;
            w.breakerCooldownLeft = config.breakerCooldown;
            reg.counter("breaker.trips").inc();
            reg.counter(devMetric("device.breaker_trips", idx)).inc();
        }
    } else {
        w.consecFailures = 0;
        if (w.breakerOpen) {
            w.breakerOpen = false;
            w.breakerCooldownLeft = 0;
            reg.counter("breaker.closes").inc();
        }
    }
}

void
DispatchService::enqueue(unsigned idx, detail::QueuedJob qj)
{
    Worker &w = *workers[idx];
    {
        std::lock_guard<std::mutex> lock(w.qmu);
        qj.enqueuedNs = w.clockNs.load(std::memory_order_relaxed);
        w.queue.push(std::move(qj));
    }
    w.load.fetch_add(1, std::memory_order_relaxed);
    w.qcv.notify_one();
}

void
DispatchService::jobDone()
{
    if (inFlight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(idleMu);
        idle.notify_all();
    }
}

std::vector<JobHandle>
DispatchService::submitMany(std::span<const JobSpec> specs)
{
    std::vector<JobHandle> handles(specs.size());
    submitMany(specs, handles);
    return handles;
}

void
DispatchService::submitMany(std::span<const JobSpec> specs,
                            std::span<JobHandle> out)
{
    if (!started.load(std::memory_order_acquire))
        throw std::logic_error("DispatchService: submit before start()");
    if (out.size() < specs.size())
        throw std::invalid_argument(
            "DispatchService: submitMany output span too small");
    if (specs.empty())
        return;

    // Route first, then visit each destination shard once.  The
    // scratch vector is thread-local so concurrent submitters don't
    // contend, and its capacity persists across calls -- steady
    // state allocates nothing on this thread.
    static thread_local std::vector<unsigned> routes;
    routes.clear();
    for (const JobSpec &spec : specs)
        routes.push_back(route(spec.job_.signature, kNoExclusions));
    submittedCounter->inc(specs.size());

    // Rejected jobs (shed on a full queue, or refused because the
    // service is stopping) are recorded here and completed only after
    // the routing loop is done with `routes`: a done callback runs
    // user code that may re-enter submitMany() on this thread and
    // clobber the thread-local scratch.  A plain local is fine --
    // it stays empty (no allocation) unless jobs are rejected, and
    // the rejection path already allocates for its status message.
    struct Rejected
    {
        std::size_t spec;
        unsigned shard;
        bool stopping;
    };
    std::vector<Rejected> rejected;

    for (unsigned widx = 0; widx < workers.size(); ++widx) {
        bool any = false;
        for (unsigned r : routes)
            if (r == widx) {
                any = true;
                break;
            }
        if (!any)
            continue;
        Worker &w = *workers[widx];
        std::size_t pushed = 0;
        {
            std::unique_lock<std::mutex> lock(w.qmu);
            for (std::size_t i = 0; i < specs.size(); ++i) {
                if (routes[i] != widx)
                    continue;
                const std::uint64_t id =
                    nextId.fetch_add(1, std::memory_order_relaxed);
                if (config.maxQueueDepth > 0
                    && w.queue.size() >= config.maxQueueDepth) {
                    if (config.admission == AdmissionPolicy::Shed) {
                        // Hand out a completed handle; the result and
                        // callback are delivered after the routing
                        // loop.
                        out[i] = JobHandle(w.pool.acquireState(id));
                        rejected.push_back({i, widx, false});
                        continue;
                    }
                    // Backpressure: block the submitter until the
                    // shard has room (the worker notifies spaceCv on
                    // every pop and batch gather).
                    reg.counter("admission.blocked").inc();
                    const std::uint64_t t0 = wallNowNs();
                    w.spaceCv.wait(lock, [&] {
                        return w.queue.size() < config.maxQueueDepth
                               || stopping.load(
                                   std::memory_order_acquire);
                    });
                    reg.histogram("admission.block_ns")
                        .observe(
                            static_cast<double>(wallNowNs() - t0));
                    if (stopping.load(std::memory_order_acquire)) {
                        // Woken by stop(): the worker may already
                        // have seen an empty queue and exited, so a
                        // push now would strand the job -- and its
                        // inFlight count -- forever.  Refuse it.
                        out[i] = JobHandle(w.pool.acquireState(id));
                        rejected.push_back({i, widx, true});
                        continue;
                    }
                }
                auto state = w.pool.acquireState(id);
                detail::QueuedJob qj = w.pool.acquireShell();
                // Copy-assignment into the pooled shell reuses its
                // string and vector capacity.
                qj.job = specs[i].job_;
                qj.job.id = id;
                qj.state = state;
                qj.enqueuedNs =
                    w.clockNs.load(std::memory_order_relaxed);
                inFlight.fetch_add(1, std::memory_order_acq_rel);
                w.queue.push(std::move(qj));
                ++pushed;
                out[i] = JobHandle(std::move(state));
            }
        }
        if (pushed > 0) {
            w.load.fetch_add(pushed, std::memory_order_relaxed);
            w.qcv.notify_one();
        }
    }

    for (const Rejected &r : rejected) {
        Worker &w = *workers[r.shard];
        std::shared_ptr<detail::JobState> state = out[r.spec].state_;
        JobResult res;
        res.id = state->id;
        res.deviceIndex = r.shard;
        res.deviceName = w.dev->name();
        res.attempts = 0;
        if (r.stopping) {
            reg.counter("admission.stopped").inc();
            res.status = support::Status::unavailable(
                "job " + std::to_string(state->id)
                + " rejected: service stopping");
        } else {
            reg.counter("admission.shed").inc();
            reg.counter(devMetric("device.shed", r.shard)).inc();
            res.status = support::Status::resourceExhausted(
                "dispatch queue of " + devKey(r.shard) + " is full ("
                + std::to_string(config.maxQueueDepth) + " jobs); job "
                + std::to_string(state->id) + " shed");
            if (tracer_.enabled()) {
                tracer_.instant(
                    w.traceTrack, "admission.shed",
                    w.clockNs.load(std::memory_order_relaxed),
                    state->id,
                    {{"depth",
                      std::to_string(config.maxQueueDepth)}});
            }
        }
        if (specs[r.spec].job_.done)
            specs[r.spec].job_.done(res);
        {
            std::lock_guard<std::mutex> slock(state->mu);
            state->result = std::move(res);
            state->phase.store(detail::JobState::Done,
                               std::memory_order_release);
        }
        state->cv.notify_all();
    }
}

void
DispatchService::drain()
{
    std::unique_lock<std::mutex> lock(idleMu);
    idle.wait(lock, [this] {
        return inFlight.load(std::memory_order_acquire) == 0;
    });
}

void
DispatchService::stop()
{
    if (!started.load(std::memory_order_acquire))
        return;
    drain();
    stopping.store(true, std::memory_order_release);
    for (auto &w : workers) {
        {
            std::lock_guard<std::mutex> lock(w->qmu);
        }
        w->qcv.notify_all();
        w->spaceCv.notify_all();
    }
    for (auto &w : workers)
        if (w->thread.joinable())
            w->thread.join();
    started.store(false, std::memory_order_release);
}

void
DispatchService::finishJob(detail::QueuedJob &qj, JobResult res)
{
    // The callback runs before the handle reports Done: once a
    // waiter wakes from result() the job -- callback included -- is
    // truly finished, and the caller may tear its captures down.
    if (qj.job.done)
        qj.job.done(res);
    detail::JobState &st = *qj.state;
    {
        std::lock_guard<std::mutex> lock(st.mu);
        st.result = std::move(res);
        st.phase.store(detail::JobState::Done,
                       std::memory_order_release);
    }
    st.cv.notify_all();
}

void
DispatchService::finishCancelled(unsigned idx, detail::QueuedJob &&qj)
{
    Worker &w = *workers[idx];
    cancelledCounter->inc();
    if (qj.job.done) {
        JobResult res;
        {
            std::lock_guard<std::mutex> lock(qj.state->mu);
            res = qj.state->result;
        }
        qj.job.done(res);
    }
    w.load.fetch_sub(1, std::memory_order_relaxed);
    jobDone();
    w.pool.releaseShell(std::move(qj));
}

void
DispatchService::workerLoop(unsigned idx)
{
    Worker &w = *workers[idx];
    for (;;) {
        detail::QueuedJob qj;
        {
            std::unique_lock<std::mutex> lock(w.qmu);
            w.qcv.wait(lock, [&] {
                return stopping.load(std::memory_order_acquire)
                       || !w.queue.empty()
                       || w.installersApplied
                              != installerCount.load(
                                  std::memory_order_acquire);
            });
            if (w.queue.empty()) {
                if (stopping.load(std::memory_order_acquire))
                    return;
                // Woken to pick up a post-start kernel pool.
                lock.unlock();
                applyPendingInstallers(idx);
                continue;
            }
            qj = w.queue.pop();
        }
        // A slot freed: admit one blocked submitter.
        w.spaceCv.notify_one();

        applyPendingInstallers(idx);

        if (!claim(idx, qj))
            continue;
        w.flight.record(w.dev->now(), qj.job.id, "claim",
                        "dev=" + w.dev->name() + " attempt="
                            + std::to_string(qj.attempt + 1));

        if (config.batch.enabled() && tryRunBatch(idx, qj))
            continue;

        JobResult res = runJob(idx, qj);
        complete(idx, qj, std::move(res));
    }
}

bool
DispatchService::claim(unsigned idx, detail::QueuedJob &qj)
{
    // A lost race means the job was cancelled while queued and the
    // handle already carries the Cancelled result; the done callback
    // still fires exactly once, here.
    int expected = detail::JobState::Queued;
    if (!qj.state->phase.compare_exchange_strong(
            expected, detail::JobState::Running)) {
        finishCancelled(idx, std::move(qj));
        return false;
    }
    // The device is idle between jobs, so its clock is safe to read
    // here.
    if (tracer_.enabled()) {
        Worker &w = *workers[idx];
        tracer_.complete(w.traceTrack, "queue", qj.enqueuedNs,
                         w.dev->now(), qj.job.id,
                         {{"signature", qj.job.signature},
                          {"attempt", std::to_string(qj.attempt + 1)}});
    }
    return true;
}

bool
DispatchService::tryRunBatch(unsigned idx, detail::QueuedJob &head)
{
    Worker &w = *workers[idx];
    if (!Batcher::eligible(head.job))
        return false;

    // One store consult for the whole batch.  peek() keeps the
    // hit/miss statistics untouched; runBatch() accounts the batch's
    // members in one go.
    auto rec = store_.peek(head.job.signature, w.fingerprint,
                           head.job.units);
    if (rec && w.rt->guard().enabled()
        && store_.isBlacklisted(head.job.signature, rec->selectedName,
                                w.fingerprint))
        rec.reset();
    const bool profilable =
        head.job.units >= config.runtime.minUnitsForProfiling
        && head.job.opt.profiling;
    if (!rec && profilable) {
        // Cold but worth profiling: run the head solo so its record
        // lands in the store; the compatible jobs still queued fuse
        // behind that record on the very next claim.
        return false;
    }

    // Gather compatible members, topping up within the bounded-delay
    // window when the batch is under-full.  Every gather extracts
    // queued jobs without a pop, so it must wake submitters blocked
    // on admission control itself (notify_all: one gather can free
    // many slots) -- both to keep them from sleeping on an already
    // drained queue and to let them top the batch up mid-window.
    w.batchMembers.clear();
    {
        std::unique_lock<std::mutex> lock(w.qmu);
        if (batcher.gather(w.queue, head.job, w.batchMembers) > 0)
            w.spaceCv.notify_all();
        if (config.batch.windowNs > 0
            && w.batchMembers.size() + 1 < config.batch.maxJobs) {
            // The window is an absolute deadline: any qcv wakeup (a
            // new job on the shard, an installer broadcast) re-gathers
            // and keeps waiting, so a single early notify cannot cut
            // the accumulation window short.
            const auto deadline =
                std::chrono::steady_clock::now()
                + std::chrono::nanoseconds(config.batch.windowNs);
            while (w.batchMembers.size() + 1 < config.batch.maxJobs) {
                const auto ws = w.qcv.wait_until(lock, deadline);
                if (batcher.gather(w.queue, head.job, w.batchMembers)
                    > 0)
                    w.spaceCv.notify_all();
                if (ws == std::cv_status::timeout)
                    break;
            }
        }
    }

    // Claim every member; one that lost to cancel() finishes inside
    // claim() without disturbing the batch.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < w.batchMembers.size(); ++i) {
        detail::QueuedJob &m = w.batchMembers[i];
        if (!claim(idx, m))
            continue;
        if (i != kept)
            w.batchMembers[kept] = std::move(m);
        ++kept;
    }
    w.batchMembers.resize(kept);
    if (w.batchMembers.empty())
        return false; // nothing fused: head runs solo

    // Head leads the batch at index 0.
    w.batchMembers.push_back(std::move(head));
    std::swap(w.batchMembers.front(), w.batchMembers.back());

    runBatch(idx, rec);
    return true;
}

void
DispatchService::runBatch(unsigned idx,
                          const std::optional<store::SelectionRecord> &rec)
{
    Worker &w = *workers[idx];
    std::vector<detail::QueuedJob> &members = w.batchMembers;
    detail::QueuedJob &head = members.front();
    // The completion loop below releases each member's shell as it
    // goes -- the head's first -- so snapshot the leader id up front.
    const std::uint64_t headId = head.job.id;
    const std::string &sig = head.job.signature;
    const std::size_t n = members.size();
    const bool warm = rec.has_value();

    // Resolve the stored winner by name (records survive
    // re-registration); keep the runtime's own cache warm so future
    // solo launches of the signature skip the store round-trip.
    int variant = -1;
    if (warm) {
        variant = w.rt->findVariantIndex(sig, rec->selectedName);
        if (variant < 0)
            variant = rec->selected;
        (void)w.rt->tryImportSelection(sig, variant);
    }

    w.batchSlices.clear();
    std::uint64_t totalUnits = 0;
    for (detail::QueuedJob &m : members) {
        w.batchSlices.push_back(
            {&m.job.args, m.job.units, m.job.id});
        totalUnits += m.job.units;
    }

    runtime::LaunchOptions opt = head.job.opt;
    opt.correlationId = head.job.id;
    opt.profiling = false;

    w.flight.record(w.dev->now(), head.job.id, "batch",
                    "jobs=" + std::to_string(n) + " sig=" + sig
                        + (warm ? " warm" : " cold"));
    if (tracer_.enabled()) {
        tracer_.instant(
            w.traceTrack, "batch.gather", w.dev->now(), head.job.id,
            {{"signature", sig},
             {"jobs", std::to_string(n)},
             {"units", std::to_string(totalUnits)},
             {"warm", warm ? "yes" : "no"}});
    }

    const sim::TimeNs before = w.dev->now();
    runtime::LaunchReport report;
    const support::Status st = w.rt->launchFused(
        sig, warm ? variant : -1, w.batchSlices, opt, report);
    const sim::TimeNs elapsed = w.dev->now() - before;
    w.clockNs.store(w.dev->now(), std::memory_order_relaxed);

    if (!st.ok()) {
        // The fused launch failed as a whole: demote every member to
        // solo re-execution instead of failing the batch.  The
        // failure was the batch's, so no attempt is consumed; a
        // persistently faulty job then flows through the normal
        // per-job retry machinery on its solo runs.
        const support::StatusCode code = st.code();
        breakerObserve(idx, isDeviceFault(code));
        batchDemotedCounter->inc(n);
        if (tracer_.enabled()) {
            tracer_.instant(
                w.traceTrack, "batch.demoted", w.dev->now(),
                head.job.id,
                {{"signature", sig},
                 {"jobs", std::to_string(n)},
                 {"code", support::statusCodeName(code)}});
        }
        w.flight.record(w.dev->now(), head.job.id, "batch.demote",
                        "jobs=" + std::to_string(n) + " "
                            + st.toString());
        const sim::TimeNs share = elapsed / n;
        {
            std::lock_guard<std::mutex> lock(w.qmu);
            for (detail::QueuedJob &m : members) {
                m.job.noBatch = true;
                m.spentNs += share;
                m.enqueuedNs =
                    w.clockNs.load(std::memory_order_relaxed);
                // Back to Queued: cancel() can still win the next
                // claim race.
                m.state->phase.store(detail::JobState::Queued,
                                     std::memory_order_release);
                w.queue.push(std::move(m));
            }
        }
        // Members stayed on this shard, so w.load is already right;
        // the worker loops straight back into the queue.
        members.clear();
        return;
    }

    // Success: one fused launch served n jobs.
    batchLaunchCounter->inc();
    batchJobsCounter->inc(n);
    batchSizeHist->observe(static_cast<double>(n));
    if (warm) {
        store_.noteServed(sig, w.fingerprint, head.job.units, n);
        storeHitCounter->inc(n);
        w.storeHitsCounter->inc(n);
    } else {
        // Sub-threshold jobs never produce a record; they still count
        // as misses so hit-rate accounting matches the solo path.
        storeMissCounter->inc(n);
    }

    // Each member completes like a solo job whose launch took an even
    // share of the fused device time.
    const sim::TimeNs share = elapsed / n;
    for (detail::QueuedJob &m : members) {
        JobResult res;
        res.id = m.job.id;
        res.deviceIndex = idx;
        res.deviceName = w.dev->name();
        res.warmStart = warm;
        res.batchedWith = headId;
        res.report = report;
        res.report.totalUnits = m.job.units; // the member's own view
        res.deviceTimeNs = share;
        complete(idx, m, std::move(res));
    }
    members.clear();
}

void
DispatchService::complete(unsigned idx, detail::QueuedJob &qj,
                          JobResult res)
{
    Worker &w = *workers[idx];
    res.attempts = qj.attempt + 1;
    res.backoffNs = qj.backoffNs;
    qj.spentNs += res.deviceTimeNs;
    w.clockNs.store(w.dev->now(), std::memory_order_relaxed);

    const support::StatusCode launchCode = res.status.code();
    const bool deviceFault = isDeviceFault(launchCode);
    if (launchCode == support::StatusCode::Ok) {
        // Device accounting counts every launch that ran, including
        // one whose job then misses its deadline.
        w.jobsCounter->inc();
        deviceNsHist->observe(static_cast<double>(res.deviceTimeNs));
        w.latencyHist->observe(static_cast<double>(res.deviceTimeNs));
        if (res.report.profiled)
            w.profiledCounter->inc();
    } else if (launchCode == support::StatusCode::DeadlineExceeded) {
        // A hung device timed the attempt out.
        reg.counter("recover.timeouts").inc();
    }

    // Job-level deadline: device time plus charged backoff.
    if (res.ok() && qj.job.deadlineNs != 0
        && qj.spentNs + qj.backoffNs > qj.job.deadlineNs) {
        res.status = support::Status::deadlineExceeded(
            "job " + std::to_string(qj.job.id)
            + " exceeded its deadline");
        reg.counter("recover.timeouts").inc();
    }

    bool retry = false;
    sim::TimeNs backoff = 0;
    if (!res.ok() && retryableCode(launchCode)
        && res.attempts < config.maxAttempts) {
        backoff = config.backoffBaseNs << (res.attempts - 1);
        if (qj.job.deadlineNs == 0
            || qj.spentNs + qj.backoffNs + backoff
                   < qj.job.deadlineNs) {
            retry = true;
        } else {
            res.status = support::Status::deadlineExceeded(
                "job " + std::to_string(qj.job.id)
                + " out of retry budget: " + res.status.message());
            reg.counter("recover.timeouts").inc();
        }
    }

    if (retry) {
        // Back to Queued so the next worker can claim it (and a
        // cancel() between attempts still wins the race).
        qj.state->phase.store(detail::JobState::Queued,
                              std::memory_order_release);
        breakerObserve(idx, deviceFault);
        qj.attempt = res.attempts;
        qj.excluded.push_back(idx);
        qj.backoffNs += backoff;
        std::vector<unsigned> excluded = qj.excluded;
        if (excluded.size() >= workers.size())
            excluded.clear(); // every device failed it: restart
        const unsigned target = route(qj.job.signature, excluded);
        reg.counter("recover.retries").inc();
        reg.counter(devMetric("device.retries_out", idx)).inc();
        if (tracer_.enabled()) {
            tracer_.instant(
                w.traceTrack, "retry", w.dev->now(), qj.job.id,
                {{"from", devKey(idx)},
                 {"to", devKey(target)},
                 {"attempt", std::to_string(qj.attempt + 1)},
                 {"code",
                  support::statusCodeName(res.status.code())}});
        }
        w.flight.record(w.dev->now(), qj.job.id, "retry",
                        "to=" + devKey(target) + " "
                            + res.status.toString());
        // Retries bypass admission: the job is already admitted,
        // and a worker thread must never block on a full shard.
        enqueue(target, std::move(qj));
        w.load.fetch_sub(1, std::memory_order_relaxed);
        return;
    }

    const bool succeeded = res.ok();
    breakerObserve(idx, deviceFault);
    if (config.affinity && succeeded
        && (res.report.profiled || res.report.fromCache)) {
        // Insert-or-re-pin: after a re-routed retry the
        // signature sticks to the device that worked.
        std::lock_guard<std::mutex> lock(routeMu);
        affinityMap[qj.job.signature] = idx;
    }

    (succeeded ? completedCounter : failedCounter)->inc();
    attemptsHist->observe(static_cast<double>(res.attempts));
    if (res.backoffNs > 0)
        backoffHist->observe(static_cast<double>(res.backoffNs));
    if (!succeeded) {
        // Attach the worker's flight-recorder dump to the failure
        // so the caller sees the device's last phases post-mortem.
        w.flight.record(w.dev->now(), qj.job.id, "failed",
                        "dev=" + w.dev->name() + " "
                            + res.status.toString());
        res.status.withPayload(w.flight.dump());
    }
    finishJob(qj, std::move(res));

    w.load.fetch_sub(1, std::memory_order_relaxed);
    jobDone();
    w.pool.releaseShell(std::move(qj));
}

JobResult
DispatchService::runJob(unsigned idx, detail::QueuedJob &qj)
{
    Worker &w = *workers[idx];
    detail::Job &job = qj.job;
    JobResult res;
    res.id = job.id;
    res.deviceIndex = idx;
    res.deviceName = w.dev->name();

    // Stamp the thread-locals the store observers read: a demotion
    // fired from a store call below must be traceable to this job.
    tlJobId = job.id;
    tlTraceTrack = w.traceTrack;
    tlDevice = w.dev.get();

    w.flight.record(w.dev->now(), job.id, "register",
                    "sig=" + job.signature);
    try {
        if (job.ensureRegistered)
            job.ensureRegistered(*w.rt);
    } catch (const std::exception &e) {
        res.status = support::Status::internal(
            std::string("ensureRegistered: ") + e.what());
        return res;
    }

    if (w.rt->guard().enabled()) {
        // Seed the runtime's guard with the store's blacklist for
        // this (signature, device): entries loaded from disk must
        // keep excluding their variants after a restart.
        for (const auto &[variant, reason] :
             store_.blacklistedVariants(job.signature, w.fingerprint))
            w.rt->guard().blacklist(job.signature, variant, reason);
    }

    // Store lookup with the guard's blacklist applied: a stored
    // winner that was since blacklisted (e.g. on a peer worker) is
    // treated as a miss so the key re-profiles.
    auto lookupUsable = [&]() {
        auto rec =
            store_.lookup(job.signature, w.fingerprint, job.units);
        if (rec && w.rt->guard().enabled()
            && store_.isBlacklisted(job.signature, rec->selectedName,
                                    w.fingerprint)) {
            if (tracer_.enabled()) {
                tracer_.instant(w.traceTrack,
                                "store.blocked_warmstart",
                                w.dev->now(), job.id,
                                {{"variant", rec->selectedName}});
            }
            rec.reset();
            reg.counter("guard.blocked_warmstart").inc();
        }
        return rec;
    };

    auto rec = lookupUsable();
    const bool profilable =
        job.units >= config.runtime.minUnitsForProfiling
        && job.opt.profiling;

    // Fleet federation (DESIGN §13): on a profilable cold miss, ask
    // the replication layer who pays the fleet's single profiling
    // pass for this key.  Warm means the owner's record is in our
    // store now (gossiped or fetched with the lease); LeaseGranted /
    // LocalProfile / Fallback all fall through to the predictor and
    // the in-process coalescer, which dedup local concurrency as
    // usual.
    if (!rec && fed_ && profilable) {
        const auto rs = fed_->resolveCold(job.signature,
                                          w.fingerprint, job.units);
        if (rs.kind == fed::Replicator::Resolve::Warm) {
            rec = lookupUsable();
            if (rec) {
                reg.counter("fed.warm_hit").inc();
                if (tracer_.enabled()) {
                    // owner_cid is the profiling pass's correlation
                    // id ON THE OWNER REPLICA: merging both replicas'
                    // trace files lines this instant up with the
                    // remote profile spans that produced the record.
                    tracer_.instant(
                        w.traceTrack, "fed.warm_hit", w.dev->now(),
                        job.id,
                        {{"owner_cid", std::to_string(rs.ownerCid)},
                         {"owner_replica",
                          std::to_string(rs.profileOrigin)},
                         {"waited_ms",
                          std::to_string(rs.waitedMs)}});
                }
                w.flight.record(w.dev->now(), job.id, "fed",
                                "warm from replica "
                                    + std::to_string(rs.profileOrigin));
            }
        }
    }

    // Learned selection: on a profilable store miss, ask the
    // predictor before paying for a profiling pass (or queueing up
    // behind one).  A confident prediction seeds the store and the
    // job runs warm with zero profiled units; the drift/guard
    // machinery remains the safety net and demotes a bad prediction
    // back to a forced profile.
    if (!rec && predictor_ && profilable) {
        if (const auto *info = w.rt->findKernelInfo(job.signature))
            predictor_->noteKernel(job.signature, *info);
        const auto pred = predictor_->predict(
            job.signature, w.fingerprint,
            store::bucketOf(job.units));
        const bool confident =
            pred
            && pred->confidence >= predictor_->config().threshold;
        if (confident) {
            // Resolve the predicted variant by name; an unknown or
            // blacklisted variant voids the prediction.
            const int variant =
                w.rt->findVariantIndex(job.signature, pred->variant);
            const bool blocked =
                variant < 0
                || (w.rt->guard().enabled()
                    && store_.isBlacklisted(job.signature,
                                            pred->variant,
                                            w.fingerprint));
            if (!blocked) {
                store_.seedPrediction(job.signature, w.fingerprint,
                                      job.units, variant,
                                      pred->variant,
                                      pred->confidence);
                rec = lookupUsable();
            }
        }
        if (rec) {
            res.predicted = true;
            reg.counter("predict.hit").inc();
            if (tracer_.enabled()) {
                tracer_.instant(
                    w.traceTrack, "predict.hit", w.dev->now(), job.id,
                    {{"variant", pred->variant},
                     {"confidence", confStr(pred->confidence)},
                     {"source", predict::sourceName(pred->source)},
                     {"distance", std::to_string(pred->distance)}});
            }
            w.flight.record(w.dev->now(), job.id, "predict",
                            "hit variant=" + pred->variant);
        } else {
            reg.counter("predict.miss").inc();
            if (tracer_.enabled()) {
                tracer_.instant(
                    w.traceTrack, "predict.miss", w.dev->now(),
                    job.id,
                    {{"confidence",
                      pred ? confStr(pred->confidence) : "none"}});
            }
        }
    }

    // Profiling coalescing: a miss on a profilable job bids for
    // leadership of its (signature, fingerprint, bucket).  Losers
    // wait for the leader's record and ride it warm; a leader that
    // failed to record hands leadership to one of its followers.
    CoalesceLease lease;
    if (config.coalesce && profilable) {
        const std::string ckey = ProfileCoalescer::key(
            job.signature, w.fingerprint,
            store::bucketOf(job.units));
        while (!rec) {
            const auto ticket = coalescer.acquire(ckey, job.id);
            if (ticket.leader) {
                lease = CoalesceLease(coalescer, ckey);
                reg.counter("coalesce.leader").inc();
                break;
            }
            reg.counter("coalesce.follower").inc();
            if (tracer_.enabled()) {
                tracer_.instant(
                    w.traceTrack, "coalesce.attach", w.dev->now(),
                    job.id,
                    {{"leader", std::to_string(ticket.leaderId)},
                     {"signature", job.signature}});
            }
            w.flight.record(w.dev->now(), job.id, "coalesce",
                            "follow leader="
                                + std::to_string(ticket.leaderId));
            coalescer.awaitRelease(ckey);
            rec = lookupUsable();
            if (rec) {
                res.coalescedWith = ticket.leaderId;
                reg.counter("coalesce.hit").inc();
                if (tracer_.enabled()) {
                    tracer_.instant(
                        w.traceTrack, "coalesce.served",
                        w.dev->now(), job.id,
                        {{"leader",
                          std::to_string(ticket.leaderId)},
                         {"variant", rec->selectedName}});
                }
            } else {
                // The leader released without recording (fault,
                // guard storm): bid again -- one follower becomes
                // the new leader, the rest keep waiting.
                reg.counter("coalesce.leader_failed").inc();
            }
        }
    }

    runtime::LaunchOptions opt = job.opt;
    // The job id doubles as the trace correlation id: every span the
    // runtime emits for this launch carries it.
    opt.correlationId = job.id;
    if (rec) {
        // Warm start: resolve the stored winner (by name, so records
        // survive re-registration) and skip profiling.
        int variant =
            w.rt->findVariantIndex(job.signature, rec->selectedName);
        if (variant < 0)
            variant = rec->selected;
        if (auto st = w.rt->tryImportSelection(job.signature, variant);
            !st.ok()) {
            res.status = std::move(st);
            return res;
        }
        opt.profiling = false;
        res.warmStart = true;
        storeHitCounter->inc();
        w.storeHitsCounter->inc();
        if (tracer_.enabled()) {
            tracer_.instant(w.traceTrack, "store.hit", w.dev->now(),
                            job.id,
                            {{"variant", rec->selectedName}});
        }
        w.flight.record(w.dev->now(), job.id, "lookup",
                        "warm variant=" + rec->selectedName);
    } else {
        opt.profiling = true;
        storeMissCounter->inc();
        w.flight.record(w.dev->now(), job.id, "lookup", "miss");
    }

    w.flight.record(w.dev->now(), job.id, "launch",
                    "sig=" + job.signature + " units="
                        + std::to_string(job.units));
    const sim::TimeNs before = w.dev->now();
    res.status =
        w.rt->launch(job.signature, job.units, job.args, opt,
                     res.report);
    res.deviceTimeNs = w.dev->now() - before;

    if (res.ok()) {
        // Selection-quality audit: a sampled warm hit is followed by
        // a shadow probe of winner vs runner-up, here -- while the
        // job's buffers are still alive -- and before completion, so
        // the probe time is never charged to the job's latency.
        // Predicted records carry no profiles, so they are excluded
        // naturally (no runner-up to probe).
        if (auditor_ && res.warmStart && !res.report.profiled && rec
            && rec->profiles.size() >= 2 && auditor_->shouldSample())
            auditWarmHit(idx, qj, *rec);
    } else if (res.warmStart
               && retryableCode(res.status.code())) {
        // The stored selection failed to even launch: demote it so
        // the next lookup serves the runner-up (or re-profiles).
        switch (store_.reportFailure(job.signature, w.fingerprint,
                                     job.units)) {
          case store::Observation::Quarantined:
            reg.counter("store.quarantine").inc();
            if (tracer_.enabled()) {
                tracer_.instant(w.traceTrack, "store.quarantine",
                                w.dev->now(), job.id,
                                {{"signature", job.signature}});
            }
            break;
          case store::Observation::Invalidated:
            reg.counter("store.drift_invalidation").inc();
            break;
          case store::Observation::Ok:
            break;
        }
    }
    // The coalesce lease (when held) releases here: the profiled
    // record is in the store -- or the attempt failed and a follower
    // takes over.
    return res;
}

void
DispatchService::auditWarmHit(unsigned idx, const detail::QueuedJob &qj,
                              const store::SelectionRecord &rec)
{
    Worker &w = *workers[idx];
    const detail::Job &job = qj.job;

    // The stored runner-up: the best per-unit profiled variant that
    // is not the served winner -- the same fallback quarantine would
    // serve -- skipping blacklisted variants.
    const std::string &winner = rec.selectedName;
    std::string runnerUp;
    double bestUnitNs = 0;
    for (const auto &p : rec.profiles) {
        if (p.name == winner || p.units == 0)
            continue;
        if (w.rt->guard().enabled()
            && store_.isBlacklisted(job.signature, p.name,
                                    w.fingerprint))
            continue;
        const double unitNs =
            p.metricNs / static_cast<double>(p.units);
        if (runnerUp.empty() || unitNs < bestUnitNs) {
            runnerUp = p.name;
            bestUnitNs = unitNs;
        }
    }
    const int winIdx = w.rt->findVariantIndex(job.signature, winner);
    const int runIdx =
        runnerUp.empty() ? -1
                         : w.rt->findVariantIndex(job.signature, runnerUp);
    if (winIdx < 0 || runIdx < 0) {
        // A sampled hit whose probe pair cannot even be resolved
        // (stale record, re-registration): account it as a failed
        // probe so the sampling stride stays observable.
        auditor_->noteProbeFailure(w.traceTrack, job.id, w.dev->now(),
                                   job.signature);
        return;
    }

    const std::uint64_t probeUnits =
        config.audit.probeUnits(job.units);
    w.flight.record(w.dev->now(), job.id, "audit",
                    "probe winner=" + winner + " runner_up=" + runnerUp
                        + " units=" + std::to_string(probeUnits));

    // Both variants run the same forced-variant shadow slice over the
    // job's own (still live) buffers: equal slices make the per-unit
    // comparison fair, and LaunchReport::shadow keeps the probes out
    // of the store's drift baseline.
    auto probe = [&](int variant, double &unitNs) {
        runtime::LaunchOptions popt;
        popt.profiling = false;
        popt.shadow = true;
        popt.initialVariant = variant;
        popt.correlationId = job.id;
        runtime::LaunchReport rep;
        const support::Status st = w.rt->launch(
            job.signature, probeUnits, job.args, popt, rep);
        if (!st.ok())
            return false;
        unitNs = static_cast<double>(rep.endTime - rep.startTime)
                 / static_cast<double>(probeUnits);
        return unitNs > 0;
    };
    double winUnitNs = 0;
    double runUnitNs = 0;
    if (!probe(winIdx, winUnitNs) || !probe(runIdx, runUnitNs)) {
        auditor_->noteProbeFailure(w.traceTrack, job.id, w.dev->now(),
                                   job.signature);
        return;
    }

    obs::AuditSample sample;
    sample.signature = job.signature;
    sample.device = w.fingerprint;
    sample.units = job.units;
    sample.winner = winner;
    sample.runnerUp = runnerUp;
    sample.winnerUnitNs = winUnitNs;
    sample.runnerUpUnitNs = runUnitNs;
    sample.traceTrack = w.traceTrack;
    sample.jobId = job.id;
    sample.nowNs = w.dev->now();
    auditor_->ingest(sample);
}

} // namespace serve
} // namespace dysel
