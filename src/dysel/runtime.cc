#include "runtime.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "support/logging.hh"
#include "support/math_util.hh"

#include "gpu_timer.hh"

namespace dysel {
namespace runtime {

using support::ceilDiv;
using support::roundUp;

const char *
orchestrationName(Orchestration o)
{
    switch (o) {
      case Orchestration::Sync: return "sync";
      case Orchestration::Async: return "async";
    }
    return "?";
}

Runtime::Runtime(sim::Device &device, const RuntimeConfig &cfg)
    : dev(device), config(cfg), guard_(cfg.guard)
{
}

support::Status
Runtime::tryAddKernel(const std::string &signature,
                      kdp::KernelVariant variant)
{
    if (!variant.fn)
        return support::Status::invalidArgument(
            "DySelAddKernel(" + signature + "): variant '" + variant.name
            + "' has no implementation");
    if (variant.waFactor == 0 || variant.groupSize == 0)
        return support::Status::invalidArgument(
            "DySelAddKernel(" + signature + "): variant '" + variant.name
            + "' has zero work assignment factor or group size");
    KernelEntry &entry = pool[signature];
    for (const auto &v : entry.variants)
        if (v.name == variant.name)
            return support::Status::invalidArgument(
                "DySelAddKernel(" + signature + "): duplicate variant '"
                + variant.name + "'");
    entry.variants.push_back(std::move(variant));
    return support::Status();
}

void
Runtime::addKernel(const std::string &signature, kdp::KernelVariant variant)
{
    tryAddKernel(signature, std::move(variant)).throwIfError();
}

void
Runtime::setKernelInfo(const std::string &signature,
                       compiler::KernelInfo info)
{
    KernelEntry &entry = pool[signature];
    entry.info = std::move(info);
    entry.hasInfo = true;
}

std::size_t
Runtime::variantCount(const std::string &signature) const
{
    auto it = pool.find(signature);
    return it == pool.end() ? 0 : it->second.variants.size();
}

const std::vector<kdp::KernelVariant> &
Runtime::variants(const std::string &signature) const
{
    const std::vector<kdp::KernelVariant> *v = findVariants(signature);
    if (!v)
        support::Status::notFound(
            "DySel: unknown kernel signature '" + signature + "'")
            .throwIfError();
    return *v;
}

const std::vector<kdp::KernelVariant> *
Runtime::findVariants(const std::string &signature) const noexcept
{
    const KernelEntry *entry = findEntry(signature);
    return entry ? &entry->variants : nullptr;
}

const compiler::KernelInfo *
Runtime::findKernelInfo(const std::string &signature) const noexcept
{
    const KernelEntry *entry = findEntry(signature);
    return entry && entry->hasInfo ? &entry->info : nullptr;
}

int
Runtime::findVariantIndex(const std::string &signature,
                          const std::string &name) const noexcept
{
    const KernelEntry *entry = findEntry(signature);
    if (!entry)
        return -1;
    for (std::size_t i = 0; i < entry->variants.size(); ++i)
        if (entry->variants[i].name == name)
            return static_cast<int>(i);
    return -1;
}

const Runtime::KernelEntry *
Runtime::findEntry(const std::string &signature) const noexcept
{
    auto it = pool.find(signature);
    return it == pool.end() ? nullptr : &it->second;
}

support::Status
Runtime::consumeDeviceFault()
{
    const auto fault = dev.takeFault();
    if (!fault)
        return support::Status();
    const std::string where =
        " (variant '" + fault->variant + "' on " + fault->device + ")";
    if (fault->kind == sim::FaultKind::Hang)
        return support::Status::deadlineExceeded(
            "DySel: device hung during launch" + where);
    return support::Status::unavailable(
        "DySel: injected launch failure" + where);
}

bool
Runtime::hasKernel(const std::string &signature) const
{
    return pool.count(signature) > 0;
}

void
Runtime::removeKernel(const std::string &signature)
{
    pool.erase(signature);
    selectionCache.erase(signature);
}

void
Runtime::clearSelectionCache()
{
    selectionCache.clear();
}

std::optional<int>
Runtime::cachedSelection(const std::string &signature) const
{
    auto it = selectionCache.find(signature);
    if (it == selectionCache.end())
        return std::nullopt;
    return it->second;
}

support::Status
Runtime::tryImportSelection(const std::string &signature, int variant)
{
    const KernelEntry *entry = findEntry(signature);
    if (!entry)
        return support::Status::notFound(
            "DySel: unknown kernel signature '" + signature + "'");
    if (variant < 0
        || variant >= static_cast<int>(entry->variants.size()))
        return support::Status::invalidArgument(
            "DySel: imported selection " + std::to_string(variant)
            + " out of range for '" + signature + "'");
    if (!usable(signature, entry->variants[variant]))
        return support::Status::failedPrecondition(
            "DySel: variant '" + entry->variants[variant].name
            + "' is blacklisted for '" + signature + "'");
    selectionCache[signature] = variant;
    return support::Status();
}

void
Runtime::importSelection(const std::string &signature, int variant)
{
    tryImportSelection(signature, variant).throwIfError();
}

std::map<std::string, int>
Runtime::exportSelections() const
{
    return selectionCache;
}

void
Runtime::setLaunchObserver(LaunchObserver obs)
{
    observer = std::move(obs);
}

void
Runtime::setTracer(support::tracing::Tracer *tracer,
                   const std::string &trackName)
{
    tracer_ = tracer;
    trackName_ = trackName.empty() ? dev.name() : trackName;
    traceTrack = tracer_ ? tracer_->track(trackName_) : 0;
}

LaunchReport
Runtime::finish(LaunchReport report)
{
    if (observer)
        observer(report);
    return report;
}

bool
Runtime::usable(const std::string &signature,
                const kdp::KernelVariant &v) const
{
    return !guard_.enabled() || !guard_.isBlacklisted(signature, v.name);
}

int
Runtime::resolveVariant(const std::string &signature,
                        const KernelEntry &entry, int want) const
{
    const int n = static_cast<int>(entry.variants.size());
    if (want >= 0 && want < n && usable(signature, entry.variants[want]))
        return want;
    for (int i = 0; i < n; ++i)
        if (usable(signature, entry.variants[i]))
            return i;
    return -1;
}

ProfilingMode
Runtime::resolveMode(const KernelEntry &entry,
                     const LaunchOptions &opt) const
{
    if (opt.mode)
        return *opt.mode;
    if (entry.hasInfo)
        return compiler::recommendProfilingMode(entry.info);
    return ProfilingMode::Fully;
}

void
Runtime::submitBatch(const kdp::KernelVariant &variant,
                     const kdp::KernelArgs &args, std::uint64_t first_unit,
                     std::uint64_t units, int priority, int stream,
                     std::function<void(const sim::LaunchStats &)> done)
{
    if (first_unit % variant.waFactor != 0)
        support::panic("batch start unit %llu not aligned to wa factor "
                       "%llu of variant '%s'",
                       (unsigned long long)first_unit,
                       (unsigned long long)variant.waFactor,
                       variant.name.c_str());
    sim::Launch launch;
    launch.variant = &variant;
    launch.args = args;
    launch.firstGroup = first_unit / variant.waFactor;
    launch.numGroups = ceilDiv(units, variant.waFactor);
    launch.priority = priority;
    launch.stream = stream;
    launch.onComplete = std::move(done);
    if (config.verbose)
        support::inform("submitBatch t=%llu variant=%s units=[%llu,%llu) "
                        "groups=%llu prio=%d",
                        (unsigned long long)dev.now(),
                        variant.name.c_str(),
                        (unsigned long long)first_unit,
                        (unsigned long long)(first_unit + units),
                        (unsigned long long)launch.numGroups, priority);
    if (tracing()) {
        tracer_->instant(
            traceTrack, "device.submit", dev.now(), activeCorrelation,
            {{"variant", variant.name},
             {"units", std::to_string(units)},
             {"groups", std::to_string(launch.numGroups)}});
    }
    dev.submit(std::move(launch));
}

template <typename Submit, typename Trace>
support::Status
Runtime::runSingle(const std::string &signature, const KernelEntry &entry,
                   int variant, std::uint64_t total_units,
                   const LaunchOptions &opt, LaunchReport &report,
                   Submit &&submit, Trace &&trace, LaunchReport &out)
{
    report.signature = signature;
    report.selected = variant;
    report.selectedName = entry.variants[variant].name;
    report.orch = opt.orch;
    report.totalUnits = total_units;
    report.startTime = dev.now();
    activeCorrelation = opt.correlationId;

    submit();
    dev.run();
    if (auto fault = consumeDeviceFault(); !fault.ok())
        return fault;
    report.endTime = dev.now();
    if (tracing())
        trace(report);
    out = finish(std::move(report));
    return support::Status();
}

support::Status
Runtime::runPlain(const std::string &signature, const KernelEntry &entry,
                  int variant, std::uint64_t total_units,
                  const kdp::KernelArgs &args, const LaunchOptions &opt,
                  bool from_cache, LaunchReport &out)
{
    const kdp::KernelVariant &v = entry.variants[variant];
    LaunchReport report;
    report.fromCache = from_cache;
    report.shadow = opt.shadow;
    return runSingle(
        signature, entry, variant, total_units, opt, report,
        [&] { submitBatch(v, args, 0, total_units, 0, 0, nullptr); },
        [&](const LaunchReport &r) {
            tracer_->complete(
                traceTrack, "execute", r.startTime, r.endTime,
                opt.correlationId,
                {{"variant", r.selectedName},
                 {"units", std::to_string(total_units)},
                 {"cached", from_cache ? "yes" : "no"}});
        },
        out);
}

support::Status
Runtime::launchFused(const std::string &signature, int variant,
                     std::span<const FusedSlice> slices,
                     const LaunchOptions &opt, LaunchReport &out)
{
    const KernelEntry *entryp = findEntry(signature);
    if (!entryp)
        return support::Status::notFound(
            "DySel: unknown kernel signature '" + signature + "'");
    const KernelEntry &entry = *entryp;
    if (entry.variants.empty())
        return support::Status::failedPrecondition(
            "DySelLaunchFused(" + signature + "): no variants registered");
    if (slices.empty())
        return support::Status::invalidArgument(
            "DySelLaunchFused(" + signature + "): empty batch");

    // Resolve the variant: an explicit index is the serving layer's
    // warm store winner; -1 applies the plain-run default policy.
    int want = variant;
    if (want < 0) {
        auto cached = cachedSelection(signature);
        want = cached.value_or(
            opt.initialVariant >= 0 ? opt.initialVariant : 0);
    }
    if (want < 0 || want >= static_cast<int>(entry.variants.size()))
        return support::Status::invalidArgument(
            "DySelLaunchFused(" + signature + "): variant "
            + std::to_string(want) + " out of range");
    want = resolveVariant(signature, entry, want);
    if (want < 0)
        return support::Status::failedPrecondition(
            "DySelLaunchFused(" + signature
            + "): every variant is blacklisted");
    const kdp::KernelVariant &real = entry.variants[want];

    // Member m occupies fused groups [fusedStarts[m], fusedStarts[m+1]).
    fusedStarts.clear();
    fusedStarts.reserve(slices.size() + 1);
    std::uint64_t groups = 0;
    std::uint64_t total_units = 0;
    fusedStarts.push_back(0);
    for (const FusedSlice &s : slices) {
        if (!s.args || s.units == 0)
            return support::Status::invalidArgument(
                "DySelLaunchFused(" + signature
                + "): fused slice without args or units");
        groups += real.groupsFor(s.units);
        total_units += s.units;
        fusedStarts.push_back(groups);
    }

    // Pack factor: a variant whose waFactor underfills its lanes
    // (waFactor < groupSize, the typical tiny-job shape) leaves most
    // of a physical group idle, so each physical group runs `pack`
    // consecutive member groups back to back.  Every member group
    // keeps its exact solo-launch context (rebased into the member's
    // own grid with the member's own argument list); only the
    // per-group scheduling constant is amortized.  For waFactor >=
    // groupSize this degenerates to one member group per physical
    // group, the unpacked behaviour.
    const std::uint64_t pack = std::max<std::uint64_t>(
        1, real.groupSize / std::max<std::uint64_t>(1, real.waFactor));
    const std::uint64_t physGroups = (groups + pack - 1) / pack;

    // The wrapper variant re-addresses each fused member group into
    // its member's own grid and runs the real implementation with the
    // member's own argument list.  It carries the real variant's name
    // so launch-level fault injection treats fused and solo launches
    // alike, but no sandboxIndex: output-corruption faults target
    // profiling launches, where the guard can catch them.
    kdp::KernelVariant wrapper;
    wrapper.name = real.name;
    wrapper.waFactor = real.waFactor;
    wrapper.groupSize = real.groupSize;
    wrapper.traits = real.traits;
    const std::uint64_t *starts = fusedStarts.data();
    const FusedSlice *mem = slices.data();
    const std::size_t nmem = slices.size();
    const kdp::KernelFn &fn = real.fn;
    wrapper.fn = [starts, mem, nmem, &fn, pack](kdp::GroupCtx &g,
                                                const kdp::KernelArgs &) {
        const std::uint64_t lo = g.group() * pack;
        const std::uint64_t hi = std::min(lo + pack, starts[nmem]);
        std::size_t m = static_cast<std::size_t>(
            std::upper_bound(starts, starts + nmem + 1, lo) - starts) - 1;
        for (std::uint64_t mg = lo; mg < hi; ++mg) {
            while (starts[m + 1] <= mg)
                ++m;
            kdp::GroupCtx local = g.rebased(mg - starts[m]);
            fn(local, *mem[m].args);
        }
    };

    LaunchReport report;
    report.fromCache = variant >= 0;
    report.fused = true;
    report.fusedJobs = nmem;
    auto submit = [&] {
        sim::Launch launch;
        launch.variant = &wrapper;
        launch.firstGroup = 0;
        launch.numGroups = physGroups;
        if (config.verbose)
            support::inform("launchFused t=%llu variant=%s jobs=%zu "
                            "units=%llu groups=%llu pack=%llu",
                            (unsigned long long)dev.now(),
                            real.name.c_str(), nmem,
                            (unsigned long long)total_units,
                            (unsigned long long)physGroups,
                            (unsigned long long)pack);
        if (tracing()) {
            tracer_->instant(
                traceTrack, "device.submit", dev.now(), activeCorrelation,
                {{"variant", real.name},
                 {"units", std::to_string(total_units)},
                 {"groups", std::to_string(physGroups)},
                 {"pack", std::to_string(pack)},
                 {"fused_jobs", std::to_string(nmem)}});
        }
        dev.submit(std::move(launch));
    };
    auto trace = [&](const LaunchReport &r) {
        for (std::size_t m = 0; m < nmem; ++m) {
            tracer_->instant(traceTrack, "batch.slice", r.endTime,
                             mem[m].correlationId,
                             {{"variant", real.name},
                              {"units", std::to_string(mem[m].units)}});
        }
        tracer_->complete(
            traceTrack, "execute.fused", r.startTime, r.endTime,
            opt.correlationId,
            {{"variant", real.name},
             {"jobs", std::to_string(nmem)},
             {"units", std::to_string(total_units)}});
    };
    return runSingle(signature, entry, want, total_units, opt, report,
                     submit, trace, out);
}

LaunchReport
Runtime::launchKernel(const std::string &signature,
                      std::uint64_t total_units,
                      const kdp::KernelArgs &args, const LaunchOptions &opt)
{
    LaunchReport report;
    launch(signature, total_units, args, opt, report).throwIfError();
    return report;
}

/**
 * The state and device callbacks of one profiled launch (paper §2.2-2.4,
 * Fig. 4): micro-profile the active variants on safe-point slices,
 * validate them, select one, then run the rest.  It lives on launch()'s
 * stack and every device callback holds a plain pointer to it.  That is
 * safe because dev.run() drains every event before launch() returns,
 * and a failed or hung device launch drops its callbacks unrun.
 */
struct Runtime::ProfilingPass
{
    ProfilingPass(Runtime &r, const std::string &sig, const KernelEntry &e,
                  const kdp::KernelArgs &a, const std::vector<std::size_t> &ac,
                  ProfilingMode m, std::uint64_t total, std::uint64_t sl,
                  unsigned reps, bool onGpu)
        : rt(r), signature(sig), entry(e), args(a), act(ac), mode(m),
          totalUnits(total), slice(sl), repeats(reps), gpu(onGpu),
          slots(ac.size()), profiles(ac.size()),
          outstanding(static_cast<unsigned>(ac.size()) * reps)
    {
        for (std::size_t j = 0; j < act.size(); ++j)
            profiles[j].name = entry.variants[act[j]].name;
    }
    // Device callbacks hold the pass's address.
    ProfilingPass(const ProfilingPass &) = delete;
    ProfilingPass &operator=(const ProfilingPass &) = delete;

    /** Profiling state of active variant j (registered index act[j]). */
    struct Slot
    {
        /// (arg index, private clone) pairs: the guard checks them and
        /// the winner's are swapped into place.
        std::vector<std::pair<std::size_t, kdp::BufferBase *>> clones;
        std::uint64_t track = 0; ///< trace subtrack of its passes
        /// With repeats, the first execution is a cache warmup and the
        /// steady-state repeats are averaged -- which is what makes
        /// extra executions recover selection accuracy under
        /// measurement noise (§5.2).
        sim::TimeNs metric = std::numeric_limits<sim::TimeNs>::max();
        double metricSum = 0;
        unsigned metricCount = 0;
        unsigned completions = 0;
        bool failed = false;
        const char *outcome = "pass";
    };

    /** Profiling slice @p j, repeat @p r completed on the device. */
    void sliceDone(unsigned j, unsigned r, const sim::LaunchStats &stats);
    /** Record a guard strike against active variant @p j. */
    void strike(std::size_t j, guard::CheckKind ck);
    /** Guard self checks and cross-check of the sandboxed outputs. */
    void validate();
    /** Validate, select, swap, repair, and launch the remainder. */
    void finishProfiling();
    /** Async orchestration: submit the eager chunk (Fig. 4b). */
    void pump();

    Runtime &rt;
    const std::string &signature;
    const KernelEntry &entry;
    const kdp::KernelArgs &args;
    const std::vector<std::size_t> &act;
    const ProfilingMode mode;
    const std::uint64_t totalUnits;
    const std::uint64_t slice;
    const unsigned repeats;
    const bool gpu;

    std::vector<Slot> slots;
    std::vector<VariantProfile> profiles;
    unsigned outstanding; ///< profiling slices still running
    std::vector<GuardEvent> guardEvents;
    /// The Fig. 7 in-kernel timer (GPU path).
    std::optional<GpuTimer> timer;
    int bestSoFar = 0;
    sim::TimeNs bestMetric = std::numeric_limits<sim::TimeNs>::max();
    bool profilingDone = false;
    bool allFailed = false;
    int selected = -1;
    std::uint64_t repairs = 0;
    std::uint64_t chunk = 0; ///< eager chunk units (async only)
    std::uint64_t nextUnit = 0;
    bool batchSubmitted = false;
    std::uint64_t eagerChunks = 0;
    sim::TimeNs remainderStart = 0;
};

void
Runtime::ProfilingPass::sliceDone(unsigned j, unsigned r,
                                  const sim::LaunchStats &stats)
{
    Slot &sl = slots[j];
    const sim::TimeNs m = gpu ? stats.span() : stats.busyTime;
    sl.completions++;
    if (repeats == 1 || r > 0) {
        sl.metricSum += static_cast<double>(m);
        sl.metricCount++;
        sl.metric = static_cast<sim::TimeNs>(sl.metricSum / sl.metricCount);
    }
    VariantProfile &prof = profiles[j];
    if (r == 0) {
        prof.span = stats.span();
        prof.busy = stats.busyTime;
        prof.units = slice;
        prof.startTime = stats.firstStamp;
        prof.endTime = stats.lastStamp;
    }
    if (rt.tracing()) {
        rt.tracer_->complete(sl.track, "profile:" + prof.name,
                             stats.firstStamp, stats.lastStamp,
                             rt.activeCorrelation,
                             {{"variant", prof.name},
                              {"repeat", std::to_string(r)},
                              {"units", std::to_string(slice)},
                              {"metric", std::to_string(m)}});
    }
    prof.metric = sl.metric;
    if (sl.metric < bestMetric) {
        bestMetric = sl.metric;
        bestSoFar = static_cast<int>(j);
    }
    if (--outstanding == 0)
        finishProfiling();
}

void
Runtime::ProfilingPass::strike(std::size_t j, guard::CheckKind ck)
{
    const std::string &name = entry.variants[act[j]].name;
    slots[j].failed = true;
    slots[j].outcome = guard::checkKindName(ck);
    rt.guard_.strike(signature, name, ck);
    guardEvents.push_back({name, guard::checkKindName(ck)});
    if (rt.tracing()) {
        rt.tracer_->instant(rt.traceTrack, "guard.strike", rt.dev.now(),
                            rt.activeCorrelation,
                            {{"variant", name},
                             {"check", guard::checkKindName(ck)}});
    }
}

void
Runtime::ProfilingPass::validate()
{
    const std::size_t n = slots.size();
    // Self checks on each variant's private clones (in hybrid mode
    // variant 0 has none; only the watchdog covers it).  At most one
    // strike per variant per pass, in check order: redzone, NaN,
    // mismatch.
    for (std::size_t j = 0; j < n; ++j) {
        if (slots[j].failed)
            continue;
        bool bad_rz = false;
        bool bad_nan = false;
        for (const auto &[idx, clone] : slots[j].clones) {
            (void)idx;
            if (!guard::VariantGuard::redzoneIntact(*clone))
                bad_rz = true;
            else if (guard::VariantGuard::hasNanOrInf(*clone))
                bad_nan = true;
        }
        if (bad_rz)
            strike(j, guard::CheckKind::Redzone);
        else if (bad_nan)
            strike(j, guard::CheckKind::NanInf);
    }
    // Cross-check everyone against the reference: the first variant
    // that passed its self checks.  (A corrupt reference with
    // plausible values defeats this -- a documented reference-trust
    // limitation.)
    std::size_t ref = 0;
    while (ref < n && slots[ref].failed)
        ++ref;
    for (std::size_t j = 0; ref < n && j < n; ++j) {
        if (j == ref || slots[j].failed)
            continue;
        bool match = true;
        for (const auto &[idx, clone] : slots[j].clones) {
            // The reference output for this arg: its own clone, or the
            // real buffer (hybrid ref 0).
            const kdp::BufferBase *refbuf = &args.bufBase(idx);
            for (const auto &[ridx, rclone] : slots[ref].clones)
                if (ridx == idx)
                    refbuf = rclone;
            if (!rt.guard_.outputsMatch(*refbuf, *clone)) {
                match = false;
                break;
            }
        }
        if (!match)
            strike(j, guard::CheckKind::Mismatch);
    }
    for (std::size_t j = 0; j < n; ++j)
        if (!slots[j].failed)
            rt.guard_.pass(signature, entry.variants[act[j]].name);
}

void
Runtime::ProfilingPass::finishProfiling()
{
    profilingDone = true;
    const std::size_t n = slots.size();
    const bool guarded = rt.guard_.enabled();

    if (guarded && mode != ProfilingMode::Fully)
        validate();

    // Select the fastest variant that survived validation.
    std::size_t best = n;
    for (std::size_t j = 0; j < n; ++j) {
        if (slots[j].failed)
            continue;
        if (best == n || slots[j].metric < slots[best].metric)
            best = j;
    }
    if (best == n) {
        // Every variant failed validation: there is no trustworthy
        // implementation to run the remainder with.
        allFailed = true;
        selected = -1;
        return;
    }
    selected = static_cast<int>(act[best]);
    rt.selectionCache[signature] = selected;

    if (mode == ProfilingMode::Swap) {
        // Swap the winner's private outputs into place; the losers'
        // copies are discarded.  On real hardware this is a pointer
        // swap, so no virtual time is charged.  Guarded clones are
        // redzone-padded, so only the data prefix is copied.
        for (const auto &[idx, clone] : slots[best].clones) {
            if (guarded)
                guard::VariantGuard::copyData(args.bufBase(idx), *clone);
            else
                args.bufBase(idx).copyFrom(*clone);
        }
    }

    if (guarded) {
        // Repair productive slices whose producer failed, so profiling
        // stays productive: in hybrid mode a failed variant 0
        // invalidates units [0, slice) of the real output; in fully
        // mode each failed variant leaves its own slice unwritten or
        // corrupt.
        const kdp::KernelVariant &winner = entry.variants[selected];
        if (mode == ProfilingMode::Hybrid && slots[0].failed) {
            repairs++;
            rt.submitBatch(winner, args, 0, slice, 1, 0, nullptr);
        } else if (mode == ProfilingMode::Fully) {
            for (std::size_t j = 0; j < n; ++j) {
                if (!slots[j].failed)
                    continue;
                repairs++;
                rt.submitBatch(winner, args, j * slice, slice, 1, 0,
                               nullptr);
            }
        }
    }

    if (nextUnit < totalUnits && !batchSubmitted) {
        batchSubmitted = true;
        // Host-side cost of noticing completion and launching.
        rt.dev.engine().scheduleAfter(rt.dev.hostQueryLatencyNs(), [this] {
            remainderStart = rt.dev.now();
            rt.submitBatch(entry.variants[selected], args, nextUnit,
                           totalUnits - nextUnit, 0, 0, nullptr);
            nextUnit = totalUnits;
        });
    }
}

void
Runtime::ProfilingPass::pump()
{
    if (profilingDone || batchSubmitted)
        return; // the remainder goes out as one batch
    if (nextUnit >= totalUnits)
        return;
    const std::uint64_t units =
        std::min<std::uint64_t>(chunk, totalUnits - nextUnit);
    eagerChunks++;
    const std::uint64_t first = nextUnit;
    nextUnit += units;
    // The host notices the chunk's completion after a query latency
    // but issues no further chunk: a launch runs one eager chunk, and
    // the async virtual times pinned by the drift goldens depend on
    // that (ROADMAP item 4).
    rt.submitBatch(entry.variants[act[bestSoFar]], args, first, units, 0, 0,
                   [this](const sim::LaunchStats &) {
                       rt.dev.engine().scheduleAfter(
                           rt.dev.hostQueryLatencyNs(), [] {});
                   });
}

support::Status
Runtime::launch(const std::string &signature, std::uint64_t total_units,
                const kdp::KernelArgs &args, const LaunchOptions &opt,
                LaunchReport &out)
{
    const KernelEntry *entryp = findEntry(signature);
    if (!entryp)
        return support::Status::notFound(
            "DySel: unknown kernel signature '" + signature + "'");
    const KernelEntry &entry = *entryp;
    const auto num_variants = entry.variants.size();
    activeCorrelation = opt.correlationId;
    if (num_variants == 0)
        return support::Status::failedPrecondition(
            "DySelLaunchKernel(" + signature
            + "): no variants registered");
    if (total_units == 0)
        return support::Status::invalidArgument(
            "DySelLaunchKernel(" + signature + "): empty workload");
    if (opt.initialVariant >= static_cast<int>(num_variants))
        return support::Status::invalidArgument(
            "DySelLaunchKernel(" + signature + "): initial variant "
            + std::to_string(opt.initialVariant) + " out of range");
    // A default variant that is blacklisted falls back to the first
    // healthy one.
    const int default_variant = resolveVariant(
        signature, entry, opt.initialVariant >= 0 ? opt.initialVariant : 0);
    if (default_variant < 0)
        return support::Status::failedPrecondition(
            "DySelLaunchKernel(" + signature
            + "): every variant is blacklisted");

    // Profiling deactivated: reuse the cached selection (iterative
    // kernels profile only their first launch) or fall back to the
    // default variant.
    if (!opt.profiling) {
        auto cached = cachedSelection(signature);
        if (!cached && !opt.shadow && config.verbose)
            support::warn("DySelLaunchKernel(%s): profiling off with no "
                          "cached selection; using default variant",
                          signature.c_str());
        // A shadow audit probe measures a *forced* variant: the
        // explicit initialVariant outranks the cached winner (which
        // is exactly what the probe is second-guessing).
        const int want = opt.shadow && opt.initialVariant >= 0
                             ? opt.initialVariant
                             : cached.value_or(default_variant);
        const int use = resolveVariant(signature, entry, want);
        return runPlain(signature, entry, use, total_units, args, opt,
                        cached.has_value() && use == want, out);
    }

    // ---- Guard: exclude blacklisted variants up front ----------------
    // `act` maps active-local index j -> registered variant index.
    std::vector<std::size_t> act;
    act.reserve(num_variants);
    for (std::size_t i = 0; i < num_variants; ++i)
        if (usable(signature, entry.variants[i]))
            act.push_back(i);
    const std::size_t num_active = act.size();
    if (num_active == 1)
        return runPlain(signature, entry, static_cast<int>(act.front()),
                        total_units, args, opt, false, out);

    const ProfilingMode mode = resolveMode(entry, opt);
    Orchestration orch = opt.orch;
    if (mode == ProfilingMode::Swap && orch == Orchestration::Async) {
        // The final output space is unknown until profiling completes
        // (Table 1): swap cannot run eagerly.
        orch = Orchestration::Sync;
    }
    if (guard_.enabled() && orch == Orchestration::Async) {
        // The guard must validate a variant before its output becomes
        // real; eager chunks by an unvalidated best-so-far would leak
        // unchecked writes into the final buffer.
        orch = Orchestration::Sync;
    }
    unsigned repeats = opt.profileRepeats;
    if (repeats == 0)
        repeats = dev.kind() == sim::DeviceKind::Cpu ? 2 : 1;
    if (mode == ProfilingMode::Swap && repeats > 1) {
        support::warn("DySelLaunchKernel(%s): profile repeats are not "
                      "supported with swap profiling; using 1",
                      signature.c_str());
        repeats = 1;
    }

    // Safe point analysis: how much each active variant profiles.
    const bool gpu = dev.kind() == sim::DeviceKind::Gpu;
    std::vector<std::uint64_t> wafs;
    wafs.reserve(num_active);
    for (std::size_t i : act)
        wafs.push_back(entry.variants[i].waFactor);
    unsigned fill_target = dev.computeUnits();
    if (gpu)
        fill_target *= std::max(1u, config.gpuSaturationBoost);
    const compiler::SafePointPlan plan = compiler::safePointAnalysis(
        wafs, fill_target, total_units, config.maxProfileFraction);

    if (total_units < config.minUnitsForProfiling
        || plan.unitsPerVariant == 0) {
        // Small workload: profiling-based selection is deactivated.
        return runPlain(signature, entry, default_variant, total_units,
                        args, opt, false, out);
    }

    const std::uint64_t slice = plan.unitsPerVariant;
    const std::uint64_t profiled_span_units =
        mode == ProfilingMode::Fully ? slice * num_active : slice;

    LaunchReport report;
    report.signature = signature;
    report.profiled = true;
    report.mode = mode;
    report.orch = orch;
    report.totalUnits = total_units;
    report.profiledUnits = slice * num_active * repeats;
    report.productiveUnits = profiled_span_units;
    report.guardExcluded = num_variants - num_active;
    report.startTime = dev.now();

    ProfilingPass pass(*this, signature, entry, args, act, mode,
                       total_units, slice, repeats, gpu);
    pass.nextUnit = profiled_span_units;
    // bestSoFar is active-local; start at the default variant.
    for (std::size_t j = 0; j < num_active; ++j)
        if (static_cast<int>(act[j]) == default_variant)
            pass.bestSoFar = static_cast<int>(j);

    // ---- Sandbox / private output spaces -----------------------------
    auto outputs_of = [&](const kdp::KernelVariant &v) {
        if (!v.sandboxIndex.empty())
            return v.sandboxIndex;
        if (entry.hasInfo)
            return entry.info.outputArgs;
        return std::vector<std::size_t>{};
    };

    std::vector<kdp::KernelArgs> vargs(num_active, args);
    std::vector<std::unique_ptr<kdp::BufferBase>> extras;
    if (mode != ProfilingMode::Fully) {
        const std::size_t first_cloned =
            mode == ProfilingMode::Hybrid ? 1 : 0;
        for (std::size_t j = first_cloned; j < num_active; ++j) {
            const auto outs = outputs_of(entry.variants[act[j]]);
            if (outs.empty())
                return support::Status::failedPrecondition(
                    "DySelLaunchKernel(" + signature + "): "
                    + std::string(compiler::profilingModeName(mode))
                    + " profiling needs sandbox indices or output-arg "
                      "metadata");
            for (std::size_t idx : outs) {
                // With the guard on, sandboxes grow a trailing canary
                // redzone so an out-of-bounds writer is caught.
                auto clone = guard_.enabled()
                    ? args.bufBase(idx).clonePadded(
                          guard_.config().redzoneElems)
                    : args.bufBase(idx).clone();
                if (guard_.enabled())
                    guard::VariantGuard::paintRedzone(*clone);
                report.extraBytes += clone->sizeBytes();
                vargs[j].rebind(idx, *clone);
                pass.slots[j].clones.emplace_back(idx, clone.get());
                extras.push_back(std::move(clone));
            }
        }
    }

    if (gpu)
        pass.timer.emplace(static_cast<unsigned>(num_active), plan.groups);

    // ---- Submit the profiling launches -------------------------------
    ProfilingPass *const p = &pass;
    for (std::size_t j = 0; j < num_active; ++j) {
        const kdp::KernelVariant &variant = entry.variants[act[j]];
        const std::uint64_t first_unit =
            mode == ProfilingMode::Fully ? j * slice : 0;
        // Profiling passes render on a subtrack per (device, variant)
        // so concurrent passes don't overlap on one timeline row.
        if (tracing())
            pass.slots[j].track =
                tracer_->track(trackName_ + "/profile/" + variant.name);
        const auto jj = static_cast<unsigned>(j);
        for (unsigned r = 0; r < repeats; ++r) {
            sim::Launch launch;
            launch.variant = &variant;
            launch.args = vargs[j];
            launch.firstGroup = first_unit / variant.waFactor;
            launch.numGroups = plan.groups[j];
            launch.priority = 1;
            launch.stream = 1 + static_cast<int>(j);
            // GPU profiling kernels measure in effective isolation
            // (concurrent kernels overlap only at tails on Kepler).
            launch.exclusive = gpu;
            if (pass.timer && r == 0) {
                launch.onGroupStamp = [p, jj](sim::TimeNs s,
                                              sim::TimeNs e) {
                    p->timer->blockDone(jj, s, e);
                };
            }
            launch.onComplete = [p, jj, r](const sim::LaunchStats &stats) {
                p->sliceDone(jj, r, stats);
            };
            dev.submit(std::move(launch));
        }
    }

    // ---- Async eager execution (Fig. 4b) ------------------------------
    if (orch == Orchestration::Async) {
        std::uint64_t chunk = opt.eagerChunkUnits;
        if (chunk == 0) {
            chunk = std::max<std::uint64_t>(plan.lcm * plan.scale,
                                            total_units / 32);
        }
        pass.chunk = roundUp(chunk, plan.lcm);
        dev.engine().scheduleAfter(dev.hostQueryLatencyNs(),
                                   [p] { p->pump(); });
    }

    dev.run();

    if (auto fault = consumeDeviceFault(); !fault.ok())
        return fault;

    if (!pass.profilingDone) {
        // Watchdog: the event queue drained with profiling slices
        // still missing -- a hung variant's launches never completed.
        // Strike the laggards and finish selection with the
        // survivors, then drain the repair / remainder work.
        bool any_hung = false;
        for (std::size_t j = 0; guard_.enabled() && j < num_active; ++j) {
            if (pass.slots[j].completions >= repeats)
                continue;
            any_hung = true;
            pass.strike(j, guard::CheckKind::Watchdog);
        }
        if (!any_hung)
            support::panic("profiling did not complete for '%s'",
                           signature.c_str());
        pass.finishProfiling();
        dev.run();
        if (auto fault = consumeDeviceFault(); !fault.ok())
            return fault;
    }

    if (pass.allFailed)
        return support::Status::dataLoss(
            "DySelLaunchKernel(" + signature + "): every variant "
            "failed guard validation; no trustworthy output");

    report.selected = pass.selected;
    report.selectedName = entry.variants[pass.selected].name;
    report.eagerChunks = pass.eagerChunks;
    report.profiles = pass.profiles;
    report.guardEvents = pass.guardEvents;
    report.guardRepairs = pass.repairs;
    report.endTime = dev.now();

    // Structured selection timeline: one pass record per registered
    // variant, registration order, skipped variants included.
    const sim::TimeNs unmeasured =
        std::numeric_limits<sim::TimeNs>::max();
    for (std::size_t i = 0, j = 0; i < num_variants; ++i) {
        SelectionPass rec;
        rec.variant = entry.variants[i].name;
        if (j == num_active || act[j] != i) {
            rec.guardOutcome = "blacklisted";
        } else {
            const ProfilingPass::Slot &sl = pass.slots[j];
            rec.units = slice;
            rec.startTime = pass.profiles[j].startTime;
            rec.endTime = pass.profiles[j].endTime;
            rec.metric = sl.metric == unmeasured ? 0 : sl.metric;
            rec.guardOutcome = sl.outcome;
            rec.selected = static_cast<int>(i) == pass.selected;
            ++j;
        }
        report.timeline.push_back(std::move(rec));
    }

    if (tracing()) {
        if (pass.batchSubmitted) {
            // The winner's bulk execution of the remainder.
            tracer_->complete(
                traceTrack, "execute", pass.remainderStart,
                report.endTime, opt.correlationId,
                {{"variant", report.selectedName},
                 {"units",
                  std::to_string(total_units - profiled_span_units)},
                 {"winner", "yes"}});
        }
        tracer_->complete(
            traceTrack, "launch", report.startTime, report.endTime,
            opt.correlationId,
            {{"signature", signature},
             {"mode", compiler::profilingModeName(mode)},
             {"orch", orchestrationName(orch)},
             {"selected", report.selectedName},
             {"profiledUnits", std::to_string(report.profiledUnits)},
             {"totalUnits", std::to_string(total_units)}});
    }

    if (config.verbose) {
        support::inform("DySel[%s]: selected '%s' (%s, %s), %llu eager "
                        "chunks, %.2f%% profiled",
                        signature.c_str(), report.selectedName.c_str(),
                        compiler::profilingModeName(mode),
                        orchestrationName(orch),
                        (unsigned long long)report.eagerChunks,
                        100.0 * static_cast<double>(report.profiledUnits)
                            / static_cast<double>(total_units));
    }
    out = finish(std::move(report));
    return support::Status();
}

} // namespace runtime
} // namespace dysel
