/**
 * @file
 * The `figures` workload: DySel runs (no oracle sweeps) of the paper's
 * Fig. 8 CPU rows and the GPU rows of Figs. 9-11, each on a fresh
 * device through workloads::runDysel, under Sync and Async
 * orchestration.  Host time here goes to kernel bodies, trace
 * recording, the cache and cost models; the serving layer is idle.
 */
#include <cstdio>
#include <functional>
#include <map>
#include <memory>

#include "dysel/runtime.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/gpu/gpu_device.hh"
#include "workloads/cutcp.hh"
#include "workloads/devices.hh"
#include "workloads/evaluate.hh"
#include "workloads/kmeans.hh"
#include "workloads/particlefilter.hh"
#include "workloads/sgemm.hh"
#include "workloads/spmv_csr.hh"
#include "workloads/spmv_jds.hh"
#include "workloads/stencil.hh"

#include "common.hh"
#include "layers.hh"
#include "serve.hh"

namespace perfbench {

namespace {

using namespace dysel;
using runtime::Orchestration;
using workloads::SpmvInput;
using workloads::Workload;

struct RowSpec
{
    const char *name;
    bool gpu;
    std::function<Workload()> make;
};

/** The rows of one pass.  Inputs come from the factories' built-in
 *  seeds; sgemm runs at 128^3 instead of 256^3 to bound host time. */
std::vector<RowSpec>
rowSpecs()
{
    return {
        {"cutcp", false, [] { return workloads::makeCutcpLcCpu(); }},
        {"kmeans", false, [] { return workloads::makeKmeansLcCpu(); }},
        {"sgemm", false,
         [] { return workloads::makeSgemmLcCpu(128, 128, 128); }},
        {"spmv-jds", false, [] { return workloads::makeSpmvJdsCpuLc(); }},
        {"spmv-csr(random)", false,
         [] { return workloads::makeSpmvCsrCpuLc(SpmvInput::Random); }},
        {"spmv-csr(diagonal)", false,
         [] { return workloads::makeSpmvCsrCpuLc(SpmvInput::Diagonal); }},
        {"stencil", false, [] { return workloads::makeStencilLcCpu(); }},
        {"gpu:spmv-csr(placement)", true,
         [] { return workloads::makeSpmvCsrGpuPlacement(); }},
        {"gpu:particlefilter", true,
         [] { return workloads::makeParticleFilterGpu(); }},
        {"gpu:spmv-jds", true, [] { return workloads::makeSpmvJdsGpuMixed(); }},
        {"gpu:spmv-csr(random)", true,
         [] { return workloads::makeSpmvCsrGpuInputDep(SpmvInput::Random); }},
        {"gpu:spmv-csr(diagonal)", true,
         [] {
             return workloads::makeSpmvCsrGpuInputDep(SpmvInput::Diagonal);
         }},
    };
}

constexpr unsigned kIterations = 1;

struct Row
{
    const RowSpec *spec;
    Workload w;
};

/** One DySel run of a pass: a row under one orchestration. */
struct Item
{
    std::size_t row;
    Orchestration orch;
};

const char *
orchName(Orchestration o)
{
    return o == Orchestration::Sync ? "sync" : "async";
}

runtime::LaunchOptions
optionsFor(Orchestration o)
{
    runtime::LaunchOptions opt;
    opt.orch = o;
    return opt;
}

/**
 * Properties every LaunchReport must have, derived from the runtime's
 * documented contract rather than from a saved run: the selection is
 * a registered variant, and productive <= profiled <= cap, where the
 * cap is RuntimeConfig::maxProfileFraction of the workload per
 * profiling repeat (LaunchOptions::profileRepeats: 2 on a CPU, 1 on
 * a GPU by default).
 */
bool
reportHolds(const runtime::LaunchReport &r, const Workload &w, bool gpu)
{
    if (r.selected < 0
        || static_cast<std::size_t>(r.selected) >= w.variants.size())
        return false;
    if (r.productiveUnits > r.profiledUnits)
        return false;
    const runtime::RuntimeConfig cfg;
    const auto budget = static_cast<std::uint64_t>(
        cfg.maxProfileFraction * static_cast<double>(r.totalUnits));
    const std::uint64_t repeats = gpu ? 1 : 2;
    return r.productiveUnits <= budget && r.profiledUnits <= budget * repeats;
}

/** Build every row's workload. */
void
buildRows(const std::vector<RowSpec> &specs, std::vector<Row> &rows)
{
    rows.clear();
    for (const RowSpec &s : specs)
        rows.push_back({&s, s.make()});
    // Only the profiled first launch of the iterative rows is timed:
    // their later iterations repeat the cached-selection launch at
    // several times the host cost.  The traced run times that path
    // with one extra cached launch per row.
    for (Row &row : rows)
        row.w.iterations = kIterations;
}

/** Per-item observation of the traced harness. */
struct TracedItem
{
    runtime::LaunchReport first;
    /** Host seconds of the part that mirrors runDysel. */
    double passS = 0;
    double profiledS = 0, cachedS = 0;
    std::uint64_t profiledLaunches = 0, cachedLaunches = 0;
    std::uint64_t groups = 0, events = 0;
    std::uint64_t profiledUnits = 0, productiveUnits = 0, eagerChunks = 0,
                  extraBytes = 0;
    std::string fingerprint;
    bool ok = false;
};

/** Time one launchKernel call into @p t's profiled or cached bucket. */
runtime::LaunchReport
timedLaunch(runtime::Runtime &rt, Workload &w, runtime::LaunchOptions opt,
            TracedItem &t)
{
    const auto t0 = Clock::now();
    runtime::LaunchReport r =
        rt.launchKernel(w.signature, w.units, w.args, opt);
    const double s = secondsSince(t0);
    if (r.profiled) {
        t.profiledS += s;
        ++t.profiledLaunches;
    } else {
        t.cachedS += s;
        ++t.cachedLaunches;
    }
    t.profiledUnits += r.profiledUnits;
    t.productiveUnits += r.productiveUnits;
    t.eagerChunks += r.eagerChunks;
    t.extraBytes += r.extraBytes;
    return r;
}

/**
 * The runDysel loop made from public calls, so each
 * Runtime::launchKernel call and the device's counters can be read:
 * a fresh device, profiling on the first iteration only.  One extra
 * launch from the cached selection follows; the output is checked
 * after each.
 */
TracedItem
runTraced(Row &row, Orchestration orch)
{
    const auto start = Clock::now();
    std::unique_ptr<sim::Device> dev;
    std::function<std::uint64_t()> groupsOf;
    if (row.spec->gpu) {
        auto g = std::make_unique<sim::GpuDevice>();
        auto *raw = g.get();
        groupsOf = [raw] { return raw->groupsExecuted(); };
        dev = std::move(g);
    } else {
        auto c = std::make_unique<sim::CpuDevice>();
        auto *raw = c.get();
        groupsOf = [raw] { return raw->groupsExecuted(); };
        dev = std::move(c);
    }
    TracedItem t;
    t.fingerprint = dev->fingerprint();
    runtime::Runtime rt(*dev);
    Workload &w = row.w;
    w.registerWith(rt);
    w.resetOutput();
    const std::uint64_t groups0 = groupsOf();
    const std::uint64_t events0 = dev->engine().eventsFired();
    runtime::LaunchOptions opt = optionsFor(orch);
    for (unsigned it = 0; it < w.iterations; ++it) {
        opt.profiling = it == 0;
        runtime::LaunchReport r = timedLaunch(rt, w, opt, t);
        if (it == 0)
            t.first = std::move(r);
    }
    t.ok = w.check();
    t.passS = secondsSince(start);
    opt.profiling = false;
    w.resetOutput();
    timedLaunch(rt, w, opt, t);
    t.ok = t.ok && w.check();
    t.groups = groupsOf() - groups0;
    t.events = dev->engine().eventsFired() - events0;
    return t;
}

} // namespace

Result
runFigures(const Options &opt)
{
    Result res;
    const std::vector<RowSpec> specs = rowSpecs();
    std::vector<Item> items;
    for (std::size_t r = 0; r < specs.size(); ++r)
        for (Orchestration o : {Orchestration::Sync, Orchestration::Async})
            items.push_back({r, o});

    // Set-up: building the inputs, repeated; the median is reported.
    SpeedProbe probe;
    std::vector<Row> rows;
    std::vector<HostSample> setups;
    for (int i = 0; i < 3; ++i)
        setups.push_back(probed(probe, [&] { buildRows(specs, rows); }));

    std::vector<std::vector<HostSample>> itemSamples(items.size());
    std::vector<sim::TimeNs> virtualNs(items.size(), 0);
    std::vector<std::string> selected(items.size());
    std::vector<bool> checked(items.size(), true);
    std::size_t virtualMoved = 0;

    // One pass: every item once, in a fixed order.  Virtual time is
    // taken from the first pass: sandbox buffers get addresses from a
    // process-wide counter, so a later pass of the same run can charge
    // different cache behaviour (counted in virtualMoved).
    auto runPass = [&](bool firstPass) {
        const auto p0 = Clock::now();
        for (std::size_t i = 0; i < items.size(); ++i) {
            Row &row = rows[items[i].row];
            workloads::DyselRun run;
            itemSamples[i].push_back(probed(probe, [&] {
                run = workloads::runDysel(
                    row.spec->gpu ? workloads::gpuFactory()
                                  : workloads::cpuFactory(),
                    row.w, optionsFor(items[i].orch));
            }));
            ++res.attempted;
            const bool reportOk =
                reportHolds(run.firstIteration, row.w, row.spec->gpu);
            if (firstPass) {
                virtualNs[i] = run.elapsed;
                selected[i] = run.firstIteration.selectedName;
            } else if (run.elapsed != virtualNs[i]) {
                ++virtualMoved;
            }
            if (!run.ok || !reportOk) {
                std::printf("check: %s %s: output %s, launch report %s\n",
                            row.spec->name, orchName(items[i].orch),
                            run.ok ? "ok" : "WRONG",
                            reportOk ? "ok" : "WRONG");
                ++res.failed;
                checked[i] = false;
                res.correct = false;
            }
        }
        return secondsSince(p0);
    };

    // An item's host time: the median over passes of its samples,
    // scaled to the run's quiet host speed.
    auto itemSeconds = [&](std::size_t i) {
        return median(scaled(itemSamples[i], probe.quiet()));
    };
    double virtualTotalNs = 0;
    auto printDigest = [&] {
        for (std::size_t i = 0; i < items.size(); ++i) {
            std::printf("digest %-24s %-5s selected=%-24s virtual_ns=%-9llu "
                        "check=%s host_ms=%.1f\n",
                        specs[items[i].row].name, orchName(items[i].orch),
                        selected[i].c_str(),
                        static_cast<unsigned long long>(virtualNs[i]),
                        checked[i] ? "pass" : "FAIL",
                        itemSeconds(i) * 1e3);
            virtualTotalNs += static_cast<double>(virtualNs[i]);
        }
    };

    if (!opt.trace) {
        // Whole passes only, while the next one fits in the budget.
        const auto m0 = Clock::now();
        std::size_t passes = 0;
        double lastPass = 0;
        do {
            lastPass = runPass(passes == 0);
            ++passes;
        } while (secondsSince(m0) + lastPass <= opt.seconds);
        printDigest();
        std::vector<double> itemUs;
        double wall = 0;
        for (std::size_t i = 0; i < items.size(); ++i) {
            wall += itemSeconds(i);
            itemUs.push_back(itemSeconds(i) * 1e6);
        }
        std::printf("figures: %zu passes of %zu DySel runs; %zu later-pass "
                    "runs charged another virtual time than the first; "
                    "quiet probe %.1f us\n",
                    passes, items.size(), virtualMoved, probe.quiet() * 1e6);
        res.add("setup_s", median(scaled(setups, probe.quiet())), "s");
        res.add("wall_s", wall, "s");
        res.add("virtual_ms", virtualTotalNs / 1e6, "vms");
        res.add("jobs_per_s", static_cast<double>(items.size()) / wall,
                "1/s");
        res.add("job_p50_us", quantile(itemUs, 0.5), "us");
        res.add("job_p99_us", quantile(itemUs, 0.99), "us");
        res.add("peak_rss_mb", peakRssMb(), "MB");
        return res;
    }

    // Traced run: an untraced pass, then the same pass through the
    // traced harness, then the single-layer replays.
    runPass(true);
    double untracedWall = 0; // the runs themselves, without the probes
    for (const auto &samples : itemSamples)
        untracedWall += samples.front().seconds;
    printDigest();
    res.add("workloads.build_s", median(scaled(setups, probe.quiet())), "s");

    double tracedWall = 0, profiledS = 0, cachedS = 0;
    std::uint64_t profiledN = 0, cachedN = 0, groups = 0, events = 0;
    std::uint64_t profiledUnits = 0, productiveUnits = 0, eagerChunks = 0,
                  extraBytes = 0;
    DeviceReports reports;
    std::vector<StoreKey> keys;
    std::map<std::size_t, int> selectedOf; // row -> Sync selection
    for (std::size_t i = 0; i < items.size(); ++i) {
        Row &row = rows[items[i].row];
        TracedItem t = runTraced(row, items[i].orch);
        tracedWall += t.passS;
        ++res.attempted;
        if (!t.ok || !reportHolds(t.first, row.w, row.spec->gpu)) {
            std::printf("check: traced %s %s failed\n", row.spec->name,
                        orchName(items[i].orch));
            ++res.failed;
            res.correct = false;
        }
        profiledS += t.profiledS;
        cachedS += t.cachedS;
        profiledN += t.profiledLaunches;
        cachedN += t.cachedLaunches;
        groups += t.groups;
        events += t.events;
        profiledUnits += t.profiledUnits;
        productiveUnits += t.productiveUnits;
        eagerChunks += t.eagerChunks;
        extraBytes += t.extraBytes;
        keys.push_back({row.w.signature, t.fingerprint, row.w.units});
        if (items[i].orch == Orchestration::Sync)
            selectedOf[items[i].row] = t.first.selected;
        reports.emplace_back(t.fingerprint, std::move(t.first));
    }
    const double ops = static_cast<double>(items.size());
    std::printf("trace overhead: traced pass %.3f s, untraced pass %.3f s, "
                "difference %+.3f s\n",
                tracedWall, untracedWall, tracedWall - untracedWall);
    res.add("trace.overhead_s", tracedWall - untracedWall, "s");
    res.add("dysel.profiled_launch_s",
            profiledN ? profiledS / static_cast<double>(profiledN) : 0.0, "s");
    res.add("dysel.cached_launch_s",
            cachedN ? cachedS / static_cast<double>(cachedN) : 0.0, "s");
    res.add("dysel.profiled_units", static_cast<double>(profiledUnits) / ops,
            "count/op");
    res.add("dysel.productive_units",
            static_cast<double>(productiveUnits) / ops, "count/op");
    res.add("dysel.eager_chunks", static_cast<double>(eagerChunks) / ops,
            "count/op");
    res.add("dysel.extra_bytes", static_cast<double>(extraBytes) / ops,
            "B/op");
    res.add("sim.groups", static_cast<double>(groups) / ops, "count/op");
    res.add("sim.host_ns_per_group",
            (profiledS + cachedS) * 1e9 / static_cast<double>(groups), "ns");
    res.add("sim.events", static_cast<double>(events) / ops, "count/op");
    replayEngine(events / items.size(), res);

    std::vector<KernelSample> samples;
    for (const auto &[r, sel] : selectedOf)
        samples.push_back({&rows[r].w.variants[static_cast<std::size_t>(sel)],
                           &rows[r].w.args, rows[r].w.units});
    replayKernelLayers(samples, 16, res);
    if (!replayStore(reports, keys, opt.scratch, res))
        res.correct = false;

    // The serving layer, measured on this workload's CPU rows.
    std::vector<ProbeJob> jobs;
    for (Row &row : rows)
        if (!row.spec->gpu)
            jobs.push_back({&row.w});
    if (!probeServe(jobs, res))
        res.correct = false;
    return res;
}

bool
printOracleRatios()
{
    const std::vector<RowSpec> specs = rowSpecs();
    std::vector<Row> rows;
    buildRows(specs, rows);
    bool ok = true;
    std::printf("%-24s %-22s %12s %12s %12s\n", "row", "oracle variant",
                "oracle_ns", "sync/oracle", "async/oracle");
    for (Row &row : rows) {
        const workloads::DeviceFactory factory =
            row.spec->gpu ? workloads::gpuFactory() : workloads::cpuFactory();
        const workloads::OracleResult oracle =
            workloads::runOracle(factory, row.w);
        double ratio[2] = {0, 0};
        int k = 0;
        for (Orchestration o : {Orchestration::Sync, Orchestration::Async}) {
            const workloads::DyselRun run =
                workloads::runDysel(factory, row.w, optionsFor(o));
            ok = ok && run.ok;
            ratio[k++] = workloads::relative(run.elapsed, oracle.best());
        }
        for (const workloads::VariantRun &v : oracle.runs)
            ok = ok && v.ok;
        std::printf("%-24s %-22s %12llu %12.3f %12.3f\n", row.spec->name,
                    oracle.runs[oracle.bestIndex].name.c_str(),
                    static_cast<unsigned long long>(oracle.best()), ratio[0],
                    ratio[1]);
    }
    return ok;
}

} // namespace perfbench
