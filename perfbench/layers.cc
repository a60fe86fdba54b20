#include "layers.hh"

#include <filesystem>

#include "dysel/store/selection_store.hh"
#include "kdp/context.hh"
#include "kdp/trace.hh"
#include "sim/cache/cache.hh"
#include "sim/cpu/cpu_cost_model.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/event_engine.hh"
#include "sim/gpu/gpu_cost_model.hh"
#include "sim/gpu/gpu_device.hh"

namespace perfbench {

namespace {

using namespace dysel;

/** A recorded work-group with the variant that produced it. */
struct Recorded
{
    const kdp::KernelVariant *variant;
    kdp::WorkGroupTrace trace;
};

/** Replays are repeated and the median repetition is reported. */
constexpr int kReplayReps = 5;

template <typename Body>
double
medianSeconds(Body &&body)
{
    std::vector<double> reps;
    for (int r = 0; r < kReplayReps; ++r) {
        const auto t0 = Clock::now();
        body();
        reps.push_back(secondsSince(t0));
    }
    return median(reps);
}

} // namespace

void
replayKernelLayers(const std::vector<KernelSample> &samples,
                   unsigned groupsPerSample, Result &out)
{
    // kdp: execute sampled groups, recording their traces.
    std::vector<Recorded> recorded;
    std::vector<std::pair<const KernelSample *, std::uint64_t>> picks;
    for (const KernelSample &s : samples) {
        const std::uint64_t groups = s.variant->groupsFor(s.units);
        const std::uint64_t n = std::min<std::uint64_t>(groups,
                                                        groupsPerSample);
        for (std::uint64_t i = 0; i < n; ++i)
            picks.push_back({&s, i * groups / n});
    }
    if (picks.empty())
        return;
    kdp::WorkGroupTrace scratch;
    const double kernelS = medianSeconds([&] {
        for (const auto &[s, group] : picks) {
            scratch.reset(s->variant->groupSize);
            kdp::GroupCtx ctx(group, s->variant->groupSize,
                              s->variant->waFactor, &scratch);
            s->variant->fn(ctx, *s->args);
        }
    });
    std::uint64_t accesses = 0;
    for (const auto &[s, group] : picks) {
        Recorded r{s->variant, {}};
        r.trace.reset(s->variant->groupSize);
        kdp::GroupCtx ctx(group, s->variant->groupSize,
                          s->variant->waFactor, &r.trace);
        s->variant->fn(ctx, *s->args);
        accesses += r.trace.accesses.size();
        recorded.push_back(std::move(r));
    }
    const double groups = static_cast<double>(recorded.size());
    out.add("kdp.kernel_ns_per_group", kernelS * 1e9 / groups, "ns");
    out.add("kdp.accesses_per_group", static_cast<double>(accesses) / groups,
            "count");

    // sim.cache: every recorded address through each cache geometry
    // of the two devices (CPU L1/L2/L3, GPU texture/L2).
    const sim::CpuConfig cpu;
    const sim::GpuConfig gpu;
    const std::vector<sim::CacheConfig> geometries = {cpu.l1, cpu.l2, cpu.l3,
                                                      gpu.tex, gpu.l2};
    std::uint64_t misses = 0;
    const double cacheS = medianSeconds([&] {
        misses = 0;
        for (const sim::CacheConfig &g : geometries) {
            sim::Cache cache(g);
            for (const Recorded &r : recorded)
                for (const kdp::MemAccess &a : r.trace.accesses)
                    cache.access(a.addr);
            misses += cache.misses();
        }
    });
    const double cacheCalls =
        static_cast<double>(accesses) * static_cast<double>(geometries.size());
    out.add("sim.cache.ns_per_access",
            cacheCalls > 0 ? cacheS * 1e9 / cacheCalls : 0.0, "ns");
    out.add("sim.cache.misses", static_cast<double>(misses) / groups,
            "count");

    // sim.cpu / sim.gpu: the cost models on the same traces, with
    // the devices' default geometry and cost parameters.
    const double cpuS = medianSeconds([&] {
        sim::CpuCoreState core(cpu.l1, cpu.l2);
        sim::Cache l3(cpu.l3);
        for (const Recorded &r : recorded)
            sim::cpuWorkGroupCycles(r.trace, r.variant->traits, core, l3,
                                    cpu.cost);
    });
    const double gpuS = medianSeconds([&] {
        sim::GpuSmState sm(gpu.tex);
        sim::Cache l2(gpu.l2);
        for (const Recorded &r : recorded)
            sim::gpuWorkGroupCost(r.trace, r.variant->traits,
                                  r.variant->groupSize, sm, l2, gpu.cost);
    });
    out.add("sim.cpu.cost_ns_per_group", cpuS * 1e9 / groups, "ns");
    out.add("sim.gpu.cost_ns_per_group", gpuS * 1e9 / groups, "ns");
}

void
replayEngine(std::uint64_t events, Result &out)
{
    events = std::max<std::uint64_t>(events, 1);
    std::uint64_t sink = 0;
    const double s = medianSeconds([&] {
        sim::EventEngine engine;
        for (std::uint64_t i = 0; i < events; ++i)
            engine.schedule(i, [&sink] { ++sink; });
        engine.run();
    });
    out.add("sim.engine_ns_per_event",
            s * 1e9 / static_cast<double>(events), "ns");
}

bool
replayStore(const DeviceReports &reports, const std::vector<StoreKey> &keys,
            const std::string &scratchDir, Result &out)
{
    std::uint64_t recorded = 0;
    auto recordAll = [&](store::SelectionStore &into) {
        recorded = 0;
        for (const auto &[device, report] : reports)
            if (report.profiled) {
                into.recordProfile(device, report);
                ++recorded;
            }
    };
    const double recordS = medianSeconds([&] {
        store::SelectionStore fresh;
        recordAll(fresh);
    });
    store::SelectionStore st;
    recordAll(st);

    const double lookupS = medianSeconds([&] {
        for (const StoreKey &k : keys)
            (void)st.lookup(k.signature, k.device, k.units);
    });

    const std::string path =
        (std::filesystem::path(scratchDir) / "replay.store.json").string();
    bool ok = st.saveFile(path).ok();
    const double loadS = medianSeconds([&] {
        store::SelectionStore loaded;
        ok = ok && loaded.loadFile(path).ok()
            && loaded.size() == st.size();
    });
    std::filesystem::remove(path);

    out.add("dysel.store.record_ns",
            recorded ? recordS * 1e9 / static_cast<double>(recorded) : 0.0,
            "ns");
    out.add("dysel.store.lookup_ns",
            keys.empty() ? 0.0
                         : lookupS * 1e9 / static_cast<double>(keys.size()),
            "ns");
    out.add("dysel.store.load_s", loadS, "s");
    return ok;
}

} // namespace perfbench
