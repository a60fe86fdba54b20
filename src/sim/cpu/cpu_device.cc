#include "cpu_device.hh"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "kdp/context.hh"
#include "support/logging.hh"

namespace dysel {
namespace sim {

CpuDevice::CpuDevice(const CpuConfig &cfg)
    : config(cfg), l3(cfg.l3), rng(cfg.seed)
{
    if (cfg.cores == 0)
        throw std::invalid_argument("CpuDevice needs at least one core");
    cores.reserve(cfg.cores);
    for (unsigned i = 0; i < cfg.cores; ++i)
        cores.emplace_back(cfg);
}

std::string
CpuDevice::fingerprint() const
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "cpu/%s/c%u@%.2fGHz/l1=%llu/l2=%llu/l3=%llu",
                  config.name.c_str(), config.cores, config.ghz,
                  (unsigned long long)config.l1.sizeBytes,
                  (unsigned long long)config.l2.sizeBytes,
                  (unsigned long long)config.l3.sizeBytes);
    return buf;
}

void
CpuDevice::submit(Launch launch)
{
    auto al = std::make_shared<ActiveLaunch>();
    al->launch = std::move(launch);
    al->stats.submitTime = now();
    if (al->launch.numGroups == 0)
        support::panic("CpuDevice::submit with zero work-groups");
    switch (checkLaunchFault(al->launch)) {
      case FaultKind::LaunchFail:
        // The launch is dropped after its submission overhead; the
        // runtime observes the aborting fault after run().
        events.scheduleAfter(config.launchOverheadNs, [] {});
        return;
      case FaultKind::Hang:
        events.scheduleAfter(
            config.launchOverheadNs + faults->config().hangStallNs,
            [] {});
        return;
      case FaultKind::LatencySpike:
        al->timeScale = faults->config().latencySpikeFactor;
        break;
      default:
        break;
    }
    if (checkVariantFault(al->launch) == VariantFaultKind::KernelHang) {
        // The variant never finishes; the slice is dropped after the
        // watchdog stall.  The device is not wedged and no aborting
        // fault is raised -- the guard notices the missing completion.
        events.scheduleAfter(
            config.launchOverheadNs + faults->config().variantHangStallNs,
            [] {});
        return;
    }
    events.scheduleAfter(config.launchOverheadNs, [this, al] {
        queue.add(al);
        kick();
    });
}

void
CpuDevice::kick()
{
    for (unsigned i = 0; i < cores.size(); ++i)
        if (!cores[i].busy)
            startNext(i);
}

void
CpuDevice::startNext(unsigned idx)
{
    Core &core = cores[idx];
    LaunchPtr al = queue.pick();
    if (!al) {
        core.busy = false;
        return;
    }

    const std::uint64_t issue = al->nextGroup++;
    const std::uint64_t grid = al->gridId(issue);
    core.busy = true;

    const TimeNs start = now();
    TimeNs dur = runGroup(core, *al, grid) + config.taskOverheadNs;
    if (al->timeScale != 1.0)
        dur = static_cast<TimeNs>(static_cast<double>(dur)
                                  * al->timeScale);
    dur = addNoise(dur);

    if (al->done == 0 && issue == 0) {
        al->stats.firstStamp = start;
    } else {
        al->stats.firstStamp = std::min(al->stats.firstStamp, start);
    }

    core.task = std::move(al);
    core.taskStart = start;
    core.taskDur = dur;
    events.scheduleAfter(dur, [this, idx] { finishTask(idx); });
}

void
CpuDevice::finishTask(unsigned idx)
{
    // Mark the core idle before the callbacks run; a finishing
    // launch may unblock its stream for every idle core, so a full
    // kick() (not just this core) is required.
    Core &core = cores[idx];
    core.busy = false;
    const LaunchPtr al = std::move(core.task);
    al->done++;
    al->stats.groups++;
    al->stats.busyTime += core.taskDur;
    al->stats.lastStamp = std::max(al->stats.lastStamp, now());
    if (al->launch.onGroupStamp)
        al->launch.onGroupStamp(core.taskStart, now());
    if (al->finished() && al->launch.onComplete)
        al->launch.onComplete(al->stats);
    kick();
}

TimeNs
CpuDevice::runGroup(Core &core, const ActiveLaunch &al, std::uint64_t grid)
{
    const kdp::KernelVariant &variant = *al.launch.variant;
    traceBuf.reset(variant.groupSize);
    kdp::GroupCtx ctx(grid, variant.groupSize, variant.waFactor, &traceBuf);
    variant.fn(ctx, al.launch.args);
    ++nGroups;

    const double cycles = cpuWorkGroupCycles(traceBuf, variant.traits,
                                             core.caches, l3, config.cost);
    return cyclesToNs(cycles, config.ghz);
}

TimeNs
CpuDevice::addNoise(TimeNs d)
{
    if (config.noiseSigma <= 0.0)
        return d;
    // Box-Muller; deterministic through the device RNG.
    const double u1 = std::max(rng.nextDouble(), 1e-12);
    const double u2 = rng.nextDouble();
    const double gauss =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double ref = static_cast<double>(config.noiseRefNs);
    const double scale =
        std::min(1.0, ref / std::max<double>(1.0, static_cast<double>(d)));
    const double factor =
        std::max(0.2, 1.0 + config.noiseSigma * scale * gauss);
    return static_cast<TimeNs>(static_cast<double>(d) * factor) + 1;
}

} // namespace sim
} // namespace dysel
