#include "gpu_device.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <stdexcept>

#include "kdp/context.hh"
#include "support/logging.hh"

namespace dysel {
namespace sim {

GpuDevice::GpuDevice(const GpuConfig &cfg)
    : config(cfg), l2(cfg.l2),
      debugBlocks(std::getenv("DYSEL_GPU_DEBUG") != nullptr), rng(cfg.seed)
{
    if (cfg.sms == 0)
        throw std::invalid_argument("GpuDevice needs at least one SM");
    sms.reserve(cfg.sms);
    for (unsigned i = 0; i < cfg.sms; ++i)
        sms.emplace_back(cfg.tex);
}

std::string
GpuDevice::fingerprint() const
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "gpu/%s/sm%u@%.3fGHz/t%llu/b%u/l2=%llu/tex=%llu",
                  config.name.c_str(), config.sms, config.ghz,
                  (unsigned long long)config.threadsPerSm,
                  config.blocksPerSm,
                  (unsigned long long)config.l2.sizeBytes,
                  (unsigned long long)config.tex.sizeBytes);
    return buf;
}

GpuDevice::Footprint
GpuDevice::footprintOf(const kdp::KernelVariant &variant) const
{
    return Footprint{
        variant.groupSize,
        std::max<std::uint64_t>(variant.traits.scratchBytes, 1),
        static_cast<std::uint64_t>(variant.traits.regsPerThread)
            * variant.groupSize,
    };
}

bool
GpuDevice::fits(const Sm &sm, const Footprint &fp) const
{
    return sm.blocks < config.blocksPerSm
           && sm.threadsUsed + fp.threads <= config.threadsPerSm
           && sm.scratchUsed + fp.scratch <= config.scratchPerSm
           && sm.regsUsed + fp.regs <= config.regsPerSm;
}

unsigned
GpuDevice::occupancy(const kdp::KernelVariant &variant) const
{
    const Footprint fp = footprintOf(variant);
    Sm probe(config.tex);
    unsigned blocks = 0;
    while (fits(probe, fp)) {
        probe.blocks++;
        probe.threadsUsed += fp.threads;
        probe.scratchUsed += fp.scratch;
        probe.regsUsed += fp.regs;
        ++blocks;
    }
    return blocks;
}

void
GpuDevice::submit(Launch launch)
{
    auto al = std::make_shared<ActiveLaunch>();
    al->launch = std::move(launch);
    al->stats.submitTime = now();
    if (al->launch.numGroups == 0)
        support::panic("GpuDevice::submit with zero work-groups");
    switch (checkLaunchFault(al->launch)) {
      case FaultKind::LaunchFail:
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
GpuDevice::kick()
{
    // Strict priority: the highest-priority dispatchable launch gets
    // first pick of SM space; we stop as soon as it cannot be placed.
    // An exclusive launch waits for an empty device, then owns it
    // until it fully drains.
    while (true) {
        LaunchPtr al;
        if (exclusiveOwner && !exclusiveOwner->finished()) {
            if (exclusiveOwner->allIssued())
                return; // draining; nothing else may start
            al = exclusiveOwner;
        } else {
            exclusiveOwner = nullptr;
            al = queue.pick();
            if (!al)
                return;
            if (al->launch.exclusive) {
                if (residentBlocks > 0)
                    return; // wait for the device to empty
                exclusiveOwner = al;
            }
        }
        const Footprint fp = footprintOf(*al->launch.variant);
        // Least-loaded SM that fits.
        int best = -1;
        for (unsigned i = 0; i < sms.size(); ++i) {
            if (!fits(sms[i], fp))
                continue;
            if (best < 0 || sms[i].blocks < sms[best].blocks)
                best = static_cast<int>(i);
        }
        if (best < 0)
            return;
        place(static_cast<unsigned>(best), std::move(al));
    }
}

void
GpuDevice::place(unsigned idx, LaunchPtr al)
{
    Sm &sm = sms[idx];
    const kdp::KernelVariant &variant = *al->launch.variant;
    const Footprint fp = footprintOf(variant);

    sm.blocks++;
    sm.threadsUsed += fp.threads;
    sm.scratchUsed += fp.scratch;
    sm.regsUsed += fp.regs;
    ++residentBlocks;
    if (al->launch.exclusive)
        ++residentExclusive;

    const std::uint64_t issue = al->nextGroup++;
    const std::uint64_t grid = al->gridId(issue);

    traceBuf.reset(variant.groupSize);
    kdp::GroupCtx ctx(grid, variant.groupSize, variant.waFactor, &traceBuf);
    variant.fn(ctx, al->launch.args);
    ++nGroups;

    const GpuWgCost cost = gpuWorkGroupCost(traceBuf, variant.traits,
                                            variant.groupSize, sm.state, l2,
                                            config.cost);
    // A resident block shares the SM's issue bandwidth with its
    // co-resident peers (throughput part stretches by the resident
    // count) while occupancy hides memory latency (latency part
    // shrinks by it).  A lone block on an otherwise idle SM really
    // does run faster -- which is what keeps micro-profiling spans of
    // high-work-assignment variants representative.
    const double resident = static_cast<double>(sm.blocks);
    const double cycles = cost.throughputCycles * resident
                          + cost.latencyCycles / resident;
    if (debugBlocks) {
        std::fprintf(stderr,
                     "[gpu] t=%llu %s grid=%llu r=%.0f T=%.0fcy L=%.0fcy "
                     "dur=%.0fus\n",
                     (unsigned long long)now(), variant.name.c_str(),
                     (unsigned long long)grid, resident,
                     cost.throughputCycles, cost.latencyCycles,
                     cycles / config.ghz / 1000.0);
    }
    TimeNs dur = cyclesToNs(cycles, config.ghz);
    if (al->timeScale != 1.0)
        dur = static_cast<TimeNs>(static_cast<double>(dur)
                                  * al->timeScale);
    dur = addNoise(dur);

    const TimeNs start = now();
    if (issue == 0) {
        al->stats.firstStamp = start;
    } else {
        al->stats.firstStamp = std::min(al->stats.firstStamp, start);
    }

    unsigned slot;
    if (freeResidents.empty()) {
        slot = static_cast<unsigned>(residents.size());
        residents.emplace_back();
    } else {
        slot = freeResidents.back();
        freeResidents.pop_back();
    }
    residents[slot] = Resident{std::move(al), fp, start, dur, idx};
    events.scheduleAfter(dur, [this, slot] { retire(slot); });
}

void
GpuDevice::retire(unsigned slot)
{
    // Take everything out of the slot and free it first: kick() below
    // may place new blocks, which reuse or add slots.
    Resident &r = residents[slot];
    const LaunchPtr al = std::move(r.launch);
    const Footprint fp = r.fp;
    const TimeNs start = r.start;
    const TimeNs dur = r.dur;
    Sm &host_sm = sms[r.sm];
    freeResidents.push_back(slot);

    host_sm.blocks--;
    host_sm.threadsUsed -= fp.threads;
    host_sm.scratchUsed -= fp.scratch;
    host_sm.regsUsed -= fp.regs;
    --residentBlocks;
    if (al->launch.exclusive)
        --residentExclusive;

    al->done++;
    al->stats.groups++;
    al->stats.busyTime += dur;
    al->stats.lastStamp = std::max(al->stats.lastStamp, now());
    if (al->launch.onGroupStamp)
        al->launch.onGroupStamp(start, now());
    if (al->finished() && al->launch.onComplete)
        al->launch.onComplete(al->stats);
    kick();
}

TimeNs
GpuDevice::addNoise(TimeNs d)
{
    if (config.noiseSigma <= 0.0)
        return d;
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
