/**
 * @file
 * Isolate-then-measure replays of single layers, used only by traced
 * runs.  Each replay calls one layer's public functions on inputs
 * taken from the workload just run and times those calls alone:
 *
 *  - kdp:       a variant's KernelFn on a GroupCtx recording a
 *               WorkGroupTrace, for sampled work-groups;
 *  - sim.cache: the recorded addresses through Cache::access at the
 *               devices' cache geometries;
 *  - sim.cpu / sim.gpu: cpuWorkGroupCycles / gpuWorkGroupCost on the
 *               recorded traces;
 *  - sim:       EventEngine::schedule/run of no-op events;
 *  - dysel.store: SelectionStore recordProfile/lookup over the
 *               workload's launch reports and key sequence, and
 *               saveFile/loadFile of the resulting store.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dysel/report.hh"
#include "kdp/args.hh"
#include "kdp/kernel.hh"

#include "common.hh"

namespace perfbench {

/** One kernel launch whose work-groups the kdp/sim replays sample. */
struct KernelSample
{
    const dysel::kdp::KernelVariant *variant = nullptr;
    const dysel::kdp::KernelArgs *args = nullptr;
    std::uint64_t units = 0;
};

/**
 * Replay @p groupsPerSample evenly spaced work-groups of each sample
 * through its KernelFn, then the recorded traces through the cache
 * and cost models.  Adds the kdp.*, sim.cache.*, sim.cpu.* and
 * sim.gpu.* metrics to @p out.  The kernels write their outputs again,
 * so call this only after the outputs were checked.
 */
void replayKernelLayers(const std::vector<KernelSample> &samples,
                        unsigned groupsPerSample, Result &out);

/**
 * Schedule and run @p events no-op events on a fresh EventEngine;
 * adds sim.engine_ns_per_event.
 */
void replayEngine(std::uint64_t events, Result &out);

/** One store key a workload touched, in the order it touched it. */
struct StoreKey
{
    std::string signature;
    std::string device; ///< sim::Device::fingerprint()
    std::uint64_t units = 0;
};

/** Launch reports with the fingerprint of the device that ran them. */
using DeviceReports =
    std::vector<std::pair<std::string, dysel::runtime::LaunchReport>>;

/**
 * Replay the store layer: recordProfile of every profiled report in
 * @p reports into a fresh SelectionStore, lookup of every key of
 * @p keys, then saveFile/loadFile through @p scratchDir.  Adds
 * dysel.store.record_ns, dysel.store.lookup_ns and dysel.store.load_s.
 * Returns false when the store round trip failed.
 */
bool replayStore(const DeviceReports &reports,
                 const std::vector<StoreKey> &keys,
                 const std::string &scratchDir, Result &out);

} // namespace perfbench
