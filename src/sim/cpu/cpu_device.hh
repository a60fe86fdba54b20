/**
 * @file
 * Simulated multicore CPU device.
 *
 * Models the paper's CPU runtime (§3.2): work-groups become tasks in
 * a TBB-like scheduler with load balancing across cores and priority
 * scheduling so profiling tasks run before bulk work.  Each core owns
 * private L1/L2 caches that persist across tasks; all cores share an
 * L3.  Per-task dispatch overhead is charged, which is what exposes
 * the paper's §5.2 "huge number of extremely tiny tasks" pathology.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "kdp/trace.hh"
#include "support/rng.hh"

#include "sim/cache/cache.hh"
#include "sim/device.hh"
#include "sim/sched.hh"

#include "cpu_cost_model.hh"

namespace dysel {
namespace sim {

/** Construction parameters of the CPU device. */
struct CpuConfig
{
    std::string name = "sim-i7-3820";
    unsigned cores = 8;       ///< hardware threads
    double ghz = 3.6;
    CacheConfig l1{32 * 1024, 8, 64};
    CacheConfig l2{256 * 1024, 8, 64};
    CacheConfig l3{10 * 1024 * 1024, 20, 64};
    CpuCostParams cost;
    /** TBB-like per-task dispatch overhead. */
    TimeNs taskOverheadNs = 150;
    /** Host-side cost of materializing one launch. */
    TimeNs launchOverheadNs = 800;
    /** Host query latency (cheap: host and device share the chip). */
    TimeNs hostQueryLatencyNs = 100;
    /**
     * Relative measurement noise applied to task durations; scaled up
     * for tasks shorter than noiseRefNs (system noise hits tiny tasks
     * hardest, §5.2).  0 disables noise entirely.
     */
    double noiseSigma = 0.0;
    TimeNs noiseRefNs = 2000;
    std::uint64_t seed = 0x5eed;
};

/**
 * The CPU device simulator.
 */
class CpuDevice : public Device
{
  public:
    explicit CpuDevice(const CpuConfig &cfg = CpuConfig());

    const std::string &name() const override { return config.name; }
    std::string fingerprint() const override;
    DeviceKind kind() const override { return DeviceKind::Cpu; }
    unsigned computeUnits() const override { return config.cores; }
    TimeNs launchOverheadNs() const override
    {
        return config.launchOverheadNs;
    }
    TimeNs hostQueryLatencyNs() const override
    {
        return config.hostQueryLatencyNs;
    }

    void submit(Launch launch) override;

    /** Work-groups executed since construction. */
    std::uint64_t groupsExecuted() const { return nGroups; }

    /** The device configuration. */
    const CpuConfig &cfg() const { return config; }

  private:
    struct Core
    {
        CpuCoreState caches;
        bool busy = false;
        /** The task in flight while busy: its launch, start, duration.
         *  The completion event reads it, so it captures only the
         *  core index. */
        LaunchPtr task;
        TimeNs taskStart = 0;
        TimeNs taskDur = 0;

        explicit Core(const CpuConfig &cfg)
            : caches(cfg.l1, cfg.l2)
        {}
    };

    /** Give every idle core a task if one is available. */
    void kick();

    /** Try to start the next task on core @p idx. */
    void startNext(unsigned idx);

    /** Completion event of the task in flight on core @p idx. */
    void finishTask(unsigned idx);

    /** Execute one work-group and return its duration. */
    TimeNs runGroup(Core &core, const ActiveLaunch &al, std::uint64_t grid);

    /** Apply configured measurement noise to a duration. */
    TimeNs addNoise(TimeNs d);

    CpuConfig config;
    std::vector<Core> cores;
    Cache l3;
    DispatchQueue queue;
    kdp::WorkGroupTrace traceBuf;
    support::Rng rng;
    std::uint64_t nGroups = 0;
};

} // namespace sim
} // namespace dysel
