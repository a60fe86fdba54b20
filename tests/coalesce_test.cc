/**
 * @file
 * Differential property test for profiling coalescing.
 *
 * The property: coalescing is an execution-schedule optimization,
 * never a semantic one.  The same randomized job stream is run three
 * ways --
 *
 *   (a) serially, coalescing off   -- the ground truth;
 *   (b) concurrently, coalescing off -- how much redundant profiling
 *       contention causes (the kernels yield the CPU mid-launch, so
 *       concurrent cold misses genuinely overlap even on one core);
 *   (c) concurrently, coalescing on.
 *
 * All three must produce byte-identical outputs (the variants write
 * the same unit-indexed values; only their cost differs -- DySel's
 * core invariant that selection changes performance, not results) and
 * equivalent final selection stores (same keys, same winner).  And
 * (c) must profile strictly less than (b) on the duplicated keys:
 * followers ride the leader's record instead of re-profiling.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "serve/dispatch_service.hh"
#include "submit_one.hh"
#include "sim/cpu/cpu_device.hh"
#include "support/rng.hh"

using namespace dysel;
using namespace dysel::serve;

namespace {

constexpr std::uint32_t laneCount = 8;
constexpr std::uint64_t kUnits = 512;
constexpr unsigned kSignatures = 2;
constexpr unsigned kThreads = 8;
constexpr unsigned kJobsPerThread = 4;

/**
 * Schedule-independent kernel: writes 3*u + seed into out[u]
 * regardless of which variant (or which mix of profiling slices)
 * executes each unit, and sleeps a little per group so a concurrent
 * worker gets the CPU mid-launch.
 */
kdp::KernelVariant
yieldingKernel(const char *name, std::int32_t seed,
               std::uint64_t flops_per_unit)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = laneCount;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    v.fn = [seed, flops_per_unit](kdp::GroupCtx &g,
                                  const kdp::KernelArgs &args) {
        auto &out = args.buf<std::int32_t>(0);
        const auto units = static_cast<std::uint64_t>(args.scalarInt(1));
        std::this_thread::sleep_for(std::chrono::microseconds(30));
        for (std::uint64_t u = g.unitBase();
             u < g.unitBase() + g.waFactor(); ++u) {
            if (u >= units)
                break;
            const auto lane = static_cast<std::uint32_t>(u % laneCount);
            g.store(out,
                    u,
                    static_cast<std::int32_t>(3 * u) + seed,
                    lane);
            g.flops(lane, flops_per_unit);
        }
    };
    return v;
}

compiler::KernelInfo
regularInfo(const std::string &sig)
{
    compiler::KernelInfo info;
    info.signature = sig;
    info.loops = {{"wi", compiler::BoundKind::Constant, true, false,
                   laneCount}};
    info.outputArgs = {0};
    return info;
}

std::string
sigOf(unsigned s)
{
    return "dup" + std::to_string(s);
}

/** The randomized stream: [thread][job] -> signature index.  Seeded,
 *  so all three runs replay exactly the same stream. */
std::vector<std::vector<unsigned>>
makeStream()
{
    support::Rng rng(0xd1ff);
    std::vector<std::vector<unsigned>> stream(kThreads);
    for (auto &jobs : stream)
        for (unsigned j = 0; j < kJobsPerThread; ++j)
            jobs.push_back(
                static_cast<unsigned>(rng.nextBelow(kSignatures)));
    return stream;
}

struct RunResult
{
    /** [thread][job] -> the job's full output buffer contents. */
    std::vector<std::vector<std::vector<std::int32_t>>> outputs;
    /** Selection per (signature, bucket) key in the final store. */
    std::map<std::pair<std::string, unsigned>, std::string> selections;
    std::uint64_t profiledLaunches = 0;
    std::uint64_t profiledUnits = 0;
    std::uint64_t coalesceHits = 0;
};

/** Run the stream on a fresh service + store. */
RunResult
runStream(bool concurrent, bool coalesce)
{
    const auto stream = makeStream();

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.coalesce = coalesce;
    cfg.affinity = false; // spread duplicates over all devices
    DispatchService svc(store, cfg);
    for (unsigned d = 0; d < 4; ++d)
        svc.addDevice(std::make_unique<sim::CpuDevice>());
    svc.registerKernelPool([](runtime::Runtime &rt) {
           for (unsigned s = 0; s < kSignatures; ++s) {
               const std::string sig = sigOf(s);
               const auto seed = static_cast<std::int32_t>(s + 1);
               rt.addKernel(sig, yieldingKernel("slow", seed, 4000));
               rt.addKernel(sig, yieldingKernel("fast", seed, 100));
               rt.setKernelInfo(sig, regularInfo(sig));
           }
       }).throwIfError();
    svc.start();

    RunResult res;
    res.outputs.assign(
        kThreads,
        std::vector<std::vector<std::int32_t>>(kJobsPerThread));

    std::uint64_t profiledLaunches = 0, profiledUnits = 0;
    std::mutex mu;
    auto worker = [&](unsigned t) {
        kdp::Buffer<std::int32_t> out(kUnits, kdp::MemSpace::Global,
                                      "dup.out");
        for (unsigned j = 0; j < kJobsPerThread; ++j) {
            out.fill(-1);
            JobSpec job;
            job.signature(sigOf(stream[t][j]));
            job.units(kUnits);
            job.mutableArgs().add(out).add(static_cast<std::int64_t>(kUnits));
            JobHandle h = submitOne(svc, job);
            const JobResult &r = h.result();
            ASSERT_TRUE(r.ok()) << r.status.toString();
            {
                std::lock_guard<std::mutex> lock(mu);
                if (r.report.profiled) {
                    profiledLaunches++;
                    profiledUnits += r.report.profiledUnits;
                }
            }
            auto &slot = res.outputs[t][j];
            slot.assign(out.host(), out.host() + kUnits);
        }
    };

    if (concurrent) {
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kThreads; ++t)
            threads.emplace_back(worker, t);
        for (auto &th : threads)
            th.join();
    } else {
        for (unsigned t = 0; t < kThreads; ++t)
            worker(t);
    }
    svc.stop();

    res.profiledLaunches = profiledLaunches;
    res.profiledUnits = profiledUnits;
    res.coalesceHits = svc.metrics().counterValue("coalesce.hit");
    for (const auto &rec : store.records())
        res.selections[{rec.signature, rec.bucket}] = rec.selectedName;
    return res;
}

} // namespace

TEST(CoalesceDifferential, SameOutputsSameStoreLessProfiling)
{
    const RunResult serial = runStream(false, false);
    const RunResult uncoalesced = runStream(true, false);
    const RunResult coalesced = runStream(true, true);

    // Byte-identical outputs across all three schedules.
    for (unsigned t = 0; t < kThreads; ++t) {
        for (unsigned j = 0; j < kJobsPerThread; ++j) {
            EXPECT_EQ(serial.outputs[t][j], uncoalesced.outputs[t][j])
                << "thread " << t << " job " << j;
            EXPECT_EQ(serial.outputs[t][j], coalesced.outputs[t][j])
                << "thread " << t << " job " << j;
        }
    }

    // Equivalent final stores: same keys, same winner everywhere
    // (the virtual-time cost model makes "fast" win deterministically
    // regardless of schedule).
    EXPECT_EQ(serial.selections, uncoalesced.selections);
    EXPECT_EQ(serial.selections, coalesced.selections);
    EXPECT_EQ(coalesced.selections.size(), kSignatures);
    for (const auto &[key, winner] : coalesced.selections)
        EXPECT_EQ(winner, "fast") << key.first;

    // The serial run profiles each key exactly once; the coalesced
    // concurrent run matches it, because followers ride the leader's
    // record instead of re-profiling.
    EXPECT_EQ(serial.profiledLaunches, std::uint64_t{kSignatures});
    EXPECT_EQ(coalesced.profiledLaunches, std::uint64_t{kSignatures});
    EXPECT_GT(coalesced.coalesceHits, 0u);

    // The uncoalesced concurrent run pays redundant profiling for the
    // duplicated keys -- strictly more than the coalesced run.
    EXPECT_GT(uncoalesced.profiledLaunches,
              coalesced.profiledLaunches);
    EXPECT_GT(uncoalesced.profiledUnits, coalesced.profiledUnits);
}
