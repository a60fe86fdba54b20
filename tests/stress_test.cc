/**
 * @file
 * Stress/soak tier for the dispatch hot path: many submitter threads
 * hammering a sharded service with mixed signatures, sizes, faults,
 * and occasional cancellations.
 *
 * The assertions are the service's liveness and accounting
 * invariants, not timings: every submitted job reaches a terminal
 * state, no JobResult::id is ever delivered twice, and the metrics
 * registry reconciles exactly (submitted = completed + failed +
 * cancelled + shed).  CI runs this binary under ASan and TSan (ctest
 * label `stress`), where the sharded locking either holds up or
 * crashes loudly.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "serve/dispatch_service.hh"
#include "submit_one.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/fault.hh"
#include "support/rng.hh"

using namespace dysel;
using namespace dysel::serve;

namespace {

constexpr std::uint32_t laneCount = 8;

kdp::KernelVariant
markerKernel(const char *name, std::int32_t marker,
             std::uint64_t flops_per_unit)
{
    kdp::KernelVariant v;
    v.name = name;
    v.groupSize = laneCount;
    v.waFactor = 1;
    v.sandboxIndex = {0};
    v.fn = [marker, flops_per_unit](kdp::GroupCtx &g,
                                    const kdp::KernelArgs &args) {
        auto &out = args.buf<std::int32_t>(0);
        const auto units = static_cast<std::uint64_t>(args.scalarInt(1));
        for (std::uint64_t u = g.unitBase();
             u < g.unitBase() + g.waFactor(); ++u) {
            if (u >= units)
                break;
            const auto lane = static_cast<std::uint32_t>(u % laneCount);
            g.store(out, u, marker, lane);
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

} // namespace

TEST(StressSoak, SixteenSubmittersAgainstFourFaultyDevices)
{
    constexpr unsigned kSubmitters = 16;
    constexpr unsigned kDevices = 4;
    constexpr unsigned kSignatures = 8;
    constexpr std::uint64_t kJobsPerSubmitter = 64; // 1024 jobs total
    constexpr std::uint64_t kBaseUnits = 256;
    constexpr unsigned kWindow = 8; ///< in-flight jobs per submitter

    store::SelectionStore store;
    ServiceConfig cfg;
    cfg.coalesce = true;
    cfg.maxQueueDepth = 64;
    cfg.admission = AdmissionPolicy::Block;
    DispatchService svc(store, cfg);

    // Shared injector: a mix of dropped launches, latency spikes, and
    // the occasional short hang, the same schedule every run.
    sim::FaultConfig fcfg;
    fcfg.launchFailProb = 0.05;
    fcfg.latencySpikeProb = 0.03;
    fcfg.hangProb = 0.01;
    fcfg.hangStallNs = 2'000'000;
    fcfg.seed = 0x57e55;
    sim::FaultInjector faults(fcfg);

    std::vector<std::string> sigs;
    for (unsigned s = 0; s < kSignatures; ++s)
        sigs.push_back("stress" + std::to_string(s));
    for (unsigned d = 0; d < kDevices; ++d) {
        const unsigned idx =
            svc.addDevice(std::make_unique<sim::CpuDevice>());
        svc.device(idx).setFaultInjector(&faults);
    }
    svc.registerKernelPool([&sigs](runtime::Runtime &rt) {
           for (const auto &sig : sigs) {
               rt.addKernel(sig, markerKernel("slow", 1, 4000));
               rt.addKernel(sig, markerKernel("fast", 2, 100));
               rt.setKernelInfo(sig, regularInfo(sig));
           }
       }).throwIfError();
    svc.start();

    struct SubmitterTally
    {
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t shed = 0;
        std::uint64_t cancelWon = 0;
        std::vector<std::uint64_t> resultIds;
        std::vector<std::uint64_t> callbackIds;
        /// Guards callbackIds across workers.  It lives here, not on
        /// the submitter's stack: a cancelled job's callback fires on
        /// a worker after the submitter may have returned.
        std::mutex cbMu;
    };
    std::vector<SubmitterTally> tallies(kSubmitters);

    std::vector<std::thread> threads;
    threads.reserve(kSubmitters);
    for (unsigned t = 0; t < kSubmitters; ++t) {
        threads.emplace_back([&, t] {
            SubmitterTally &tally = tallies[t];
            support::Rng rng(0xacc0 + t);
            // One output slot per window position; a slot is reused
            // only after its previous job completed.
            std::vector<kdp::Buffer<std::int32_t>> outs;
            for (unsigned wdw = 0; wdw < kWindow; ++wdw)
                outs.emplace_back(kBaseUnits * 4, kdp::MemSpace::Global,
                                  "stress.out");
            std::vector<JobHandle> window;

            auto settle = [&] {
                for (auto &h : window) {
                    const JobResult &r = h.result();
                    EXPECT_TRUE(h.done());
                    tally.resultIds.push_back(r.id);
                    if (r.ok()) {
                        tally.completed++;
                    } else if (r.status.code()
                               == support::StatusCode::Cancelled) {
                        // counted at cancel() time
                    } else if (r.status.code()
                               == support::StatusCode::
                                   ResourceExhausted) {
                        tally.shed++;
                    } else {
                        tally.failed++;
                    }
                }
                window.clear();
            };

            for (std::uint64_t j = 0; j < kJobsPerSubmitter; ++j) {
                JobSpec job;
                job.signature(sigs[rng.nextBelow(sigs.size())]);
                const std::uint64_t units = kBaseUnits
                                            << rng.nextBelow(3);
                job.units(units);
                job.mutableArgs().add(outs[window.size()])
                    .add(static_cast<std::int64_t>(units));
                job.onDone([&tally](const JobResult &r) {
                    std::lock_guard<std::mutex> lock(tally.cbMu);
                    tally.callbackIds.push_back(r.id);
                });
                window.push_back(submitOne(svc, job));

                // Occasionally try to withdraw the job just queued;
                // a won race must terminate it as Cancelled.
                if (rng.nextBelow(16) == 0
                    && window.back().cancel())
                    tally.cancelWon++;

                if (window.size() == kWindow)
                    settle();
            }
            settle();
        });
    }
    for (auto &th : threads)
        th.join();
    svc.drain();
    svc.stop();

    // Every job terminal, every id delivered exactly once -- via the
    // handle and via the completion callback.
    std::set<std::uint64_t> seen;
    std::uint64_t completed = 0, failed = 0, shed = 0, cancelled = 0;
    std::uint64_t callbacks = 0;
    for (const auto &tally : tallies) {
        completed += tally.completed;
        failed += tally.failed;
        shed += tally.shed;
        cancelled += tally.cancelWon;
        callbacks += tally.callbackIds.size();
        for (const std::uint64_t id : tally.resultIds) {
            EXPECT_NE(id, 0u);
            EXPECT_TRUE(seen.insert(id).second)
                << "duplicate JobResult::id " << id;
        }
    }
    const std::uint64_t total = kSubmitters * kJobsPerSubmitter;
    EXPECT_EQ(seen.size(), total);
    EXPECT_EQ(completed + failed + shed + cancelled, total);
    EXPECT_EQ(callbacks, total)
        << "done callback must fire exactly once per job";

    // The metrics registry reconciles with what the submitters saw.
    const auto &m = svc.metrics();
    EXPECT_EQ(m.counterValue("jobs.submitted"), total);
    EXPECT_EQ(m.counterValue("jobs.completed"), completed);
    EXPECT_EQ(m.counterValue("jobs.failed"), failed);
    EXPECT_EQ(m.counterValue("jobs.cancelled"), cancelled);
    EXPECT_EQ(m.counterValue("admission.shed"), shed);
    EXPECT_EQ(m.counterValue("jobs.submitted"),
              m.counterValue("jobs.completed")
                  + m.counterValue("jobs.failed")
                  + m.counterValue("jobs.cancelled")
                  + m.counterValue("admission.shed"));

    // The soak actually exercised the machinery it stresses.
    EXPECT_GT(completed, total / 2);
    EXPECT_GT(faults.total(), 0u);
    EXPECT_GT(m.counterValue("store.hit"), 0u);
}
