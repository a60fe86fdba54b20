/**
 * @file
 * Extension bench: cold vs. warm start of the dispatch service.
 *
 * The persistent selection store eliminates re-profiling across
 * service restarts (the production pattern: a fleet of dyseld
 * processes sharing one selection database).  This bench runs the
 * same workload mix through a fresh two-device service twice -- once
 * against an empty store (cold: every key micro-profiles) and once
 * against the store the cold run populated (warm: every key is served
 * from the store) -- and reports the profiling work and device time
 * saved.
 */
#include <iostream>
#include <memory>
#include <vector>

#include "serve/dispatch_service.hh"
#include "support/table.hh"
#include "workloads/devices.hh"
#include "workloads/sgemm.hh"
#include "workloads/spmv_csr.hh"
#include "workloads/stencil.hh"

using namespace dysel;

namespace {

struct PhaseStats
{
    std::uint64_t profiledUnits = 0;
    std::uint64_t warmJobs = 0;
    std::uint64_t jobs = 0;
    sim::TimeNs deviceTime = 0;
};

std::vector<workloads::Workload>
makeMix()
{
    std::vector<workloads::Workload> mix;
    mix.push_back(workloads::makeSgemmMixed(256, 256, 256));
    mix.push_back(workloads::makeSgemmMixed(384, 384, 384));
    mix.push_back(
        workloads::makeSpmvCsrCpuInputDep(workloads::SpmvInput::Random));
    mix.push_back(workloads::makeSpmvCsrCpuInputDep(
        workloads::SpmvInput::Diagonal));
    mix.push_back(workloads::makeStencilMixed());
    return mix;
}

/** Run the mix through a fresh service bound to @p store. */
PhaseStats
runPhase(store::SelectionStore &store)
{
    serve::DispatchService svc(store);
    svc.addDevice(workloads::cpuFactory()());
    svc.addDevice(workloads::gpuFactory()());
    svc.start();

    auto mix = makeMix();
    std::vector<serve::JobHandle> handles;
    handles.reserve(mix.size());
    for (auto &w : mix) {
        serve::JobSpec spec;
        spec.signature(w.signature).units(w.units).args(w.args);
        spec.ensureRegistered([&w](runtime::Runtime &rt) {
            rt.removeKernel(w.signature);
            w.registerWith(rt);
        });
        // One job per call: each is routed after the previous one
        // entered its device's load count.
        handles.push_back(svc.submitMany({&spec, 1})[0]);
    }
    PhaseStats stats;
    for (const auto &h : handles) {
        const serve::JobResult &r = h.result();
        stats.jobs++;
        stats.profiledUnits += r.report.profiledUnits;
        stats.warmJobs += r.warmStart ? 1 : 0;
        stats.deviceTime += r.deviceTimeNs;
    }
    svc.stop();
    return stats;
}

} // namespace

int
main()
{
    std::cout << "=== Extension: service warm start from the selection "
                 "store ===\n"
              << "Same workload mix, fresh service + devices each "
                 "phase; only the store persists.\n\n";

    store::SelectionStore store;
    const PhaseStats cold = runPhase(store);
    const PhaseStats warm = runPhase(store);

    support::Table table({"phase", "jobs", "warm-served",
                          "profiled units", "device time (ms)"});
    table.row()
        .cell("cold (empty store)")
        .cell(cold.jobs)
        .cell(cold.warmJobs)
        .cell(cold.profiledUnits)
        .cell(cold.deviceTime / 1e6, 3);
    table.row()
        .cell("warm (persisted store)")
        .cell(warm.jobs)
        .cell(warm.warmJobs)
        .cell(warm.profiledUnits)
        .cell(warm.deviceTime / 1e6, 3);
    table.print(std::cout);

    std::cout << "\nwarm start removed "
              << cold.profiledUnits - warm.profiledUnits
              << " profiled units; device time "
              << (cold.deviceTime > 0
                      ? 100.0
                            * (1.0
                               - static_cast<double>(warm.deviceTime)
                                     / static_cast<double>(
                                         cold.deviceTime))
                      : 0.0)
              << "% lower\n";
    return warm.profiledUnits == 0 && warm.warmJobs == warm.jobs ? 0 : 1;
}
