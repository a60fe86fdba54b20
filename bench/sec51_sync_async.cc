/**
 * @file
 * Reproduces the §5.1 discussion: the overhead difference between
 * synchronous and asynchronous DySel when the variant spread is
 * pathological (sgemm under LC scheduling, the paper's 117x case:
 * synchronous profiling waits for the slowest schedule, async hides
 * it behind eager execution -- 8% vs <5% overhead in the paper).
 * Also reports the eager-dispatch counts on CPU vs GPU: host stream
 * query latency leaves the GPU with few or zero eager dispatches.
 */
#include <iostream>

#include "support/table.hh"
#include "workloads/sgemm.hh"
#include "workloads/spmv_csr.hh"

#include "figure_common.hh"

using namespace dysel;
using namespace dysel::bench;

int
main()
{
    std::cout << "=== Sec. 5.1: sync vs async overhead under a large "
                 "variant spread ===\n\n";

    Workload w = workloads::makeSgemmLcCpu();
    std::cout << "running sgemm (" << w.variants.size()
              << " schedules, CPU)...\n";
    const DyselSeries s = runSeries(workloads::cpuFactory(), w);
    const bool ok = checkSeries("sgemm", s);

    support::Table table({"configuration", "relative time",
                          "overhead vs oracle", "eager chunks"});
    auto pct = [&](sim::TimeNs t) {
        return (s.rel(t) - 1.0) * 100.0;
    };
    table.row()
        .cell("oracle")
        .cell(1.0, 3)
        .cell("-")
        .cell("-");
    table.row()
        .cell("sync")
        .cell(s.rel(s.sync.elapsed), 3)
        .cell(std::to_string(pct(s.sync.elapsed)) + " %")
        .cell(s.sync.firstIteration.eagerChunks);
    table.row()
        .cell("async (best initial)")
        .cell(s.rel(s.asyncBest.elapsed), 3)
        .cell(std::to_string(pct(s.asyncBest.elapsed)) + " %")
        .cell(s.asyncBest.firstIteration.eagerChunks);
    table.row()
        .cell("async (worst initial)")
        .cell(s.rel(s.asyncWorst.elapsed), 3)
        .cell(std::to_string(pct(s.asyncWorst.elapsed)) + " %")
        .cell(s.asyncWorst.firstIteration.eagerChunks);
    table.print(std::cout);

    std::cout << "\noracle-to-worst spread: "
              << s.rel(s.oracle.worst())
              << "x (paper's sgemm spread: 117x)\n";

    // GPU eager dispatches: host query latency dominates the tiny
    // profiling phase, so async degenerates toward sync (§5.1).
    std::cout << "\n--- eager dispatch counts: CPU vs GPU ---\n";
    Workload cpu_w = workloads::makeSpmvCsrCpuLc(
        workloads::SpmvInput::Random);
    Workload gpu_w = workloads::makeSpmvCsrGpuInputDep(
        workloads::SpmvInput::Random);
    runtime::LaunchOptions async_opt;
    async_opt.orch = runtime::Orchestration::Async;
    const auto cpu_run =
        workloads::runDysel(workloads::cpuFactory(), cpu_w, async_opt);
    const auto gpu_run =
        workloads::runDysel(workloads::gpuFactory(), gpu_w, async_opt);
    std::cout << "CPU spmv-csr: " << cpu_run.firstIteration.eagerChunks
              << " eager chunks;  GPU spmv-csr: "
              << gpu_run.firstIteration.eagerChunks
              << " eager chunks\n"
              << "Paper: the GPU often sees few or even zero eager "
                 "dispatches; sync and async are nearly identical "
                 "there.\n";
    return ok ? 0 : 1;
}
