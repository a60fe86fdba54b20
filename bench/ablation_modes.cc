/**
 * @file
 * Ablation: the space/time trade-off among the three productive
 * profiling modes on the same (regular) workload, plus the
 * correctness boundary -- the histogram kernel, whose work-groups
 * update overlapping bins atomically, is only correct under swap.
 */
#include <iostream>

#include "support/table.hh"
#include "workloads/histogram.hh"
#include "workloads/stencil.hh"

#include "figure_common.hh"

using namespace dysel;
using namespace dysel::bench;

int
main()
{
    std::cout << "=== Ablation: profiling mode choice on one workload "
                 "(stencil, CPU) ===\n\n";

    const auto oracle = [] {
        Workload w = workloads::makeStencilMixed();
        return workloads::runOracle(workloads::cpuFactory(), w);
    }();

    support::Table table({"mode", "relative time", "extra bytes",
                          "productive units", "profiled units",
                          "correct"});
    for (auto mode : {runtime::ProfilingMode::Fully,
                      runtime::ProfilingMode::Hybrid,
                      runtime::ProfilingMode::Swap}) {
        Workload w = workloads::makeStencilMixed();
        runtime::LaunchOptions opt;
        opt.mode = mode;
        opt.orch = runtime::Orchestration::Sync;
        const auto run =
            workloads::runDysel(workloads::cpuFactory(), w, opt);
        table.row()
            .cell(compiler::profilingModeName(mode))
            .cell(workloads::relative(run.elapsed, oracle.best()), 3)
            .cell(run.firstIteration.extraBytes)
            .cell(run.firstIteration.productiveUnits)
            .cell(run.firstIteration.profiledUnits)
            .cell(run.ok ? "yes" : "NO");
    }
    table.print(std::cout);
    std::cout
        << "\nTakeaway: fully-productive is cheapest when applicable "
           "(all profiled work contributes, zero copies); hybrid trades "
           "K-1 sandboxes for irregular-workload fairness; swap doubles "
           "down on space for full generality.\n";

    std::cout << "\n--- correctness boundary: overlapping atomic "
                 "outputs ---\n";
    support::Table hist_table({"mode", "correct"});
    for (auto mode : {runtime::ProfilingMode::Fully,
                      runtime::ProfilingMode::Hybrid,
                      runtime::ProfilingMode::Swap}) {
        Workload w = workloads::makeHistogram();
        w.iterations = 1;
        runtime::LaunchOptions opt;
        opt.mode = mode;
        const auto run =
            workloads::runDysel(workloads::cpuFactory(), w, opt);
        hist_table.row()
            .cell(compiler::profilingModeName(mode))
            .cell(run.ok ? "yes" : "NO (overlapping updates lost)");
    }
    hist_table.print(std::cout);
    std::cout << "\nThe side-effect analysis (§3.4) restricts such "
                 "kernels to swap automatically.\n";
    return 0;
}
