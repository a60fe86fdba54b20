/**
 * @file
 * Reproduces Fig. 11: input-dependent selection for spmv-csr.  The
 * best kernel depends on the sparsity structure, which is unknown at
 * compile time: on the random matrix the vector kernel wins (the
 * scalar one's accesses don't coalesce); on the diagonal matrix the
 * scalar kernel wins (the vector kernel wastes 31 of 32 lanes).
 *
 * Panel (a): CPU, scalar/vector x DFO/BFO work-item schedules.
 * Panel (b): GPU, scalar vs vector.
 */
#include <iostream>

#include "support/table.hh"
#include "workloads/spmv_csr.hh"

#include "figure_common.hh"

using namespace dysel;
using namespace dysel::bench;
using workloads::SpmvInput;

namespace {

/** One panel of the figure; false when a run produced a wrong result. */
bool
runPanel(bool gpu)
{
    std::cout << "--- Fig. 11" << (gpu ? "b (GPU)" : "a (CPU)")
              << " ---\n";
    const DeviceFactory factory =
        gpu ? workloads::gpuFactory() : workloads::cpuFactory();

    // Build the header from the variant list of one instance.
    Workload probe = gpu
        ? workloads::makeSpmvCsrGpuInputDep(SpmvInput::Random)
        : workloads::makeSpmvCsrCpuInputDep(SpmvInput::Random);
    std::vector<std::string> headers = {"input", "Oracle", "Sync",
                                        "Async(best)", "Async(worst)"};
    for (const auto &v : probe.variants)
        headers.push_back(v.name);
    headers.push_back("Worst");
    support::Table table(headers);

    bool ok = true;
    for (SpmvInput input : {SpmvInput::Random, SpmvInput::Diagonal}) {
        Workload w = gpu ? workloads::makeSpmvCsrGpuInputDep(input)
                         : workloads::makeSpmvCsrCpuInputDep(input);
        const char *name = workloads::spmvInputName(input);
        std::cout << "running " << name << " matrix...\n";
        const DyselSeries s = runSeries(factory, w);
        ok &= checkSeries(name, s);

        table.row()
            .cell(std::string(name) + " matrix")
            .cell(1.0, 3)
            .cell(s.rel(s.sync.elapsed), 3)
            .cell(s.rel(s.asyncBest.elapsed), 3)
            .cell(s.rel(s.asyncWorst.elapsed), 3);
        for (const auto &run : s.oracle.runs)
            table.cell(s.rel(run.elapsed), 3);
        table.cell(s.rel(s.oracle.worst()), 3);

        std::cout << "  dysel-sync selected '"
                  << s.sync.firstIteration.selectedName << "'\n";
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\n";
    return ok;
}

} // namespace

int
main()
{
    std::cout << "=== Fig. 11: input-dependent optimization "
                 "(spmv-csr) ===\n"
              << "relative execution time over oracle, lower is "
                 "better\n\n";
    bool ok = runPanel(false);
    ok &= runPanel(true);
    std::cout << "Paper: DySel adapts to both inputs; on GPU the losing "
                 "kernel costs 4.73x (random) / 22.73x (diagonal); LC's "
                 "static DFO pick can't cope with the diagonal matrix "
                 "on CPU.\n";
    return ok ? 0 : 1;
}
