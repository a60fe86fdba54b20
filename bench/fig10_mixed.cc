/**
 * @file
 * Reproduces Fig. 10: DySel under mixed compile-time optimizations
 * (tiling, coarsening, scratchpad staging, unrolling, prefetching,
 * texture placement) for cutcp, sgemm, spmv-jds, and stencil, on both
 * the CPU (panel a) and the GPU (panel b).
 *
 * Paper shape: on the CPU the naive base versions win everywhere
 * (scratchpad tiling costs ~1.23x on average); on the GPU DySel picks
 * the optimum except for spmv-jds, where it takes the second-best
 * variant at ~0.8% degradation.
 */
#include <iostream>

#include "support/table.hh"
#include "workloads/cutcp.hh"
#include "workloads/sgemm.hh"
#include "workloads/spmv_csr.hh"
#include "workloads/spmv_jds.hh"
#include "workloads/stencil.hh"

#include "figure_common.hh"

using namespace dysel;
using namespace dysel::bench;

namespace {

/** One panel of the figure; false when a run produced a wrong result. */
bool
panel(const char *title, bool gpu)
{
    std::cout << "--- Fig. 10" << (gpu ? "b (GPU)" : "a (CPU)") << ": "
              << title << " ---\n";

    struct Row
    {
        const char *name;
        Workload w;
    };
    std::vector<Row> rows;
    rows.push_back({"cutcp", workloads::makeCutcpMixed()});
    rows.push_back({"sgemm", workloads::makeSgemmMixed()});
    rows.push_back({"spmv-jds", gpu ? workloads::makeSpmvJdsGpuMixed()
                                    : workloads::makeSpmvJdsCpuMixed()});
    rows.push_back({"stencil", workloads::makeStencilMixed()});

    const DeviceFactory factory =
        gpu ? workloads::gpuFactory() : workloads::cpuFactory();

    support::Table table({"benchmark", "Oracle", "Sync", "Async(best)",
                          "Async(worst)", "Worst"});
    std::vector<std::vector<double>> columns(5);
    bool ok = true;
    for (auto &row : rows) {
        std::cout << "running " << row.name << "...\n";
        const DyselSeries s = runSeries(factory, row.w);
        ok &= checkSeries(row.name, s);
        const double values[5] = {
            1.0,
            s.rel(s.sync.elapsed),
            s.rel(s.asyncBest.elapsed),
            s.rel(s.asyncWorst.elapsed),
            s.rel(s.oracle.worst()),
        };
        table.row().cell(row.name);
        for (int c = 0; c < 5; ++c) {
            table.cell(values[c], 3);
            columns[c].push_back(values[c]);
        }
        std::cout << "  best variant: "
                  << s.oracle.runs[s.oracle.bestIndex].name
                  << "; dysel-sync selected '"
                  << s.sync.firstIteration.selectedName << "'\n";
    }
    geoMeanRow(table, columns);
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\n";
    return ok;
}

} // namespace

int
main()
{
    std::cout << "=== Fig. 10: DySel with mixed compile-time "
                 "optimizations ===\n"
              << "relative execution time over oracle, lower is "
                 "better\n\n";
    bool ok = panel("mixed optimizations on CPU", false);
    ok &= panel("mixed optimizations on GPU", true);
    std::cout << "Paper: base versions win on CPU (scratchpad tiling "
                 "hurts); on GPU DySel is optimal except spmv-jds "
                 "(second best, ~0.8% off).\n";
    return ok ? 0 : 1;
}
