/**
 * @file
 * Reproduces Fig. 8: DySel vs. locality-centric (LC) scheduling on
 * the CPU for cutcp, kmeans, sgemm, spmv-jds, spmv-csr (random and
 * diagonal), and stencil.  Series: Oracle / Sync / Async(best
 * initial) / Async(worst initial) / LC / Worst, as relative execution
 * time over the oracle (lower is better), plus the GeoMean row.
 *
 * Paper shape: DySel near-oracle everywhere (<= 8% worst case); LC
 * correct except on spmv-csr with the diagonal matrix; the
 * oracle-to-worst gap is large (sgemm is the pathological case).
 */
#include <iostream>

#include "baselines/lc_scheduler.hh"
#include "support/table.hh"
#include "workloads/cutcp.hh"
#include "workloads/kmeans.hh"
#include "workloads/sgemm.hh"
#include "workloads/spmv_csr.hh"
#include "workloads/spmv_jds.hh"
#include "workloads/stencil.hh"

#include "figure_common.hh"

using namespace dysel;
using namespace dysel::bench;

int
main()
{
    std::cout << "=== Fig. 8: DySel vs LC scheduling on CPU ===\n"
              << "relative execution time over oracle, lower is "
                 "better\n\n";

    struct Row
    {
        const char *name;
        Workload w;
    };
    std::vector<Row> rows;
    rows.push_back({"cutcp", workloads::makeCutcpLcCpu()});
    rows.push_back({"kmeans", workloads::makeKmeansLcCpu()});
    rows.push_back({"sgemm", workloads::makeSgemmLcCpu()});
    rows.push_back({"spmv-jds", workloads::makeSpmvJdsCpuLc()});
    rows.push_back({"spmv-csr(random)",
                    workloads::makeSpmvCsrCpuLc(
                        workloads::SpmvInput::Random)});
    rows.push_back({"spmv-csr(diagonal)",
                    workloads::makeSpmvCsrCpuLc(
                        workloads::SpmvInput::Diagonal)});
    rows.push_back({"stencil", workloads::makeStencilLcCpu()});

    support::Table table({"benchmark", "Oracle", "Sync", "Async(best)",
                          "Async(worst)", "LC", "Worst"});
    std::vector<std::vector<double>> columns(6);

    bool ok = true;
    for (auto &row : rows) {
        std::cout << "running " << row.name << " ("
                  << row.w.variants.size() << " schedules)...\n";
        const DyselSeries s = runSeries(workloads::cpuFactory(), row.w);
        ok &= checkSeries(row.name, s);

        const std::size_t lc_pick =
            baselines::lcSelect(row.w.info, row.w.schedules);
        const double values[6] = {
            1.0,
            s.rel(s.sync.elapsed),
            s.rel(s.asyncBest.elapsed),
            s.rel(s.asyncWorst.elapsed),
            s.rel(s.oracle.runs[lc_pick].elapsed),
            s.rel(s.oracle.worst()),
        };
        table.row().cell(row.name);
        for (int c = 0; c < 6; ++c) {
            table.cell(values[c], 3);
            columns[c].push_back(values[c]);
        }
        std::cout << "  dysel-sync selected '"
                  << s.sync.firstIteration.selectedName << "', LC chose '"
                  << row.w.variants[lc_pick].name << "'\n";
    }
    geoMeanRow(table, columns);

    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nPaper: DySel <= 8% over oracle in the worst case; "
                 "LC mispredicts only spmv-csr(diagonal).\n";
    return ok ? 0 : 1;
}
