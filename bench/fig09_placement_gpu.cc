/**
 * @file
 * Reproduces Fig. 9: DySel vs. the model-driven data-placement
 * baselines (PORPLE and the rule-based heuristic of Jang et al.) on
 * the GPU, for spmv-csr and the particle filter.
 *
 * The candidate variants are the policies the baselines generate, so
 * each baseline's bar is simply its own policy's pure run.  Paper
 * shape: DySel near-oracle on both; on spmv-csr PORPLE's
 * Kepler-targeted policy is 1.29x off (the best policy is the one it
 * generates for Fermi) and the heuristic is 2.29x off; on particle
 * filter both baselines find the optimum and the original Rodinia
 * placement is the worst (1.17x).
 */
#include <iostream>

#include "support/table.hh"
#include "workloads/particlefilter.hh"
#include "workloads/spmv_csr.hh"

#include "figure_common.hh"

using namespace dysel;
using namespace dysel::bench;

namespace {

/** One row of the figure; false when a run produced a wrong result. */
bool
runOne(support::Table &table, const char *name, Workload w,
       const char *porple_policy, const char *heuristic_policy)
{
    std::cout << "running " << name << "...\n";
    const DyselSeries s = runSeries(workloads::gpuFactory(), w);
    const bool ok = checkSeries(name, s);

    const int porple_idx = w.variantIndex(porple_policy);
    const int heuristic_idx = w.variantIndex(heuristic_policy);
    if (porple_idx < 0 || heuristic_idx < 0)
        support::fatal("unknown baseline policy for %s", name);

    table.row()
        .cell(name)
        .cell(1.0, 3)
        .cell(s.rel(s.sync.elapsed), 3)
        .cell(s.rel(s.asyncBest.elapsed), 3)
        .cell(s.rel(s.asyncWorst.elapsed), 3)
        .cell(s.rel(s.oracle.runs[porple_idx].elapsed), 3)
        .cell(s.rel(s.oracle.runs[heuristic_idx].elapsed), 3)
        .cell(s.rel(s.oracle.worst()), 3);

    std::cout << "  oracle policy: "
              << s.oracle.runs[s.oracle.bestIndex].name
              << "; dysel-sync selected '"
              << s.sync.firstIteration.selectedName << "'\n";
    return ok;
}

} // namespace

int
main()
{
    std::cout << "=== Fig. 9: DySel vs data-placement models on GPU ===\n"
              << "relative execution time over oracle, lower is "
                 "better\n\n";

    support::Table table({"benchmark", "Oracle", "Sync", "Async(best)",
                          "Async(worst)", "PORPLE", "Heuristic",
                          "Worst"});

    // PORPLE's deployment targets the current (Kepler) device; the
    // rule-based heuristic has one fixed policy.
    bool ok = runOne(table, "spmv-csr", workloads::makeSpmvCsrGpuPlacement(),
                     "porple-kepler", "jang-heuristic");
    ok &= runOne(table, "particlefilter", workloads::makeParticleFilterGpu(),
                 "porple-a", "jang-heuristic");

    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nPaper: DySel near-oracle; PORPLE 1.29x and heuristic "
                 "2.29x off on spmv-csr; Rodinia's original placement "
                 "worst (1.17x) on particlefilter.\n";
    return ok ? 0 : 1;
}
