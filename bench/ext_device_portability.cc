/**
 * @file
 * Extension bench: performance portability across devices -- the
 * paper's opening motivation.  The same kernel pools, launched
 * unchanged on the CPU and the GPU, select different winners: the
 * naive base versions on the CPU (whose caches do the tiling) and the
 * coarsened / texture-placed versions on the GPU.  No per-device code
 * or model was written; the selection falls out of micro-profiling.
 */
#include <iostream>

#include "support/table.hh"
#include "workloads/cutcp.hh"
#include "workloads/sgemm.hh"
#include "workloads/spmv_jds.hh"
#include "workloads/stencil.hh"

#include "figure_common.hh"

using namespace dysel;
using namespace dysel::bench;

namespace {

struct PoolResult
{
    std::string winner;
    double overhead;
    bool ok;
};

PoolResult
runOn(Workload w, const DeviceFactory &factory)
{
    const auto oracle = workloads::runOracle(factory, w);
    const auto run =
        workloads::runDysel(factory, w, runtime::LaunchOptions{});
    return {run.firstIteration.selectedName,
            (workloads::relative(run.elapsed, oracle.best()) - 1.0)
                * 100.0,
            run.ok};
}

} // namespace

int
main()
{
    std::cout << "=== Extension: one kernel pool, two devices ===\n"
              << "DySel's selection per device (overhead vs that "
                 "device's oracle)\n\n";

    support::Table table({"kernel pool", "CPU winner", "CPU ovh (%)",
                          "GPU winner", "GPU ovh (%)", "portable?"});

    struct Pool
    {
        const char *name;
        Workload cpu;
        Workload gpu;
    };
    std::vector<Pool> pools;
    pools.push_back({"sgemm (base vs tiled)", workloads::makeSgemmMixed(),
                     workloads::makeSgemmMixed()});
    pools.push_back({"stencil (3 versions)",
                     workloads::makeStencilMixed(),
                     workloads::makeStencilMixed()});
    pools.push_back({"cutcp (base vs coarsened)",
                     workloads::makeCutcpMixed(),
                     workloads::makeCutcpMixed()});
    pools.push_back({"spmv-jds (4 versions)",
                     workloads::makeSpmvJdsCpuMixed(),
                     workloads::makeSpmvJdsGpuMixed()});

    bool ok = true;
    for (auto &pool : pools) {
        std::cout << "running " << pool.name << "...\n";
        const PoolResult cpu = runOn(std::move(pool.cpu),
                                     workloads::cpuFactory());
        const PoolResult gpu = runOn(std::move(pool.gpu),
                                     workloads::gpuFactory());
        if (!cpu.ok || !gpu.ok) {
            std::cerr << "ERROR: wrong result in " << pool.name << "\n";
            ok = false;
        }
        table.row()
            .cell(pool.name)
            .cell(cpu.winner)
            .cell(cpu.overhead, 1)
            .cell(gpu.winner)
            .cell(gpu.overhead, 1)
            .cell(cpu.winner == gpu.winner ? "same code wins"
                                           : "winner differs");
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nThe same registered pool yields device-appropriate "
                 "selections with no per-device modeling -- the "
                 "performance-portability story of the paper's "
                 "introduction.\n";
    return ok ? 0 : 1;
}
