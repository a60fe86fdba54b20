/**
 * @file
 * Virtual-time drift guard for the simulator core.
 *
 * Runs a fixed list of DySel rows, each trimmed to its profiled first
 * iteration, under Sync and Async orchestration on fresh evaluation
 * devices, and compares every run with a golden: the selected variant,
 * the elapsed virtual time and the output check.  The rows cover the
 * scalar and vector CPU replays and the GPU global, texture,
 * scratchpad and constant paths.  A host-side change to the cache or
 * the cost models must leave every number here unchanged; a change
 * that moves virtual time on purpose updates the goldens and says so;
 * every run prints its golden line in the table's format.
 *
 * Device addresses come from one process-wide counter, so a run's
 * virtual time depends on every buffer allocated before it.  The rows
 * therefore run in one test, in a fixed order, and nothing else in
 * this binary allocates device buffers.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "workloads/devices.hh"
#include "workloads/evaluate.hh"
#include "workloads/particlefilter.hh"
#include "workloads/sgemm.hh"
#include "workloads/spmv_csr.hh"
#include "workloads/spmv_jds.hh"

using namespace dysel;
using runtime::Orchestration;
using workloads::SpmvInput;
using workloads::Workload;

namespace {

struct Row
{
    const char *name;
    bool gpu;
    std::function<Workload()> make;
};

struct Golden
{
    const char *row;
    Orchestration orch;
    const char *selected;
    sim::TimeNs virtualNs;
};

const std::vector<Row> &
rows()
{
    static const std::vector<Row> r = {
        {"cpu:spmv-csr(random)", false,
         [] { return workloads::makeSpmvCsrCpuLc(SpmvInput::Random); }},
        {"cpu:spmv-jds(vector)", false,
         [] { return workloads::makeSpmvJdsVectorCpu(); }},
        {"cpu:sgemm(vector)", false,
         [] { return workloads::makeSgemmVectorCpu(64, 64, 64); }},
        {"gpu:spmv-csr(placement)", true,
         [] { return workloads::makeSpmvCsrGpuPlacement(); }},
        {"gpu:particlefilter", true,
         [] { return workloads::makeParticleFilterGpu(); }},
        {"gpu:spmv-csr(random)", true,
         [] { return workloads::makeSpmvCsrGpuInputDep(SpmvInput::Random); }},
        {"gpu:sgemm(mixed)", true,
         [] { return workloads::makeSgemmMixed(64, 64, 64); }},
    };
    return r;
}

/** Captured on the exact-LRU timestamp cache and hash-map replay. */
const std::vector<Golden> goldens = {
    {"cpu:spmv-csr(random)", Orchestration::Sync, "scalar-dfo", 366036},
    {"cpu:spmv-csr(random)", Orchestration::Async, "scalar-dfo", 367126},
    {"cpu:spmv-jds(vector)", Orchestration::Sync, "4-way", 933799},
    {"cpu:spmv-jds(vector)", Orchestration::Async, "4-way", 940031},
    {"cpu:sgemm(vector)", Orchestration::Sync, "scalar", 54676},
    {"cpu:sgemm(vector)", Orchestration::Async, "scalar", 54676},
    {"gpu:spmv-csr(placement)", Orchestration::Sync, "porple-fermi", 2324480},
    {"gpu:spmv-csr(placement)", Orchestration::Async, "porple-fermi", 2300661},
    {"gpu:particlefilter", Orchestration::Sync, "porple-b", 1474682},
    {"gpu:particlefilter", Orchestration::Async, "porple-b", 1456219},
    {"gpu:spmv-csr(random)", Orchestration::Sync, "vector", 707653},
    {"gpu:spmv-csr(random)", Orchestration::Async, "vector", 807730},
    {"gpu:sgemm(mixed)", Orchestration::Sync, "base", 32536},
    {"gpu:sgemm(mixed)", Orchestration::Async, "base", 32536},
};

const char *
orchName(Orchestration o)
{
    return o == Orchestration::Sync ? "Sync" : "Async";
}

} // namespace

TEST(SimDrift, VirtualTimeMatchesGoldens)
{
    std::size_t next = 0;
    for (const Row &row : rows()) {
        Workload w = row.make();
        w.iterations = 1;
        for (Orchestration orch : {Orchestration::Sync, Orchestration::Async}) {
            runtime::LaunchOptions opt;
            opt.orch = orch;
            const workloads::DyselRun run = workloads::runDysel(
                row.gpu ? workloads::gpuFactory() : workloads::cpuFactory(),
                w, opt);
            std::printf("    {\"%s\", Orchestration::%s, \"%s\", %llu},\n",
                        row.name, orchName(orch),
                        run.firstIteration.selectedName.c_str(),
                        static_cast<unsigned long long>(run.elapsed));
            EXPECT_TRUE(run.ok) << row.name << " " << orchName(orch);
            ASSERT_LT(next, goldens.size()) << "no golden for " << row.name;
            const Golden &g = goldens[next++];
            EXPECT_STREQ(g.row, row.name);
            EXPECT_EQ(g.orch, orch);
            EXPECT_EQ(run.firstIteration.selectedName, g.selected)
                << row.name << " " << orchName(orch);
            EXPECT_EQ(run.elapsed, g.virtualNs)
                << row.name << " " << orchName(orch);
        }
    }
    EXPECT_EQ(next, goldens.size());
}
