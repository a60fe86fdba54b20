/**
 * @file
 * Reproduces Table 1: the properties of the three productive
 * profiling modes -- how many of the K profiled portions contribute
 * to the final output, how much extra space each mode allocates, and
 * whether asynchronous orchestration is supported.  Measured from
 * live runs rather than asserted.
 */
#include <iostream>

#include "dysel/runtime.hh"
#include "sim/cpu/cpu_device.hh"
#include "support/table.hh"
#include "workloads/histogram.hh"
#include "workloads/stencil.hh"

#include "figure_common.hh"

using namespace dysel;
using namespace dysel::bench;

namespace {

struct ModeResult
{
    std::uint64_t productivePortions; ///< of K profiled portions
    std::uint64_t extraCopies;        ///< output-buffer copies
    bool asyncSupported;
    bool ok;                          ///< output matched the reference
};

ModeResult
measure(runtime::ProfilingMode mode)
{
    Workload w = workloads::makeStencilMixed();
    w.iterations = 1;
    const std::uint64_t out_bytes =
        w.args.bufBase(1).sizeBytes(); // stencil output buffer
    const auto k = w.variants.size();

    runtime::LaunchOptions opt;
    opt.mode = mode;
    opt.modeExplicit = true;
    opt.orch = runtime::Orchestration::Async;
    const auto run = workloads::runDysel(workloads::cpuFactory(), w, opt);
    if (!run.ok)
        std::cerr << "ERROR: wrong output under "
                  << compiler::profilingModeName(mode) << "\n";

    ModeResult r;
    r.ok = run.ok;
    const std::uint64_t slice = run.firstIteration.productiveUnits
                                / (mode == runtime::ProfilingMode::Fully
                                       ? k
                                       : 1);
    r.productivePortions = run.firstIteration.productiveUnits / slice;
    r.extraCopies = run.firstIteration.extraBytes / out_bytes;
    r.asyncSupported =
        run.firstIteration.orch == runtime::Orchestration::Async;
    return r;
}

} // namespace

int
main()
{
    std::cout << "=== Table 1: properties of the productive profiling "
                 "modes ===\n"
              << "(measured on the 3-variant stencil workload, CPU)\n\n";

    support::Table table({"profiling method", "productive portions",
                          "extra space (output copies)",
                          "async support"});

    const struct
    {
        runtime::ProfilingMode mode;
        const char *name;
    } modes[] = {
        {runtime::ProfilingMode::Fully, "fully-productive"},
        {runtime::ProfilingMode::Hybrid, "hybrid-based partial"},
        {runtime::ProfilingMode::Swap, "swap-based partial"},
    };
    bool ok = true;
    for (const auto &m : modes) {
        const ModeResult r = measure(m.mode);
        ok &= r.ok;
        table.row()
            .cell(m.name)
            .cell(r.productivePortions)
            .cell(r.extraCopies)
            .cell(r.asyncSupported ? "yes" : "no");
    }
    table.print(std::cout);

    std::cout << "\nPaper Table 1: fully-productive contributes K "
                 "portions with 0 extra space and async support; hybrid "
                 "contributes 1 with <= K-1 copies and async support; "
                 "swap contributes 1 with <= K copies and no async.\n";

    // Swap is not merely cheaper bookkeeping -- for kernels with
    // overlapping atomic outputs it is the only correct mode.
    Workload hist = workloads::makeHistogram();
    const auto swap_run = workloads::runDysel(
        workloads::cpuFactory(), hist, runtime::LaunchOptions{});
    std::cout << "\nhistogram (global atomics): compiler analyses chose "
              << compiler::profilingModeName(swap_run.firstIteration.mode)
              << ", result "
              << (swap_run.ok ? "correct" : "WRONG") << "\n";
    return ok && swap_run.ok ? 0 : 1;
}
