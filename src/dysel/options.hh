/**
 * @file
 * Launch-time options of the DySel runtime (paper Fig. 6b).
 */
#pragma once

#include <cstdint>
#include <optional>

#include "compiler/analysis.hh"

namespace dysel {
namespace runtime {

using compiler::ProfilingMode;

/** How profiling overlaps with bulk execution (paper §2.4). */
enum class Orchestration {
    Sync,  ///< barrier after profiling (Fig. 4a)
    Async, ///< eager execution with the best version so far (Fig. 4b)
};

/** Human-readable orchestration name. */
const char *orchestrationName(Orchestration o);

/**
 * Options of one DySelLaunchKernel call.
 *
 * Mirrors the paper's launch API: a profiling activation flag (turn
 * profiling on only for the first iteration of an iterative solver)
 * and a profiling mode, which defaults to the compiler analyses'
 * recommendation unless the caller overrides it.
 */
struct LaunchOptions
{
    /** Profiling activation flag. */
    bool profiling = true;

    /**
     * Override the compiler's recommended profiling mode; unset uses
     * the recommendation (Fully for a kernel without KernelInfo).
     */
    std::optional<ProfilingMode> mode;

    /** Orchestration of profiling vs. bulk execution. */
    Orchestration orch = Orchestration::Async;

    /**
     * Suggested initial version for eager execution in async mode
     * (the compiler/programmer-provided Kdefault); -1 means the first
     * registered variant.
     */
    int initialVariant = -1;

    /**
     * Eager chunk size in workload units (0 = automatic).  Rounded up
     * to a multiple of the variants' LCM work assignment.
     */
    std::uint64_t eagerChunkUnits = 0;

    /**
     * Profiling executions per kernel variant.  More repeats improve
     * selection accuracy under measurement noise and cache-warmup
     * effects at the cost of extra profiling work (§5.2 discussion).
     * 0 = automatic: 2 on the CPU (the first execution warms the
     * caches; the faster repeat is the steady-state measurement), 1
     * on the GPU (whose profiling slices are large enough to warm up
     * internally).
     */
    unsigned profileRepeats = 0;

    /**
     * Correlation id stamped on every trace event this launch emits
     * (see support/tracing).  The dispatch service propagates the job
     * id here so a job's spans line up across service, runtime, and
     * device layers; 0 means "not job-scoped".
     */
    std::uint64_t correlationId = 0;

    /**
     * Shadow audit probe: the launch is a measurement, not production
     * work.  With profiling off, `initialVariant` overrides the cached
     * selection (the audit sampler forces the winner and the runner-up
     * in turn), and the report carries the flag so the store's drift
     * baseline ignores it -- a tiny probe slice has non-amortized
     * launch overhead and would otherwise trigger false quarantines.
     */
    bool shadow = false;
};

} // namespace runtime
} // namespace dysel
