/**
 * @file
 * The serving-path measurements shared by the serve workloads and the
 * figures traced run.
 */
#pragma once

#include <vector>

#include "workloads/workload.hh"

#include "common.hh"

namespace perfbench {

/** One figures row pushed through the dispatch service. */
struct ProbeJob
{
    dysel::workloads::Workload *w = nullptr;
};

/**
 * Push @p jobs through a two-CPU DispatchService (the serve
 * workloads' configuration) as one cold burst and one warm burst,
 * with every kernel-body call time-stamped.  Adds the serve.* and
 * dysel.store.hits/misses metrics to @p out.  Returns false when a
 * job failed or a workload's check rejected its output.
 */
bool probeServe(const std::vector<ProbeJob> &jobs, Result &out);

} // namespace perfbench
