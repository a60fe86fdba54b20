/**
 * @file
 * Shared harness code for the figure-reproduction bench binaries.
 *
 * Every paper figure reports *relative execution time over the
 * oracle* (the best pure variant); this header provides the standard
 * series -- Oracle / Sync / Async(best initial) / Async(worst
 * initial) / Worst -- and the table plumbing, so each bench binary
 * only adds its figure-specific columns (LC, PORPLE, ...).
 */
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "support/stats.hh"
#include "support/table.hh"
#include "workloads/devices.hh"
#include "workloads/evaluate.hh"

namespace dysel {
namespace bench {

using workloads::DeviceFactory;
using workloads::DyselRun;
using workloads::OracleResult;
using workloads::Workload;

/** The standard DySel series of one benchmark row. */
struct DyselSeries
{
    OracleResult oracle;
    DyselRun sync;
    DyselRun asyncBest;  ///< async with the best variant as Kdefault
    DyselRun asyncWorst; ///< async with the worst variant as Kdefault

    double rel(sim::TimeNs t) const
    {
        return workloads::relative(t, oracle.best());
    }
};

/** Run oracle + the three DySel configurations on @p w. */
inline DyselSeries
runSeries(const DeviceFactory &factory, Workload &w)
{
    DyselSeries s;
    s.oracle = workloads::runOracle(factory, w);

    runtime::LaunchOptions sync_opt;
    sync_opt.orch = runtime::Orchestration::Sync;
    s.sync = workloads::runDysel(factory, w, sync_opt);

    runtime::LaunchOptions best_opt;
    best_opt.orch = runtime::Orchestration::Async;
    best_opt.initialVariant = static_cast<int>(s.oracle.bestIndex);
    s.asyncBest = workloads::runDysel(factory, w, best_opt);

    runtime::LaunchOptions worst_opt;
    worst_opt.orch = runtime::Orchestration::Async;
    worst_opt.initialVariant = static_cast<int>(s.oracle.worstIndex);
    s.asyncWorst = workloads::runDysel(factory, w, worst_opt);
    return s;
}

/**
 * Report every run of @p s that produced a wrong result.
 * @return true when every oracle and DySel run was correct; the
 *         bench binaries exit nonzero otherwise.
 */
inline bool
checkSeries(const std::string &name, const DyselSeries &s)
{
    bool ok = true;
    for (const auto &run : s.oracle.runs)
        if (!run.ok) {
            std::cerr << "ERROR: " << name << " variant " << run.name
                      << " produced a wrong result\n";
            ok = false;
        }
    for (const DyselRun *run : {&s.sync, &s.asyncBest, &s.asyncWorst})
        if (!run->ok) {
            std::cerr << "ERROR: " << name
                      << " DySel run produced a wrong result\n";
            ok = false;
        }
    return ok;
}

/** Append a GeoMean row from per-column samples. */
inline void
geoMeanRow(support::Table &table,
           const std::vector<std::vector<double>> &columns)
{
    table.row().cell("GeoMean");
    for (const auto &col : columns)
        table.cell(support::geoMean(col), 3);
}

} // namespace bench
} // namespace dysel
