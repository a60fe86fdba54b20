/**
 * @file
 * Shared plumbing of the benchmark driver: wall clocks, order
 * statistics, the host-speed probe, the result record every workload
 * returns, and process resource readings.  Everything measures from
 * outside the program: the workloads call the project's public
 * functions and time them with std::chrono::steady_clock.
 */
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

/**
 * Quantile @p q of @p v by linear interpolation between order
 * statistics (the "inclusive" definition); 0 for an empty sample.
 */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Host-speed probe.  Other tenants of a shared host slow it down for
 * seconds at a time, and a thread's CPU time slows with its wall time:
 * on the 4-core host the reference figures come from, a fixed 5-ms
 * loop's median moved between 4.7 and 8.0 ms from one 5-s window to
 * the next, while its minimum stayed at 4.4-4.7 ms.  So every host-time
 * sample is taken next to a few runs of a fixed probe and scaled by
 * quiet / local probe time, where quiet is the fastest probe of the
 * whole run: the sample as it would read on a quiet host.
 *
 * The probe is a small LRU set-associative cache model (64 sets x 8
 * ways, a 256 KB address range) with an indirect call per access: the
 * shape of the simulator's hot loops.  Over 90 s of a figures-like
 * DySel run it cut the spread (IQR/median) of 10-sample window medians
 * from 0.086 to 0.041; a probe of random accesses over 4 MB tracked
 * the simulator worse than no probe (0.195).  The probe is the
 * benchmark's own code, so a change to the program moves the samples
 * and not the probe.
 */
class SpeedProbe
{
  public:
    SpeedProbe() : ways_(kSets * kWays) {}

    /** Run the probe a few times; returns the median seconds. */
    double
    local()
    {
        std::vector<double> reps;
        for (int r = 0; r < 3; ++r) {
            const auto t0 = Clock::now();
            for (std::uint32_t i = 0; i < 30000; ++i)
                sink_ += access(i);
            reps.push_back(secondsSince(t0));
        }
        fastest_ = std::min(fastest_, *std::min_element(reps.begin(),
                                                        reps.end()));
        return median(reps);
    }

    /** Fastest single probe so far: the quiet-host probe time. */
    double quiet() const { return fastest_; }

  private:
    static constexpr std::uint64_t kSets = 64, kWays = 8;

    struct Way
    {
        std::uint64_t tag = ~std::uint64_t{0};
        std::uint64_t lastUse = 0;
    };

    std::uint64_t
    access(std::uint32_t i)
    {
        x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t addr = (x_ >> 44) & ((1u << 18) - 1);
        Way *set = &ways_[((addr >> 6) % kSets) * kWays];
        const std::uint64_t tag = addr >> 12;
        Way *victim = set;
        ++tick_;
        for (Way *w = set; w != set + kWays; ++w) {
            if (w->tag == tag) {
                w->lastUse = tick_;
                return ops_[i & 3](addr);
            }
            if (w->lastUse < victim->lastUse)
                victim = w;
        }
        *victim = {tag, tick_};
        return ops_[i & 3](addr);
    }

    std::vector<Way> ways_;
    std::function<std::uint64_t(std::uint64_t)> ops_[4] = {
        [](std::uint64_t a) { return a * 3; },
        [](std::uint64_t a) { return a ^ 7; },
        [](std::uint64_t a) { return a + 11; },
        [](std::uint64_t a) { return a >> 1; },
    };
    std::uint64_t x_ = 1, tick_ = 0, sink_ = 0;
    double fastest_ = 1e9;
};

/** Host seconds of a sample with the probe time measured next to it. */
struct HostSample
{
    double seconds = 0;
    double probe = 0;

    /** The sample scaled to the quiet probe time @p quiet. */
    double scaled(double quiet) const { return seconds * quiet / probe; }
};

/** Time @p body, probing the host speed before and after it. */
template <typename Body>
HostSample
probed(SpeedProbe &probe, Body &&body)
{
    const double before = probe.local();
    const auto t0 = Clock::now();
    body();
    const double seconds = secondsSince(t0);
    return {seconds, (before + probe.local()) / 2};
}

/** Scale every sample of @p v to @p quiet. */
inline std::vector<double>
scaled(const std::vector<HostSample> &v, double quiet)
{
    std::vector<double> out;
    for (const HostSample &s : v)
        out.push_back(s.scaled(quiet));
    return out;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run hands back to the driver. */
struct Result
{
    /** Every check on the outputs of non-failed operations held. */
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for files a workload writes (the warm store). */
    std::string scratch = ".";
    /** Print printOracleRatios() instead of running a workload. */
    bool oracleRatios = false;
};

/** Peak resident set of this process, in MB. */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** User + system CPU seconds this process has consumed. */
inline double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
            + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

Result runFigures(const Options &opt);
Result runServe(const Options &opt, bool warm);

/**
 * Print each figures row's DySel/oracle virtual-time ratio (Sync and
 * Async) against a full oracle sweep; false when an output was wrong.
 */
bool printOracleRatios();

} // namespace perfbench
