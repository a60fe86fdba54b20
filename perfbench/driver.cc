/**
 * @file
 * Benchmark driver: runs one named workload per invocation and prints,
 * as the last line of standard output, one JSON object with the keys
 * correct, attempted, failed and metrics.
 *
 *   perfbench_driver --workload figures|serve_cold|serve_warm
 *                    --seed N --seconds S --trace 0|1 [--scratch DIR]
 *   perfbench_driver --oracle-ratios
 *
 * The second form prints the figures rows' DySel/oracle ratios
 * instead (a full oracle sweep; no JSON).
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
 * measurement and reports the per-layer metrics instead.  The exit
 * code is nonzero when any output check failed.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "figures|serve_cold|serve_warm --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR]\n       perfbench_driver "
                 "--oracle-ratios\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--oracle-ratios") {
            opt.oracleRatios = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                opt.workload = value;
            else if (flag == "--seed")
                opt.seed = std::stoull(value);
            else if (flag == "--seconds")
                opt.seconds = std::stod(value);
            else if (flag == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (flag == "--scratch")
                opt.scratch = value;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (opt.seconds <= 0)
        usage("--seconds must be positive");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    if (opt.oracleRatios)
        return printOracleRatios() ? 0 : 1;
    Result res;
    try {
        if (opt.workload == "figures")
            res = runFigures(opt);
        else if (opt.workload == "serve_cold")
            res = runServe(opt, false);
        else if (opt.workload == "serve_warm")
            res = runServe(opt, true);
        else
            usage(("unknown workload '" + opt.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric &m = res.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    return res.correct ? 0 : 1;
}
