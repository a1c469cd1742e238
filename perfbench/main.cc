/**
 * @file
 * perfbench: run one benchmark workload from a seed and print its
 * metrics. See README.md.
 *
 *   perfbench --workload <table4-loop|deep-udp|plane-lossy>
 *             --seed <n> --seconds <s> --trace <0|1> [--short]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones; --short runs a few periods with the same checks. The last line
 * of stdout is the JSON result.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hh"
#include "workloads.hh"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<table4-loop|deep-udp|plane-lossy> --seed <n> "
                 "--seconds <s> --trace <0|1> [--short]\n",
                 why);
    std::exit(2);
}

perfbench::Options
parse(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--short") {
            opt.shortMode = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                opt.workload = value;
            else if (arg == "--seed")
                opt.seed = std::stoull(value);
            else if (arg == "--seconds")
                opt.seconds = std::stod(value);
            else if (arg == "--trace")
                opt.trace = std::stoi(value) != 0;
            else
                usage(("unknown option " + arg).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Options opt = parse(argc, argv);
    try {
        std::unique_ptr<perfbench::Workload> workload;
        if (opt.workload == "table4-loop")
            workload = perfbench::makeTable4Loop(opt);
        else if (opt.workload == "deep-udp")
            workload = perfbench::makeDeepUdp(opt);
        else if (opt.workload == "plane-lossy")
            workload = perfbench::makePlaneLossy(opt);
        else
            usage(("unknown workload " + opt.workload).c_str());
        const double setup_ms = perfbench::msSinceStart();
        std::printf("workload %s  seed %llu  set-up %.3f s\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed),
                    setup_ms / 1000.0);
        perfbench::runWorkload(*workload, opt, setup_ms);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
