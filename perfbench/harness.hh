/**
 * @file
 * The benchmark's measurement harness: clocks, the counting allocator,
 * the steady-state measurement window, and the result line.
 *
 * A workload implements Workload (one control period per runPeriod()
 * call, checked by checkPeriod() outside the timed interval); the
 * harness warms it up, measures it for the requested wall time, and
 * prints every metric by name and unit. Timings are taken from the
 * outside with std::chrono::steady_clock and the process CPU clock;
 * nothing inside the libraries is changed to measure them.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measurement window in seconds. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** A few periods with the same checks (the benchmark's own test). */
    bool shortMode = false;
};

/** Steady-clock milliseconds (arbitrary origin). */
double nowMs();

/** Steady-clock milliseconds since the process started. */
double msSinceStart();

/** Quantile @p p of @p values by linear interpolation (0 if empty). */
double quantile(std::vector<double> values, double p);

/** Cumulative protocol and transport counts of a workload. */
struct Counters
{
    double frames = 0.0;
    double bytes = 0.0;
    double retries = 0.0;
    double staleReuses = 0.0;
    double defaultBudgets = 0.0;
};

/** One named metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one measurement window saw. */
struct Window
{
    /** Wall time of every period in the window. */
    std::vector<double> periodMs;
    /** Process CPU time summed over the timed periods. */
    double cpuMs = 0.0;
    /** Counts over the window's first countPeriods periods. */
    std::size_t countPeriods = 0;
    Counters counts;
    std::uint64_t allocs = 0;
    /** Peak RSS when the count periods ended: a fixed point of every
     *  run, so a faster program running more periods (and growing
     *  more history) does not read as using more memory. */
    double peakRssMb = 0.0;

    double p50() const { return quantile(periodMs, 0.5); }
    /** Periods per second of timed period wall time. */
    double throughput() const;
    /** @p total (counted over the count periods) per period. */
    double perPeriod(double total) const;
};

/** One benchmark workload: a control plane driven period by period. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run one control period (the only timed part). */
    virtual void runPeriod() = 0;

    /**
     * Check the period just run and collect any per-layer samples.
     * Returns false (with a reason in @p why) when a check fails.
     */
    virtual bool checkPeriod(std::string &why) = 0;

    /** Cumulative counts since construction. */
    virtual Counters counters() const = 0;

    /** Periods run before any measurement window. */
    virtual std::size_t warmupPeriods() const = 0;

    /** Turn the benchmark's own per-layer timers on or off. */
    virtual void setTraced(bool on) = 0;

    /** Attach the program's own telemetry (Registry + PeriodTracer). */
    virtual void setLit() = 0;

    /** Whole-run checks after the last period (e.g. "SPO committed"). */
    virtual bool finalCheck(std::string &why)
    {
        (void)why;
        return true;
    }

    /**
     * Workload-specific layer figures of a traced run, after the window
     * run with the benchmark's timers on (@p traced) and the one run
     * with the program's telemetry attached. A figure that fails a
     * consistency check (timed parts exceeding the period) sets @p why
     * and @p ok false.
     */
    virtual std::vector<Metric> layerMetrics(const Window &traced, bool &ok,
                                             std::string &why) = 0;
};

/** Periods attempted and failed, with the first few failure reasons. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** A whole-run check failed: the result is not correct. */
    bool runCheckFailed = false;
    std::vector<std::string> reasons;

    /** Count one checked period. */
    void record(bool ok, const std::string &why);
    /** Record a whole-run check. */
    void recordRun(bool ok, const std::string &why);
};

/** Run @p n checked, untimed periods. */
void warmUp(Workload &w, std::size_t n, Tally &tally);

/**
 * Run periods until @p seconds of wall time have passed and at least
 * @p count_periods ran. Counts cover exactly the first @p count_periods
 * periods, so they repeat exactly for a given seed whatever the
 * machine's speed. Every period is checked outside its timed interval.
 */
Window measure(Workload &w, double seconds, std::size_t count_periods,
               Tally &tally);

/**
 * Warm @p w up, measure it under @p opt and print the result line (the
 * last line of stdout): {"correct", "attempted", "failed", "metrics"}.
 * @p setup_ms is the set-up time measured from process start.
 */
void runWorkload(Workload &w, const Options &opt, double setup_ms);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
