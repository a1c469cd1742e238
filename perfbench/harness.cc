#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>

// ---------------------------------------------------------------------
// Counting allocator. The benchmark runs one thread, but the counter is
// an atomic so a library thread could never make it a data race; the
// relaxed load + store compiles to a plain increment (no locked
// read-modify-write), keeping the untraced path as cheap as possible.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> gAllocs{0};

void *
countedAlloc(std::size_t size)
{
    gAllocs.store(gAllocs.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

/** Steady clock at static initialization: the process start. */
const auto kProcessStart = std::chrono::steady_clock::now();

/** Result-line metrics of an untraced run, in BENCHMARK.json order. */
std::vector<perfbench::Metric>
endToEnd(const perfbench::Window &w, double setup_ms)
{
    return {
        {"periods_per_s", w.throughput(), "1/s"},
        {"period_p50_ms", w.p50(), "ms"},
        {"cpu_ms_per_period",
         w.cpuMs / static_cast<double>(w.periodMs.size()), "ms"},
        {"wire_bytes_per_period", w.perPeriod(w.counts.bytes), "B"},
        {"frames_per_period", w.perPeriod(w.counts.frames), "count"},
        {"peak_rss_mb", w.peakRssMb, "MiB"},
        {"setup_s", setup_ms / 1000.0, "s"},
    };
}

void
printMetricsJson(const std::vector<perfbench::Metric> &metrics)
{
    std::printf("{");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}");
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

// The nothrow forms too, so every non-aligned allocation pairs malloc
// with free even where a runtime (such as a sanitizer's) supplies its
// own defaults.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace perfbench {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
msSinceStart()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - kProcessStart)
        .count();
}

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = p * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/** Process CPU time (user + system, every thread) in milliseconds. */
double
cpuMs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3
           + static_cast<double>(ts.tv_nsec) / 1e6;
}

/** Peak resident set size of the process in MiB. */
double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Calls to the global operator new since the process started. */
std::uint64_t
allocCount()
{
    return gAllocs.load(std::memory_order_relaxed);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace

double
Window::throughput() const
{
    double total = 0.0;
    for (const double ms : periodMs)
        total += ms;
    return total > 0.0
               ? static_cast<double>(periodMs.size()) * 1000.0 / total
               : 0.0;
}

double
Window::perPeriod(double total) const
{
    return countPeriods ? total / static_cast<double>(countPeriods) : 0.0;
}

void
Tally::record(bool ok, const std::string &why)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (reasons.size() < 8)
        reasons.push_back("period " + std::to_string(attempted) + ": "
                          + why);
}

void
Tally::recordRun(bool ok, const std::string &why)
{
    if (ok)
        return;
    runCheckFailed = true;
    reasons.push_back("run: " + why);
}

void
warmUp(Workload &w, std::size_t n, Tally &tally)
{
    for (std::size_t i = 0; i < n; ++i) {
        w.runPeriod();
        std::string why;
        tally.record(w.checkPeriod(why), why);
    }
}

Window
measure(Workload &w, double seconds, std::size_t count_periods,
        Tally &tally)
{
    Window win;
    win.countPeriods = count_periods;
    // Grow the sample vector here, not inside the counted periods.
    win.periodMs.reserve(4096);
    const double start = nowMs();
    const Counters first = w.counters();
    std::uint64_t allocs0 = allocCount();
    for (std::size_t i = 0;
         i < count_periods || nowMs() - start < seconds * 1000.0; ++i) {
        const double c0 = cpuMs();
        const double t0 = nowMs();
        w.runPeriod();
        const double t1 = nowMs();
        const double c1 = cpuMs();
        win.periodMs.push_back(t1 - t0);
        win.cpuMs += c1 - c0;
        if (i + 1 == count_periods) {
            // Snapshot before the untimed check, which allocates too.
            win.allocs = allocCount() - allocs0;
            win.peakRssMb = peakRssMb();
            const Counters now = w.counters();
            win.counts.frames = now.frames - first.frames;
            win.counts.bytes = now.bytes - first.bytes;
            win.counts.retries = now.retries - first.retries;
            win.counts.staleReuses = now.staleReuses - first.staleReuses;
            win.counts.defaultBudgets =
                now.defaultBudgets - first.defaultBudgets;
        }
        std::string why;
        const std::uint64_t before_check = allocCount();
        tally.record(w.checkPeriod(why), why);
        // Keep the check's own allocations out of the count.
        allocs0 += allocCount() - before_check;
    }
    return win;
}

void
runWorkload(Workload &w, const Options &opt, double setup_ms)
{
    // Counts cover a fixed number of periods so they repeat exactly;
    // 32 periods fit in every window at every workload's speed.
    const std::size_t count = opt.shortMode ? 3 : 32;
    const double seconds = opt.shortMode ? 0.0 : opt.seconds;
    Tally tally;
    warmUp(w, opt.shortMode ? 2 : w.warmupPeriods(), tally);

    std::vector<Metric> metrics;
    std::vector<Metric> layers;
    if (!opt.trace) {
        const Window win = measure(w, seconds, count, tally);
        metrics = endToEnd(win, setup_ms);
        std::printf("periods %zu  p50 %.3f ms  p95 %.3f ms (n=%zu)  "
                    "mean %.3f ms\n",
                    win.periodMs.size(), win.p50(),
                    quantile(win.periodMs, 0.95), win.periodMs.size(),
                    mean(win.periodMs));
    } else {
        // Three equal windows: dark (as the gated run), traced (the
        // benchmark's per-layer timers on), lit (the program's own
        // telemetry attached, the benchmark's timers off).
        const Window dark = measure(w, seconds / 3.0, count, tally);
        w.setTraced(true);
        const Window traced = measure(w, seconds / 3.0, count, tally);
        w.setTraced(false);
        w.setLit();
        // The lit window feeds only a median, and a lit period can be
        // an order of magnitude slower: a few periods suffice.
        const Window lit = measure(w, seconds / 3.0, count < 5 ? count : 5,
                                   tally);
        bool ok = true;
        std::string why;
        layers = w.layerMetrics(traced, ok, why);
        tally.recordRun(ok, why);
        const double overhead = (traced.p50() / dark.p50() - 1.0) * 100.0;
        metrics = {
            {"alloc.allocs_per_period",
             dark.perPeriod(static_cast<double>(dark.allocs)), "count"},
            {"telemetry.dark_period_ms", dark.p50(), "ms"},
            {"telemetry.lit_period_ms", lit.p50(), "ms"},
            {"bench.trace_overhead_pct", overhead, "%"},
            {"core.retries_per_period", dark.perPeriod(dark.counts.retries),
             "count"},
            {"core.stale_reuses_per_period",
             dark.perPeriod(dark.counts.staleReuses), "count"},
            {"core.default_budgets_per_period",
             dark.perPeriod(dark.counts.defaultBudgets), "count"},
        };
        std::printf("dark p50 %.3f ms (n=%zu)  traced p50 %.3f ms (n=%zu)  "
                    "lit p50 %.3f ms (n=%zu)  tracing overhead %.2f %%\n",
                    dark.p50(), dark.periodMs.size(), traced.p50(),
                    traced.periodMs.size(), lit.p50(),
                    lit.periodMs.size(), overhead);
    }
    std::string why;
    tally.recordRun(w.finalCheck(why), why);

    for (const auto &reason : tally.reasons)
        std::fprintf(stderr, "check failed: %s\n", reason.c_str());
    for (const auto &m : metrics)
        std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!layers.empty()) {
        for (const auto &m : layers)
            std::printf("  layer %-28s %14.6g %s\n", m.name.c_str(),
                        m.value, m.unit.c_str());
        std::printf("layers ");
        printMetricsJson(layers);
        std::printf("\n");
    }
    const bool correct = tally.failed == 0 && !tally.runCheckFailed;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    printMetricsJson(metrics);
    std::printf("}\n");
    std::fflush(stdout);
}

} // namespace perfbench
