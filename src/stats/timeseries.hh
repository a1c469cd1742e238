/**
 * @file
 * Named time-series recorder for control-loop traces (Figures 5, 6b, 7c).
 */

#ifndef CAPMAESTRO_STATS_TIMESERIES_HH
#define CAPMAESTRO_STATS_TIMESERIES_HH

#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/units.hh"

namespace capmaestro::stats {

/** One sampled point of a series. */
struct SeriesPoint
{
    Seconds time = 0;
    double value = 0.0;
};

/**
 * A collection of named series sampled on a shared simulated clock.
 * Series lengths may differ (not every series is sampled every tick).
 */
class TimeSeriesRecorder
{
  public:
    /** Record @p value for series @p name at simulated @p time. */
    void record(const std::string &name, Seconds time, double value);

    /** All points of one series (empty when the name is unknown). */
    const std::vector<SeriesPoint> &series(const std::string &name) const;

    /**
     * The point vector of series @p name, created empty when unknown,
     * for a caller that records the same series every tick: appending
     * to it is record() without the name lookup. The reference stays
     * valid until clear().
     */
    std::vector<SeriesPoint> &points(const std::string &name);

    /** Names of all recorded series, sorted. */
    std::vector<std::string> names() const;

    /** Last recorded value of a series; @p fallback when empty. */
    double last(const std::string &name, double fallback = 0.0) const;

    /** Mean of a series over [from, to] (inclusive); 0 when no points. */
    double mean(const std::string &name, Seconds from, Seconds to) const;

    /** Max of a series over [from, to]; 0 when no points. */
    double max(const std::string &name, Seconds from, Seconds to) const;

    /**
     * First time >= @p from at which |value - target| <= tol held and
     * continued to hold for every later sample up to @p to (inclusive;
     * pass the default to consider the whole series). Returns -1 if
     * never.
     */
    Seconds settleTime(const std::string &name, Seconds from, double target,
                       double tol,
                       Seconds to = std::numeric_limits<Seconds>::max())
        const;

    /** Emit CSV: time plus one column per series (blank when missing). */
    void printCsv(std::ostream &os) const;

    /** Drop all series. */
    void clear();

  private:
    std::map<std::string, std::vector<SeriesPoint>> series_;
};

} // namespace capmaestro::stats

#endif // CAPMAESTRO_STATS_TIMESERIES_HH
