#include "stats/timeseries.hh"

#include <algorithm>
#include <cmath>
#include <set>

namespace capmaestro::stats {

namespace {
const std::vector<SeriesPoint> kEmptySeries;
} // namespace

void
TimeSeriesRecorder::record(const std::string &name, Seconds time,
                           double value)
{
    series_[name].push_back({time, value});
}

std::vector<SeriesPoint> &
TimeSeriesRecorder::points(const std::string &name)
{
    return series_[name];
}

const std::vector<SeriesPoint> &
TimeSeriesRecorder::series(const std::string &name) const
{
    auto it = series_.find(name);
    return it == series_.end() ? kEmptySeries : it->second;
}

std::vector<std::string>
TimeSeriesRecorder::names() const
{
    std::vector<std::string> out;
    out.reserve(series_.size());
    for (const auto &[name, pts] : series_)
        out.push_back(name);
    return out;
}

double
TimeSeriesRecorder::last(const std::string &name, double fallback) const
{
    const auto &pts = series(name);
    return pts.empty() ? fallback : pts.back().value;
}

double
TimeSeriesRecorder::mean(const std::string &name, Seconds from,
                         Seconds to) const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &p : series(name)) {
        if (p.time >= from && p.time <= to) {
            sum += p.value;
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
TimeSeriesRecorder::max(const std::string &name, Seconds from,
                        Seconds to) const
{
    double best = 0.0;
    bool any = false;
    for (const auto &p : series(name)) {
        if (p.time >= from && p.time <= to) {
            best = any ? std::max(best, p.value) : p.value;
            any = true;
        }
    }
    return any ? best : 0.0;
}

Seconds
TimeSeriesRecorder::settleTime(const std::string &name, Seconds from,
                               double target, double tol,
                               Seconds to) const
{
    const auto &pts = series(name);
    Seconds settled = -1;
    for (const auto &p : pts) {
        if (p.time < from || p.time > to)
            continue;
        if (std::fabs(p.value - target) <= tol) {
            if (settled < 0)
                settled = p.time;
        } else {
            settled = -1;
        }
    }
    return settled;
}

void
TimeSeriesRecorder::printCsv(std::ostream &os) const
{
    // Collect the union of all timestamps.
    std::set<Seconds> times;
    for (const auto &[name, pts] : series_)
        for (const auto &p : pts)
            times.insert(p.time);

    os << "time";
    for (const auto &[name, pts] : series_)
        os << ',' << name;
    os << '\n';

    // Per-series cursor walk keeps this O(total points).
    std::map<std::string, std::size_t> cursor;
    for (Seconds t : times) {
        os << t;
        for (const auto &[name, pts] : series_) {
            std::size_t &i = cursor[name];
            while (i < pts.size() && pts[i].time < t)
                ++i;
            os << ',';
            if (i < pts.size() && pts[i].time == t)
                os << pts[i].value;
        }
        os << '\n';
    }
    os.flush();
}

void
TimeSeriesRecorder::clear()
{
    series_.clear();
}

} // namespace capmaestro::stats
