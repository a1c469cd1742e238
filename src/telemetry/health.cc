#include "telemetry/health.hh"

#include <algorithm>
#include <cmath>

namespace capmaestro::telemetry {

const char *
unitHealthName(UnitHealth health)
{
    switch (health) {
    case UnitHealth::Live:
        return "live";
    case UnitHealth::Stale:
        return "stale";
    case UnitHealth::Lost:
        return "lost";
    case UnitHealth::Rehoming:
        return "rehoming";
    }
    return "unknown";
}

void
FleetHealthRegistry::report(const std::string &name, UnitHealth health,
                            std::uint32_t epoch)
{
    const auto [it, added] = units_.try_emplace(name);
    Unit &unit = it->second;
    // Keep the per-state counts current: a new unit enters its state,
    // a known one moves from its old state to the new one.
    if (!added)
        --counts_[static_cast<std::size_t>(unit.health)];
    ++counts_[static_cast<std::size_t>(health)];
    unit.health = health;
    unit.lastEpoch = epoch;
    if (health == UnitHealth::Live)
        unit.lastLiveEpoch = epoch;
    else
        ++unit.degradedPeriods;
    publish();
}

std::size_t
FleetHealthRegistry::countOf(UnitHealth health) const
{
    return counts_[static_cast<std::size_t>(health)];
}

double
FleetHealthRegistry::degradedFraction() const
{
    if (units_.empty())
        return 0.0;
    return 1.0
           - static_cast<double>(countOf(UnitHealth::Live))
                 / static_cast<double>(units_.size());
}

void
FleetHealthRegistry::setTelemetry(Registry *registry,
                                  const Labels &labels)
{
    if (!registry)
        return;
    auto labeled = [&labels](const char *state) {
        Labels ls = labels;
        ls.emplace_back("state", state);
        return ls;
    };
    const std::string help =
        "Observed units per fleet health state";
    liveGauge_ =
        registry->gauge("capmaestro_fleet_units", labeled("live"), help);
    staleGauge_ = registry->gauge("capmaestro_fleet_units",
                                  labeled("stale"), help);
    lostGauge_ =
        registry->gauge("capmaestro_fleet_units", labeled("lost"), help);
    rehomingGauge_ = registry->gauge("capmaestro_fleet_units",
                                     labeled("rehoming"), help);
    degradedGauge_ = registry->gauge(
        "capmaestro_fleet_degraded_fraction", labels,
        "Fraction of observed units not in the live state");
    publish();
}

void
FleetHealthRegistry::publish()
{
    if (!degradedGauge_.valid())
        return;
    liveGauge_.set(static_cast<double>(countOf(UnitHealth::Live)));
    staleGauge_.set(static_cast<double>(countOf(UnitHealth::Stale)));
    lostGauge_.set(static_cast<double>(countOf(UnitHealth::Lost)));
    rehomingGauge_.set(
        static_cast<double>(countOf(UnitHealth::Rehoming)));
    degradedGauge_.set(degradedFraction());
}

util::Json
FleetHealthRegistry::toJson() const
{
    util::Json::Object counts;
    counts.emplace("live", util::Json(static_cast<double>(
                               countOf(UnitHealth::Live))));
    counts.emplace("stale", util::Json(static_cast<double>(
                                countOf(UnitHealth::Stale))));
    counts.emplace("lost", util::Json(static_cast<double>(
                               countOf(UnitHealth::Lost))));
    counts.emplace("rehoming", util::Json(static_cast<double>(
                                   countOf(UnitHealth::Rehoming))));

    util::Json::Object units;
    for (const auto &[name, unit] : units_) {
        util::Json::Object u;
        u.emplace("state",
                  util::Json(std::string(unitHealthName(unit.health))));
        u.emplace("lastEpoch", util::Json(static_cast<double>(
                                   unit.lastEpoch)));
        u.emplace("lastLiveEpoch", util::Json(static_cast<double>(
                                       unit.lastLiveEpoch)));
        u.emplace("degradedPeriods",
                  util::Json(static_cast<double>(unit.degradedPeriods)));
        units.emplace(name, util::Json(std::move(u)));
    }

    util::Json::Object out;
    out.emplace("unitCount",
                util::Json(static_cast<double>(units_.size())));
    out.emplace("counts", util::Json(std::move(counts)));
    out.emplace("degradedFraction", util::Json(degradedFraction()));
    out.emplace("units", util::Json(std::move(units)));
    return util::Json(std::move(out));
}

void
SafetyAuditor::setTelemetry(Registry *registry, const Labels &labels)
{
    if (!registry)
        return;
    auditsCounter_ = registry->counter(
        "capmaestro_safety_audits_total", labels,
        "Per-period budget-conservation checks performed");
    violationsCounter_ = registry->counter(
        "capmaestro_safety_violations_total", labels,
        "Periods where committed budgets plus reserved floors "
        "exceeded the fragment's grant");
}

bool
SafetyAuditor::audit(std::uint32_t epoch, const std::string &subject,
                     double granted, double committed, double reserved)
{
    ++auditCount_;
    auditsCounter_.inc();
    const double limit =
        granted + tolerance_ * std::max(1.0, std::fabs(granted));
    const double total = committed + reserved;
    if (total <= limit)
        return true;
    ++violationCount_;
    violationsCounter_.inc();
    const double overdraw = total - granted;
    if (overdraw > worstOverdraw_) {
        worstOverdraw_ = overdraw;
        worstSubject_ =
            subject + "@epoch" + std::to_string(epoch);
    }
    return false;
}

util::Json
SafetyAuditor::toJson() const
{
    util::Json::Object out;
    out.emplace("audits",
                util::Json(static_cast<double>(auditCount_)));
    out.emplace("violations",
                util::Json(static_cast<double>(violationCount_)));
    out.emplace("worstOverdrawWatts", util::Json(worstOverdraw_));
    out.emplace("shadowUnits",
                util::Json(static_cast<double>(shadowUnits_)));
    if (!worstSubject_.empty())
        out.emplace("worstSubject", util::Json(worstSubject_));
    return util::Json(std::move(out));
}

} // namespace capmaestro::telemetry
