/**
 * @file
 * Root-side fleet health rollup and online safety auditing.
 *
 * FleetHealthRegistry folds the per-period signals the root (or any
 * aggregator) already produces — fresh metrics, stale-cache reuse,
 * exclusion with floor reservation, re-homing — into one health state
 * per observed unit (a child worker, or a leaf station): the §4.5
 * degradation ladder made operational as live/stale/lost/rehoming.
 * The rollup is exported three ways: gauges on a telemetry Registry
 * (one per state, plus the degraded fraction), a JSON document for the
 * /healthz endpoint, and plain accessors for tests and capmaestro_top.
 *
 * SafetyAuditor re-checks, every period, the invariant the whole paper
 * rests on: the budgets a fragment commits downstream plus the floors
 * it reserved for excluded subtrees must never exceed what the
 * fragment itself was granted. The control plane is *believed* to
 * enforce this by construction; the auditor verifies it online, after
 * the fact, from the committed numbers — so a regression anywhere in
 * the allocator or the degraded-mode bookkeeping surfaces as a
 * monotonically increasing `capmaestro_safety_violations_total`
 * rather than a silent overdraw of a breaker. A small relative
 * tolerance absorbs floating-point accumulation across the split.
 *
 * Both classes are passive data holders driven by the runtime layer;
 * neither takes locks nor allocates on the per-period path beyond the
 * first sighting of a unit.
 */

#ifndef CAPMAESTRO_TELEMETRY_HEALTH_HH
#define CAPMAESTRO_TELEMETRY_HEALTH_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "telemetry/registry.hh"
#include "util/json.hh"

namespace capmaestro::telemetry {

/** §4.5 degradation ladder as an operational health state. */
enum class UnitHealth : std::uint8_t
{
    /** Fresh data flowed this period. */
    Live,
    /** Riding the stale-metrics cache. */
    Stale,
    /** Excluded: floor reserved, subtree on its own defaults. */
    Lost,
    /** The 2-level room is re-homing this unit's plant state. */
    Rehoming,
};

/** Lower-case state name ("live", "stale", "lost", "rehoming"). */
const char *unitHealthName(UnitHealth health);

/** Per-unit fleet health rollup (see file comment). */
class FleetHealthRegistry
{
  public:
    struct Unit
    {
        UnitHealth health = UnitHealth::Live;
        /** Epoch of the most recent report in any state. */
        std::uint32_t lastEpoch = 0;
        /** Epoch of the most recent Live report (0 before one). */
        std::uint32_t lastLiveEpoch = 0;
        /** Reports that were not Live. */
        std::uint64_t degradedPeriods = 0;
    };

    /**
     * Record unit @p name in state @p health for epoch @p epoch.
     * First sighting registers the unit; later reports update it.
     */
    void report(const std::string &name, UnitHealth health,
                std::uint32_t epoch);

    /** Number of units ever reported. */
    std::size_t unitCount() const { return units_.size(); }

    /** Units currently in state @p health (O(1): kept by report()). */
    std::size_t countOf(UnitHealth health) const;

    /** Fraction of units not Live (0 when no units). O(1). */
    double degradedFraction() const;

    /** The unit map (name -> state), for tests and renderers. */
    const std::map<std::string, Unit> &units() const { return units_; }

    /**
     * Publish the rollup as gauges on @p registry with @p labels:
     * capmaestro_fleet_units{state=...} per state and
     * capmaestro_fleet_degraded_fraction. Call once; report() keeps
     * the gauges current afterwards.
     */
    void setTelemetry(Registry *registry, const Labels &labels);

    /**
     * JSON rollup for /healthz: counts per state, degraded fraction,
     * and the per-unit map with last-seen epochs.
     */
    util::Json toJson() const;

  private:
    void publish();

    std::map<std::string, Unit> units_;
    /** Units per state, indexed by UnitHealth; report() keeps them
     *  equal to a recount of units_, so publish() is O(1). */
    std::array<std::size_t, 4> counts_{};
    Gauge liveGauge_;
    Gauge staleGauge_;
    Gauge lostGauge_;
    Gauge rehomingGauge_;
    Gauge degradedGauge_;
};

/** Online re-check of the budget-conservation invariant. */
class SafetyAuditor
{
  public:
    /** @p relative_tolerance absorbs float accumulation (of grant). */
    explicit SafetyAuditor(double relative_tolerance = 1e-9)
        : tolerance_(relative_tolerance)
    {
    }

    /**
     * Register counters capmaestro_safety_audits_total and
     * capmaestro_safety_violations_total on @p registry.
     */
    void setTelemetry(Registry *registry, const Labels &labels);

    /**
     * Audit one fragment/tree for one period: @p committed (budgets
     * sent downstream) plus @p reserved (floors held back for excluded
     * subtrees) must not exceed @p granted. Returns true when the
     * invariant holds; false records a violation (counter + the
     * worst-overdraw bookkeeping, subject retained for /healthz).
     */
    bool audit(std::uint32_t epoch, const std::string &subject,
               double granted, double committed, double reserved);

    std::uint64_t audits() const { return auditCount_; }
    std::uint64_t violations() const { return violationCount_; }

    /**
     * Record how many units the current period's reserved floors cover
     * because of membership shadowing (Joining/Draining, or Left but
     * not yet acked) rather than degradation — so a reader of /healthz
     * can tell an elasticity floor from a failure floor. Purely
     * contextual; audit() math is unchanged.
     */
    void noteShadowUnits(std::uint64_t count) { shadowUnits_ = count; }

    /** Units currently floor-reserved for membership reasons. */
    std::uint64_t shadowUnits() const { return shadowUnits_; }

    /** Largest overdraw seen, watts (0 when clean). */
    double worstOverdrawWatts() const { return worstOverdraw_; }

    /** Subject + epoch of the worst overdraw ("" when clean). */
    const std::string &worstSubject() const { return worstSubject_; }

    /** JSON summary for /healthz. */
    util::Json toJson() const;

  private:
    double tolerance_;
    std::uint64_t auditCount_ = 0;
    std::uint64_t violationCount_ = 0;
    double worstOverdraw_ = 0.0;
    std::string worstSubject_;
    std::uint64_t shadowUnits_ = 0;
    Counter auditsCounter_;
    Counter violationsCounter_;
};

} // namespace capmaestro::telemetry

#endif // CAPMAESTRO_TELEMETRY_HEALTH_HH
