/**
 * @file
 * Closed-loop testbed simulator for the real-system experiments
 * (paper §6.1-6.3, Figures 5-7).
 *
 * The simulator owns the physical plant (server models, node managers,
 * sensors, workloads) and a CapMaestroService control plane, and advances
 * them on the paper's cadences: 1 Hz sensing/actuation, 8 s control
 * periods. Budgets come either from the full allocation stack or — for
 * the per-supply enforcement experiment of Figure 5 — from manually
 * scheduled per-supply budgets.
 *
 * Every tick records time series (per-server power, throughput, budgets;
 * per-breaker load) and advances UL 489 trip integrators on every rated
 * node, so experiments can assert that no breaker ever trips.
 */

#ifndef CAPMAESTRO_SIM_CLOSED_LOOP_HH
#define CAPMAESTRO_SIM_CLOSED_LOOP_HH

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/events.hh"
#include "core/service.hh"
#include "device/node_manager.hh"
#include "device/sensor.hh"
#include "device/server.hh"
#include "device/workload.hh"
#include "stats/timeseries.hh"
#include "topology/breaker.hh"
#include "topology/power_system.hh"

namespace capmaestro::sim {

/** One server of the testbed: spec plus its workload. */
struct ServerSetup
{
    dev::ServerSpec spec;
    std::unique_ptr<dev::Workload> workload;
};

class ClosedLoopSim;

/**
 * Hook for a job-level traffic layer driving the simulation (see
 * src/workload). The simulator calls the three hooks on its fixed
 * cadence; a driver places jobs, rewrites per-server utilization, and
 * (when it manages priorities) refreshes server priorities right before
 * the control plane reads them. No driver attached means the historical
 * behavior, bit for bit: per-server dev::Workload traces drive demand
 * and static spec priorities stand.
 */
class TrafficDriver
{
  public:
    virtual ~TrafficDriver() = default;

    /**
     * Called once per simulated second before sensing. @p utilization
     * arrives preloaded with each server's dev::Workload level for
     * second @p t; the driver may overwrite any entry and the result
     * is applied to the server models.
     */
    virtual void beginTick(ClosedLoopSim &sim, Seconds t,
                           std::vector<Fraction> &utilization) = 0;

    /**
     * Called at every control-period boundary (scheduled and
     * emergency), before the control plane allocates — the moment to
     * push job-derived server priorities so the allocator sees them.
     */
    virtual void controlPeriodBoundary(ClosedLoopSim &sim, Seconds t) = 0;

    /** Called after actuation each second (job progress accrual). */
    virtual void endTick(ClosedLoopSim &sim, Seconds t) = 0;
};

/** Closed-loop simulation of a small testbed. */
class ClosedLoopSim
{
  public:
    /**
     * @param system   power system (ownership transferred)
     * @param servers  server specs + workloads; ids follow vector order
     * @param config   control-plane configuration
     * @param seed     sensor-noise seed
     * @param sensors  sensor noise configuration
     */
    ClosedLoopSim(std::unique_ptr<topo::PowerSystem> system,
                  std::vector<ServerSetup> servers,
                  core::ServiceConfig config = {},
                  std::uint64_t seed = 1,
                  dev::SensorConfig sensors = {});

    /**
     * Manual-budget mode: skip the allocator and apply fixed per-supply
     * budgets each control period (Figure 5's experiment).
     */
    void setManualMode(bool manual) { manualMode_ = manual; }

    /** Set the manual per-supply budgets for one server. */
    void setManualBudgets(std::size_t server_id,
                          std::vector<Watts> budgets);

    /** Set root budgets on the service (allocator mode). */
    void setRootBudgets(std::vector<Watts> budgets);

    /** Schedule a callback at simulated time @p t (>= now). */
    void at(Seconds t, std::function<void()> event);

    /** Schedule a feed failure; root budgets are re-derived from
     *  @p total_per_phase at that moment. */
    void failFeedAt(Seconds t, int feed, Watts total_per_phase);

    /** Schedule a single power-supply failure on one server. */
    void failSupplyAt(Seconds t, std::size_t server_id,
                      std::size_t supply);

    /**
     * Schedule a runtime priority change for one server (the §7
     * scheduler-integration hook): takes effect at the next control
     * period after @p t.
     */
    void setPriorityAt(Seconds t, std::size_t server_id,
                       Priority priority);

    /**
     * Schedule a utility-side disturbance on @p feed lasting
     * @p duration seconds. The feed's UPS bank bridges outages up to
     * @p ups_holdup seconds (the ATS transfer window of §2.1):
     * disturbances within the holdup never reach the servers; longer
     * ones turn into a real feed failure after the holdup expires and
     * the feed (plus its supplies) recovers when the disturbance ends.
     * Budgets are re-derived from @p total_per_phase at each change.
     */
    void utilityBlipAt(Seconds t, int feed, Seconds duration,
                       Seconds ups_holdup, Watts total_per_phase);

    /** Advance the simulation by @p duration seconds. */
    void run(Seconds duration);

    /** Current simulated time. */
    Seconds now() const { return now_; }

    /** Recorded time series. */
    const stats::TimeSeriesRecorder &recorder() const { return recorder_; }

    /** Physical server model access. */
    dev::ServerModel &server(std::size_t id);

    /** Control-plane access. */
    core::CapMaestroService &service() { return *service_; }

    /** The power system. */
    topo::PowerSystem &system() { return *system_; }

    /** True when any breaker tripped during the run. */
    bool anyBreakerTripped() const { return anyTrip_; }

    /** Structured event log (failures, overloads, SPO, infeasibility). */
    const core::EventLog &eventLog() const { return events_log_; }

    /**
     * Enable telemetry on the whole control plane (see
     * CapMaestroService::enableTelemetry). The simulator additionally
     * stamps each period trace with the simulated time of its control
     * period.
     */
    void enableTelemetry(telemetry::Registry *registry,
                         telemetry::PeriodTracer *tracer);

    /**
     * Attach a traffic layer (ownership transferred; nullptr detaches).
     * Attach before run() — the driver's hooks fire from the next tick.
     */
    void attachTraffic(std::unique_ptr<TrafficDriver> driver);

    /** The attached traffic layer, nullptr when none. */
    TrafficDriver *traffic() const { return traffic_.get(); }

    /** Number of servers in the plant. */
    std::size_t serverCount() const { return plants_.size(); }

    /** Series name for a per-server signal, e.g. "S0.throughput". */
    static std::string serverSeries(std::size_t id, const char *what);

    /** Series name for a supply. */
    static std::string supplySeries(std::size_t id, std::size_t supply,
                                    const char *what);

  private:
    struct Plant
    {
        std::unique_ptr<dev::ServerModel> server;
        std::unique_ptr<dev::NodeManager> nm;
        std::unique_ptr<dev::SensorEmulator> sensors;
        std::unique_ptr<dev::Workload> workload;
        /** Recorded series, resolved once by resolveSeries(): power,
         *  throughput, dcCap, throttle, then one power series per
         *  supply. */
        std::vector<std::vector<stats::SeriesPoint> *> series;
    };

    /** Trip integrators for every rated interior node, per tree. */
    struct BreakerWatch
    {
        std::size_t tree;
        topo::NodeId node;
        topo::TripIntegrator integrator;
        bool overloaded = false;
        /** Recorded load series ("<tree>.<node>.power"), resolved
         *  once by resolveSeries(). */
        std::vector<stats::SeriesPoint> *series = nullptr;
    };

    std::unique_ptr<topo::PowerSystem> system_;
    std::vector<Plant> plants_;
    std::unique_ptr<core::CapMaestroService> service_;
    stats::TimeSeriesRecorder recorder_;
    std::multimap<Seconds, std::function<void()>> events_;
    core::EventLog events_log_;
    std::vector<BreakerWatch> breakers_;
    std::map<std::size_t, std::vector<Watts>> manualBudgets_;
    bool manualMode_ = false;
    Seconds now_ = 0;
    Seconds lastControlPeriod_ = 0;
    bool anyTrip_ = false;
    telemetry::PeriodTracer *tracer_ = nullptr;
    std::unique_ptr<TrafficDriver> traffic_;
    /** Scratch utilization vector for the traffic-driver path. */
    std::vector<Fraction> trafficUtil_;
    /** Whether resolveSeries() has run. */
    bool seriesResolved_ = false;

    void tick();
    void controlPeriodTick();
    void resolveSeries();
    void recordState();
    Watts nodeLoad(std::size_t tree, topo::NodeId node) const;
};

} // namespace capmaestro::sim

#endif // CAPMAESTRO_SIM_CLOSED_LOOP_HH
