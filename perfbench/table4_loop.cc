/**
 * @file
 * table4-loop: the paper's Table-4 center (162 racks per feed, 2 feeds,
 * 1944 dual-corded servers, 30 % high priority) in sim::ClosedLoopSim,
 * with the control exchange on a lossless SimTransport message plane.
 *
 * The scenario is generated here as a config document and loaded the
 * way capmaestro_run loads a file (config::loadScenario +
 * config::makeSimulation). Every server's feed-0 supply carries a
 * 0.5 + U(0.02, 0.10) share of its load, so §4.4 SPO reclaims power
 * stranded on feed 1 every period, and every server's utilization takes
 * a seeded random walk each simulated second, so the root budget binds
 * throughout. One benchmark period is one 8 s control period: seven
 * plant-only simulated seconds and one that also runs the control
 * period.
 */

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/loader.hh"
#include "sim/closed_loop.hh"
#include "sim/datacenter.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace.hh"
#include "util/json.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace capmaestro;

constexpr Seconds kControlPeriod = 8;

/** The Table-4 scenario document, seeded priorities/splits/walks. */
util::Json
table4Document(std::uint64_t seed)
{
    sim::DataCenterParams params;
    params.phases = 1;
    params.serversPerRackPerPhase = 12;
    params.highPriorityFraction = 0.3;
    params.supplyMismatch = 0.1;
    const auto dc = sim::buildDataCenter(params);

    util::Rng rng(seed);
    util::Json::Object doc;
    doc.emplace("feeds", util::Json(static_cast<double>(params.feeds)));
    util::Json::Array trees;
    for (const auto &tree : dc.system->trees())
        trees.push_back(config::powerTreeToJson(*tree));
    doc.emplace("trees", util::Json(std::move(trees)));

    util::Json::Array servers;
    for (std::size_t i = 0; i < dc.servers.size(); ++i) {
        util::Json::Object server;
        server.emplace("name", util::Json("s" + std::to_string(i)));
        server.emplace("priority",
                       util::Json(rng.chance(params.highPriorityFraction)
                                      ? 1.0
                                      : 0.0));
        server.emplace("idle", util::Json(params.serverIdle));
        server.emplace("capMin", util::Json(params.serverCapMin));
        server.emplace("capMax", util::Json(params.serverCapMax));
        // Every split leans toward feed 0, so feed 0's budget binds and
        // budget stranded on feed 1 is there for SPO every period,
        // whatever the seed (a symmetric spread strands power only on
        // some seeds and in some periods).
        const double mismatch = rng.uniform(0.02, params.supplyMismatch);
        util::Json::Array supplies;
        for (const double share : {0.5 + mismatch, 0.5 - mismatch}) {
            util::Json::Object supply;
            supply.emplace("share", util::Json(share));
            supplies.push_back(util::Json(std::move(supply)));
        }
        server.emplace("supplies", util::Json(std::move(supplies)));
        util::Json::Object walk;
        walk.emplace("type", util::Json(std::string("randomwalk")));
        walk.emplace("start", util::Json(rng.uniform(0.8, 1.0)));
        walk.emplace("step", util::Json(0.01));
        walk.emplace("seed", util::Json(static_cast<double>(
                                 rng.uniformInt(1, 1LL << 40))));
        server.emplace("workload", util::Json(std::move(walk)));
        servers.push_back(util::Json(std::move(server)));
    }
    doc.emplace("servers", util::Json(std::move(servers)));

    util::Json::Object service;
    service.emplace("policy", util::Json(std::string("global")));
    service.emplace("controlPeriodSeconds",
                    util::Json(static_cast<double>(kControlPeriod)));
    service.emplace("spo", util::Json(true));
    doc.emplace("service", util::Json(std::move(service)));

    // A transport block with no faults: the lossless message plane.
    util::Json::Object transport;
    transport.emplace("dropRate", util::Json(0.0));
    doc.emplace("transport", util::Json(std::move(transport)));

    util::Json::Object budgets;
    budgets.emplace("totalPerPhase",
                    util::Json(params.usableBudgetPerPhase()));
    doc.emplace("budgets", util::Json(std::move(budgets)));
    return util::Json(std::move(doc));
}

class Table4Loop : public Workload
{
  public:
    explicit Table4Loop(const Options &opt)
    {
        // Through text, as capmaestro_run reads a scenario file.
        const std::string text =
            util::serializeJson(table4Document(opt.seed), 0);
        auto scenario = config::loadScenario(util::parseJson(text));
        for (const auto &setup : scenario.servers)
            highPriority_.push_back(setup.spec.priority > 0);
        sim_ = std::make_unique<sim::ClosedLoopSim>(
            config::makeSimulation(std::move(scenario), opt.seed));
        transport_ = sim_->service().transport();
        if (!transport_)
            throw std::runtime_error("table4-loop: no message plane");
        tracer_.setKeep(4);
    }

    void runPeriod() override
    {
        if (!traced_) {
            sim_->run(kControlPeriod);
            return;
        }
        for (Seconds s = 0; s < kControlPeriod; ++s) {
            const bool control = sim_->now() > 0
                                 && sim_->now() % kControlPeriod == 0;
            const double t0 = nowMs();
            sim_->run(1);
            (control ? controlTickMs_ : plantTickMs_)
                .push_back(nowMs() - t0);
        }
    }

    bool checkPeriod(std::string &why) override
    {
        ++periods_;
        if (sim_->anyBreakerTripped()) {
            why = "a breaker tripped";
            return false;
        }
        auto &service = sim_->service();
        const auto &stats = service.lastStats();
        const auto &roots = service.rootBudgets();
        for (std::size_t t = 0; t < stats.budgetByTree.size(); ++t) {
            if (stats.budgetByTree[t] > roots[t] * (1.0 + 1e-9)) {
                why = "tree " + std::to_string(t) + " applied "
                      + std::to_string(stats.budgetByTree[t])
                      + " W over its root budget "
                      + std::to_string(roots[t]) + " W";
                return false;
            }
        }
        const auto &m = stats.messages;
        retries_ += static_cast<double>(m.retries + m.spoRetries);
        stale_ += static_cast<double>(m.staleReuses);
        defaults_ += static_cast<double>(m.defaultBudgets);
        if (m.retries + m.spoRetries + m.staleReuses + m.defaultBudgets
                + m.metricsLost
            != 0) {
            why = "the lossless plane took a degraded path";
            return false;
        }
        // Steady state: past the first periods, whose demand estimates
        // are still settling.
        if (periods_ > 2)
            spoCommits_ += m.spoCommittedTrees;

        // Global priority: high-priority servers run at least as fast
        // as low-priority ones on average.
        double hp = 0.0, lp = 0.0;
        std::size_t nhp = 0, nlp = 0;
        for (std::size_t i = 0; i < highPriority_.size(); ++i) {
            const double x = sim_->server(i).normalizedThroughput();
            if (highPriority_[i]) {
                hp += x;
                ++nhp;
            } else {
                lp += x;
                ++nlp;
            }
        }
        if (nhp && nlp
            && hp / static_cast<double>(nhp)
                   < lp / static_cast<double>(nlp)) {
            why = "high-priority mean throughput below low-priority";
            return false;
        }

        if (lit_ && !tracer_.periods().empty()) {
            const auto &trace = tracer_.periods().back();
            const auto close = trace.named("close");
            const auto apply = trace.named("apply");
            if (close.size() == 1 && apply.size() == 1) {
                closeMs_.push_back(spanMs(*close[0]));
                applyMs_.push_back(spanMs(*apply[0]));
                // Between the two: the allocation, whichever path (the
                // in-process allocator or the message plane) runs it.
                allocateMs_.push_back(
                    (apply[0]->beginUs - close[0]->endUs) / 1000.0);
            }
        }
        return true;
    }

    Counters counters() const override
    {
        Counters c;
        c.frames = static_cast<double>(transport_->stats().framesSent);
        c.bytes = static_cast<double>(transport_->stats().bytesSent);
        c.retries = retries_;
        c.staleReuses = stale_;
        c.defaultBudgets = defaults_;
        return c;
    }

    std::size_t warmupPeriods() const override { return 8; }

    void setTraced(bool on) override { traced_ = on; }

    void setLit() override
    {
        sim_->enableTelemetry(&registry_, &tracer_);
        lit_ = true;
    }

    bool finalCheck(std::string &why) override
    {
        if (spoCommits_ == 0) {
            why = "SPO never committed on any tree after period 2";
            return false;
        }
        return true;
    }

    std::vector<Metric> layerMetrics(const Window &, bool &ok,
                                     std::string &why) override
    {
        const double plant = quantile(plantTickMs_, 0.5);
        const double control = quantile(controlTickMs_, 0.5);
        if (plant > control) {
            ok = false;
            why = "plant tick longer than the control tick";
        }
        return {
            {"sim.plant_tick_ms", plant, "ms"},
            {"sim.control_tick_ms", control, "ms"},
            {"core.control_period_ms", control - plant, "ms"},
            {"control.close_ms", quantile(closeMs_, 0.5), "ms"},
            {"core.allocate_ms", quantile(allocateMs_, 0.5), "ms"},
            {"control.apply_ms", quantile(applyMs_, 0.5), "ms"},
        };
    }

  private:
    static double spanMs(const telemetry::TraceSpan &span)
    {
        return (span.endUs - span.beginUs) / 1000.0;
    }

    std::unique_ptr<sim::ClosedLoopSim> sim_;
    net::Transport *transport_ = nullptr;
    std::vector<bool> highPriority_;
    std::size_t periods_ = 0;
    std::size_t spoCommits_ = 0;
    double retries_ = 0.0;
    double stale_ = 0.0;
    double defaults_ = 0.0;

    bool traced_ = false;
    std::vector<double> plantTickMs_;
    std::vector<double> controlTickMs_;

    bool lit_ = false;
    telemetry::Registry registry_;
    telemetry::PeriodTracer tracer_;
    std::vector<double> closeMs_;
    std::vector<double> allocateMs_;
    std::vector<double> applyMs_;
};

} // namespace

std::unique_ptr<Workload>
makeTable4Loop(const Options &opt)
{
    return std::make_unique<Table4Loop>(opt);
}

} // namespace perfbench
