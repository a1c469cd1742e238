/**
 * @file
 * deep-udp: one rt::WorkerHost hosting a whole depth-4 control tree —
 * 4096 leaf workers, 128 + 8 aggregators and the root — over real
 * loopback UdpTransport sockets, lossless, completeness-paced and dark
 * (no telemetry). Each leaf worker owns one rack breaker with one
 * single-supply server at a seeded constant utilization; 30 % of the
 * servers (seeded) are high priority. The root budget (330 W per leaf)
 * sits between the sum of the floors and the sum of the demands, so
 * every period runs a binding priority-aware split through every tier.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/loader.hh"
#include "core/tree_plan.hh"
#include "device/server.hh"
#include "device/workload.hh"
#include "net/udp_transport.hh"
#include "probe.hh"
#include "rt/host.hh"
#include "rt/plant.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace capmaestro;

constexpr std::size_t kLeaves = 4096;
/** Fan-outs below the root: 8 tier-2 and 128 tier-1 aggregators. */
const std::vector<std::size_t> kInterior{8, 16};
constexpr Watts kRootPerLeaf = 330.0;

/** What the checks know about each leaf edge. */
struct LeafFacts
{
    bool highPriority = false;
    /** Config-nominal floor (the allocator's Pcap_min for the edge). */
    Watts floor = 0.0;
    /** AC demand from the server model at its utilization, capped by
     *  the edge breaker's limit. */
    Watts demand = 0.0;
};

config::LoadedScenario
deepScenario(std::uint64_t seed)
{
    config::LoadedScenario out;
    out.system = std::make_unique<topo::PowerSystem>(1);
    auto tree = std::make_unique<topo::PowerTree>(0, 0, "F0");
    const auto leaves_d = static_cast<double>(kLeaves);
    const auto root = tree->makeRoot(topo::NodeKind::Breaker, "root",
                                     leaves_d * 500.0);
    std::vector<topo::NodeId> frontier{root};
    std::size_t rows = 1;
    for (std::size_t level = 0; level < kInterior.size(); ++level) {
        rows *= kInterior[level];
        std::vector<topo::NodeId> next;
        for (const auto parent : frontier) {
            for (std::size_t c = 0; c < kInterior[level]; ++c) {
                next.push_back(tree->addChild(
                    parent, topo::NodeKind::Breaker,
                    "i" + std::to_string(level) + "_"
                        + std::to_string(next.size()),
                    leaves_d * 500.0 / static_cast<double>(rows)));
            }
        }
        frontier = std::move(next);
    }
    const std::size_t per_row = kLeaves / frontier.size();
    std::size_t sid = 0;
    for (const auto row : frontier) {
        for (std::size_t r = 0; r < per_row; ++r, ++sid) {
            const auto edge =
                tree->addChild(row, topo::NodeKind::Breaker,
                               "rack" + std::to_string(sid), 600.0);
            tree->addSupplyPort(edge, "s" + std::to_string(sid),
                                {static_cast<int>(sid), 0});
        }
    }
    out.system->addTree(std::move(tree));

    util::Rng rng(seed);
    for (std::size_t s = 0; s < kLeaves; ++s) {
        sim::ServerSetup setup;
        setup.spec.name = "S" + std::to_string(s);
        setup.spec.idle = 160.0;
        setup.spec.capMin = 270.0;
        setup.spec.capMax = 490.0;
        setup.spec.priority = rng.chance(0.3) ? 1 : 0;
        setup.spec.supplies = {{1.0, 0.94}};
        setup.workload = std::make_unique<dev::ConstantWorkload>(
            rng.uniform(0.5, 0.95));
        out.servers.push_back(std::move(setup));
    }

    out.service.controlPeriod = 1;
    out.service.policy = policy::PolicyKind::GlobalPriority;
    out.service.enableSpo = false;
    // Completeness pacing: on a lossless loopback these deadlines never
    // fire, so the period is pure protocol work.
    out.service.protocol.gatherDeadlineMs = 10000.0;
    out.service.protocol.budgetDeadlineMs = 10000.0;
    out.rootBudgets = {leaves_d * kRootPerLeaf};
    out.totalPerPhase = out.rootBudgets[0];
    return out;
}

class DeepUdp : public Workload
{
  public:
    explicit DeepUdp(const Options &opt)
    {
        auto scenario = deepScenario(opt.seed);
        const auto &system = *scenario.system;
        const auto floors = rt::nominalEdgeFloors(system, scenario);
        Watts floor_sum = 0.0, demand_sum = 0.0;
        for (const auto &[key, floor] : floors) {
            const auto &node = system.tree(key.first).node(key.second);
            const auto &ref =
                *system.tree(key.first).node(node.children.front()).supplyRef;
            const auto &setup =
                scenario.servers[static_cast<std::size_t>(ref.server)];
            dev::ServerModel model(setup.spec);
            LeafFacts facts;
            facts.highPriority = setup.spec.priority > 0;
            facts.floor = floor;
            facts.demand = std::min(
                model.demandAcAt(setup.workload->utilizationAt(0)),
                node.limit());
            facts_[key] = facts;
            floor_sum += floor;
            demand_sum += facts.demand;
        }
        rootBudget_ = scenario.rootBudgets.front();
        if (!(floor_sum < rootBudget_ && rootBudget_ < demand_sum))
            throw std::runtime_error("deep-udp: root budget does not bind");

        const std::vector<std::uint32_t> agg_levels{1, 2};
        const auto plan = core::TreePlan::build(system, agg_levels);
        config::WorkerPeers peers;
        peers.aggLevels = agg_levels;
        for (std::size_t e = 0; e < plan.workers.size(); ++e)
            peers.peers[static_cast<net::Transport::Endpoint>(e)] =
                net::UdpPeer{"127.0.0.1", 0};

        auto udp = net::UdpConfig::loopback(
            static_cast<std::uint32_t>(plan.workers.size()));
        // As WorkerHost sizes its own sockets: a whole fan-in burst fits.
        udp.bufferBytes = 4 << 20;
        udp_ = std::make_unique<net::UdpTransport>(std::move(udp));
        timing_ = std::make_unique<TimingTransport>(*udp_);
        host_ = std::make_unique<rt::WorkerHost>(
            std::move(scenario), std::move(peers), 0, opt.seed, *timing_);
        last_ = host_->stats();
        tracer_.setKeep(4);
    }

    void runPeriod() override { host_->runPeriods(1); }

    bool checkPeriod(std::string &why) override
    {
        timing_->endPeriod();
        const rt::RuntimeStats &now = host_->stats();
        const rt::RuntimeStats before = std::exchange(last_, now);
        if (now.budgetsApplied - before.budgetsApplied != kLeaves) {
            why = "only "
                  + std::to_string(now.budgetsApplied
                                   - before.budgetsApplied)
                  + " leaves applied a budget";
            return false;
        }
        if (now.defaultBudgets != before.defaultBudgets
            || now.staleReuses != before.staleReuses
            || now.metricsLost != before.metricsLost
            || now.catchUpPeriods != before.catchUpPeriods) {
            why = "a degraded or catch-up path ran on a lossless tree";
            return false;
        }
        // §4.3 conservation: a binding root budget is split exactly.
        const auto &budgets = host_->lastEdgeBudgets();
        Watts sum = 0.0;
        for (const auto &[key, watts] : budgets)
            sum += watts;
        if (budgets.size() != kLeaves
            || std::abs(sum - rootBudget_) > 1e-9 * rootBudget_) {
            why = "leaf budgets sum to " + std::to_string(sum)
                  + " W, root budget " + std::to_string(rootBudget_) + " W";
            return false;
        }

        // Priority dominance: no low-priority leaf above its floor while
        // a high-priority leaf is below its demand.
        bool lp_above_floor = false;
        bool hp_below_demand = false;
        for (const auto &[key, watts] : budgets) {
            const LeafFacts &f = facts_.at(key);
            if (!f.highPriority && watts > f.floor * (1.0 + kDemandTol))
                lp_above_floor = true;
            if (f.highPriority && watts < f.demand * (1.0 - kDemandTol))
                hp_below_demand = true;
        }
        if (lp_above_floor && hp_below_demand) {
            why = "a low-priority leaf is above its floor while a "
                  "high-priority leaf is below its demand";
            return false;
        }
        return true;
    }

    Counters counters() const override
    {
        Counters c;
        c.frames = static_cast<double>(udp_->stats().framesSent);
        c.bytes = static_cast<double>(udp_->stats().bytesSent);
        c.retries = static_cast<double>(host_->stats().retries);
        c.staleReuses = static_cast<double>(host_->stats().staleReuses);
        c.defaultBudgets = static_cast<double>(host_->stats().defaultBudgets);
        return c;
    }

    std::size_t warmupPeriods() const override { return 5; }

    void setTraced(bool on) override { timing_->setTraced(on); }

    void setLit() override { host_->setTelemetry(&registry_, &tracer_); }

    std::vector<Metric> layerMetrics(const Window &traced, bool &ok,
                                     std::string &why) override
    {
        // The rest of a period: the leaf and aggregator roles and the
        // leaves' plants.
        return timing_->layerMetrics(traced, "rt.roles_ms_per_period", ok,
                                     why);
    }

  private:
    /** Relative slack between the model's demand and the plant's own
     *  sensor-based estimate that the allocator sees (high-priority
     *  leaves were seen at >= 98.8 % of the model's demand). */
    static constexpr double kDemandTol = 0.03;

    std::unique_ptr<net::UdpTransport> udp_;
    std::unique_ptr<TimingTransport> timing_;
    std::unique_ptr<rt::WorkerHost> host_;
    std::map<std::pair<std::size_t, topo::NodeId>, LeafFacts> facts_;
    Watts rootBudget_ = 0.0;
    rt::RuntimeStats last_;

    telemetry::Registry registry_;
    telemetry::PeriodTracer tracer_;
};

} // namespace

std::unique_ptr<Workload>
makeDeepUdp(const Options &opt)
{
    return std::make_unique<DeepUdp>(opt);
}

} // namespace perfbench
