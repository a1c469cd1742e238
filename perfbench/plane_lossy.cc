/**
 * @file
 * plane-lossy: the 2-level core::DistributedControlPlane over the full
 * three-phase Table-4 center (5832 servers, 11,664 supplies, 6 trees,
 * 162 rack workers) on a SimTransport with seeded drop, duplication,
 * reordering and latency. There is no plant and no syscall: each
 * period the supply leaf inputs take a seeded random walk and the plane
 * runs one message-plane round (iterate), so the work is the §4.5
 * retry/stale/default path plus gather/budget at wide fan-in.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "control/control_tree.hh"
#include "core/distributed.hh"
#include "net/transport.hh"
#include "probe.hh"
#include "sim/datacenter.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace capmaestro;

/** Root budget of every tree: binds against ~370 kW of demand. */
constexpr Watts kRootBudget = 332500.0;
constexpr Watts kLeafMin = 135.0;
constexpr Watts kLeafMax = 245.0;
/** Largest per-period step of a leaf's demand walk. */
constexpr Watts kWalkStep = 10.0;

net::TransportConfig
lossyTransport(std::uint64_t seed)
{
    net::TransportConfig cfg;
    cfg.dropRate = 0.1;
    cfg.dupRate = 0.02;
    cfg.latencyMeanMs = 2.0;
    cfg.latencyJitterMs = 1.0;
    cfg.reorderRate = 0.05;
    cfg.reorderExtraMs = 10.0;
    cfg.seed = seed;
    return cfg;
}

/** One supply leaf: where it sits and what it reports. */
struct Leaf
{
    std::size_t tree = 0;
    topo::ServerSupplyRef ref;
    ctrl::LeafInput input;
};

/** One edge (rack) controller of the partition. */
struct Edge
{
    std::size_t tree = 0;
    Watts limit = 0.0;
    std::vector<std::size_t> leaves;
};

class PlaneLossy : public Workload
{
  public:
    explicit PlaneLossy(const Options &opt)
        : dc_(buildCenter()), rng_(opt.seed),
          sim_(lossyTransport(opt.seed ^ 0x9e3779b97f4a7c15ULL)),
          timing_(sim_),
          plane_(*dc_.system, ctrl::TreePolicy::globalPriority(), timing_),
          direct_(*dc_.system, ctrl::TreePolicy::globalPriority())
    {
        const auto &system = *dc_.system;
        std::map<std::int32_t, Priority> priority;
        for (std::size_t t = 0; t < system.trees().size(); ++t) {
            const auto &tree = system.tree(t);
            monolithic_.push_back(std::make_unique<ctrl::ControlTree>(
                tree, ctrl::TreePolicy::globalPriority()));
            for (const auto &ref : tree.suppliesUnder(tree.root())) {
                if (!priority.count(ref.server))
                    priority[ref.server] = rng_.chance(0.3) ? 1 : 0;
                Leaf leaf;
                leaf.tree = t;
                leaf.ref = ref;
                leaf.input.live = true;
                leaf.input.priority = priority[ref.server];
                leaf.input.capMin = kLeafMin;
                leaf.input.demand = rng_.uniform(kLeafMin, kLeafMax);
                leaf.input.constraint = kLeafMax;
                leafIndex_[{t, ref.server, ref.supply}] = leaves_.size();
                leaves_.push_back(leaf);
            }
        }
        for (const auto &edges :
             core::DistributedControlPlane::partitionEdges(system)) {
            for (const auto &[t, node] : edges) {
                Edge edge;
                edge.tree = t;
                edge.limit = system.tree(t).node(node).limit();
                for (const auto &ref : system.tree(t).suppliesUnder(node))
                    edge.leaves.push_back(
                        leafIndex_.at({t, ref.server, ref.supply}));
                edges_.push_back(std::move(edge));
            }
        }
        budgets_.assign(system.trees().size(), kRootBudget);
        tracer_.setKeep(4);
        walkInputs();
    }

    void runPeriod() override
    {
        if (lit_) {
            tracer_.beginPeriod(++litPeriods_);
            last_ = plane_.iterate(budgets_);
            tracer_.endPeriod();
        } else {
            last_ = plane_.iterate(budgets_);
        }
        retries_ += static_cast<double>(last_.retries);
        stale_ += static_cast<double>(last_.staleReuses);
        defaults_ += static_cast<double>(last_.defaultBudgets);
    }

    bool checkPeriod(std::string &why) override
    {
        ++checked_;
        timing_.endPeriod();
        if (traced_)
            directRound();
        const bool ok = checkBudgets(why);
        // The next period's inputs, prepared outside the timed round.
        walkInputs();
        return ok;
    }

    /** The period's checks, on the inputs it ran with. */
    bool checkBudgets(std::string &why)
    {
        // Budget safety on every period, degraded or not.
        std::vector<Watts> tree_sum(budgets_.size(), 0.0);
        for (const Edge &edge : edges_) {
            Watts b = 0.0;
            for (const std::size_t i : edge.leaves)
                b += plane_.leafBudget(leaves_[i].ref);
            if (b < 0.0 || b > edge.limit * (1.0 + 1e-9)) {
                why = "edge budget " + std::to_string(b)
                      + " W outside [0, " + std::to_string(edge.limit)
                      + "]";
                return false;
            }
            tree_sum[edge.tree] += b;
        }
        for (std::size_t t = 0; t < tree_sum.size(); ++t) {
            if (tree_sum[t] > budgets_[t] * (1.0 + 1e-9)) {
                why = "tree " + std::to_string(t) + " edge budgets sum to "
                      + std::to_string(tree_sum[t]) + " W";
                return false;
            }
        }
        if (!last_.degraded.empty()) {
            ++degradedPeriods_;
            return true;
        }

        // No degraded decision: the plane must agree with the
        // monolithic ControlTree fed the same leaf inputs.
        for (std::size_t t = 0; t < monolithic_.size(); ++t) {
            monolithic_[t]->gather();
            monolithic_[t]->allocate(budgets_[t]);
        }
        for (const Leaf &leaf : leaves_) {
            const Watts want = monolithic_[leaf.tree]->leafBudget(leaf.ref);
            const Watts got = plane_.leafBudget(leaf.ref);
            if (got != want) {
                why = "leaf budget " + std::to_string(got)
                      + " W differs from the monolithic tree's "
                      + std::to_string(want) + " W";
                return false;
            }
        }
        return true;
    }

    Counters counters() const override
    {
        Counters c;
        c.frames = static_cast<double>(sim_.stats().framesSent);
        c.bytes = static_cast<double>(sim_.stats().bytesSent);
        c.retries = retries_;
        c.staleReuses = stale_;
        c.defaultBudgets = defaults_;
        return c;
    }

    std::size_t warmupPeriods() const override { return 10; }

    void setTraced(bool on) override
    {
        traced_ = on;
        timing_.setTraced(on);
    }

    void setLit() override
    {
        plane_.setTelemetry(&registry_, &tracer_);
        timing_.setTelemetry(&registry_);
        lit_ = true;
    }

    bool finalCheck(std::string &why) override
    {
        if (degradedPeriods_ == checked_) {
            why = "every period degraded: nothing compared to the "
                  "monolithic tree";
            return false;
        }
        return true;
    }

    std::vector<Metric> layerMetrics(const Window &traced, bool &ok,
                                     std::string &why) override
    {
        // The rest of a round: the plane's own protocol and §4.3 work.
        auto layers =
            timing_.layerMetrics(traced, "core.plane_ms_per_period", ok, why);
        const double direct = quantile(directMs_, 0.5);
        const double round = traced.p50();
        std::printf("message-plane round p50 %.3f ms / direct round p50 "
                    "%.3f ms (n=%zu)\n",
                    round, direct, directMs_.size());
        layers.push_back({"core.direct_round_ms", direct, "ms"});
        layers.push_back({"net.overhead_ratio", round / direct, "ratio"});
        layers.push_back({"core.degraded_period_share",
                          static_cast<double>(degradedPeriods_)
                              / static_cast<double>(checked_),
                          "ratio"});
        return layers;
    }

  private:
    static sim::DataCenter buildCenter()
    {
        sim::DataCenterParams params;
        params.phases = 3;
        params.serversPerRackPerPhase = 12;
        return sim::buildDataCenter(params);
    }

    /** Seeded random walk of every leaf's demand, fed to every model. */
    void walkInputs()
    {
        for (Leaf &leaf : leaves_) {
            leaf.input.demand =
                std::clamp(leaf.input.demand
                               + rng_.uniform(-kWalkStep, kWalkStep),
                           kLeafMin, kLeafMax);
            plane_.setLeafInput(leaf.ref, leaf.input);
            monolithic_[leaf.tree]->setLeafInput(leaf.ref, leaf.input);
        }
    }

    /** The same round through a direct-mode plane (the compute floor). */
    void directRound()
    {
        for (const Leaf &leaf : leaves_)
            direct_.setLeafInput(leaf.ref, leaf.input);
        const double t0 = nowMs();
        direct_.iterate(budgets_);
        directMs_.push_back(nowMs() - t0);
    }

    sim::DataCenter dc_;
    util::Rng rng_;
    net::SimTransport sim_;
    TimingTransport timing_;
    core::DistributedControlPlane plane_;
    core::DistributedControlPlane direct_;
    std::vector<std::unique_ptr<ctrl::ControlTree>> monolithic_;
    std::vector<Leaf> leaves_;
    std::map<std::tuple<std::size_t, std::int32_t, std::int32_t>,
             std::size_t>
        leafIndex_;
    std::vector<Edge> edges_;
    std::vector<Watts> budgets_;

    core::MessageStats last_;
    double retries_ = 0.0;
    double stale_ = 0.0;
    double defaults_ = 0.0;
    std::size_t checked_ = 0;
    std::size_t degradedPeriods_ = 0;

    bool traced_ = false;
    std::vector<double> directMs_;

    bool lit_ = false;
    std::uint64_t litPeriods_ = 0;
    telemetry::Registry registry_;
    telemetry::PeriodTracer tracer_;
};

} // namespace

std::unique_ptr<Workload>
makePlaneLossy(const Options &opt)
{
    return std::make_unique<PlaneLossy>(opt);
}

} // namespace perfbench
