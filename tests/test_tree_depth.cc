/**
 * @file
 * Property tests for deep control trees (core::TreePlan depth 2-4):
 * on every seeded random topology, the distributed allocation — direct
 * exchange, lossless SimTransport message plane, and real 127.0.0.1
 * UDP sockets — must be bit-identical to the flat in-process
 * allocation (one monolithic ControlTree per power tree, the same
 * recursion FleetAllocator runs). This is the §4.3 associativity
 * claim: cutting the reduction at aggregator stations and chaining
 * fragments over a lossless exchange cannot change a single bit of
 * any leaf budget, at any depth, under any policy.
 *
 * Topologies are generated from the test seed: worker-plan depth 2-4
 * (0-2 aggregator tiers), per-level fan-out 1-64 (product bounded to
 * keep the suite fast), 1-2 feeds with structurally parallel trees.
 *
 * Under loss the message plane cannot be bit-identical, so deep plans
 * on a lossy SimTransport are held to the §4.5 safety invariants
 * instead: every edge ends each period with a budget or a default, and
 * degradation never hands out more than the root budget beyond the
 * floors of stations the plane could not see.
 *
 * Set CAPMAESTRO_NO_NET=1 to skip the UDP test (binds real sockets).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "control/control_tree.hh"
#include "core/distributed.hh"
#include "core/tree_plan.hh"
#include "net/transport.hh"
#include "net/udp_transport.hh"
#include "net/wire.hh"
#include "topology/power_system.hh"
#include "util/random.hh"

using namespace capmaestro;
using core::DistributedControlPlane;

namespace {

#define SKIP_WITHOUT_NET()                                            \
    do {                                                              \
        if (std::getenv("CAPMAESTRO_NO_NET") != nullptr)              \
            GTEST_SKIP() << "CAPMAESTRO_NO_NET is set";               \
    } while (0)

/** A seeded random deep system and the plan levels that cut it. */
struct DeepCase
{
    std::unique_ptr<topo::PowerSystem> sys;
    std::vector<std::uint32_t> aggLevels;
    std::size_t servers = 0;
    std::size_t feeds = 1;
    /** Breaker fan-out per level, root first, then supplies/edge. */
    std::vector<std::size_t> shape;
};

/**
 * Random topology for a depth-@p tiers worker plan: a uniform tree of
 * tiers breaker levels (root at height tiers-1, edge nodes at height
 * 0), replicated structurally parallel across 1-2 feeds. Fan-outs are
 * drawn log-uniformly from [1, 64] with the running leaf count capped,
 * so a single level can be wide without the product exploding.
 */
DeepCase
randomDeepCase(util::Rng &rng, std::uint32_t tiers)
{
    DeepCase out;
    out.feeds = rng.chance(0.5) ? 2 : 1;
    const std::size_t breaker_levels = tiers; // root .. edge nodes
    std::size_t leaves = 1;
    for (std::size_t level = 0; level < breaker_levels; ++level) {
        const std::size_t cap = std::max<std::size_t>(
            1, 48 / std::max<std::size_t>(leaves, 1));
        const auto max_pow = static_cast<std::int64_t>(
            cap >= 64 ? 6 : cap >= 32 ? 5 : cap >= 16 ? 4
            : cap >= 8 ? 3 : cap >= 4 ? 2 : cap >= 2 ? 1 : 0);
        const std::size_t fan = static_cast<std::size_t>(1)
                                << rng.uniformInt(0, max_pow);
        out.shape.push_back(fan);
        leaves *= fan;
    }
    // Supplies per edge node (the servers of one "rack").
    const auto per_edge =
        static_cast<std::size_t>(rng.uniformInt(1, 3));
    out.shape.push_back(per_edge);
    out.servers = leaves * per_edge;

    out.sys = std::make_unique<topo::PowerSystem>(
        static_cast<int>(out.feeds));
    for (std::size_t feed = 0; feed < out.feeds; ++feed) {
        auto tree = std::make_unique<topo::PowerTree>(
            static_cast<int>(feed), 0, "F" + std::to_string(feed));
        const Watts rating =
            static_cast<double>(out.servers) * 400.0;
        const auto root =
            tree->makeRoot(topo::NodeKind::Breaker, "root", rating);
        std::vector<topo::NodeId> frontier{root};
        for (std::size_t level = 0; level < breaker_levels; ++level) {
            std::vector<topo::NodeId> next;
            for (std::size_t p = 0; p < frontier.size(); ++p) {
                for (std::size_t c = 0; c < out.shape[level]; ++c) {
                    // Ratings shrink down the tree and sometimes bind.
                    const Watts r =
                        rating / static_cast<double>(leaves)
                        * static_cast<double>(
                              leaves >> std::min<std::size_t>(level, 5))
                        * 1.5;
                    next.push_back(tree->addChild(
                        frontier[p], topo::NodeKind::Breaker,
                        "b" + std::to_string(level) + "_"
                            + std::to_string(next.size()),
                        r));
                }
            }
            frontier = std::move(next);
        }
        std::size_t sid = 0;
        for (const auto edge : frontier) {
            for (std::size_t s = 0; s < per_edge; ++s, ++sid) {
                tree->addSupplyPort(
                    edge,
                    "s" + std::to_string(sid) + "."
                        + std::to_string(feed),
                    {static_cast<int>(sid), static_cast<int>(feed)});
            }
        }
        out.sys->addTree(std::move(tree));
    }
    for (std::uint32_t h = 1; h + 1 < tiers; ++h)
        out.aggLevels.push_back(h);
    return out;
}

/** Random leaf inputs for every supply of @p system. */
std::vector<std::pair<topo::ServerSupplyRef, ctrl::LeafInput>>
randomInputs(const topo::PowerSystem &system, util::Rng &rng)
{
    std::vector<std::pair<topo::ServerSupplyRef, ctrl::LeafInput>> out;
    for (const auto &tree : system.trees()) {
        for (const auto &ref : tree->suppliesUnder(tree->root())) {
            ctrl::LeafInput in;
            in.live = rng.chance(0.95);
            in.priority = static_cast<Priority>(rng.uniformInt(0, 3));
            in.capMin = rng.uniform(100.0, 150.0);
            in.demand = in.capMin + rng.uniform(0.0, 120.0);
            in.constraint = in.demand + rng.uniform(0.0, 60.0);
            out.emplace_back(ref, in);
        }
    }
    return out;
}

/** Flat reference: one monolithic ControlTree per power tree. */
std::vector<std::unique_ptr<ctrl::ControlTree>>
flatReference(const topo::PowerSystem &system, ctrl::TreePolicy policy)
{
    std::vector<std::unique_ptr<ctrl::ControlTree>> monos;
    for (const auto &tree : system.trees())
        monos.push_back(
            std::make_unique<ctrl::ControlTree>(*tree, policy));
    return monos;
}

/** The tree each supply ref draws from, per feed ordering. */
std::size_t
treeOf(const topo::PowerSystem &system,
       const topo::ServerSupplyRef &ref)
{
    return system.livePortsOf(ref.server).at(ref.supply).tree;
}

ctrl::TreePolicy
policyFor(std::uint64_t seed)
{
    switch (seed % 3) {
    case 0:
        return ctrl::TreePolicy::globalPriority();
    case 1:
        return ctrl::TreePolicy::localPriority();
    default:
        return ctrl::TreePolicy::noPriority();
    }
}

void
expectBitIdentical(
    DistributedControlPlane &dist,
    const std::vector<std::unique_ptr<ctrl::ControlTree>> &monos,
    const topo::PowerSystem &system,
    const std::vector<std::pair<topo::ServerSupplyRef,
                                ctrl::LeafInput>> &inputs,
    const std::string &what)
{
    for (const auto &[ref, in] : inputs) {
        const auto tree = treeOf(system, ref);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(dist.leafBudget(ref)),
                  std::bit_cast<std::uint64_t>(
                      monos[tree]->leafBudget(ref)))
            << what << ": supply " << ref.server << "." << ref.supply
            << " dist=" << dist.leafBudget(ref)
            << " flat=" << monos[tree]->leafBudget(ref);
    }
}

/**
 * A Transport that forwards to a SimTransport and records, per epoch,
 * the (tree, edge node) of every Budget frame it hands to a receiver —
 * what a leaf worker actually got, seen from outside the plane.
 */
class BudgetWatch : public net::Transport
{
  public:
    explicit BudgetWatch(net::SimTransport &inner) : inner_(inner) {}

    void send(Endpoint from, Endpoint to,
              std::vector<std::uint8_t> frame) override
    {
        inner_.send(from, to, std::move(frame));
    }

    std::vector<std::vector<std::uint8_t>> poll(Endpoint to) override
    {
        auto frames = inner_.poll(to);
        for (const auto &bytes : frames) {
            const auto frame = net::decodeFrame(bytes);
            if (frame && frame->type == net::MsgType::Budget) {
                delivered.insert({frame->epoch, frame->budget.tree,
                                  frame->budget.edgeNode});
            }
        }
        return frames;
    }

    void advanceTo(double ms) override { inner_.advanceTo(ms); }
    void advanceBy(double ms) override { inner_.advanceBy(ms); }
    double nowMs() const override { return inner_.nowMs(); }
    std::size_t inFlight() const override { return inner_.inFlight(); }
    const net::TransportStats &stats() const override
    {
        return inner_.stats();
    }
    void setTelemetry(telemetry::Registry *registry) override
    {
        inner_.setTelemetry(registry);
    }

    /** (epoch, tree, edge node) of every delivered Budget frame. */
    std::set<std::tuple<std::uint32_t, std::size_t, std::uint32_t>>
        delivered;

  private:
    net::SimTransport &inner_;
};

} // namespace

TEST(TreeDepth, DirectDeepPlaneBitIdenticalToFlatAllocator)
{
    // 18 seeded topologies, cycling worker-plan depth 2/3/4 and all
    // three policies; several input trials per topology.
    for (std::uint64_t seed = 0; seed < 18; ++seed) {
        util::Rng rng(1000 + seed * 7919);
        const auto tiers = static_cast<std::uint32_t>(2 + seed % 3);
        const auto c = randomDeepCase(rng, tiers);
        const auto policy = policyFor(seed);
        SCOPED_TRACE("seed " + std::to_string(seed) + " tiers "
                     + std::to_string(tiers) + " servers "
                     + std::to_string(c.servers));

        const auto plan = core::TreePlan::build(*c.sys, c.aggLevels);
        EXPECT_EQ(plan.tiers(), tiers);

        DistributedControlPlane dist(*c.sys, policy, c.aggLevels);
        auto monos = flatReference(*c.sys, policy);
        for (int trial = 0; trial < 4; ++trial) {
            const auto inputs = randomInputs(*c.sys, rng);
            std::vector<Watts> budgets;
            for (std::size_t t = 0; t < c.sys->trees().size(); ++t) {
                budgets.push_back(rng.uniform(
                    80.0 * static_cast<double>(c.servers),
                    260.0 * static_cast<double>(c.servers)));
            }
            for (const auto &[ref, in] : inputs) {
                dist.setLeafInput(ref, in);
                monos[treeOf(*c.sys, ref)]->setLeafInput(ref, in);
            }
            dist.iterate(budgets);
            for (std::size_t t = 0; t < monos.size(); ++t) {
                monos[t]->gather();
                monos[t]->allocate(budgets[t]);
            }
            expectBitIdentical(dist, monos, *c.sys, inputs,
                               "direct trial "
                                   + std::to_string(trial));
        }
    }
}

TEST(TreeDepth, LosslessSimPlaneBitIdenticalToFlatAllocator)
{
    // Same property through the §4.5 message plane: every hop a real
    // encoded frame over a lossless zero-latency SimTransport, with
    // zero degraded decisions expected at any depth.
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        util::Rng rng(9000 + seed * 104729);
        const auto tiers = static_cast<std::uint32_t>(2 + seed % 3);
        const auto c = randomDeepCase(rng, tiers);
        const auto policy = policyFor(seed + 1);
        SCOPED_TRACE("seed " + std::to_string(seed) + " tiers "
                     + std::to_string(tiers) + " servers "
                     + std::to_string(c.servers));

        net::SimTransport transport; // lossless, instantaneous
        DistributedControlPlane dist(*c.sys, policy, transport, {},
                                     c.aggLevels);
        auto monos = flatReference(*c.sys, policy);
        for (int trial = 0; trial < 3; ++trial) {
            const auto inputs = randomInputs(*c.sys, rng);
            std::vector<Watts> budgets;
            for (std::size_t t = 0; t < c.sys->trees().size(); ++t) {
                budgets.push_back(rng.uniform(
                    80.0 * static_cast<double>(c.servers),
                    260.0 * static_cast<double>(c.servers)));
            }
            for (const auto &[ref, in] : inputs) {
                dist.setLeafInput(ref, in);
                monos[treeOf(*c.sys, ref)]->setLeafInput(ref, in);
            }
            const auto stats = dist.iterate(budgets);
            EXPECT_EQ(stats.degraded.size(), 0u);
            EXPECT_EQ(stats.defaultBudgets, 0u);
            EXPECT_EQ(stats.staleReuses, 0u);
            EXPECT_GT(stats.bytesOnWire, 0u);
            for (std::size_t t = 0; t < monos.size(); ++t) {
                monos[t]->gather();
                monos[t]->allocate(budgets[t]);
            }
            expectBitIdentical(dist, monos, *c.sys, inputs,
                               "sim trial " + std::to_string(trial));
        }
    }
}

TEST(TreeDepth, UdpLoopbackPlaneBitIdenticalToFlatAllocator)
{
    SKIP_WITHOUT_NET();
    // One seeded topology per depth over real loopback sockets. The
    // deadline schedule is shrunk so a degraded period (which would
    // break bit-identity legitimately) is effectively impossible on
    // loopback yet the test stays fast.
    net::ProtocolConfig proto;
    proto.gatherDeadlineMs = 60.0;
    proto.budgetDeadlineMs = 60.0;
    proto.retryTimeoutMs = 15.0;

    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        util::Rng rng(42000 + seed * 31337);
        const auto tiers = static_cast<std::uint32_t>(2 + seed);
        const auto c = randomDeepCase(rng, tiers);
        const auto policy = policyFor(seed);
        SCOPED_TRACE("seed " + std::to_string(seed) + " tiers "
                     + std::to_string(tiers) + " servers "
                     + std::to_string(c.servers));

        const auto plan = core::TreePlan::build(*c.sys, c.aggLevels);
        net::UdpTransport transport(net::UdpConfig::loopback(
            static_cast<std::uint32_t>(plan.workers.size())));
        DistributedControlPlane dist(*c.sys, policy, transport, proto,
                                     c.aggLevels);
        auto monos = flatReference(*c.sys, policy);
        for (int trial = 0; trial < 2; ++trial) {
            const auto inputs = randomInputs(*c.sys, rng);
            std::vector<Watts> budgets;
            for (std::size_t t = 0; t < c.sys->trees().size(); ++t) {
                budgets.push_back(rng.uniform(
                    80.0 * static_cast<double>(c.servers),
                    260.0 * static_cast<double>(c.servers)));
            }
            for (const auto &[ref, in] : inputs) {
                dist.setLeafInput(ref, in);
                monos[treeOf(*c.sys, ref)]->setLeafInput(ref, in);
            }
            const auto stats = dist.iterate(budgets);
            ASSERT_EQ(stats.degraded.size(), 0u)
                << "UDP loopback run degraded; bit-identity does not "
                   "apply (rerun: seed "
                << seed << ")";
            for (std::size_t t = 0; t < monos.size(); ++t) {
                monos[t]->gather();
                monos[t]->allocate(budgets[t]);
            }
            expectBitIdentical(dist, monos, *c.sys, inputs,
                               "udp trial " + std::to_string(trial));
        }
    }
}

TEST(TreeDepth, PlanShapesAreSound)
{
    // Structural invariants of every generated plan: tier sizes
    // telescope, every non-root worker's parent sits exactly one tier
    // up (uniform trees), children partition the tier below, and leaf
    // workers match the 2-level partitioning rule.
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        util::Rng rng(500 + seed * 2477);
        const auto tiers = static_cast<std::uint32_t>(2 + seed % 3);
        const auto c = randomDeepCase(rng, tiers);
        const auto plan = core::TreePlan::build(*c.sys, c.aggLevels);
        SCOPED_TRACE("seed " + std::to_string(seed));

        EXPECT_EQ(plan.tiers(), tiers);
        EXPECT_EQ(plan.leafWorkers,
                  DistributedControlPlane::rackWorkerCountFor(*c.sys));
        std::size_t counted = 0;
        for (std::uint32_t t = 0; t < tiers; ++t)
            counted += plan.tierEndpoints(t).size();
        EXPECT_EQ(counted, plan.workers.size());
        EXPECT_EQ(plan.tierEndpoints(tiers - 1).size(), 1u);

        std::set<std::uint32_t> seen_children;
        for (const auto &w : plan.workers) {
            if (w.isRoot()) {
                EXPECT_EQ(w.tier, tiers - 1);
            } else {
                ASSERT_LT(w.parent, plan.workers.size());
                EXPECT_EQ(plan.workers[w.parent].tier, w.tier + 1);
            }
            for (const auto child : w.children) {
                EXPECT_TRUE(seen_children.insert(child).second)
                    << "worker " << child << " has two parents";
                EXPECT_EQ(plan.workers[child].parent, w.endpoint);
            }
        }
        EXPECT_EQ(seen_children.size(), plan.workers.size() - 1);
    }
}

TEST(TreeDepth, LossySimPlaneKeepsSafetyInvariants)
{
    // Depth-3 and depth-4 plans on a SimTransport that drops,
    // duplicates and reorders frames, 100 periods each. Leaf inputs
    // stay fixed, so a stale summary equals the fresh one, and floors
    // (10-20 W per supply) sit far below every breaker rating, so the
    // §4.3 floors-first split never grants an edge less than its
    // default. Every period then must satisfy:
    //  - each edge either received a Budget frame or applied the
    //    Pcap_min default (exactly one of the two);
    //  - per tree, the leaf budgets sum to at most the root budget,
    //    plus the floors beneath stations whose metrics were lost
    //    (their parent split its budget without them, so a default
    //    there is the only way past the root budget);
    //  - the degraded counters equal the decisions of each kind.
    int case_index = 0;
    for (const std::uint32_t tiers : {3u, 4u}) {
        for (const double drop : {0.1, 0.3}) {
            ++case_index;
            util::Rng rng(77000 + static_cast<std::uint64_t>(case_index)
                                      * 6151);
            const auto c = randomDeepCase(rng, tiers);
            const auto policy =
                policyFor(static_cast<std::uint64_t>(case_index));
            SCOPED_TRACE("tiers " + std::to_string(tiers) + " drop "
                         + std::to_string(drop) + " servers "
                         + std::to_string(c.servers));
            ASSERT_EQ(core::TreePlan::build(*c.sys, c.aggLevels).tiers(),
                      tiers);

            net::TransportConfig cfg;
            cfg.dropRate = drop;
            cfg.dupRate = 0.1;
            cfg.reorderRate = 0.2;
            cfg.seed = 500 + static_cast<std::uint64_t>(case_index);
            net::SimTransport sim(cfg);
            BudgetWatch watch(sim);
            DistributedControlPlane dist(*c.sys, policy, watch, {},
                                         c.aggLevels);

            // Fixed inputs; per-tree floor and demand totals.
            const std::size_t trees = c.sys->trees().size();
            std::vector<Watts> floors(trees, 0.0), demand(trees, 0.0);
            std::vector<std::pair<topo::ServerSupplyRef,
                                  ctrl::LeafInput>> inputs;
            for (std::size_t t = 0; t < trees; ++t) {
                const auto &tree = c.sys->tree(t);
                for (const auto &ref : tree.suppliesUnder(tree.root())) {
                    ctrl::LeafInput in;
                    in.live = rng.chance(0.95);
                    in.priority =
                        static_cast<Priority>(rng.uniformInt(0, 3));
                    in.capMin = rng.uniform(10.0, 20.0);
                    in.demand = in.capMin + rng.uniform(80.0, 200.0);
                    in.constraint = in.demand + rng.uniform(0.0, 60.0);
                    dist.setLeafInput(ref, in);
                    inputs.emplace_back(ref, in);
                    if (in.live) {
                        floors[t] += in.capMin;
                        demand[t] += in.demand;
                    }
                }
            }
            std::vector<Watts> budgets(trees);
            for (std::size_t t = 0; t < trees; ++t) {
                budgets[t] = rng.uniform(1.5 * floors[t],
                                         std::max(1.5 * floors[t],
                                                  demand[t]));
            }
            const auto edges =
                DistributedControlPlane::partitionEdges(*c.sys);

            std::size_t degraded_periods = 0;
            for (int period = 0; period < 100; ++period) {
                const auto stats = dist.iterate(budgets);
                const std::uint32_t epoch = dist.epoch();
                if (!stats.degraded.empty())
                    ++degraded_periods;

                std::size_t stale = 0, lost = 0, defaults = 0;
                std::set<std::pair<std::size_t, topo::NodeId>>
                    defaulted;
                std::vector<std::vector<topo::NodeId>> lost_at(trees);
                for (const auto &d : stats.degraded) {
                    switch (d.kind) {
                    case core::DegradedKind::StaleMetricsReused:
                        ++stale;
                        break;
                    case core::DegradedKind::MetricsLost:
                        ++lost;
                        lost_at[d.tree].push_back(d.node);
                        break;
                    case core::DegradedKind::DefaultBudgetApplied:
                        ++defaults;
                        EXPECT_TRUE(
                            defaulted.insert({d.tree, d.node}).second)
                            << "edge defaulted twice";
                        break;
                    default:
                        ADD_FAILURE() << "unexpected degraded kind "
                                      << core::degradedKindName(d.kind);
                    }
                }
                ASSERT_EQ(stats.staleReuses, stale) << "period " << period;
                ASSERT_EQ(stats.metricsLost, lost) << "period " << period;
                ASSERT_EQ(stats.defaultBudgets, defaults)
                    << "period " << period;

                for (const auto &per_rack : edges) {
                    for (const auto &[t, node] : per_rack) {
                        const bool got = watch.delivered.count(
                            {epoch, t, static_cast<std::uint32_t>(node)});
                        const bool fell_back = defaulted.count({t, node});
                        ASSERT_NE(got, fell_back)
                            << "period " << period << " tree " << t
                            << " edge " << node << ": budget " << got
                            << " default " << fell_back;
                    }
                }

                for (std::size_t t = 0; t < trees; ++t) {
                    std::set<std::pair<int, int>> unseen;
                    for (const topo::NodeId s : lost_at[t]) {
                        for (const auto &ref :
                             c.sys->tree(t).suppliesUnder(s))
                            unseen.insert({ref.server, ref.supply});
                    }
                    Watts total = 0.0, allowance = 0.0;
                    for (const auto &[ref, in] : inputs) {
                        if (treeOf(*c.sys, ref) != t)
                            continue;
                        total += dist.leafBudget(ref);
                        if (in.live
                            && unseen.count({ref.server, ref.supply}))
                            allowance += in.capMin;
                    }
                    ASSERT_LE(total, budgets[t] + allowance + 1e-6)
                        << "period " << period << " tree " << t;
                }
                watch.delivered.clear();
            }
            // At 30 % drop the fault model must actually bite (at 10 %
            // four attempts per hop leave ~1e-4 loss, often none).
            if (drop > 0.2)
                EXPECT_GT(degraded_periods, 0u);
        }
    }
}
