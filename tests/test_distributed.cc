/**
 * @file
 * Tests for the distributed (rack-worker / room-worker) execution of the
 * capping algorithm (§5): equivalence with the monolithic ControlTree
 * under every policy, message accounting, partition behavior, and the
 * §4.5 fault-tolerant protocol over the simulated message plane
 * (lossless bit-equivalence, stale-metric reuse, default budgets,
 * worker failover, safety under frame loss, owner-only reporting, and
 * the locked frame schedule of the 2-level plane).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "control/control_tree.hh"
#include "core/distributed.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "sim/datacenter.hh"
#include "sim/scenario.hh"
#include "util/random.hh"

using namespace capmaestro;
using core::DistributedControlPlane;

namespace {

/** Random leaf inputs for every supply of @p system. */
std::vector<std::pair<topo::ServerSupplyRef, ctrl::LeafInput>>
randomInputs(const topo::PowerSystem &system, util::Rng &rng)
{
    std::vector<std::pair<topo::ServerSupplyRef, ctrl::LeafInput>> out;
    for (const auto &tree : system.trees()) {
        for (const auto &ref : tree->suppliesUnder(tree->root())) {
            ctrl::LeafInput in;
            in.live = rng.chance(0.9);
            in.priority = static_cast<Priority>(rng.uniformInt(0, 3));
            in.capMin = rng.uniform(100.0, 150.0);
            in.demand = in.capMin + rng.uniform(0.0, 120.0);
            in.constraint = in.demand + rng.uniform(0.0, 60.0);
            out.emplace_back(ref, in);
        }
    }
    return out;
}

/**
 * Base for transports that wrap a SimTransport: forwards everything.
 * Subclasses override send() to observe or tamper with frames.
 */
class SimWrapper : public net::Transport
{
  public:
    explicit SimWrapper(net::SimTransport &inner) : inner_(inner) {}

    void send(Endpoint from, Endpoint to,
              std::vector<std::uint8_t> frame) override
    {
        inner_.send(from, to, std::move(frame));
    }
    std::vector<std::vector<std::uint8_t>> poll(Endpoint to) override
    {
        return inner_.poll(to);
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

  protected:
    net::SimTransport &inner_;
};

/**
 * FNV-1a (64-bit) over every send's (from, to, type, sender, epoch,
 * seq, length) — the frame schedule without the payload bytes, so the
 * hash does not depend on floating-point results.
 */
class ScheduleHasher : public SimWrapper
{
  public:
    using SimWrapper::SimWrapper;

    void send(Endpoint from, Endpoint to,
              std::vector<std::uint8_t> frame) override
    {
        const auto decoded = net::decodeFrame(frame);
        EXPECT_TRUE(decoded.has_value());
        if (decoded) {
            mix(from, 4);
            mix(to, 4);
            mix(static_cast<std::uint8_t>(decoded->type), 1);
            mix(decoded->sender, 2);
            mix(decoded->epoch, 4);
            mix(decoded->seq, 4);
            mix(frame.size(), 8);
        }
        ++sends;
        SimWrapper::send(from, to, std::move(frame));
    }

    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::size_t sends = 0;

  private:
    void mix(std::uint64_t value, int bytes)
    {
        for (int i = 0; i < bytes; ++i) {
            hash ^= (value >> (8 * i)) & 0xFF;
            hash *= 0x100000001b3ULL;
        }
    }
};

/**
 * Drops every Metrics frame rack 1 sends; with @c forge set, sends in
 * its place a current-epoch Metrics frame from rack 0 claiming rack
 * 1's edge, carrying a huge top-priority demand.
 */
class ForgeRackOneMetrics : public SimWrapper
{
  public:
    ForgeRackOneMetrics(net::SimTransport &inner, bool forge)
        : SimWrapper(inner), forge_(forge)
    {
    }

    void send(Endpoint from, Endpoint to,
              std::vector<std::uint8_t> frame) override
    {
        if (from == 1) {
            const auto decoded = net::decodeFrame(frame);
            if (decoded && decoded->type == net::MsgType::Metrics) {
                if (forge_) {
                    net::MetricsMsg msg = decoded->metrics;
                    msg.metrics.clear();
                    msg.metrics.accumulate(3, 400.0, 5000.0, 5000.0);
                    msg.metrics.setConstraint(5000.0);
                    SimWrapper::send(
                        0, to,
                        net::encodeMetrics({0, decoded->epoch, 0xF0F0},
                                           msg));
                }
                return;
            }
        }
        SimWrapper::send(from, to, std::move(frame));
    }

  private:
    bool forge_;
};

} // namespace

TEST(Distributed, EquivalentToMonolithicOnFig2)
{
    util::Rng rng(404);
    auto sys = sim::fig2System();
    for (const auto policy :
         {ctrl::TreePolicy::globalPriority(),
          ctrl::TreePolicy::localPriority(),
          ctrl::TreePolicy::noPriority()}) {
        ctrl::ControlTree mono(sys->tree(0), policy);
        DistributedControlPlane dist(*sys, policy);

        for (int trial = 0; trial < 20; ++trial) {
            const auto inputs = randomInputs(*sys, rng);
            for (const auto &[ref, in] : inputs) {
                mono.setLeafInput(ref, in);
                dist.setLeafInput(ref, in);
            }
            const Watts budget = rng.uniform(600.0, 1600.0);
            mono.gather();
            mono.allocate(budget);
            dist.iterate({budget});
            for (const auto &[ref, in] : inputs) {
                EXPECT_NEAR(dist.leafBudget(ref), mono.leafBudget(ref),
                            1e-9)
                    << "supply " << ref.server << "." << ref.supply;
            }
        }
    }
}

TEST(Distributed, EquivalentToMonolithicOnDataCenter)
{
    sim::DataCenterParams params;
    params.phases = 1;
    params.serversPerRackPerPhase = 4;
    const auto dc = sim::buildDataCenter(params);

    const auto policy = ctrl::TreePolicy::globalPriority();
    DistributedControlPlane dist(*dc.system, policy);
    std::vector<std::unique_ptr<ctrl::ControlTree>> monos;
    for (const auto &tree : dc.system->trees())
        monos.push_back(
            std::make_unique<ctrl::ControlTree>(*tree, policy));

    util::Rng rng(606);
    const auto inputs = randomInputs(*dc.system, rng);
    for (const auto &[ref, in] : inputs)
        dist.setLeafInput(ref, in);
    // Each supply ref appears in exactly one tree; set it on all (the
    // wrong tree simply doesn't have the leaf). Use the port index.
    for (const auto &[ref, in] : inputs) {
        const auto ports = dc.system->livePortsOf(ref.server);
        monos[ports.at(ref.supply).tree]->setLeafInput(ref, in);
    }

    const std::vector<Watts> budgets(dc.system->trees().size(),
                                     300000.0);
    dist.iterate(budgets);
    for (std::size_t t = 0; t < monos.size(); ++t) {
        monos[t]->gather();
        monos[t]->allocate(budgets[t]);
    }

    EXPECT_EQ(dist.rackWorkerCount(), 162u);
    for (const auto &[ref, in] : inputs) {
        const auto ports = dc.system->livePortsOf(ref.server);
        const auto tree = ports.at(ref.supply).tree;
        EXPECT_NEAR(dist.leafBudget(ref), monos[tree]->leafBudget(ref),
                    1e-9);
    }
}

TEST(Distributed, EquivalentOnDataCenterUnderEveryPolicy)
{
    // The partition must preserve semantics for Local and No Priority
    // too (their collapse points sit exactly at the rack/room boundary).
    sim::DataCenterParams params;
    params.phases = 1;
    params.serversPerRackPerPhase = 2;
    const auto dc = sim::buildDataCenter(params);
    util::Rng rng(321);
    const auto inputs = randomInputs(*dc.system, rng);

    for (const auto policy :
         {ctrl::TreePolicy::localPriority(),
          ctrl::TreePolicy::noPriority()}) {
        DistributedControlPlane dist(*dc.system, policy);
        std::vector<std::unique_ptr<ctrl::ControlTree>> monos;
        for (const auto &tree : dc.system->trees())
            monos.push_back(
                std::make_unique<ctrl::ControlTree>(*tree, policy));
        for (const auto &[ref, in] : inputs) {
            dist.setLeafInput(ref, in);
            const auto ports = dc.system->livePortsOf(ref.server);
            monos[ports.at(ref.supply).tree]->setLeafInput(ref, in);
        }
        const std::vector<Watts> budgets(dc.system->trees().size(),
                                         250000.0);
        dist.iterate(budgets);
        for (std::size_t t = 0; t < monos.size(); ++t) {
            monos[t]->gather();
            monos[t]->allocate(budgets[t]);
        }
        for (const auto &[ref, in] : inputs) {
            const auto ports = dc.system->livePortsOf(ref.server);
            EXPECT_NEAR(dist.leafBudget(ref),
                        monos[ports.at(ref.supply).tree]->leafBudget(ref),
                        1e-9);
        }
    }
}

TEST(Distributed, MessageAccounting)
{
    sim::DataCenterParams params;
    params.phases = 1;
    params.serversPerRackPerPhase = 2;
    const auto dc = sim::buildDataCenter(params);
    DistributedControlPlane dist(*dc.system,
                                 ctrl::TreePolicy::globalPriority());

    util::Rng rng(7);
    for (const auto &[ref, in] : randomInputs(*dc.system, rng))
        dist.setLeafInput(ref, in);

    const auto stats = dist.iterate({300000.0, 300000.0});
    // 162 racks x 2 trees, one metrics and one budget message each.
    EXPECT_EQ(stats.metricsMessages, 324u);
    EXPECT_EQ(stats.budgetMessages, 324u);
    // Compact summaries: at most #priority-levels classes per message.
    EXPECT_LE(stats.metricClassesSent, 324u * 4u);
}

TEST(Distributed, FailedFeedSkipped)
{
    sim::DataCenterParams params;
    params.phases = 1;
    params.serversPerRackPerPhase = 2;
    auto dc = sim::buildDataCenter(params);
    dc.system->failFeed(1);
    DistributedControlPlane dist(*dc.system,
                                 ctrl::TreePolicy::globalPriority());
    util::Rng rng(7);
    for (const auto &[ref, in] : randomInputs(*dc.system, rng))
        dist.setLeafInput(ref, in);
    const auto stats = dist.iterate({300000.0, 300000.0});
    EXPECT_EQ(stats.metricsMessages, 162u); // only feed A's tree
}

// ------------------------------------------------- §4.5 message plane

TEST(MessagePlane, LosslessTransportBitIdenticalToMonolithic)
{
    // Under a lossless zero-latency transport the §4.5 protocol must
    // degenerate to the direct exchange: every budget bit-identical to
    // the monolithic ControlTree, no degraded decisions.
    util::Rng rng(808);
    auto sys = sim::fig2System();
    for (const auto policy :
         {ctrl::TreePolicy::globalPriority(),
          ctrl::TreePolicy::localPriority(),
          ctrl::TreePolicy::noPriority()}) {
        ctrl::ControlTree mono(sys->tree(0), policy);
        net::SimTransport transport; // lossless, instantaneous
        DistributedControlPlane dist(*sys, policy, transport);

        for (int trial = 0; trial < 20; ++trial) {
            const auto inputs = randomInputs(*sys, rng);
            for (const auto &[ref, in] : inputs) {
                mono.setLeafInput(ref, in);
                dist.setLeafInput(ref, in);
            }
            const Watts budget = rng.uniform(600.0, 1600.0);
            mono.gather();
            mono.allocate(budget);
            const auto stats = dist.iterate({budget});

            EXPECT_EQ(stats.degraded.size(), 0u);
            EXPECT_EQ(stats.defaultBudgets, 0u);
            EXPECT_EQ(stats.staleReuses, 0u);
            EXPECT_GT(stats.bytesOnWire, 0u);
            for (const auto &[ref, in] : inputs) {
                EXPECT_EQ(
                    std::bit_cast<std::uint64_t>(dist.leafBudget(ref)),
                    std::bit_cast<std::uint64_t>(mono.leafBudget(ref)))
                    << "supply " << ref.server << "." << ref.supply;
            }
        }
    }
}

TEST(MessagePlane, TotalLossFallsBackToDefaultBudgets)
{
    // With every frame dropped, period 1 has no cache to fall back on:
    // all metrics are lost and every edge applies the conservative
    // Pcap_min default.
    net::TransportConfig cfg;
    cfg.dropRate = 1.0;
    net::SimTransport transport(cfg);
    auto sys = sim::fig2System();
    DistributedControlPlane dist(*sys, ctrl::TreePolicy::globalPriority(),
                                 transport);

    util::Rng rng(11);
    const auto inputs = randomInputs(*sys, rng);
    for (const auto &[ref, in] : inputs)
        dist.setLeafInput(ref, in);
    const auto stats = dist.iterate({1200.0});

    const std::size_t edges = dist.rackWorkerCount();
    EXPECT_EQ(stats.metricsLost, edges);
    EXPECT_EQ(stats.defaultBudgets, edges);
    EXPECT_EQ(stats.staleReuses, 0u);
    EXPECT_GT(stats.retries, 0u);

    // Default budgets equal the sum of live leaves' capMin (clamped to
    // the edge limit), split per the edge's own shifting controller —
    // every live leaf gets at least its floor covered in aggregate.
    for (const auto &[ref, in] : inputs) {
        if (in.live)
            EXPECT_GE(dist.leafBudget(ref), 0.0);
    }
    Watts total = 0.0, floor_total = 0.0;
    for (const auto &[ref, in] : inputs) {
        total += dist.leafBudget(ref);
        if (in.live)
            floor_total += in.capMin;
    }
    EXPECT_NEAR(total, floor_total, 1e-6);
}

TEST(MessagePlane, SilentWorkerUsesStaleMetricsThenFailsOver)
{
    net::ProtocolConfig proto;
    proto.staleAgeCapPeriods = 2;
    proto.heartbeatFailAfter = 3;
    net::SimTransport transport; // lossless: isolate the worker failure
    auto sys = sim::fig2System();
    DistributedControlPlane dist(*sys, ctrl::TreePolicy::globalPriority(),
                                 transport, proto);
    ASSERT_GE(dist.rackWorkerCount(), 2u);

    util::Rng rng(21);
    const auto inputs = randomInputs(*sys, rng);
    for (const auto &[ref, in] : inputs)
        dist.setLeafInput(ref, in);

    // Period 1: healthy; caches fill.
    auto stats = dist.iterate({1200.0});
    EXPECT_EQ(stats.staleReuses, 0u);

    // Kill worker 0. Its edges' metrics now miss every deadline.
    dist.failWorker(0);

    // Periods 2..3: within the stale-age cap the room reuses worker 0's
    // cached summary; the dead worker also misses its budget (default),
    // though the default applies to no live process.
    stats = dist.iterate({1200.0});
    EXPECT_GE(stats.staleReuses, 1u);
    EXPECT_FALSE(dist.workerDeclaredDead(0));
    stats = dist.iterate({1200.0});
    EXPECT_FALSE(dist.workerDeclaredDead(0));

    // Period 4: third consecutive silent period - declared dead,
    // edges re-homed to a live worker.
    stats = dist.iterate({1200.0});
    EXPECT_TRUE(dist.workerDeclaredDead(0));
    EXPECT_EQ(dist.liveWorkerCount(), dist.rackWorkerCount() - 1);
    bool saw_failover = false;
    for (const auto &d : stats.degraded) {
        if (d.kind == core::DegradedKind::WorkerFailover && d.rack == 0)
            saw_failover = true;
    }
    EXPECT_TRUE(saw_failover);

    // Period 5: the adopter now computes fresh metrics for the adopted
    // edges, so budgets flow again for every leaf - and match the
    // monolithic allocation exactly (the adopter owns identical state).
    stats = dist.iterate({1200.0});
    EXPECT_EQ(stats.staleReuses, 0u);
    EXPECT_EQ(stats.defaultBudgets, 0u);
    ctrl::ControlTree mono(sys->tree(0),
                           ctrl::TreePolicy::globalPriority());
    for (const auto &[ref, in] : inputs)
        mono.setLeafInput(ref, in);
    mono.gather();
    mono.allocate(1200.0);
    for (const auto &[ref, in] : inputs) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(dist.leafBudget(ref)),
                  std::bit_cast<std::uint64_t>(mono.leafBudget(ref)));
    }
}

TEST(MessagePlane, LossNeverInflatesTreeTotals)
{
    // Safety under drops: in a congested scenario (demand exceeds the
    // root budget) the lossless allocation hands out the entire root
    // budget, so no lossy run may ever exceed the lossless per-tree
    // total - whatever mix of fresh, stale, and default budgets the
    // protocol lands on.
    auto sys = sim::fig2System();
    util::Rng rng(99);
    std::vector<std::pair<topo::ServerSupplyRef, ctrl::LeafInput>> inputs;
    for (const auto &tree : sys->trees()) {
        for (const auto &ref : tree->suppliesUnder(tree->root())) {
            ctrl::LeafInput in;
            in.live = true;
            in.priority = static_cast<Priority>(rng.uniformInt(0, 3));
            in.capMin = rng.uniform(100.0, 140.0);
            in.demand = in.capMin + rng.uniform(100.0, 200.0);
            in.constraint = in.demand + 50.0;
            inputs.emplace_back(ref, in);
        }
    }
    const Watts budget = 900.0; // well under total demand, above floors

    // Lossless reference total.
    ctrl::ControlTree mono(sys->tree(0),
                           ctrl::TreePolicy::globalPriority());
    for (const auto &[ref, in] : inputs)
        mono.setLeafInput(ref, in);
    mono.gather();
    mono.allocate(budget);
    Watts lossless_total = 0.0;
    for (const auto &[ref, in] : inputs)
        lossless_total += mono.leafBudget(ref);

    for (const double drop : {0.1, 0.2, 0.4}) {
        net::TransportConfig cfg;
        cfg.dropRate = drop;
        cfg.seed = 42 + static_cast<std::uint64_t>(drop * 100);
        net::SimTransport transport(cfg);
        DistributedControlPlane dist(
            *sys, ctrl::TreePolicy::globalPriority(), transport);
        for (const auto &[ref, in] : inputs)
            dist.setLeafInput(ref, in);

        for (int period = 0; period < 12; ++period) {
            dist.iterate({budget});
            Watts total = 0.0;
            for (const auto &[ref, in] : inputs)
                total += dist.leafBudget(ref);
            EXPECT_LE(total, lossless_total + 1e-6)
                << "drop=" << drop << " period=" << period;
        }
    }
}

TEST(MessagePlane, RetriesRecoverFromModerateLoss)
{
    // At 20% drop with 4 attempts per message, the per-message loss
    // probability is 0.2^4 = 0.16%; a run of periods should complete
    // mostly clean, and every degraded period must still deliver a
    // budget (fresh, stale, or default) to every edge.
    net::TransportConfig cfg;
    cfg.dropRate = 0.2;
    cfg.seed = 7;
    net::SimTransport transport(cfg);
    auto sys = sim::fig2System();
    DistributedControlPlane dist(*sys, ctrl::TreePolicy::globalPriority(),
                                 transport);
    util::Rng rng(13);
    const auto inputs = randomInputs(*sys, rng);
    for (const auto &[ref, in] : inputs)
        dist.setLeafInput(ref, in);

    std::size_t clean = 0;
    const int periods = 50;
    for (int p = 0; p < periods; ++p) {
        const auto stats = dist.iterate({1200.0});
        if (stats.degraded.empty())
            ++clean;
        EXPECT_EQ(stats.metricsMessages, dist.rackWorkerCount());
        EXPECT_EQ(stats.budgetMessages, dist.rackWorkerCount());
    }
    EXPECT_GT(clean, static_cast<std::size_t>(periods * 3 / 5));
    // Nobody died: retries (not failover) absorbed the loss.
    EXPECT_EQ(dist.liveWorkerCount(), dist.rackWorkerCount());
}

TEST(MessagePlane, BytesOnWireScaleWithSummariesNotServers)
{
    // The compactness claim (§4.1) holds on the real wire encoding:
    // 5x the servers per rack must not change the per-period bytes,
    // because messages carry per-priority summaries.
    std::size_t bytes_small = 0, bytes_large = 0;
    for (const int per_phase : {3, 15}) {
        sim::DataCenterParams params;
        params.phases = 1;
        params.serversPerRackPerPhase = per_phase;
        const auto dc = sim::buildDataCenter(params);
        net::SimTransport transport;
        DistributedControlPlane dist(
            *dc.system, ctrl::TreePolicy::globalPriority(), transport);
        util::Rng rng(11);
        for (const auto &[ref, in] : randomInputs(*dc.system, rng))
            dist.setLeafInput(ref, in);
        const auto stats = dist.iterate({300000.0, 300000.0});
        (per_phase == 3 ? bytes_small : bytes_large) = stats.bytesOnWire;
    }
    EXPECT_GT(bytes_small, 0u);
    EXPECT_LE(bytes_large, bytes_small * 2);
}

TEST(Distributed, CompactSummariesIndependentOfServerCount)
{
    // The paper's scalability insight: upstream messages carry per-
    // priority summaries, not per-server data. Growing the rack must
    // not grow the message payload.
    std::size_t classes_small = 0, classes_large = 0;
    for (const int per_phase : {3, 15}) {
        sim::DataCenterParams params;
        params.phases = 1;
        params.serversPerRackPerPhase = per_phase;
        const auto dc = sim::buildDataCenter(params);
        DistributedControlPlane dist(
            *dc.system, ctrl::TreePolicy::globalPriority());
        util::Rng rng(11);
        for (const auto &[ref, in] : randomInputs(*dc.system, rng))
            dist.setLeafInput(ref, in);
        const auto stats = dist.iterate({300000.0, 300000.0});
        (per_phase == 3 ? classes_small : classes_large) =
            stats.metricClassesSent;
    }
    EXPECT_EQ(classes_small > 0, true);
    // 5x the servers, same number of messages, payload within the
    // priority-level bound either way.
    EXPECT_LE(classes_large, classes_small * 2);
}

TEST(MessagePlane, OnlyTheEdgeOwnerMayReportIt)
{
    // Rack 1's metrics never arrive; a forged current-epoch frame from
    // rack 0 claims rack 1's edge instead. The room must file metrics
    // only from a station's owner: the forgery counts as an orphan and
    // the edge is treated exactly as when its metrics are simply lost.
    auto sys = sim::fig2System();
    const auto policy = ctrl::TreePolicy::globalPriority();
    net::SimTransport plain_sim, forged_sim; // lossless
    ForgeRackOneMetrics plain_tp(plain_sim, false);
    ForgeRackOneMetrics forged_tp(forged_sim, true);
    DistributedControlPlane plain(*sys, policy, plain_tp);
    DistributedControlPlane forged(*sys, policy, forged_tp);
    ASSERT_GE(forged.rackWorkerCount(), 2u);

    util::Rng rng(31);
    const auto inputs = randomInputs(*sys, rng);
    for (const auto &[ref, in] : inputs) {
        plain.setLeafInput(ref, in);
        forged.setLeafInput(ref, in);
    }
    for (int period = 0; period < 4; ++period) {
        plain.iterate({1200.0});
        const auto stats = forged.iterate({1200.0});
        EXPECT_GE(stats.orphanFrames, 1u) << "period " << period;
        bool rack1_lost = false;
        for (const auto &d : stats.degraded) {
            if (d.kind == core::DegradedKind::MetricsLost && d.rack == 1)
                rack1_lost = true;
        }
        EXPECT_TRUE(rack1_lost) << "period " << period;
        for (const auto &[ref, in] : inputs) {
            EXPECT_EQ(
                std::bit_cast<std::uint64_t>(forged.leafBudget(ref)),
                std::bit_cast<std::uint64_t>(plain.leafBudget(ref)))
                << "period " << period << " supply " << ref.server
                << "." << ref.supply;
        }
    }
}

TEST(MessagePlane, TwoLevelFrameScheduleIsLocked)
{
    // The 2-level plane's frame stream — send order, addressing, frame
    // types, sender ids, epochs, sequence numbers and frame lengths —
    // over 50 lossy periods with an SPO round every period and one
    // worker failover, hashed and compared with a recorded constant.
    // Any change to the order in which the protocol sends, retransmits
    // or numbers its frames changes the hash.
    sim::DataCenterParams params;
    params.phases = 1;
    params.transformersPerFeed = 1;
    params.rppsPerTransformer = 2;
    params.cdusPerRpp = 3;
    params.serversPerRackPerPhase = 3;
    const auto dc = sim::buildDataCenter(params);
    const auto &system = *dc.system;

    net::TransportConfig cfg;
    cfg.dropRate = 0.25;
    cfg.dupRate = 0.1;
    cfg.reorderRate = 0.2;
    cfg.seed = 31337;
    net::SimTransport sim(cfg);
    ScheduleHasher recorder(sim);
    DistributedControlPlane dist(system, ctrl::TreePolicy::globalPriority(),
                                 recorder);

    util::Rng rng(4242);
    const auto inputs = randomInputs(system, rng);
    std::vector<Watts> budgets(system.trees().size(), 0.0);
    for (const auto &[ref, in] : inputs) {
        if (in.live)
            budgets[system.livePortsOf(ref.server).at(ref.supply).tree] +=
                0.8 * in.demand;
    }

    std::size_t spo_rounds = 0, failovers = 0;
    for (int period = 0; period < 50; ++period) {
        for (const auto &[ref, in] : inputs)
            dist.setLeafInput(ref, in);
        if (period == 20)
            dist.failWorker(2);
        auto stats = dist.iterate(budgets);
        std::vector<ctrl::SpoPin> pins;
        for (int k = 0; k < 3; ++k) {
            const auto &[ref, in] = inputs[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(inputs.size())
                                      - 1))];
            ctrl::SpoPin pin;
            pin.ref = ref;
            pin.tree = system.livePortsOf(ref.server).at(ref.supply).tree;
            pin.priority = in.priority;
            pin.consumption = rng.uniform(in.capMin, in.demand);
            pins.push_back(pin);
        }
        dist.iterateSpo(budgets, pins, stats);
        spo_rounds += stats.spoRounds;
        for (const auto &d : stats.degraded) {
            if (d.kind == core::DegradedKind::WorkerFailover)
                ++failovers;
        }
    }
    EXPECT_EQ(spo_rounds, 50u);
    EXPECT_EQ(failovers, 1u);
    EXPECT_GT(recorder.sends, 0u);
    EXPECT_EQ(recorder.hash, 0x1b9111dd883cf0dcULL)
        << std::hex << "hash 0x" << recorder.hash << std::dec << " over "
        << recorder.sends << " sends";
}
