#include "core/distributed.hh"

#include <algorithm>
#include <limits>
#include <tuple>

#include "net/wire.hh"
#include "util/logging.hh"

namespace capmaestro::core {

const char *
degradedKindName(DegradedKind kind)
{
    switch (kind) {
      case DegradedKind::StaleMetricsReused:   return "stale-metrics";
      case DegradedKind::MetricsLost:          return "metrics-lost";
      case DegradedKind::DefaultBudgetApplied: return "default-budget";
      case DegradedKind::WorkerFailover:       return "worker-failover";
      case DegradedKind::SpoFallback:          return "spo-fallback";
    }
    return "unknown";
}

// ---------------------------------------------------------------- RackWorker

RackWorker::RackWorker(const topo::PowerSystem &system,
                       ctrl::TreePolicy policy)
    : system_(system), policy_(policy)
{
}

void
RackWorker::addEdge(std::size_t tree, topo::NodeId node)
{
    Edge edge;
    edge.tree = tree;
    edge.node = node;
    const auto &topo_tree = system_.tree(tree);
    for (const topo::NodeId c : topo_tree.node(node).children) {
        const auto &child = topo_tree.node(c);
        if (child.kind != topo::NodeKind::SupplyPort) {
            util::fatal("RackWorker: edge node %s has a non-leaf "
                        "child; mixed fan-out is not partitionable",
                        topo_tree.node(node).name.c_str());
        }
        edge.leaves.push_back(*child.supplyRef);
        ctrl::LeafInput dead;
        dead.live = false;
        edge.inputs.push_back(dead);
    }
    edge.leafMetrics.resize(edge.leaves.size());
    edge.leafBudgets.assign(edge.leaves.size(), 0.0);
    edges_.push_back(std::move(edge));
}

void
RackWorker::adoptEdge(Edge edge)
{
    edges_.push_back(std::move(edge));
}

std::vector<RackWorker::Edge>
RackWorker::releaseEdges()
{
    std::vector<Edge> out = std::move(edges_);
    edges_.clear();
    return out;
}

RackWorker::Edge &
RackWorker::findEdge(std::size_t tree, topo::NodeId node)
{
    for (Edge &edge : edges_) {
        if (edge.tree == tree && edge.node == node)
            return edge;
    }
    util::panic("RackWorker: edge %zu/%d not owned by this worker", tree,
                node);
}

const RackWorker::Edge &
RackWorker::findEdge(std::size_t tree, topo::NodeId node) const
{
    return const_cast<RackWorker *>(this)->findEdge(tree, node);
}

void
RackWorker::setLeafInput(std::size_t tree,
                         const topo::ServerSupplyRef &ref,
                         const ctrl::LeafInput &input)
{
    for (Edge &edge : edges_) {
        if (edge.tree != tree)
            continue;
        for (std::size_t i = 0; i < edge.leaves.size(); ++i) {
            if (edge.leaves[i] == ref) {
                edge.inputs[i] = input;
                return;
            }
        }
    }
    util::panic("RackWorker: supply %d.%d not under this worker",
                ref.server, ref.supply);
}

void
RackWorker::refreshLeafMetrics(Edge &edge)
{
    const auto &topo_tree = system_.tree(edge.tree);
    for (std::size_t i = 0; i < edge.leaves.size(); ++i) {
        // Rewritten in place: a period allocates nothing per leaf.
        ctrl::NodeMetrics &m = edge.leafMetrics[i];
        m.clear();
        const ctrl::LeafInput &in = edge.inputs[i];
        if (in.live) {
            // Identical to ControlTree's leaf handling.
            const topo::NodeId leaf_node =
                topo_tree.node(edge.node).children[i];
            const Watts demand = std::max(in.demand, in.capMin);
            const Watts constraint = std::min(
                in.constraint, topo_tree.node(leaf_node).limit());
            m.accumulate(in.priority, in.capMin, demand, demand);
            m.setConstraint(constraint);
        }
    }
}

ctrl::NodeMetrics
RackWorker::computeMetrics(std::size_t tree, topo::NodeId node)
{
    Edge &edge = findEdge(tree, node);
    refreshLeafMetrics(edge);
    const Watts limit = system_.tree(tree).node(node).limit();
    return ctrl::gatherMetrics(edge.leafMetrics, limit,
                               policy_.upperPriorityAware);
}

void
RackWorker::applyBudget(std::size_t tree, topo::NodeId node, Watts budget)
{
    Edge &edge = findEdge(tree, node);
    // Mirror ControlTree: never distribute beyond the device limit.
    const Watts usable =
        std::min(budget, system_.tree(tree).node(node).limit());
    auto split = ctrl::budgetChildren(usable, edge.leafMetrics,
                                      policy_.leafPriorityAware);
    edge.leafBudgets = std::move(split.childBudgets);
}

Watts
RackWorker::defaultBudget(std::size_t tree, topo::NodeId node) const
{
    const Edge &edge = findEdge(tree, node);
    Watts floor = 0.0;
    for (const ctrl::LeafInput &in : edge.inputs) {
        if (in.live)
            floor += in.capMin;
    }
    return std::min(floor, system_.tree(tree).node(node).limit());
}

Watts
RackWorker::leafBudget(std::size_t tree,
                       const topo::ServerSupplyRef &ref) const
{
    for (const Edge &edge : edges_) {
        if (edge.tree != tree)
            continue;
        for (std::size_t i = 0; i < edge.leaves.size(); ++i) {
            if (edge.leaves[i] == ref)
                return edge.leafBudgets[i];
        }
    }
    util::panic("RackWorker: supply %d.%d not under this worker",
                ref.server, ref.supply);
}

// ---------------------------------------------------------------- RoomWorker

RoomWorker::RoomWorker(const topo::PowerSystem &system,
                       std::vector<std::set<topo::NodeId>> edge_nodes,
                       ctrl::TreePolicy policy)
    : system_(system), edgeNodes_(std::move(edge_nodes)), policy_(policy),
      lastChildren_(edgeNodes_.size())
{
}

RoomWorker::RoomWorker(const topo::PowerSystem &system,
                       std::vector<topo::NodeId> tops,
                       std::vector<std::set<topo::NodeId>> boundaries,
                       ctrl::TreePolicy policy)
    : system_(system), edgeNodes_(std::move(boundaries)),
      policy_(policy), tops_(std::move(tops)),
      lastChildren_(edgeNodes_.size())
{
    if (tops_.size() != edgeNodes_.size()) {
        util::fatal("RoomWorker: %zu fragment tops for %zu boundary "
                    "sets",
                    tops_.size(), edgeNodes_.size());
    }
}

topo::NodeId
RoomWorker::topOf(std::size_t tree) const
{
    if (tops_.empty())
        return system_.tree(tree).root();
    const topo::NodeId top = tops_.at(tree);
    if (top == topo::kNoNode) {
        util::fatal("RoomWorker: no fragment in tree %zu", tree);
    }
    return top;
}

void
RoomWorker::gatherAbove(std::size_t tree, topo::NodeId node,
                        const std::map<topo::NodeId, ctrl::NodeMetrics>
                            &edges,
                        ctrl::NodeMetrics &out)
{
    if (edgeNodes_.at(tree).count(node)) {
        // Edge node: the rack worker's message is this node's metrics.
        const auto it = edges.find(node);
        if (it != edges.end())
            out = it->second;
        else
            out.clear();
        return;
    }

    const auto &tn = system_.tree(tree).node(node);
    // Map references survive the insertions the recursion makes.
    std::vector<ctrl::NodeMetrics> &children = lastChildren_[tree][node];
    children.resize(tn.children.size());
    for (std::size_t i = 0; i < tn.children.size(); ++i)
        gatherAbove(tree, tn.children[i], edges, children[i]);
    out = ctrl::gatherMetrics(children, tn.limit(),
                              policy_.upperPriorityAware);
}

void
RoomWorker::budgetAbove(std::size_t tree, topo::NodeId node, Watts budget,
                        std::map<topo::NodeId, Watts> &edge_budgets) const
{
    if (edgeNodes_.at(tree).count(node)) {
        edge_budgets[node] = budget;
        return;
    }

    const auto &tn = system_.tree(tree).node(node);
    const Watts usable = std::min(budget, tn.limit());
    const auto split =
        ctrl::budgetChildren(usable, lastChildren_.at(tree).at(node),
                             policy_.upperPriorityAware);
    for (std::size_t i = 0; i < tn.children.size(); ++i)
        budgetAbove(tree, tn.children[i], split.childBudgets[i],
                    edge_budgets);
}

ctrl::NodeMetrics
RoomWorker::gatherTop(std::size_t tree,
                      const std::map<topo::NodeId, ctrl::NodeMetrics>
                          &boundary_metrics)
{
    ctrl::NodeMetrics top;
    gatherAbove(tree, topOf(tree), boundary_metrics, top);
    return top;
}

std::map<topo::NodeId, Watts>
RoomWorker::budgetDown(std::size_t tree, Watts top_budget)
{
    const topo::NodeId top = topOf(tree);
    std::map<topo::NodeId, Watts> edge_budgets;
    // budgetAbove() clamps to the top's own limit, so an over-generous
    // (or unlimited-root) grant never overloads the fragment.
    const Watts budget =
        std::min(top_budget, system_.tree(tree).node(top).limit());
    budgetAbove(tree, top, budget, edge_budgets);
    return edge_budgets;
}

std::map<topo::NodeId, Watts>
RoomWorker::iterate(std::size_t tree,
                    const std::map<topo::NodeId, ctrl::NodeMetrics>
                        &edge_metrics,
                    Watts root_budget)
{
    gatherTop(tree, edge_metrics);
    return budgetDown(tree, root_budget);
}

// --------------------------------------------------- DistributedControlPlane

std::vector<std::map<topo::NodeId, std::size_t>>
DistributedControlPlane::partition(const topo::PowerSystem &system)
{
    std::vector<std::map<topo::NodeId, std::size_t>> owners(
        system.trees().size());
    for (std::size_t t = 0; t < system.trees().size(); ++t) {
        std::size_t next = 0;
        system.tree(t).forEach([&](const topo::TopoNode &n) {
            bool leaf_parent = false;
            for (const topo::NodeId c : n.children) {
                if (system.tree(t).node(c).kind
                    == topo::NodeKind::SupplyPort) {
                    leaf_parent = true;
                }
            }
            if (leaf_parent)
                owners[t][n.id] = next++;
        });
    }
    return owners;
}

std::vector<std::map<std::size_t, topo::NodeId>>
DistributedControlPlane::partitionEdges(const topo::PowerSystem &system)
{
    const auto owners = partition(system);
    std::size_t rack_count = 0;
    for (const auto &per_tree : owners) {
        for (const auto &[node, rack] : per_tree)
            rack_count = std::max(rack_count, rack + 1);
    }
    std::vector<std::map<std::size_t, topo::NodeId>> per_rack(rack_count);
    for (std::size_t t = 0; t < owners.size(); ++t) {
        for (const auto &[node, rack] : owners[t]) {
            if (per_rack[rack].count(t)) {
                util::fatal("partitionEdges: rack worker %zu owns two "
                            "edges of tree %zu; this topology cannot be "
                            "deployed one-process-per-rack",
                            rack, t);
            }
            per_rack[rack][t] = node;
        }
    }
    return per_rack;
}

std::size_t
DistributedControlPlane::rackWorkerCountFor(const topo::PowerSystem &system)
{
    std::size_t rack_count = 0;
    for (const auto &per_tree : partition(system)) {
        for (const auto &[node, rack] : per_tree)
            rack_count = std::max(rack_count, rack + 1);
    }
    return rack_count;
}

DistributedControlPlane::DistributedControlPlane(
    const topo::PowerSystem &system, ctrl::TreePolicy policy,
    std::vector<std::uint32_t> agg_levels)
    : system_(system), policy_(policy),
      plan_(TreePlan::build(system, agg_levels))
{
    buildWorkers();
}

DistributedControlPlane::DistributedControlPlane(
    const topo::PowerSystem &system, ctrl::TreePolicy policy,
    net::Transport &transport, net::ProtocolConfig protocol,
    std::vector<std::uint32_t> agg_levels)
    : system_(system), policy_(policy),
      plan_(TreePlan::build(system, agg_levels)), transport_(&transport),
      protocol_(protocol)
{
    buildWorkers();
}

void
DistributedControlPlane::buildWorkers()
{
    // Leaf workers own the edges of the partitioning rule (the plan's
    // leaf stations), in tree order; every worker below the root
    // reports one hop per tree it holds a fragment of.
    racks_.reserve(plan_.leafWorkers);
    for (std::size_t r = 0; r < plan_.leafWorkers; ++r)
        racks_.emplace_back(system_, policy_);
    for (const TreePlan::Worker &w : plan_.workers) {
        if (w.isRoot())
            continue;
        for (const auto &[t, node] : w.stations) {
            hops_.push_back({t, node, w.endpoint, w.parent});
            if (!w.isLeaf())
                continue;
            racks_[w.endpoint].addEdge(t, node);
            for (const topo::NodeId c :
                 system_.tree(t).node(node).children) {
                const auto &ref = *system_.tree(t).node(c).supplyRef;
                leafToRack_[{ref.server, ref.supply}] = w.endpoint;
            }
        }
    }
    std::sort(hops_.begin(), hops_.end(), [](const Hop &a, const Hop &b) {
        return std::tie(a.parent, a.tree, a.node)
               < std::tie(b.parent, b.tree, b.node);
    });

    lastTreeMetrics_.assign(system_.trees().size(), {});
    hopIndex_.resize(system_.trees().size());
    for (std::size_t t = 0; t < hopIndex_.size(); ++t)
        hopIndex_[t].assign(system_.tree(t).size(), kNoHop);
    for (std::size_t h = 0; h < hops_.size(); ++h) {
        const Hop &hop = hops_[h];
        hopIndex_[hop.tree][static_cast<std::size_t>(hop.node)] = h;
        lastTreeMetrics_[hop.tree][hop.node] = {};
    }

    // One fragment per internal worker, cut at its stations and its
    // children's; the root's is the classic room worker.
    for (std::uint32_t ep = static_cast<std::uint32_t>(plan_.leafWorkers);
         ep <= plan_.rootEndpoint(); ++ep) {
        fragments_.emplace_back(system_, plan_.topsOf(ep),
                                plan_.boundariesOf(ep), policy_);
    }
    for (std::uint32_t tier = 0; tier < plan_.tiers(); ++tier)
        tierEndpoints_.push_back(plan_.tierEndpoints(tier));

    seq_.assign(plan_.workers.size(), 0);
    heard_.assign(plan_.workers.size(), 0);
    rackFailed_.assign(racks_.size(), false);
    rackDeclaredDead_.assign(racks_.size(), false);
    missedHeartbeats_.assign(racks_.size(), 0);
    metricCache_.assign(hops_.size(), {});
    got_.assign(hops_.size(), 0);
    fresh_.assign(hops_.size(), {});
    budget_.assign(hops_.size(), 0.0);
}

std::size_t
DistributedControlPlane::hopIndexOf(std::size_t tree,
                                    topo::NodeId node) const
{
    if (tree >= hopIndex_.size() || node < 0
        || static_cast<std::size_t>(node) >= hopIndex_[tree].size()) {
        return kNoHop;
    }
    return hopIndex_[tree][static_cast<std::size_t>(node)];
}

std::uint16_t
DistributedControlPlane::senderId(std::uint32_t endpoint) const
{
    return endpoint == plan_.rootEndpoint()
               ? net::kRoomSender
               : static_cast<std::uint16_t>(endpoint);
}

bool
DistributedControlPlane::rackDown(std::uint32_t endpoint) const
{
    return endpoint < racks_.size()
           && (rackFailed_[endpoint] || rackDeclaredDead_[endpoint]);
}

void
DistributedControlPlane::setTelemetry(telemetry::Registry *registry,
                                      telemetry::PeriodTracer *tracer)
{
    registry_ = registry;
    tracer_ = tracer;
    if (registry_ == nullptr) {
        metrics_ = {};
        return;
    }
    auto counter = [&](const char *name, const char *help) {
        return registry_->counter(name, {}, help);
    };
    metrics_.metricsMessages =
        counter("capmaestro_plane_metrics_messages_total",
                "Rack -> room metric messages (logical)");
    metrics_.budgetMessages =
        counter("capmaestro_plane_budget_messages_total",
                "Room -> rack budget messages (logical)");
    metrics_.metricClasses =
        counter("capmaestro_plane_metric_classes_total",
                "Priority classes serialized upstream");
    metrics_.heartbeats = counter("capmaestro_plane_heartbeats_total",
                                  "Heartbeat frames sent");
    metrics_.retries = counter("capmaestro_plane_retries_total",
                               "First-pass retransmissions");
    metrics_.bytes = counter("capmaestro_plane_bytes_total",
                             "Encoded payload bytes on the wire");
    metrics_.staleReuses =
        counter("capmaestro_plane_stale_reuses_total",
                "Edges served from a cached metric summary");
    metrics_.metricsLost = counter("capmaestro_plane_metrics_lost_total",
                                   "Edges whose metrics were unusable");
    metrics_.defaultBudgets =
        counter("capmaestro_plane_default_budgets_total",
                "Edges that fell back to the Pcap_min default budget");
    metrics_.orphanFrames =
        counter("capmaestro_plane_orphan_frames_total",
                "Frames discarded for epoch/type mismatch");
    metrics_.corruptFrames =
        counter("capmaestro_plane_corrupt_frames_total",
                "Frames that failed to decode");
    metrics_.spoRounds = counter("capmaestro_plane_spo_rounds_total",
                                 "SPO rounds run");
    metrics_.spoSummaryMessages =
        counter("capmaestro_plane_spo_summary_messages_total",
                "Rack -> room pinned-summary messages");
    metrics_.spoBudgetMessages =
        counter("capmaestro_plane_spo_budget_messages_total",
                "Room -> rack second-pass budget messages");
    metrics_.spoRetries = counter("capmaestro_plane_spo_retries_total",
                                  "SPO-phase retransmissions");
    metrics_.spoTreesAttempted =
        counter("capmaestro_plane_spo_trees_attempted_total",
                "Trees that entered an SPO round");
    metrics_.spoCommittedTrees =
        counter("capmaestro_plane_spo_committed_trees_total",
                "Trees that committed second-pass budgets");
    metrics_.spoFallbackTrees =
        counter("capmaestro_plane_spo_fallback_trees_total",
                "Trees that rolled back to first-pass budgets");
    metrics_.spoBytes = counter("capmaestro_plane_spo_bytes_total",
                                "Encoded SPO bytes on the wire");
    metrics_.degradedDecisions =
        counter("capmaestro_plane_degraded_decisions_total",
                "Degraded-mode (§4.5) decisions taken");
    metrics_.liveWorkers =
        registry_->gauge("capmaestro_plane_live_workers", {},
                         "Rack workers not declared dead");
    metrics_.epoch = registry_->gauge("capmaestro_plane_epoch", {},
                                      "Current control-period epoch");
}

void
DistributedControlPlane::recordIterationMetrics(const MessageStats &stats)
{
    if (registry_ == nullptr)
        return;
    const auto n = [](std::size_t v) { return static_cast<double>(v); };
    metrics_.metricsMessages.inc(n(stats.metricsMessages));
    metrics_.budgetMessages.inc(n(stats.budgetMessages));
    metrics_.metricClasses.inc(n(stats.metricClassesSent));
    metrics_.heartbeats.inc(n(stats.heartbeatMessages));
    metrics_.retries.inc(n(stats.retries));
    metrics_.bytes.inc(n(stats.bytesOnWire));
    metrics_.staleReuses.inc(n(stats.staleReuses));
    metrics_.metricsLost.inc(n(stats.metricsLost));
    metrics_.defaultBudgets.inc(n(stats.defaultBudgets));
    metrics_.orphanFrames.inc(n(stats.orphanFrames));
    metrics_.corruptFrames.inc(n(stats.corruptFrames));
    metrics_.degradedDecisions.inc(n(stats.degraded.size()));
    metrics_.liveWorkers.set(n(liveWorkerCount()));
    metrics_.epoch.set(static_cast<double>(epoch_));
}

void
DistributedControlPlane::recordSpoMetrics(const MessageStats &before,
                                          const MessageStats &after)
{
    if (registry_ == nullptr)
        return;
    // iterateSpo accumulates into the caller's MessageStats (the same
    // object iterate() filled, possibly across several SPO rounds), so
    // only the growth since entry may be added to the counters.
    const auto delta = [](std::size_t b, std::size_t a) {
        return static_cast<double>(a - b);
    };
    metrics_.spoRounds.inc(delta(before.spoRounds, after.spoRounds));
    metrics_.spoSummaryMessages.inc(
        delta(before.spoSummaryMessages, after.spoSummaryMessages));
    metrics_.spoBudgetMessages.inc(
        delta(before.spoBudgetMessages, after.spoBudgetMessages));
    metrics_.spoRetries.inc(delta(before.spoRetries, after.spoRetries));
    metrics_.spoTreesAttempted.inc(
        delta(before.spoTreesAttempted, after.spoTreesAttempted));
    metrics_.spoCommittedTrees.inc(
        delta(before.spoCommittedTrees, after.spoCommittedTrees));
    metrics_.spoFallbackTrees.inc(
        delta(before.spoFallbackTrees, after.spoFallbackTrees));
    metrics_.spoBytes.inc(delta(before.spoBytesOnWire,
                                after.spoBytesOnWire));
    metrics_.bytes.inc(delta(before.bytesOnWire, after.bytesOnWire));
    metrics_.orphanFrames.inc(delta(before.orphanFrames,
                                    after.orphanFrames));
    metrics_.corruptFrames.inc(delta(before.corruptFrames,
                                     after.corruptFrames));
    metrics_.degradedDecisions.inc(
        delta(before.degraded.size(), after.degraded.size()));
}

std::size_t
DistributedControlPlane::liveWorkerCount() const
{
    std::size_t n = 0;
    for (std::size_t r = 0; r < racks_.size(); ++r)
        n += rackDeclaredDead_[r] ? 0 : 1;
    return n;
}

void
DistributedControlPlane::setLeafInput(const topo::ServerSupplyRef &ref,
                                      const ctrl::LeafInput &input)
{
    const auto it = leafToRack_.find({ref.server, ref.supply});
    if (it == leafToRack_.end())
        util::panic("DistributedControlPlane: unknown supply %d.%d",
                    ref.server, ref.supply);
    // A leaf lives in exactly one of the owning rack's edges.
    for (const RackWorker::Edge &edge : racks_[it->second].edges()) {
        for (const auto &leaf : edge.leaves) {
            if (leaf == ref) {
                racks_[it->second].setLeafInput(edge.tree, ref, input);
                return;
            }
        }
    }
    util::panic("DistributedControlPlane: supply %d.%d not routed",
                ref.server, ref.supply);
}

void
DistributedControlPlane::failWorker(std::size_t rack)
{
    if (rack >= racks_.size())
        util::panic("DistributedControlPlane: bad rack %zu", rack);
    if (plan_.tiers() > 2) {
        // Heartbeat failover / re-homing stays a 2-level plane
        // feature; deep deployments test worker death at the runtime
        // level (rt::WorkerRuntime), which owns checkpoints.
        util::fatal("DistributedControlPlane: failWorker is not "
                    "supported on a deep plan");
    }
    rackFailed_[rack] = true;
}

bool
DistributedControlPlane::workerDeclaredDead(std::size_t rack) const
{
    if (rack >= racks_.size())
        util::panic("DistributedControlPlane: bad rack %zu", rack);
    return rackDeclaredDead_[rack];
}

void
DistributedControlPlane::rehomeWorker(std::size_t rack,
                                      MessageStats &stats)
{
    rackDeclaredDead_[rack] = true;

    // Adopt onto the live worker hosting the fewest edges (lowest
    // index on ties) so failover load stays balanced and deterministic.
    std::size_t adopter = racks_.size();
    std::size_t best_edges = std::numeric_limits<std::size_t>::max();
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        if (r == rack || rackDeclaredDead_[r] || rackFailed_[r])
            continue;
        if (racks_[r].edges().size() < best_edges) {
            best_edges = racks_[r].edges().size();
            adopter = r;
        }
    }

    DegradedDecision d;
    d.kind = DegradedKind::WorkerFailover;
    d.rack = rack;
    d.value = adopter < racks_.size()
                  ? static_cast<double>(adopter)
                  : -1.0;
    stats.degraded.push_back(d);

    if (adopter >= racks_.size()) {
        util::warn("DistributedControlPlane: worker %zu dead with no "
                   "live peer to adopt its edges", rack);
        return;
    }

    for (RackWorker::Edge &edge : racks_[rack].releaseEdges()) {
        hops_[hopIndexOf(edge.tree, edge.node)].owner =
            static_cast<std::uint32_t>(adopter);
        for (const auto &ref : edge.leaves)
            leafToRack_[{ref.server, ref.supply}] = adopter;
        racks_[adopter].adoptEdge(std::move(edge));
    }
}

MessageStats
DistributedControlPlane::iterate(const std::vector<Watts> &root_budgets)
{
    if (root_budgets.size() != system_.trees().size()) {
        util::fatal("DistributedControlPlane: %zu budgets for %zu trees",
                    root_budgets.size(), system_.trees().size());
    }
    const MessageStats stats = transport_ ? iterateTransport(root_budgets)
                                          : iterateDirect(root_budgets);
    recordIterationMetrics(stats);
    return stats;
}

MessageStats
DistributedControlPlane::iterateDirect(
    const std::vector<Watts> &root_budgets)
{
    MessageStats stats;
    const auto iterate_span =
        tracer_ ? tracer_->begin("iterate") : telemetry::PeriodTracer::kNoSpan;
    for (std::size_t t = 0; t < system_.trees().size(); ++t) {
        auto &view = lastTreeMetrics_[t];
        if (!treeLive(t)) {
            for (auto &[node, m] : view)
                m.clear();
            continue;
        }
        const auto tree_span =
            tracer_ ? tracer_->begin("tree", iterate_span)
                    : telemetry::PeriodTracer::kNoSpan;

        // Upstream, hop by hop in parent order: every fragment's
        // boundary is in the view before the fragment gathers.
        for (const Hop &hop : hops_) {
            if (hop.tree != t)
                continue;
            ctrl::NodeMetrics &m = view[hop.node];
            if (isEdge(hop)) {
                m = racks_[hop.owner].computeMetrics(t, hop.node);
                ++stats.metricsMessages;
            } else {
                m = fragment(hop.owner).gatherTop(t, view);
                ++stats.summaryMessages;
            }
            stats.metricClassesSent += m.classes().size();
        }

        // Downstream: the root splits its budget, then every hop in
        // reverse order — parents before children — applies or splits
        // its share.
        auto budgets =
            fragment(plan_.rootEndpoint()).iterate(t, view, root_budgets[t]);
        std::size_t edges = 0;
        for (auto it = hops_.rbegin(); it != hops_.rend(); ++it) {
            const Hop &hop = *it;
            if (hop.tree != t)
                continue;
            const auto got = budgets.find(hop.node);
            if (got == budgets.end())
                continue;
            if (isEdge(hop)) {
                ++stats.budgetMessages;
                ++edges;
                racks_[hop.owner].applyBudget(t, hop.node, got->second);
            } else {
                ++stats.subBudgetMessages;
                for (const auto &[node, b] :
                     fragment(hop.owner).budgetDown(t, got->second))
                    budgets[node] = b;
            }
        }
        if (tracer_) {
            tracer_->num(tree_span, "tree", static_cast<double>(t));
            tracer_->num(tree_span, "edges", static_cast<double>(edges));
            tracer_->end(tree_span);
        }
    }
    if (tracer_) {
        tracer_->num(iterate_span, "metrics_messages",
                     static_cast<double>(stats.metricsMessages));
        tracer_->num(iterate_span, "summary_messages",
                     static_cast<double>(stats.summaryMessages));
        tracer_->num(iterate_span, "budget_messages",
                     static_cast<double>(stats.budgetMessages));
        tracer_->end(iterate_span);
    }
    return stats;
}

void
DistributedControlPlane::post(std::uint32_t from, std::uint32_t to,
                              std::size_t hop,
                              std::vector<std::uint8_t> frame)
{
    transport_->send(from, to, frame);
    pending_.push_back({hop, from, to, std::move(frame)});
}

void
DistributedControlPlane::postSummary(std::uint32_t from, std::size_t hop,
                                     ctrl::NodeMetrics metrics, Phase phase,
                                     MessageStats &stats)
{
    net::MetricsMsg msg;
    msg.tree = static_cast<std::uint16_t>(hops_[hop].tree);
    msg.edgeNode = static_cast<std::uint32_t>(hops_[hop].node);
    msg.metrics = std::move(metrics);
    const net::FrameMeta meta{static_cast<std::uint16_t>(from), epoch_,
                              seq_[from]++};
    std::vector<std::uint8_t> frame;
    if (phase == Phase::SpoGather) {
        ++stats.spoSummaryMessages;
        frame = net::encodePinnedSummary(meta, msg);
    } else {
        stats.metricClassesSent += msg.metrics.classes().size();
        if (isEdge(hops_[hop])) {
            ++stats.metricsMessages;
            frame = net::encodeMetrics(meta, msg);
        } else {
            ++stats.summaryMessages;
            frame = net::encodeSummary(meta, msg);
        }
    }
    post(from, hops_[hop].parent, hop, std::move(frame));
}

void
DistributedControlPlane::postBudgets(
    std::uint32_t from, std::size_t tree,
    const std::map<topo::NodeId, Watts> &split, Phase phase,
    MessageStats &stats)
{
    const std::uint16_t sender = senderId(from);
    for (const auto &[node, budget] : split) {
        const std::size_t h = hopIndexOf(tree, node);
        const std::uint32_t to = hops_[h].owner;
        if (rackDown(to))
            continue; // nobody home to receive it
        net::BudgetMsg msg;
        msg.tree = static_cast<std::uint16_t>(tree);
        msg.edgeNode = static_cast<std::uint32_t>(node);
        msg.budget = budget;
        const net::FrameMeta meta{sender, epoch_, seq_[from]++};
        std::vector<std::uint8_t> frame;
        if (phase == Phase::SpoBudget) {
            ++stats.spoBudgetMessages;
            frame = net::encodeSpoBudget(meta, msg);
        } else if (isEdge(hops_[h])) {
            ++stats.budgetMessages;
            frame = net::encodeBudget(meta, msg);
        } else {
            ++stats.subBudgetMessages;
            frame = net::encodeSubBudget(meta, msg);
        }
        post(from, to, h, std::move(frame));
    }
}

void
DistributedControlPlane::exchange(std::uint32_t tier, Phase phase,
                                  double phase_start, double deadline,
                                  std::size_t &retries, MessageStats &stats)
{
    net::Transport &tp = *transport_;
    for (int attempt = 1; attempt < protocol_.maxAttempts; ++attempt) {
        const double next = phase_start + attempt * protocol_.retryTimeoutMs;
        if (next >= deadline)
            break;
        tp.advanceTo(next);
        receive(tier, phase, stats);
        bool all_in = true;
        for (const Pending &p : pending_) {
            if (got_[p.hop] || plan_.workers[p.to].tier != tier)
                continue;
            all_in = false;
            ++retries;
            tp.send(p.from, p.to, p.frame);
        }
        if (all_in)
            break;
    }
    tp.advanceTo(deadline);
    receive(tier, phase, stats);
}

void
DistributedControlPlane::receive(std::uint32_t tier, Phase phase,
                                 MessageStats &stats)
{
    const bool upward = phase == Phase::Gather || phase == Phase::SpoGather;
    for (const std::uint32_t at : tierEndpoints_[tier]) {
        auto frames = transport_->poll(at);
        if (at < racks_.size() && rackFailed_[at])
            continue; // dead process: frames drain unread
        for (const auto &bytes : frames) {
            auto frame = net::decodeFrame(bytes);
            if (!frame) {
                ++stats.corruptFrames;
                continue;
            }
            if (frame->epoch != epoch_) {
                ++stats.orphanFrames;
                continue;
            }
            if (upward) {
                // A child reports the stations it owns: any frame from
                // it is a heartbeat, a summary must name one of its
                // own stations.
                const std::uint32_t from = frame->sender;
                if (from >= plan_.workers.size()
                    || plan_.workers[from].parent != at) {
                    ++stats.orphanFrames;
                    continue;
                }
                heard_[from] = 1;
                if (phase == Phase::Gather
                    && frame->type == net::MsgType::Heartbeat)
                    continue;
                const net::MsgType want =
                    phase == Phase::SpoGather ? net::MsgType::PinnedSummary
                    : from < plan_.leafWorkers ? net::MsgType::Metrics
                                               : net::MsgType::Summary;
                const std::size_t h = hopIndexOf(
                    frame->metrics.tree,
                    static_cast<topo::NodeId>(frame->metrics.edgeNode));
                if (frame->type != want || h == kNoHop
                    || hops_[h].owner != from) {
                    ++stats.orphanFrames;
                    continue;
                }
                fresh_[h] = std::move(frame->metrics.metrics);
                got_[h] = 1;
            } else {
                // Budgets come from the parent, for a station this
                // worker owns.
                const net::MsgType want =
                    phase == Phase::SpoBudget ? net::MsgType::SpoBudget
                    : at < plan_.leafWorkers  ? net::MsgType::Budget
                                              : net::MsgType::SubBudget;
                const std::size_t h = hopIndexOf(
                    frame->budget.tree,
                    static_cast<topo::NodeId>(frame->budget.edgeNode));
                if (frame->type != want
                    || frame->sender != senderId(plan_.workers[at].parent)
                    || h == kNoHop || hops_[h].owner != at) {
                    ++stats.orphanFrames;
                    continue;
                }
                budget_[h] = frame->budget.budget;
                got_[h] = 1;
            }
        }
    }
}

void
DistributedControlPlane::assemble(std::uint32_t endpoint,
                                  MessageStats &stats)
{
    for (std::size_t h = 0; h < hops_.size(); ++h) {
        const Hop &hop = hops_[h];
        if (hop.parent != endpoint)
            continue;
        ctrl::NodeMetrics &slot = lastTreeMetrics_[hop.tree][hop.node];
        if (!treeLive(hop.tree)) {
            slot.clear();
            continue;
        }
        CachedMetrics &cache = metricCache_[h];
        if (got_[h]) {
            cache.metrics = fresh_[h];
            cache.epoch = epoch_;
            cache.valid = true;
            slot = std::move(fresh_[h]);
            continue;
        }
        const std::uint32_t age = cache.valid ? epoch_ - cache.epoch : 0;
        if (cache.valid
            && age <= static_cast<std::uint32_t>(
                   protocol_.staleAgeCapPeriods)) {
            slot = cache.metrics;
            ++stats.staleReuses;
            stats.degraded.push_back({DegradedKind::StaleMetricsReused,
                                      hop.tree, hop.node, hop.owner,
                                      static_cast<double>(age)});
        } else {
            // Too old (or never seen): the station contributes nothing.
            slot.clear();
            ++stats.metricsLost;
            stats.degraded.push_back({DegradedKind::MetricsLost, hop.tree,
                                      hop.node, hop.owner,
                                      static_cast<double>(age)});
        }
    }
}

void
DistributedControlPlane::detectFailures(MessageStats &stats)
{
    // Liveness: any frame from a rack counts as its heartbeat.
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        if (rackDeclaredDead_[r])
            continue;
        if (heard_[r]) {
            missedHeartbeats_[r] = 0;
        } else if (++missedHeartbeats_[r]
                   >= protocol_.heartbeatFailAfter) {
            rehomeWorker(r, stats);
        }
    }
}

MessageStats
DistributedControlPlane::iterateTransport(
    const std::vector<Watts> &root_budgets)
{
    MessageStats stats;
    net::Transport &tp = *transport_;
    ++epoch_;
    const std::size_t bytes_before = tp.stats().bytesSent;
    const double start = tp.nowMs();
    const std::uint32_t tiers = plan_.tiers();
    const std::uint32_t root = plan_.rootEndpoint();

    const auto gather_span =
        tracer_ ? tracer_->begin("gather") : telemetry::PeriodTracer::kNoSpan;
    if (tracer_) {
        tracer_->num(gather_span, "deadline_ms",
                     protocol_.gatherDeadlineMs);
    }
    const auto heartbeat = [&](std::uint32_t ep) {
        tp.send(ep, plan_.workers[ep].parent,
                net::encodeHeartbeat(
                    {static_cast<std::uint16_t>(ep), epoch_, seq_[ep]++}));
        ++stats.heartbeatMessages;
    };

    // ---------------- upstream: the leaf tier reports at period start
    pending_.clear();
    std::fill(got_.begin(), got_.end(), 0);
    std::fill(heard_.begin(), heard_.end(), 0);
    for (std::uint32_t r = 0; r < racks_.size(); ++r) {
        if (rackDown(r))
            continue;
        heartbeat(r);
        for (const RackWorker::Edge &edge : racks_[r].edges()) {
            if (treeLive(edge.tree)) {
                postSummary(r, hopIndexOf(edge.tree, edge.node),
                            racks_[r].computeMetrics(edge.tree, edge.node),
                            Phase::Gather, stats);
            }
        }
    }

    // Tier k's gather closes at start + k x gatherDeadlineMs; then its
    // workers assemble their boundary and report upward.
    for (std::uint32_t tier = 1; tier < tiers; ++tier) {
        exchange(tier, Phase::Gather,
                 start + (tier - 1) * protocol_.gatherDeadlineMs,
                 start + tier * protocol_.gatherDeadlineMs, stats.retries,
                 stats);
        if (tiers == 2)
            detectFailures(stats);
        for (const std::uint32_t ep : tierEndpoints_[tier]) {
            if (ep != root)
                heartbeat(ep);
            assemble(ep, stats);
            if (ep == root)
                continue;
            for (const auto &[t, top] : plan_.workers[ep].stations) {
                if (treeLive(t)) {
                    postSummary(ep, hopIndexOf(t, top),
                                fragment(ep).gatherTop(t,
                                                       lastTreeMetrics_[t]),
                                Phase::Gather, stats);
                }
            }
        }
    }

    const std::size_t gather_retries = stats.retries;
    if (tracer_) {
        tracer_->num(gather_span, "messages",
                     static_cast<double>(stats.metricsMessages
                                         + stats.summaryMessages));
        tracer_->num(gather_span, "heartbeats",
                     static_cast<double>(stats.heartbeatMessages));
        tracer_->num(gather_span, "retries",
                     static_cast<double>(gather_retries));
        tracer_->num(gather_span, "stale",
                     static_cast<double>(stats.staleReuses));
        tracer_->num(gather_span, "lost",
                     static_cast<double>(stats.metricsLost));
        tracer_->end(gather_span);
    }

    const auto budget_span =
        tracer_ ? tracer_->begin("budget") : telemetry::PeriodTracer::kNoSpan;
    if (tracer_) {
        tracer_->num(budget_span, "deadline_ms",
                     protocol_.budgetDeadlineMs);
    }

    // ---------------- downstream: the root splits, then each tier
    // forwards what reached it by its deadline. A worker that missed
    // its budget sends nothing further down, so its whole subtree
    // degrades to Pcap_min floors.
    pending_.clear();
    std::fill(got_.begin(), got_.end(), 0);
    for (std::size_t t = 0; t < system_.trees().size(); ++t) {
        if (treeLive(t)) {
            postBudgets(root, t,
                        fragment(root).iterate(t, lastTreeMetrics_[t],
                                               root_budgets[t]),
                        Phase::Budget, stats);
        }
    }
    const double budget_start = tp.nowMs();
    for (std::uint32_t tier = tiers - 1; tier-- > 0;) {
        const double phase_start =
            budget_start + (tiers - 2 - tier) * protocol_.budgetDeadlineMs;
        exchange(tier, Phase::Budget, phase_start,
                 phase_start + protocol_.budgetDeadlineMs, stats.retries,
                 stats);
        if (tier == 0)
            break;
        for (const std::uint32_t ep : tierEndpoints_[tier]) {
            for (const auto &[t, top] : plan_.workers[ep].stations) {
                const std::size_t h = hopIndexOf(t, top);
                if (got_[h]) {
                    postBudgets(ep, t,
                                fragment(ep).budgetDown(t, budget_[h]),
                                Phase::Budget, stats);
                }
            }
        }
    }

    // Edges apply what arrived; a live rack whose edge saw no budget
    // by the deadline falls back to its §4.5 Pcap_min floor.
    for (std::size_t h = 0; h < hops_.size(); ++h) {
        const Hop &hop = hops_[h];
        if (!isEdge(hop) || !treeLive(hop.tree) || rackDown(hop.owner))
            continue;
        RackWorker &rack = racks_[hop.owner];
        if (got_[h]) {
            rack.applyBudget(hop.tree, hop.node, budget_[h]);
            continue;
        }
        const Watts fallback = rack.defaultBudget(hop.tree, hop.node);
        rack.applyBudget(hop.tree, hop.node, fallback);
        ++stats.defaultBudgets;
        stats.degraded.push_back({DegradedKind::DefaultBudgetApplied,
                                  hop.tree, hop.node, hop.owner, fallback});
    }

    stats.bytesOnWire = tp.stats().bytesSent - bytes_before;
    if (tracer_) {
        tracer_->num(budget_span, "messages",
                     static_cast<double>(stats.budgetMessages
                                         + stats.subBudgetMessages));
        tracer_->num(budget_span, "retries",
                     static_cast<double>(stats.retries - gather_retries));
        tracer_->num(budget_span, "defaults",
                     static_cast<double>(stats.defaultBudgets));
        tracer_->end(budget_span);
        for (const DegradedDecision &d : stats.degraded) {
            const auto span = tracer_->begin("degraded");
            tracer_->str(span, "kind", degradedKindName(d.kind));
            tracer_->num(span, "tree", static_cast<double>(d.tree));
            tracer_->num(span, "rack", static_cast<double>(d.rack));
            tracer_->num(span, "value", d.value);
            tracer_->end(span);
        }
    }
    return stats;
}

std::map<std::size_t, std::set<topo::NodeId>>
DistributedControlPlane::pinnedEdges(
    const std::vector<ctrl::SpoPin> &pins) const
{
    std::map<std::size_t, std::set<topo::NodeId>> affected;
    for (const ctrl::SpoPin &pin : pins) {
        const auto it =
            leafToRack_.find({pin.ref.server, pin.ref.supply});
        if (it == leafToRack_.end()) {
            util::panic("DistributedControlPlane: unknown pinned supply "
                        "%d.%d", pin.ref.server, pin.ref.supply);
        }
        for (const RackWorker::Edge &edge : racks_[it->second].edges()) {
            if (edge.tree != pin.tree)
                continue;
            for (const auto &leaf : edge.leaves) {
                if (leaf == pin.ref) {
                    affected[pin.tree].insert(edge.node);
                    break;
                }
            }
        }
    }
    return affected;
}

std::set<std::size_t>
DistributedControlPlane::iterateSpo(const std::vector<Watts> &root_budgets,
                                    const std::vector<ctrl::SpoPin> &pins,
                                    MessageStats &stats)
{
    if (root_budgets.size() != system_.trees().size()) {
        util::fatal("DistributedControlPlane: %zu budgets for %zu trees",
                    root_budgets.size(), system_.trees().size());
    }
    if (plan_.tiers() > 2 && !pins.empty()) {
        // The §4.4 second round is a room <-> rack exchange; deep
        // plans run SPO-free until the round learns to hop tiers.
        util::fatal("DistributedControlPlane: iterateSpo is not "
                    "supported on a deep plan");
    }
    MessageStats before;
    if (registry_ != nullptr)
        before = stats;
    const auto committed =
        transport_ ? iterateSpoTransport(root_budgets, pins, stats)
                   : iterateSpoDirect(root_budgets, pins, stats);
    recordSpoMetrics(before, stats);
    return committed;
}

std::set<std::size_t>
DistributedControlPlane::iterateSpoDirect(
    const std::vector<Watts> &root_budgets,
    const std::vector<ctrl::SpoPin> &pins, MessageStats &stats)
{
    std::set<std::size_t> committed;
    if (pins.empty())
        return committed;
    ++stats.spoRounds;
    const auto spo_span =
        tracer_ ? tracer_->begin("spo") : telemetry::PeriodTracer::kNoSpan;

    // The per-server capping controllers pin their stranded supplies;
    // the link to the owning rack worker is local (paper §5: capping
    // controllers are colocated), so no frames travel for this step.
    for (const ctrl::SpoPin &pin : pins) {
        setLeafInput(pin.ref,
                     ctrl::pinnedLeafInput(pin.priority, pin.consumption));
    }

    // Only pinned edges re-report: an unpinned edge's inputs are
    // unchanged, so recomputing its metrics would reproduce the
    // first-phase summary bit for bit. Trees without pins are skipped
    // entirely for the same reason.
    for (const auto &[t, nodes] : pinnedEdges(pins)) {
        ++stats.spoTreesAttempted;
        // The direct round always commits, so the pinned summaries go
        // straight into the room's view.
        auto &base = lastTreeMetrics_[t];
        for (const topo::NodeId node : nodes) {
            const std::uint32_t rack = hops_[hopIndexOf(t, node)].owner;
            ++stats.spoSummaryMessages;
            base[node] = racks_[rack].computeMetrics(t, node);
        }

        const auto edge_budgets = fragment(plan_.rootEndpoint())
                                      .iterate(t, base, root_budgets[t]);

        for (const auto &[node, budget] : edge_budgets) {
            ++stats.spoBudgetMessages;
            racks_[hops_[hopIndexOf(t, node)].owner].applyBudget(t, node,
                                                                  budget);
        }
        committed.insert(t);
        ++stats.spoCommittedTrees;
    }
    if (tracer_) {
        tracer_->num(spo_span, "pins", static_cast<double>(pins.size()));
        tracer_->num(spo_span, "committed",
                     static_cast<double>(committed.size()));
        tracer_->end(spo_span);
    }
    return committed;
}

std::set<std::size_t>
DistributedControlPlane::iterateSpoTransport(
    const std::vector<Watts> &root_budgets,
    const std::vector<ctrl::SpoPin> &pins, MessageStats &stats)
{
    std::set<std::size_t> committed;
    if (pins.empty())
        return committed;
    ++stats.spoRounds;

    net::Transport &tp = *transport_;
    const std::size_t bytes_before = tp.stats().bytesSent;
    const std::uint32_t root = plan_.rootEndpoint();
    const std::size_t spo_retries_entry = stats.spoRetries;
    const auto spo_gather_span =
        tracer_ ? tracer_->begin("spo.gather")
                : telemetry::PeriodTracer::kNoSpan;
    if (tracer_) {
        tracer_->num(spo_gather_span, "deadline_ms",
                     protocol_.spoGatherDeadlineMs);
        tracer_->num(spo_gather_span, "pins",
                     static_cast<double>(pins.size()));
    }

    // Pin inputs locally (see iterateSpoDirect); a failed rack keeps
    // the state but cannot report it, so its trees will fall back.
    for (const ctrl::SpoPin &pin : pins) {
        setLeafInput(pin.ref,
                     ctrl::pinnedLeafInput(pin.priority, pin.consumption));
    }
    const auto affected = pinnedEdges(pins);

    // ---------------- upstream: pinned summaries from affected edges
    pending_.clear();
    std::fill(got_.begin(), got_.end(), 0);
    for (const auto &[t, nodes] : affected) {
        ++stats.spoTreesAttempted;
        for (const topo::NodeId node : nodes) {
            const std::size_t h = hopIndexOf(t, node);
            const std::uint32_t rack = hops_[h].owner;
            if (!rackDown(rack)) {
                postSummary(rack, h, racks_[rack].computeMetrics(t, node),
                            Phase::SpoGather, stats);
            }
        }
    }
    const double spo_start = tp.nowMs();
    exchange(plan_.root().tier, Phase::SpoGather, spo_start,
             spo_start + protocol_.spoGatherDeadlineMs, stats.spoRetries,
             stats);

    // A tree may only be re-budgeted from a complete second-pass view:
    // any missing pinned summary aborts the tree before a single budget
    // goes out, so it keeps its first-pass budgets wholesale.
    std::vector<std::size_t> gather_ok;
    for (const auto &[t, nodes] : affected) {
        bool ok = true;
        for (const topo::NodeId node : nodes) {
            const std::size_t h = hopIndexOf(t, node);
            if (rackDown(hops_[h].owner) || !got_[h]) {
                ok = false;
                break;
            }
        }
        if (ok) {
            gather_ok.push_back(t);
        } else {
            ++stats.spoFallbackTrees;
            stats.degraded.push_back({DegradedKind::SpoFallback, t,
                                      topo::kNoNode, 0, 1.0});
        }
    }

    const std::size_t spo_gather_retries =
        stats.spoRetries - spo_retries_entry;
    if (tracer_) {
        tracer_->num(spo_gather_span, "attempted",
                     static_cast<double>(affected.size()));
        tracer_->num(spo_gather_span, "gather_ok",
                     static_cast<double>(gather_ok.size()));
        tracer_->num(spo_gather_span, "retries",
                     static_cast<double>(spo_gather_retries));
        tracer_->end(spo_gather_span);
    }
    const auto spo_budget_span =
        tracer_ ? tracer_->begin("spo.budget")
                : telemetry::PeriodTracer::kNoSpan;
    if (tracer_) {
        tracer_->num(spo_budget_span, "deadline_ms",
                     protocol_.spoBudgetDeadlineMs);
    }

    // ---------------- room re-compute + downstream second-pass budgets
    // Swap the pinned summaries into the room's view for the compute
    // and straight back out: the first-pass view stays intact until the
    // tree commits.
    const auto swap_pinned = [&](std::size_t t) {
        auto &base = lastTreeMetrics_[t];
        for (const topo::NodeId node : affected.at(t))
            std::swap(base[node], fresh_[hopIndexOf(t, node)]);
    };
    pending_.clear();
    std::fill(got_.begin(), got_.end(), 0);
    for (const std::size_t t : gather_ok) {
        swap_pinned(t);
        const auto edge_budgets = fragment(root).iterate(
            t, lastTreeMetrics_[t], root_budgets[t]);
        swap_pinned(t);
        postBudgets(root, t, edge_budgets, Phase::SpoBudget, stats);
    }
    // Racks buffer second-pass budgets without applying them, so an
    // incomplete tree can roll back without ever mixing the passes.
    const double budget_start = tp.nowMs();
    exchange(0, Phase::SpoBudget, budget_start,
             budget_start + protocol_.spoBudgetDeadlineMs, stats.spoRetries,
             stats);

    // Per-tree atomic commit: every live edge applies its second-pass
    // budget, or none does and the buffers are discarded.
    for (const std::size_t t : gather_ok) {
        bool complete = true;
        for (std::size_t h = 0; h < hops_.size(); ++h) {
            if (hops_[h].tree == t && !rackDown(hops_[h].owner)
                && !got_[h]) {
                complete = false;
                break;
            }
        }
        if (!complete) {
            ++stats.spoFallbackTrees;
            stats.degraded.push_back({DegradedKind::SpoFallback, t,
                                      topo::kNoNode, 0, 2.0});
            continue;
        }
        for (std::size_t h = 0; h < hops_.size(); ++h) {
            const Hop &hop = hops_[h];
            if (hop.tree == t && !rackDown(hop.owner))
                racks_[hop.owner].applyBudget(t, hop.node, budget_[h]);
        }
        auto &base = lastTreeMetrics_[t];
        for (const topo::NodeId node : affected.at(t))
            base[node] = std::move(fresh_[hopIndexOf(t, node)]);
        committed.insert(t);
        ++stats.spoCommittedTrees;
    }

    const std::size_t spo_bytes = tp.stats().bytesSent - bytes_before;
    stats.spoBytesOnWire += spo_bytes;
    stats.bytesOnWire += spo_bytes;
    if (tracer_) {
        tracer_->num(spo_budget_span, "retries",
                     static_cast<double>(stats.spoRetries
                                         - spo_retries_entry
                                         - spo_gather_retries));
        tracer_->num(spo_budget_span, "committed",
                     static_cast<double>(committed.size()));
        tracer_->end(spo_budget_span);
    }
    return committed;
}

Watts
DistributedControlPlane::leafBudget(const topo::ServerSupplyRef &ref) const
{
    const auto it = leafToRack_.find({ref.server, ref.supply});
    if (it == leafToRack_.end())
        util::panic("DistributedControlPlane: unknown supply %d.%d",
                    ref.server, ref.supply);
    // The owning rack knows which of its edges holds the leaf; search
    // its trees (a leaf lives in exactly one edge).
    for (const RackWorker::Edge &edge : racks_[it->second].edges()) {
        for (std::size_t i = 0; i < edge.leaves.size(); ++i) {
            if (edge.leaves[i] == ref)
                return racks_[it->second].leafBudget(edge.tree, ref);
        }
    }
    util::panic("DistributedControlPlane: supply %d.%d not routed",
                ref.server, ref.supply);
}

} // namespace capmaestro::core
