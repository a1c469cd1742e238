#include "core/distributed.hh"

#include <algorithm>
#include <limits>
#include <optional>

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

namespace {

/** A frame sent for one edge, kept for retransmission until answered. */
struct PendingFrame
{
    /** Dense edge index. */
    std::size_t edge;
    std::size_t rack;
    std::vector<std::uint8_t> frame;
};

} // namespace

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
      plan_(TreePlan::build(system, agg_levels)),
      // The root fragment's boundary: its child stations — which with
      // an empty plan are exactly the edge node sets of old.
      room_(system, plan_.boundariesOf(plan_.rootEndpoint()), policy)
{
    buildWorkers();
}

DistributedControlPlane::DistributedControlPlane(
    const topo::PowerSystem &system, ctrl::TreePolicy policy,
    net::Transport &transport, net::ProtocolConfig protocol,
    std::vector<std::uint32_t> agg_levels)
    : system_(system), policy_(policy),
      plan_(TreePlan::build(system, agg_levels)),
      room_(system, plan_.boundariesOf(plan_.rootEndpoint()), policy),
      transport_(&transport), protocol_(protocol)
{
    buildWorkers();
}

void
DistributedControlPlane::buildWorkers()
{
    const auto owners = partition(system_);
    std::size_t rack_count = 0;
    for (const auto &per_tree : owners) {
        for (const auto &[node, rack] : per_tree)
            rack_count = std::max(rack_count, rack + 1);
    }

    racks_.reserve(rack_count);
    for (std::size_t r = 0; r < rack_count; ++r)
        racks_.emplace_back(system_, policy_);

    // owners[t] is ordered by node id, so edges_ comes out in (tree,
    // node) order — the order every per-edge loop walks.
    lastTreeMetrics_.assign(system_.trees().size(), {});
    edgeIndex_.resize(owners.size());
    for (std::size_t t = 0; t < owners.size(); ++t) {
        edgeIndex_[t].assign(system_.tree(t).size(), kNoEdge);
        for (const auto &[node, rack] : owners[t]) {
            racks_[rack].addEdge(t, node);
            edgeIndex_[t][static_cast<std::size_t>(node)] = edges_.size();
            edges_.push_back({t, node, rack});
            lastTreeMetrics_[t][node] = {};
            for (const topo::NodeId c :
                 system_.tree(t).node(node).children) {
                const auto &ref = *system_.tree(t).node(c).supplyRef;
                leafToRack_[{ref.server, ref.supply}] = rack;
            }
        }
    }

    rackSeq_.assign(rack_count, 0);
    rackFailed_.assign(rack_count, false);
    rackDeclaredDead_.assign(rack_count, false);
    missedHeartbeats_.assign(rack_count, 0);

    // Aggregator fragments for deep plans: one RoomWorker per internal
    // non-root worker, cut at its stations and its children's.
    for (std::uint32_t ep = static_cast<std::uint32_t>(plan_.leafWorkers);
         ep < plan_.rootEndpoint(); ++ep) {
        aggs_.emplace_back(system_, plan_.topsOf(ep),
                           plan_.boundariesOf(ep), policy_);
    }
    aggSeq_.assign(aggs_.size(), 0);
}

std::size_t
DistributedControlPlane::edgeIndexOf(std::size_t tree,
                                     topo::NodeId node) const
{
    if (tree >= edgeIndex_.size() || node < 0
        || static_cast<std::size_t>(node) >= edgeIndex_[tree].size()) {
        return kNoEdge;
    }
    return edgeIndex_[tree][static_cast<std::size_t>(node)];
}

net::Transport::Endpoint
DistributedControlPlane::roomEndpoint() const
{
    return static_cast<net::Transport::Endpoint>(racks_.size());
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
        edges_[edgeIndexOf(edge.tree, edge.node)].rack = adopter;
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
    MessageStats stats;
    if (plan_.tiers() > 2) {
        stats = transport_ ? iterateTransportDeep(root_budgets)
                           : iterateDirectDeep(root_budgets);
    } else {
        stats = transport_ ? iterateTransport(root_budgets)
                           : iterateDirect(root_budgets);
    }
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
        auto &edge_metrics = lastTreeMetrics_[t];
        if (system_.feedFailed(system_.tree(t).feed())) {
            for (auto &[node, m] : edge_metrics)
                m.clear();
            continue;
        }
        const auto tree_span =
            tracer_ ? tracer_->begin("tree", iterate_span)
                    : telemetry::PeriodTracer::kNoSpan;

        // Upstream: every edge in this tree reports metrics.
        for (const PlaneEdge &edge : edges_) {
            if (edge.tree != t)
                continue;
            ctrl::NodeMetrics &m = edge_metrics[edge.node];
            m = racks_[edge.rack].computeMetrics(t, edge.node);
            ++stats.metricsMessages;
            stats.metricClassesSent += m.classes().size();
        }

        // Room worker computes the upper tree and returns edge budgets.
        const auto edge_budgets =
            room_.iterate(t, edge_metrics, root_budgets[t]);

        // Downstream: budgets back to the owning rack workers.
        for (const auto &[node, budget] : edge_budgets) {
            ++stats.budgetMessages;
            racks_[edges_[edgeIndexOf(t, node)].rack].applyBudget(
                t, node, budget);
        }
        if (tracer_) {
            tracer_->num(tree_span, "tree", static_cast<double>(t));
            tracer_->num(tree_span, "edges",
                         static_cast<double>(edge_budgets.size()));
            tracer_->end(tree_span);
        }
    }
    if (tracer_) {
        tracer_->num(iterate_span, "metrics_messages",
                     static_cast<double>(stats.metricsMessages));
        tracer_->num(iterate_span, "budget_messages",
                     static_cast<double>(stats.budgetMessages));
        tracer_->end(iterate_span);
    }
    return stats;
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
    const net::Transport::Endpoint room = roomEndpoint();

    const auto gather_span =
        tracer_ ? tracer_->begin("gather") : telemetry::PeriodTracer::kNoSpan;
    if (tracer_) {
        tracer_->num(gather_span, "deadline_ms",
                     protocol_.gatherDeadlineMs);
    }

    const auto tree_live = [&](std::size_t t) {
        return !system_.feedFailed(system_.tree(t).feed());
    };

    // ---------------- upstream: heartbeats + per-edge metrics
    std::vector<PendingFrame> pending_up;
    pending_up.reserve(edges_.size());
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        if (rackFailed_[r] || rackDeclaredDead_[r])
            continue;
        tp.send(static_cast<net::Transport::Endpoint>(r), room,
                net::encodeHeartbeat(
                    {static_cast<std::uint16_t>(r), epoch_,
                     rackSeq_[r]++}));
        ++stats.heartbeatMessages;
        for (const RackWorker::Edge &edge : racks_[r].edges()) {
            if (!tree_live(edge.tree))
                continue;
            net::MetricsMsg msg;
            msg.tree = static_cast<std::uint16_t>(edge.tree);
            msg.edgeNode = static_cast<std::uint32_t>(edge.node);
            msg.metrics = racks_[r].computeMetrics(edge.tree, edge.node);
            ++stats.metricsMessages;
            stats.metricClassesSent += msg.metrics.classes().size();
            auto frame = net::encodeMetrics(
                {static_cast<std::uint16_t>(r), epoch_, rackSeq_[r]++},
                msg);
            tp.send(static_cast<net::Transport::Endpoint>(r), room,
                    frame);
            pending_up.push_back({edgeIndexOf(edge.tree, edge.node), r,
                                  std::move(frame)});
        }
    }

    // Per-round state, indexed by dense edge index (or rack).
    std::vector<std::optional<ctrl::NodeMetrics>> fresh(edges_.size());
    std::vector<bool> heard(racks_.size(), false);
    const auto poll_room = [&] {
        for (const auto &bytes : tp.poll(room)) {
            auto frame = net::decodeFrame(bytes);
            if (!frame) {
                ++stats.corruptFrames;
                continue;
            }
            if (frame->epoch != epoch_) {
                ++stats.orphanFrames;
                continue;
            }
            if (frame->sender < racks_.size())
                heard[frame->sender] = true;
            if (frame->type != net::MsgType::Metrics)
                continue;
            const std::size_t e = edgeIndexOf(
                frame->metrics.tree,
                static_cast<topo::NodeId>(frame->metrics.edgeNode));
            if (e != kNoEdge)
                fresh[e] = std::move(frame->metrics.metrics);
        }
    };

    const double gather_deadline = start + protocol_.gatherDeadlineMs;
    for (int attempt = 1; attempt < protocol_.maxAttempts; ++attempt) {
        const double next = start + attempt * protocol_.retryTimeoutMs;
        if (next >= gather_deadline)
            break;
        tp.advanceTo(next);
        poll_room();
        bool all_in = true;
        for (const PendingFrame &up : pending_up) {
            if (fresh[up.edge])
                continue;
            all_in = false;
            ++stats.retries;
            tp.send(static_cast<net::Transport::Endpoint>(up.rack),
                    room, up.frame);
        }
        if (all_in)
            break;
    }
    tp.advanceTo(gather_deadline);
    poll_room();

    // Liveness: any frame from a rack counts as its heartbeat.
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        if (rackDeclaredDead_[r])
            continue;
        if (heard[r]) {
            missedHeartbeats_[r] = 0;
        } else if (++missedHeartbeats_[r]
                   >= protocol_.heartbeatFailAfter) {
            rehomeWorker(r, stats);
        }
    }

    // Assemble per-tree edge metrics with §4.5 stale fallback, in place
    // into the room's view (the base the SPO round overlays).
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        const auto [t, node, rack] = edges_[e];
        ctrl::NodeMetrics &slot = lastTreeMetrics_[t][node];
        if (!tree_live(t)) {
            slot.clear();
            continue;
        }
        const std::pair<std::size_t, topo::NodeId> key{t, node};
        if (fresh[e]) {
            CachedMetrics &cache = metricCache_[key];
            cache.metrics = *fresh[e];
            cache.epoch = epoch_;
            cache.valid = true;
            slot = std::move(*fresh[e]);
            continue;
        }
        const auto cached = metricCache_.find(key);
        const std::uint32_t age =
            cached != metricCache_.end() && cached->second.valid
                ? epoch_ - cached->second.epoch
                : 0;
        if (cached != metricCache_.end() && cached->second.valid
            && age <= static_cast<std::uint32_t>(
                   protocol_.staleAgeCapPeriods)) {
            slot = cached->second.metrics;
            ++stats.staleReuses;
            stats.degraded.push_back({DegradedKind::StaleMetricsReused,
                                      t, node, rack,
                                      static_cast<double>(age)});
        } else {
            // Too old (or never seen): the edge contributes nothing.
            slot.clear();
            ++stats.metricsLost;
            stats.degraded.push_back(
                {DegradedKind::MetricsLost, t, node, rack,
                 static_cast<double>(age)});
        }
    }

    const std::size_t gather_retries = stats.retries;
    if (tracer_) {
        tracer_->num(gather_span, "messages",
                     static_cast<double>(stats.metricsMessages));
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

    // ---------------- room compute + downstream budgets
    std::vector<PendingFrame> pending_down;
    pending_down.reserve(edges_.size());
    for (std::size_t t = 0; t < system_.trees().size(); ++t) {
        if (!tree_live(t))
            continue;
        const auto edge_budgets =
            room_.iterate(t, lastTreeMetrics_[t], root_budgets[t]);
        for (const auto &[node, budget] : edge_budgets) {
            const std::size_t e = edgeIndexOf(t, node);
            const std::size_t rack = edges_[e].rack;
            if (rackFailed_[rack] || rackDeclaredDead_[rack])
                continue; // nobody home to receive it
            net::BudgetMsg msg;
            msg.tree = static_cast<std::uint16_t>(t);
            msg.edgeNode = static_cast<std::uint32_t>(node);
            msg.budget = budget;
            ++stats.budgetMessages;
            auto frame = net::encodeBudget(
                {net::kRoomSender, epoch_, roomSeq_++}, msg);
            tp.send(room, static_cast<net::Transport::Endpoint>(rack),
                    frame);
            pending_down.push_back({e, rack, std::move(frame)});
        }
    }

    std::vector<bool> applied(edges_.size(), false);
    const auto poll_racks = [&] {
        for (std::size_t r = 0; r < racks_.size(); ++r) {
            const auto frames =
                tp.poll(static_cast<net::Transport::Endpoint>(r));
            if (rackFailed_[r])
                continue; // dead process: frames drain unread
            for (const auto &bytes : frames) {
                const auto frame = net::decodeFrame(bytes);
                if (!frame) {
                    ++stats.corruptFrames;
                    continue;
                }
                if (frame->epoch != epoch_
                    || frame->type != net::MsgType::Budget) {
                    ++stats.orphanFrames;
                    continue;
                }
                const std::size_t t = frame->budget.tree;
                const auto node =
                    static_cast<topo::NodeId>(frame->budget.edgeNode);
                const std::size_t e = edgeIndexOf(t, node);
                if (e != kNoEdge && applied[e])
                    continue; // duplicate delivery
                // Re-homed mid-period races are impossible (failover
                // happens before budgets go out), so the owner check
                // is a pure integrity assertion.
                if (e == kNoEdge || edges_[e].rack != r) {
                    ++stats.orphanFrames;
                    continue;
                }
                racks_[r].applyBudget(t, node, frame->budget.budget);
                applied[e] = true;
            }
        }
    };

    const double budget_start = tp.nowMs();
    const double budget_deadline =
        budget_start + protocol_.budgetDeadlineMs;
    for (int attempt = 1; attempt < protocol_.maxAttempts; ++attempt) {
        const double next =
            budget_start + attempt * protocol_.retryTimeoutMs;
        if (next >= budget_deadline)
            break;
        tp.advanceTo(next);
        poll_racks();
        bool all_in = true;
        for (const PendingFrame &down : pending_down) {
            if (applied[down.edge])
                continue;
            all_in = false;
            ++stats.retries;
            tp.send(room,
                    static_cast<net::Transport::Endpoint>(down.rack),
                    down.frame);
        }
        if (all_in)
            break;
    }
    tp.advanceTo(budget_deadline);
    poll_racks();

    // §4.5 default budgets: a live rack whose edge saw no budget by the
    // deadline falls back to its Pcap_min floor.
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        const auto [t, node, rack] = edges_[e];
        if (!tree_live(t) || rackFailed_[rack]
            || rackDeclaredDead_[rack]) {
            continue;
        }
        if (applied[e])
            continue;
        const Watts fallback = racks_[rack].defaultBudget(t, node);
        racks_[rack].applyBudget(t, node, fallback);
        ++stats.defaultBudgets;
        stats.degraded.push_back(
            {DegradedKind::DefaultBudgetApplied, t, node, rack,
             fallback});
    }

    stats.bytesOnWire = tp.stats().bytesSent - bytes_before;
    if (tracer_) {
        tracer_->num(budget_span, "messages",
                     static_cast<double>(stats.budgetMessages));
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
            const std::size_t rack = edges_[edgeIndexOf(t, node)].rack;
            ++stats.spoSummaryMessages;
            base[node] = racks_[rack].computeMetrics(t, node);
        }

        const auto edge_budgets =
            room_.iterate(t, base, root_budgets[t]);

        for (const auto &[node, budget] : edge_budgets) {
            ++stats.spoBudgetMessages;
            racks_[edges_[edgeIndexOf(t, node)].rack].applyBudget(
                t, node, budget);
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
    const net::Transport::Endpoint room = roomEndpoint();
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
    std::vector<PendingFrame> pending_up;
    std::vector<bool> unreachable(edges_.size(), false);
    for (const auto &[t, nodes] : affected) {
        ++stats.spoTreesAttempted;
        for (const topo::NodeId node : nodes) {
            const std::size_t e = edgeIndexOf(t, node);
            const std::size_t rack = edges_[e].rack;
            if (rackFailed_[rack] || rackDeclaredDead_[rack]) {
                unreachable[e] = true;
                continue;
            }
            net::MetricsMsg msg;
            msg.tree = static_cast<std::uint16_t>(t);
            msg.edgeNode = static_cast<std::uint32_t>(node);
            msg.metrics = racks_[rack].computeMetrics(t, node);
            ++stats.spoSummaryMessages;
            auto frame = net::encodePinnedSummary(
                {static_cast<std::uint16_t>(rack), epoch_,
                 rackSeq_[rack]++},
                msg);
            tp.send(static_cast<net::Transport::Endpoint>(rack), room,
                    frame);
            pending_up.push_back({e, rack, std::move(frame)});
        }
    }

    std::vector<std::optional<ctrl::NodeMetrics>> fresh(edges_.size());
    const auto poll_room = [&] {
        for (const auto &bytes : tp.poll(room)) {
            auto frame = net::decodeFrame(bytes);
            if (!frame) {
                ++stats.corruptFrames;
                continue;
            }
            // Late first-phase traffic and old epochs are both dead
            // weight here; neither may masquerade as a pinned summary.
            if (frame->epoch != epoch_
                || frame->type != net::MsgType::PinnedSummary) {
                ++stats.orphanFrames;
                continue;
            }
            const std::size_t e = edgeIndexOf(
                frame->metrics.tree,
                static_cast<topo::NodeId>(frame->metrics.edgeNode));
            if (e != kNoEdge)
                fresh[e] = std::move(frame->metrics.metrics);
        }
    };

    const double spo_start = tp.nowMs();
    const double gather_deadline =
        spo_start + protocol_.spoGatherDeadlineMs;
    for (int attempt = 1; attempt < protocol_.maxAttempts; ++attempt) {
        const double next = spo_start + attempt * protocol_.retryTimeoutMs;
        if (next >= gather_deadline)
            break;
        tp.advanceTo(next);
        poll_room();
        bool all_in = true;
        for (const PendingFrame &up : pending_up) {
            if (fresh[up.edge])
                continue;
            all_in = false;
            ++stats.spoRetries;
            tp.send(static_cast<net::Transport::Endpoint>(up.rack),
                    room, up.frame);
        }
        if (all_in)
            break;
    }
    tp.advanceTo(gather_deadline);
    poll_room();

    // A tree may only be re-budgeted from a complete second-pass view:
    // any missing pinned summary aborts the tree before a single budget
    // goes out, so it keeps its first-pass budgets wholesale.
    std::vector<std::size_t> gather_ok;
    for (const auto &[t, nodes] : affected) {
        bool ok = true;
        for (const topo::NodeId node : nodes) {
            const std::size_t e = edgeIndexOf(t, node);
            if (unreachable[e] || !fresh[e]) {
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
            std::swap(base[node], *fresh[edgeIndexOf(t, node)]);
    };
    std::vector<PendingFrame> pending_down;
    /** Per tree: the dense edges owed a second-pass budget. */
    std::vector<std::vector<std::size_t>> expect(system_.trees().size());
    for (const std::size_t t : gather_ok) {
        swap_pinned(t);
        const auto edge_budgets =
            room_.iterate(t, lastTreeMetrics_[t], root_budgets[t]);
        swap_pinned(t);
        for (const auto &[node, budget] : edge_budgets) {
            const std::size_t e = edgeIndexOf(t, node);
            const std::size_t rack = edges_[e].rack;
            if (rackFailed_[rack] || rackDeclaredDead_[rack])
                continue; // nobody home to receive it
            net::BudgetMsg msg;
            msg.tree = static_cast<std::uint16_t>(t);
            msg.edgeNode = static_cast<std::uint32_t>(node);
            msg.budget = budget;
            ++stats.spoBudgetMessages;
            auto frame = net::encodeSpoBudget(
                {net::kRoomSender, epoch_, roomSeq_++}, msg);
            tp.send(room, static_cast<net::Transport::Endpoint>(rack),
                    frame);
            expect[t].push_back(e);
            pending_down.push_back({e, rack, std::move(frame)});
        }
    }

    // Racks buffer second-pass budgets without applying them, so an
    // incomplete tree can roll back without ever mixing the passes.
    std::vector<std::optional<Watts>> buffered(edges_.size());
    const auto poll_racks = [&] {
        for (std::size_t r = 0; r < racks_.size(); ++r) {
            const auto frames =
                tp.poll(static_cast<net::Transport::Endpoint>(r));
            if (rackFailed_[r])
                continue; // dead process: frames drain unread
            for (const auto &bytes : frames) {
                const auto frame = net::decodeFrame(bytes);
                if (!frame) {
                    ++stats.corruptFrames;
                    continue;
                }
                if (frame->epoch != epoch_
                    || frame->type != net::MsgType::SpoBudget) {
                    ++stats.orphanFrames;
                    continue;
                }
                const std::size_t e = edgeIndexOf(
                    frame->budget.tree,
                    static_cast<topo::NodeId>(frame->budget.edgeNode));
                if (e == kNoEdge || edges_[e].rack != r) {
                    ++stats.orphanFrames;
                    continue;
                }
                buffered[e] = frame->budget.budget;
            }
        }
    };

    const double budget_start = tp.nowMs();
    const double budget_deadline =
        budget_start + protocol_.spoBudgetDeadlineMs;
    for (int attempt = 1; attempt < protocol_.maxAttempts; ++attempt) {
        const double next =
            budget_start + attempt * protocol_.retryTimeoutMs;
        if (next >= budget_deadline)
            break;
        tp.advanceTo(next);
        poll_racks();
        bool all_in = true;
        for (const PendingFrame &down : pending_down) {
            if (buffered[down.edge])
                continue;
            all_in = false;
            ++stats.spoRetries;
            tp.send(room,
                    static_cast<net::Transport::Endpoint>(down.rack),
                    down.frame);
        }
        if (all_in)
            break;
    }
    tp.advanceTo(budget_deadline);
    poll_racks();

    // Per-tree atomic commit: every live edge applies its second-pass
    // budget, or none does and the buffers are discarded.
    for (const std::size_t t : gather_ok) {
        bool complete = true;
        for (const std::size_t e : expect[t]) {
            if (!buffered[e]) {
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
        for (const std::size_t e : expect[t]) {
            racks_[edges_[e].rack].applyBudget(t, edges_[e].node,
                                               *buffered[e]);
        }
        auto &base = lastTreeMetrics_[t];
        for (const topo::NodeId node : affected.at(t))
            base[node] = std::move(*fresh[edgeIndexOf(t, node)]);
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
