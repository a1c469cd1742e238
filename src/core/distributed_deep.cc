/**
 * @file
 * Deep-plan iteration bodies of DistributedControlPlane: the same
 * gather/budget exchange as the 2-level plane, run hop by hop over a
 * core::TreePlan worker tree of arbitrary depth.
 *
 * Direct mode chains RoomWorker fragments in process — bit-identical
 * to the monolithic ControlTree because gatherMetrics/budgetChildren
 * are associative and every boundary summary crosses the cut verbatim.
 * Message-plane mode replicates the §4.5 per-phase discipline on every
 * worker-to-worker hop: tier k's gather closes at k x gatherDeadlineMs
 * from period start (senders retransmit into that window), budgets
 * mirror the schedule on the way down, and every hop applies the
 * stale-metric fallback upstream and the conservative-default fallback
 * downstream independently. A mid-tier worker that misses its budget
 * sends nothing further down — its whole subtree degrades to Pcap_min
 * floors, which can never overload the tree.
 *
 * Worker failover (heartbeat re-homing) and the §4.4 SPO round remain
 * 2-level-plane features; deep deployments exercise worker death at
 * the runtime level (rt::WorkerRuntime) instead.
 */

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/distributed.hh"
#include "net/wire.hh"
#include "util/logging.hh"

namespace capmaestro::core {

namespace {

/** Station of worker @p w in tree @p t, or kNoNode. */
topo::NodeId
stationIn(const TreePlan::Worker &w, std::size_t t)
{
    const auto it = w.stations.find(t);
    return it == w.stations.end() ? topo::kNoNode : it->second;
}

} // namespace

MessageStats
DistributedControlPlane::iterateDirectDeep(
    const std::vector<Watts> &root_budgets)
{
    MessageStats stats;
    const auto iterate_span = tracer_
                                  ? tracer_->begin("iterate")
                                  : telemetry::PeriodTracer::kNoSpan;
    const std::uint32_t tiers = plan_.tiers();

    for (std::size_t t = 0; t < system_.trees().size(); ++t) {
        if (system_.feedFailed(system_.tree(t).feed())) {
            for (auto &[node, m] : lastTreeMetrics_[t])
                m.clear();
            continue;
        }
        const auto tree_span =
            tracer_ ? tracer_->begin("tree", iterate_span)
                    : telemetry::PeriodTracer::kNoSpan;

        // Upstream: summaries per station, built tier by tier.
        std::map<topo::NodeId, ctrl::NodeMetrics> summary;
        for (const PlaneEdge &edge : edges_) {
            if (edge.tree != t)
                continue;
            ctrl::NodeMetrics m =
                racks_[edge.rack].computeMetrics(t, edge.node);
            ++stats.metricsMessages;
            stats.metricClassesSent += m.classes().size();
            lastTreeMetrics_[t][edge.node] = m;
            summary.emplace(edge.node, std::move(m));
        }

        for (std::uint32_t tier = 1; tier + 1 < tiers; ++tier) {
            for (const std::uint32_t ep : plan_.tierEndpoints(tier)) {
                const TreePlan::Worker &w = plan_.workers[ep];
                const topo::NodeId top = stationIn(w, t);
                if (top == topo::kNoNode)
                    continue;
                std::map<topo::NodeId, ctrl::NodeMetrics> boundary;
                for (const std::uint32_t c : w.children) {
                    const topo::NodeId cs =
                        stationIn(plan_.workers[c], t);
                    const auto got = summary.find(cs);
                    if (cs != topo::kNoNode && got != summary.end())
                        boundary.emplace(cs, got->second);
                }
                ctrl::NodeMetrics m =
                    aggs_[ep - plan_.leafWorkers].gatherTop(t,
                                                            boundary);
                ++stats.summaryMessages;
                stats.metricClassesSent += m.classes().size();
                summary.emplace(top, std::move(m));
            }
        }

        // Root worker: gather its boundary, split the root budget.
        std::map<topo::NodeId, ctrl::NodeMetrics> root_boundary;
        for (const std::uint32_t c : plan_.root().children) {
            const topo::NodeId cs = stationIn(plan_.workers[c], t);
            const auto got = summary.find(cs);
            if (cs != topo::kNoNode && got != summary.end())
                root_boundary.emplace(cs, got->second);
        }
        std::map<topo::NodeId, Watts> station_budget =
            room_.iterate(t, root_boundary, root_budgets[t]);

        // Downstream: aggregators split tier by tier.
        for (std::uint32_t tier = tiers - 2; tier >= 1; --tier) {
            for (const std::uint32_t ep : plan_.tierEndpoints(tier)) {
                const TreePlan::Worker &w = plan_.workers[ep];
                const topo::NodeId top = stationIn(w, t);
                if (top == topo::kNoNode)
                    continue;
                const auto got = station_budget.find(top);
                if (got == station_budget.end())
                    continue;
                ++stats.subBudgetMessages;
                const auto split =
                    aggs_[ep - plan_.leafWorkers].budgetDown(
                        t, got->second);
                for (const auto &[node, b] : split)
                    station_budget[node] = b;
            }
        }

        std::size_t edges = 0;
        for (const PlaneEdge &edge : edges_) {
            if (edge.tree != t)
                continue;
            const auto got = station_budget.find(edge.node);
            if (got == station_budget.end())
                continue;
            ++stats.budgetMessages;
            ++edges;
            racks_[edge.rack].applyBudget(t, edge.node, got->second);
        }
        if (tracer_) {
            tracer_->num(tree_span, "tree", static_cast<double>(t));
            tracer_->num(tree_span, "edges",
                         static_cast<double>(edges));
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

MessageStats
DistributedControlPlane::iterateTransportDeep(
    const std::vector<Watts> &root_budgets)
{
    MessageStats stats;
    net::Transport &tp = *transport_;
    ++epoch_;
    const std::size_t bytes_before = tp.stats().bytesSent;
    const double start = tp.nowMs();
    const std::uint32_t tiers = plan_.tiers();
    const std::uint32_t root_ep = plan_.rootEndpoint();

    const auto tree_live = [&](std::size_t t) {
        return !system_.feedFailed(system_.tree(t).feed());
    };
    // The sender-id alias a child expects on frames from its parent.
    const auto parent_sender = [&](std::uint32_t parent) {
        return parent == root_ep
                   ? net::kRoomSender
                   : static_cast<std::uint16_t>(parent);
    };
    const auto next_seq = [&](std::uint32_t ep) -> std::uint32_t {
        if (ep < racks_.size())
            return rackSeq_[ep]++;
        if (ep == root_ep)
            return roomSeq_++;
        return aggSeq_[ep - plan_.leafWorkers]++;
    };

    // ---------------- upstream: hop by hop, receiver tiers ascending.
    struct PendingUp
    {
        std::uint32_t from;
        std::uint32_t to;
        std::size_t tree;
        topo::NodeId node;
        std::vector<std::uint8_t> frame;
    };
    std::vector<PendingUp> pending_up;
    // Fresh summaries received per worker this epoch.
    std::map<std::uint32_t,
             std::map<std::pair<std::size_t, topo::NodeId>,
                      ctrl::NodeMetrics>>
        fresh_at;

    const auto send_up = [&](std::uint32_t ep, std::size_t t,
                             topo::NodeId node,
                             const ctrl::NodeMetrics &m) {
        const TreePlan::Worker &w = plan_.workers[ep];
        net::MetricsMsg msg;
        msg.tree = static_cast<std::uint16_t>(t);
        msg.edgeNode = static_cast<std::uint32_t>(node);
        msg.metrics = m;
        stats.metricClassesSent += m.classes().size();
        const net::FrameMeta meta{static_cast<std::uint16_t>(ep),
                                  epoch_, next_seq(ep)};
        std::vector<std::uint8_t> frame;
        if (w.isLeaf()) {
            ++stats.metricsMessages;
            frame = net::encodeMetrics(meta, msg);
        } else {
            ++stats.summaryMessages;
            frame = net::encodeSummary(meta, msg);
        }
        tp.send(ep, w.parent, frame);
        pending_up.push_back({ep, w.parent, t, node, std::move(frame)});
    };

    // Leaf tier sends at period start (heartbeat + per-edge metrics).
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        const TreePlan::Worker &w = plan_.workers[r];
        tp.send(static_cast<net::Transport::Endpoint>(r), w.parent,
                net::encodeHeartbeat({static_cast<std::uint16_t>(r),
                                      epoch_, next_seq(
                                          static_cast<std::uint32_t>(
                                              r))}));
        ++stats.heartbeatMessages;
        for (const RackWorker::Edge &edge : racks_[r].edges()) {
            if (!tree_live(edge.tree))
                continue;
            send_up(static_cast<std::uint32_t>(r), edge.tree,
                    edge.node,
                    racks_[r].computeMetrics(edge.tree, edge.node));
        }
    }

    // Poll every worker at @p tier, filing fresh summaries.
    const auto poll_tier_up = [&](std::uint32_t tier) {
        for (const std::uint32_t ep : plan_.tierEndpoints(tier)) {
            const TreePlan::Worker &w = plan_.workers[ep];
            std::set<std::uint32_t> children(w.children.begin(),
                                             w.children.end());
            for (const auto &bytes : tp.poll(ep)) {
                const auto frame = net::decodeFrame(bytes);
                if (!frame) {
                    ++stats.corruptFrames;
                    continue;
                }
                if (frame->epoch != epoch_
                    || children.count(frame->sender) == 0) {
                    ++stats.orphanFrames;
                    continue;
                }
                const bool from_leaf =
                    plan_.workers[frame->sender].isLeaf();
                if ((from_leaf
                     && frame->type == net::MsgType::Metrics)
                    || (!from_leaf
                        && frame->type == net::MsgType::Summary)) {
                    fresh_at[ep][{frame->metrics.tree,
                                  static_cast<topo::NodeId>(
                                      frame->metrics.edgeNode)}] =
                        frame->metrics.metrics;
                }
            }
        }
    };

    // Assemble worker @p ep's boundary view of tree @p t with the
    // §4.5 stale fallback, from what arrived by its gather deadline.
    const auto assemble = [&](std::uint32_t ep, std::size_t t) {
        const TreePlan::Worker &w = plan_.workers[ep];
        std::map<topo::NodeId, ctrl::NodeMetrics> boundary;
        const auto &fresh = fresh_at[ep];
        for (const std::uint32_t c : w.children) {
            const topo::NodeId cs = stationIn(plan_.workers[c], t);
            if (cs == topo::kNoNode)
                continue;
            const std::pair<std::size_t, topo::NodeId> key{t, cs};
            const auto got = fresh.find(key);
            if (got != fresh.end()) {
                boundary.emplace(cs, got->second);
                metricCache_[key] = {got->second, epoch_, true};
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
                boundary.emplace(cs, cached->second.metrics);
                ++stats.staleReuses;
                stats.degraded.push_back(
                    {DegradedKind::StaleMetricsReused, t, cs, c,
                     static_cast<double>(age)});
            } else {
                ++stats.metricsLost;
                stats.degraded.push_back({DegradedKind::MetricsLost, t,
                                          cs, c,
                                          static_cast<double>(age)});
            }
        }
        return boundary;
    };

    const auto gather_span = tracer_
                                 ? tracer_->begin("gather")
                                 : telemetry::PeriodTracer::kNoSpan;

    // Receiver tiers ascending: close tier k's gather at
    // start + k x gatherDeadlineMs, then its workers summarize upward.
    std::vector<std::map<topo::NodeId, ctrl::NodeMetrics>>
        root_boundary(system_.trees().size());
    for (std::uint32_t tier = 1; tier < tiers; ++tier) {
        const double phase_start =
            start + (tier - 1) * protocol_.gatherDeadlineMs;
        const double deadline =
            start + tier * protocol_.gatherDeadlineMs;
        for (int attempt = 1; attempt < protocol_.maxAttempts;
             ++attempt) {
            const double next =
                phase_start + attempt * protocol_.retryTimeoutMs;
            if (next >= deadline)
                break;
            tp.advanceTo(next);
            poll_tier_up(tier);
            bool all_in = true;
            for (const PendingUp &up : pending_up) {
                if (plan_.workers[up.to].tier != tier)
                    continue;
                if (fresh_at[up.to].count({up.tree, up.node}))
                    continue;
                all_in = false;
                ++stats.retries;
                tp.send(up.from, up.to, up.frame);
            }
            if (all_in)
                break;
        }
        tp.advanceTo(deadline);
        poll_tier_up(tier);

        for (const std::uint32_t ep : plan_.tierEndpoints(tier)) {
            const TreePlan::Worker &w = plan_.workers[ep];
            if (ep != root_ep) {
                tp.send(ep, w.parent,
                        net::encodeHeartbeat(
                            {static_cast<std::uint16_t>(ep), epoch_,
                             next_seq(ep)}));
                ++stats.heartbeatMessages;
            }
            for (std::size_t t = 0; t < system_.trees().size(); ++t) {
                const topo::NodeId top = stationIn(w, t);
                if (top == topo::kNoNode || !tree_live(t))
                    continue;
                auto boundary = assemble(ep, t);
                if (ep == root_ep) {
                    root_boundary[t] = std::move(boundary);
                } else {
                    send_up(ep, t, top,
                            aggs_[ep - plan_.leafWorkers].gatherTop(
                                t, boundary));
                }
            }
        }
    }

    if (tracer_) {
        tracer_->num(gather_span, "messages",
                     static_cast<double>(stats.metricsMessages
                                         + stats.summaryMessages));
        tracer_->num(gather_span, "retries",
                     static_cast<double>(stats.retries));
        tracer_->num(gather_span, "stale",
                     static_cast<double>(stats.staleReuses));
        tracer_->num(gather_span, "lost",
                     static_cast<double>(stats.metricsLost));
        tracer_->end(gather_span);
    }
    const std::size_t gather_retries = stats.retries;
    const auto budget_span = tracer_
                                 ? tracer_->begin("budget")
                                 : telemetry::PeriodTracer::kNoSpan;

    // ---------------- downstream: receiver tiers descending.
    struct PendingDown
    {
        std::uint32_t from;
        std::uint32_t to;
        std::size_t tree;
        topo::NodeId node;
        std::vector<std::uint8_t> frame;
    };
    std::vector<PendingDown> pending_down;
    // Budgets received per worker this epoch.
    std::map<std::uint32_t, std::map<std::pair<std::size_t,
                                               topo::NodeId>,
                                     Watts>>
        budget_at;
    std::set<std::pair<std::size_t, topo::NodeId>> applied;

    // Send worker @p ep's per-child budgets for tree @p t.
    const auto send_down = [&](std::uint32_t ep, std::size_t t,
                               const std::map<topo::NodeId, Watts>
                                   &split) {
        const TreePlan::Worker &w = plan_.workers[ep];
        for (const std::uint32_t c : w.children) {
            const topo::NodeId cs = stationIn(plan_.workers[c], t);
            const auto got = split.find(cs);
            if (cs == topo::kNoNode || got == split.end())
                continue;
            net::BudgetMsg msg;
            msg.tree = static_cast<std::uint16_t>(t);
            msg.edgeNode = static_cast<std::uint32_t>(cs);
            msg.budget = got->second;
            const net::FrameMeta meta{parent_sender(ep), epoch_,
                                      next_seq(ep)};
            std::vector<std::uint8_t> frame;
            if (plan_.workers[c].isLeaf()) {
                ++stats.budgetMessages;
                frame = net::encodeBudget(meta, msg);
            } else {
                ++stats.subBudgetMessages;
                frame = net::encodeSubBudget(meta, msg);
            }
            tp.send(ep, c, frame);
            pending_down.push_back({ep, c, t, cs, std::move(frame)});
        }
    };

    // Root computes and sends first.
    for (std::size_t t = 0; t < system_.trees().size(); ++t) {
        if (!tree_live(t))
            continue;
        send_down(root_ep, t,
                  room_.iterate(t, root_boundary[t], root_budgets[t]));
    }

    const auto poll_tier_down = [&](std::uint32_t tier) {
        for (const std::uint32_t ep : plan_.tierEndpoints(tier)) {
            const TreePlan::Worker &w = plan_.workers[ep];
            const std::uint16_t expect = parent_sender(w.parent);
            const bool is_leaf = w.isLeaf();
            for (const auto &bytes : tp.poll(ep)) {
                const auto frame = net::decodeFrame(bytes);
                if (!frame) {
                    ++stats.corruptFrames;
                    continue;
                }
                const auto want = is_leaf ? net::MsgType::Budget
                                          : net::MsgType::SubBudget;
                if (frame->epoch != epoch_ || frame->type != want
                    || frame->sender != expect) {
                    ++stats.orphanFrames;
                    continue;
                }
                const std::size_t t = frame->budget.tree;
                const auto node = static_cast<topo::NodeId>(
                    frame->budget.edgeNode);
                if (stationIn(w, t) != node) {
                    ++stats.orphanFrames;
                    continue;
                }
                budget_at[ep].insert({{t, node},
                                      frame->budget.budget});
            }
        }
    };

    const double gather_end =
        start + (tiers - 1) * protocol_.gatherDeadlineMs;
    for (std::uint32_t tier = tiers - 1; tier-- > 0;) {
        const double phase_start =
            gather_end
            + (tiers - 2 - tier) * protocol_.budgetDeadlineMs;
        const double deadline = phase_start + protocol_.budgetDeadlineMs;
        for (int attempt = 1; attempt < protocol_.maxAttempts;
             ++attempt) {
            const double next =
                phase_start + attempt * protocol_.retryTimeoutMs;
            if (next >= deadline)
                break;
            tp.advanceTo(next);
            poll_tier_down(tier);
            bool all_in = true;
            for (const PendingDown &down : pending_down) {
                if (plan_.workers[down.to].tier != tier)
                    continue;
                if (budget_at[down.to].count({down.tree, down.node}))
                    continue;
                all_in = false;
                ++stats.retries;
                tp.send(down.from, down.to, down.frame);
            }
            if (all_in)
                break;
        }
        tp.advanceTo(deadline);
        poll_tier_down(tier);

        // Aggregators at this tier split and forward what they got; a
        // missing budget means silence below (floors all the way down).
        for (const std::uint32_t ep : plan_.tierEndpoints(tier)) {
            const TreePlan::Worker &w = plan_.workers[ep];
            if (w.isLeaf())
                continue;
            for (const auto &[key, budget] : budget_at[ep]) {
                send_down(ep, key.first,
                          aggs_[ep - plan_.leafWorkers].budgetDown(
                              key.first, budget));
            }
        }
    }

    // Leaves apply received budgets, then the §4.5 defaults.
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        for (const auto &[key, budget] : budget_at[
                 static_cast<std::uint32_t>(r)]) {
            racks_[r].applyBudget(key.first, key.second, budget);
            applied.insert(key);
        }
    }
    for (const auto &[t, node, rack] : edges_) {
        if (!tree_live(t) || applied.count({t, node}))
            continue;
        const Watts fallback = racks_[rack].defaultBudget(t, node);
        racks_[rack].applyBudget(t, node, fallback);
        ++stats.defaultBudgets;
        stats.degraded.push_back({DegradedKind::DefaultBudgetApplied,
                                  t, node, rack, fallback});
    }

    stats.bytesOnWire = tp.stats().bytesSent - bytes_before;
    if (tracer_) {
        tracer_->num(budget_span, "messages",
                     static_cast<double>(stats.budgetMessages
                                         + stats.subBudgetMessages));
        tracer_->num(budget_span, "retries",
                     static_cast<double>(stats.retries
                                         - gather_retries));
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

} // namespace capmaestro::core
