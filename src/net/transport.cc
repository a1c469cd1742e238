#include "net/transport.hh"

#include <algorithm>

namespace capmaestro::net {

std::vector<Transport::Delivery>
Transport::drain(const std::vector<Endpoint> &locals)
{
    std::vector<Delivery> out;
    for (const Endpoint ep : locals) {
        for (auto &frame : poll(ep))
            out.push_back({ep, std::move(frame)});
    }
    return out;
}

SimTransport::SimTransport(TransportConfig config)
    : config_(config), rng_(config.seed)
{
}

void
SimTransport::setTelemetry(telemetry::Registry *registry)
{
    registry_ = registry;
    if (registry_ == nullptr) {
        mSent_ = {};
        mDropped_ = {};
        mDuplicated_ = {};
        mDelivered_ = {};
        mBytes_ = {};
        mBytesDelivered_ = {};
        mQueueDepth_ = {};
        mLatencyMs_ = {};
        return;
    }
    mSent_ = registry_->counter("capmaestro_transport_frames_sent_total",
                                {}, "Frames submitted to the transport");
    mDropped_ =
        registry_->counter("capmaestro_transport_frames_dropped_total", {},
                           "Frames lost by the fault model");
    mDuplicated_ =
        registry_->counter("capmaestro_transport_frames_duplicated_total",
                           {}, "Frames delivered twice");
    mDelivered_ =
        registry_->counter("capmaestro_transport_frames_delivered_total",
                           {}, "Frames handed to poll()");
    mBytes_ = registry_->counter("capmaestro_transport_bytes_total", {},
                                 "Payload bytes submitted");
    mBytesDelivered_ =
        registry_->counter("capmaestro_transport_bytes_delivered_total",
                           {}, "Payload bytes handed to poll()");
    mQueueDepth_ =
        registry_->gauge("capmaestro_transport_queue_depth", {},
                         "Frames in flight after the last send/poll");
    mLatencyMs_ = registry_->histogram(
        "capmaestro_transport_latency_ms", 0.0, 100.0, 50, {},
        "Scheduled one-way frame latency, milliseconds");
}

double
SimTransport::sampleLatency()
{
    double latency = config_.latencyMeanMs;
    if (config_.latencyJitterMs > 0.0) {
        latency += rng_.uniform(-config_.latencyJitterMs,
                                config_.latencyJitterMs);
    }
    return std::max(latency, 0.0);
}

void
SimTransport::enqueue(Endpoint to, double deliver_at,
                      std::vector<std::uint8_t> frame)
{
    queues_[to].emplace(std::make_pair(deliver_at, order_++),
                        std::move(frame));
    ++inFlight_;
}

void
SimTransport::send(Endpoint from, Endpoint to,
                   std::vector<std::uint8_t> frame)
{
    (void)from; // links share one fault model; kept for addressing
    ++stats_.framesSent;
    stats_.bytesSent += frame.size();
    mSent_.inc();
    mBytes_.inc(static_cast<double>(frame.size()));

    if (rng_.chance(config_.dropRate)) {
        ++stats_.framesDropped;
        mDropped_.inc();
        return;
    }

    double deliver_at = nowMs_ + sampleLatency();
    if (rng_.chance(config_.reorderRate))
        deliver_at += config_.reorderExtraMs;

    if (rng_.chance(config_.dupRate)) {
        ++stats_.framesDuplicated;
        mDuplicated_.inc();
        const double dup_at = nowMs_ + sampleLatency();
        mLatencyMs_.observe(dup_at - nowMs_);
        enqueue(to, dup_at, frame);
    }
    mLatencyMs_.observe(deliver_at - nowMs_);
    enqueue(to, deliver_at, std::move(frame));
    if (registry_ != nullptr)
        mQueueDepth_.set(static_cast<double>(inFlight_));
}

std::vector<std::vector<std::uint8_t>>
SimTransport::poll(Endpoint to)
{
    std::vector<std::vector<std::uint8_t>> out;
    const auto queue = queues_.find(to);
    if (queue == queues_.end())
        return out;
    auto &q = queue->second;
    std::size_t bytes = 0;
    while (!q.empty() && q.begin()->first.first <= nowMs_) {
        bytes += q.begin()->second.size();
        out.push_back(std::move(q.begin()->second));
        q.erase(q.begin());
        ++stats_.framesDelivered;
    }
    inFlight_ -= out.size();
    stats_.bytesDelivered += bytes;
    if (registry_ != nullptr && !out.empty()) {
        mDelivered_.inc(static_cast<double>(out.size()));
        mBytesDelivered_.inc(static_cast<double>(bytes));
        mQueueDepth_.set(static_cast<double>(inFlight_));
    }
    return out;
}

void
SimTransport::advanceTo(double ms)
{
    nowMs_ = std::max(nowMs_, ms);
}

void
SimTransport::advanceBy(double ms)
{
    if (ms > 0.0)
        nowMs_ += ms;
}

} // namespace capmaestro::net
