#include "probe.hh"

#include <utility>

#include "net/wire.hh"

namespace perfbench {

namespace net = capmaestro::net;

void
TimingTransport::setTraced(bool on)
{
    timing_ = on;
    captureLeft_ = on ? kCapturePeriods : 0;
    if (on)
        captured_.clear();
}

void
TimingTransport::endPeriod()
{
    if (captureLeft_ > 0)
        --captureLeft_;
}

void
TimingTransport::send(Endpoint from, Endpoint to,
                      std::vector<std::uint8_t> frame)
{
    if (captureLeft_ > 0)
        captured_.push_back(frame);
    if (!timing_) {
        inner_.send(from, to, std::move(frame));
        return;
    }
    const double t0 = perfbench::nowMs();
    inner_.send(from, to, std::move(frame));
    sendMs_ += perfbench::nowMs() - t0;
}

std::vector<std::vector<std::uint8_t>>
TimingTransport::poll(Endpoint to)
{
    if (!timing_)
        return inner_.poll(to);
    const double t0 = perfbench::nowMs();
    auto frames = inner_.poll(to);
    drainMs_ += perfbench::nowMs() - t0;
    return frames;
}

std::vector<net::Transport::Delivery>
TimingTransport::drain(const std::vector<Endpoint> &locals)
{
    if (!timing_)
        return inner_.drain(locals);
    const double t0 = perfbench::nowMs();
    auto deliveries = inner_.drain(locals);
    drainMs_ += perfbench::nowMs() - t0;
    return deliveries;
}

void
TimingTransport::advanceTo(double ms)
{
    if (!timing_) {
        inner_.advanceTo(ms);
        return;
    }
    const double t0 = perfbench::nowMs();
    inner_.advanceTo(ms);
    idleMs_ += perfbench::nowMs() - t0;
}

void
TimingTransport::advanceBy(double ms)
{
    if (!timing_) {
        inner_.advanceBy(ms);
        return;
    }
    const double t0 = perfbench::nowMs();
    inner_.advanceBy(ms);
    idleMs_ += perfbench::nowMs() - t0;
}

std::vector<Metric>
TimingTransport::layerMetrics(const Window &traced,
                              const std::string &rest_name, bool &ok,
                              std::string &why) const
{
    const auto n = static_cast<double>(traced.periodMs.size());
    double period_ms = 0.0;
    for (const double ms : traced.periodMs)
        period_ms += ms;
    const double timed = sendMs_ + drainMs_ + idleMs_;
    if (timed > period_ms) {
        ok = false;
        why = "send + drain + idle exceed the traced periods";
    }
    const CodecReplay codec = replayCodec(captured_, 5);
    if (codec.frames == 0) {
        ok = false;
        why = "no frames captured for the codec replay";
    }
    if (codec.mismatches != 0) {
        ok = false;
        why = std::to_string(codec.mismatches)
              + " captured frames did not round-trip the codec";
    }
    const auto captured = static_cast<double>(kCapturePeriods);
    return {
        {"net.send_ms_per_period", sendMs_ / n, "ms"},
        {"net.drain_ms_per_period", drainMs_ / n, "ms"},
        {"rt.idle_ms_per_period", idleMs_ / n, "ms"},
        {rest_name, (period_ms - timed) / n, "ms"},
        {"net.codec_ms_per_period", codec.ms / captured, "ms"},
        {"net.codec_frames_per_period",
         static_cast<double>(codec.frames) / captured, "count"},
    };
}

namespace {

/** Re-encode a decoded frame with the encoder of its type. */
std::vector<std::uint8_t>
reencode(const net::Frame &f)
{
    net::FrameMeta meta(f.sender, f.epoch, f.seq, f.trace);
    meta.wireVersion = f.wireVersion;
    switch (f.type) {
      case net::MsgType::Metrics:
        return net::encodeMetrics(meta, f.metrics);
      case net::MsgType::Budget:
        return net::encodeBudget(meta, f.budget);
      case net::MsgType::Heartbeat:
        return net::encodeHeartbeat(meta);
      case net::MsgType::PinnedSummary:
        return net::encodePinnedSummary(meta, f.metrics);
      case net::MsgType::SpoBudget:
        return net::encodeSpoBudget(meta, f.budget);
      case net::MsgType::Checkpoint:
        return net::encodeCheckpoint(meta, f.checkpoint);
      case net::MsgType::Rehome:
        return net::encodeRehome(meta, f.checkpoint);
      case net::MsgType::Summary:
        return net::encodeSummary(meta, f.metrics);
      case net::MsgType::SubBudget:
        return net::encodeSubBudget(meta, f.budget);
      case net::MsgType::MembershipDelta:
        return net::encodeMembershipDelta(meta, f.membershipDelta);
      case net::MsgType::MembershipAck:
        return net::encodeMembershipAck(meta, f.membershipAck);
    }
    return {};
}

} // namespace

CodecReplay
replayCodec(const std::vector<std::vector<std::uint8_t>> &frames,
            int passes)
{
    CodecReplay out;
    out.frames = frames.size();
    std::vector<double> pass_ms;
    for (int p = 0; p < passes; ++p) {
        std::size_t mismatches = 0;
        const double t0 = nowMs();
        for (const auto &bytes : frames) {
            out.checksum ^= net::crc32(bytes.data(), bytes.size());
            const auto frame = net::decodeFrame(bytes);
            if (!frame || reencode(*frame) != bytes)
                ++mismatches;
        }
        pass_ms.push_back(nowMs() - t0);
        out.mismatches = mismatches;
    }
    out.ms = quantile(pass_ms, 0.5);
    return out;
}

} // namespace perfbench
