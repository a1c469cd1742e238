/**
 * @file
 * The benchmark's view into the message plane, shared by the deep-udp
 * and plane-lossy workloads: a net::Transport wrapper that times the
 * calls a control plane makes into its transport and can capture the
 * frames it sends, plus an offline replay of captured frames through
 * the wire codec.
 *
 * The wrapper is injected in every run. With timing and capture off it
 * only forwards each call, so traced and untraced runs go through the
 * same code path and differ only by the clock reads.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"
#include "net/transport.hh"

namespace perfbench {

/** Forwarding net::Transport that can time calls and capture frames. */
class TimingTransport : public capmaestro::net::Transport
{
  public:
    /** Wrap @p inner (not owned; must outlive the wrapper). */
    explicit TimingTransport(capmaestro::net::Transport &inner)
        : inner_(inner)
    {
    }

    /**
     * Start (or stop) the traced mode: every call is timed, and the
     * frames sent during the next kCapturePeriods periods are kept for
     * the codec replay.
     */
    void setTraced(bool on);

    /** Mark the end of a period (ends the capture after enough). */
    void endPeriod();

    /**
     * Transport-side layer figures of a traced window: time per period
     * inside send(), poll()/drain() and advanceBy()/advanceTo(), the
     * rest of the period under @p rest_name, and the codec replay of
     * the captured frames. Fails (@p ok false) when the timed calls
     * exceed the periods or a frame does not round-trip the codec.
     */
    std::vector<Metric> layerMetrics(const Window &traced,
                                     const std::string &rest_name, bool &ok,
                                     std::string &why) const;

    void send(Endpoint from, Endpoint to,
              std::vector<std::uint8_t> frame) override;
    std::vector<std::vector<std::uint8_t>> poll(Endpoint to) override;
    std::vector<Delivery>
    drain(const std::vector<Endpoint> &locals) override;
    void advanceTo(double ms) override;
    void advanceBy(double ms) override;
    double nowMs() const override { return inner_.nowMs(); }
    std::size_t inFlight() const override { return inner_.inFlight(); }
    const capmaestro::net::TransportStats &stats() const override
    {
        return inner_.stats();
    }
    void setTelemetry(capmaestro::telemetry::Registry *registry) override
    {
        inner_.setTelemetry(registry);
    }

    /** Periods whose frames the traced mode captures. */
    static constexpr std::size_t kCapturePeriods = 4;

  private:
    capmaestro::net::Transport &inner_;
    bool timing_ = false;
    /** Periods of capture left (0 = not capturing). */
    std::size_t captureLeft_ = 0;
    /** Inside send(). */
    double sendMs_ = 0.0;
    /** Inside poll() and drain(). */
    double drainMs_ = 0.0;
    /** Inside advanceBy()/advanceTo(): where a real clock sleeps. */
    double idleMs_ = 0.0;
    std::vector<std::vector<std::uint8_t>> captured_;
};

/** Result of replaying captured frames through the codec. */
struct CodecReplay
{
    /** Median wall time of one pass over every frame. */
    double ms = 0.0;
    std::size_t frames = 0;
    /** XOR of the frames' CRCs over every pass (keeps the CRC work
     *  observable). */
    std::uint32_t checksum = 0;
    /** Frames that failed to decode or did not re-encode to the same
     *  bytes (a codec fault: the frames were produced by the codec). */
    std::size_t mismatches = 0;
};

/**
 * Checksum every frame with net::crc32, decode it with net::decodeFrame
 * and re-encode it with the encoder of its type, @p passes times; the
 * re-encoded bytes must equal the original frame.
 */
CodecReplay replayCodec(const std::vector<std::vector<std::uint8_t>> &frames,
                        int passes);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
