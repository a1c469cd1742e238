/**
 * @file
 * Tests for the binary wire codec (net/wire): bit-exact round trips,
 * header validation, and robustness against truncated / bit-flipped /
 * random garbage frames (decodeFrame must reject them cleanly, never
 * crash).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <vector>

#include "net/wire.hh"
#include "util/random.hh"

using namespace capmaestro;
using net::BudgetMsg;
using net::FrameMeta;
using net::MetricsMsg;
using net::MsgType;

namespace {

MetricsMsg
sampleMetrics()
{
    MetricsMsg msg;
    msg.tree = 3;
    msg.edgeNode = 17;
    // Awkward doubles: values that lose precision if anything rounds.
    msg.metrics.accumulate(7, 270.125, 0.1 + 0.2, 412.75);
    msg.metrics.accumulate(2, 135.0, 301.3333333333333, 305.5);
    msg.metrics.accumulate(0, 100.0, 123.456789, 130.0);
    msg.metrics.setConstraint(1234.000000001);
    return msg;
}

void
expectBitExact(const ctrl::NodeMetrics &a, const ctrl::NodeMetrics &b)
{
    ASSERT_EQ(a.classes().size(), b.classes().size());
    for (std::size_t i = 0; i < a.classes().size(); ++i) {
        const auto &ca = a.classes()[i];
        const auto &cb = b.classes()[i];
        EXPECT_EQ(ca.priority, cb.priority);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ca.capMin),
                  std::bit_cast<std::uint64_t>(cb.capMin));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ca.demand),
                  std::bit_cast<std::uint64_t>(cb.demand));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ca.request),
                  std::bit_cast<std::uint64_t>(cb.request));
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.constraint()),
              std::bit_cast<std::uint64_t>(b.constraint()));
}

} // namespace

TEST(Wire, MetricsRoundTripIsBitExact)
{
    const auto msg = sampleMetrics();
    const FrameMeta meta{42, 1000, 77};
    const auto bytes = net::encodeMetrics(meta, msg);

    const auto frame = net::decodeFrame(bytes);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::Metrics);
    EXPECT_EQ(frame->sender, 42);
    EXPECT_EQ(frame->epoch, 1000u);
    EXPECT_EQ(frame->seq, 77u);
    EXPECT_EQ(frame->metrics.tree, 3);
    EXPECT_EQ(frame->metrics.edgeNode, 17u);
    expectBitExact(frame->metrics.metrics, msg.metrics);
}

TEST(Wire, BudgetRoundTripIsBitExact)
{
    BudgetMsg msg;
    msg.tree = 1;
    msg.edgeNode = 9;
    msg.budget = 98765.4321000001;
    const auto bytes =
        net::encodeBudget(FrameMeta{net::kRoomSender, 5, 12}, msg);

    const auto frame = net::decodeFrame(bytes);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::Budget);
    EXPECT_EQ(frame->sender, net::kRoomSender);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(frame->budget.budget),
              std::bit_cast<std::uint64_t>(msg.budget));
}

TEST(Wire, HeartbeatRoundTrip)
{
    const auto bytes = net::encodeHeartbeat(FrameMeta{7, 3, 1});
    EXPECT_EQ(bytes.size(), net::kHeaderSize + net::kCrcSize);
    const auto frame = net::decodeFrame(bytes);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::Heartbeat);
    EXPECT_EQ(frame->sender, 7);
    EXPECT_EQ(frame->epoch, 3u);
    EXPECT_EQ(frame->seq, 1u);
}

TEST(Wire, PinnedSummaryRoundTripIsBitExact)
{
    // The §4.4 second-round summary reuses the Metrics payload layout
    // but must come back under its own type code.
    const auto msg = sampleMetrics();
    const FrameMeta meta{11, 2000, 99};
    const auto bytes = net::encodePinnedSummary(meta, msg);

    const auto frame = net::decodeFrame(bytes);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::PinnedSummary);
    EXPECT_EQ(frame->sender, 11);
    EXPECT_EQ(frame->epoch, 2000u);
    EXPECT_EQ(frame->seq, 99u);
    EXPECT_EQ(frame->metrics.tree, 3);
    EXPECT_EQ(frame->metrics.edgeNode, 17u);
    expectBitExact(frame->metrics.metrics, msg.metrics);
}

TEST(Wire, SpoBudgetRoundTripIsBitExact)
{
    BudgetMsg msg;
    msg.tree = 2;
    msg.edgeNode = 14;
    msg.budget = 1350.0000000001;
    const auto bytes =
        net::encodeSpoBudget(FrameMeta{net::kRoomSender, 8, 21}, msg);

    const auto frame = net::decodeFrame(bytes);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::SpoBudget);
    EXPECT_EQ(frame->budget.tree, 2);
    EXPECT_EQ(frame->budget.edgeNode, 14u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(frame->budget.budget),
              std::bit_cast<std::uint64_t>(msg.budget));
}

TEST(Wire, SpoTypesAreDistinctFromFirstPhaseTypes)
{
    // Identical payload, different phase: the only difference between
    // the frames is the type byte, so a retransmitted first-phase frame
    // can never decode as a second-phase one (or vice versa).
    const auto msg = sampleMetrics();
    const FrameMeta meta{1, 2, 3};
    const auto first = net::decodeFrame(net::encodeMetrics(meta, msg));
    const auto second =
        net::decodeFrame(net::encodePinnedSummary(meta, msg));
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    EXPECT_NE(first->type, second->type);

    BudgetMsg b;
    b.tree = 1;
    b.edgeNode = 4;
    b.budget = 500.0;
    const auto down1 = net::decodeFrame(net::encodeBudget(meta, b));
    const auto down2 = net::decodeFrame(net::encodeSpoBudget(meta, b));
    ASSERT_TRUE(down1.has_value());
    ASSERT_TRUE(down2.has_value());
    EXPECT_NE(down1->type, down2->type);
}

TEST(Wire, EmptyMetricsRoundTrip)
{
    // A dead edge reports zero classes; the codec must carry that.
    MetricsMsg msg;
    msg.tree = 0;
    msg.edgeNode = 2;
    const auto bytes = net::encodeMetrics(FrameMeta{}, msg);
    const auto frame = net::decodeFrame(bytes);
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(frame->metrics.metrics.empty());
}

TEST(Wire, SpecialDoublesSurvive)
{
    BudgetMsg msg;
    msg.tree = 0;
    msg.edgeNode = 0;
    msg.budget = std::numeric_limits<double>::infinity();
    auto frame = net::decodeFrame(net::encodeBudget(FrameMeta{}, msg));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->budget.budget,
              std::numeric_limits<double>::infinity());

    msg.budget = std::numeric_limits<double>::denorm_min();
    frame = net::decodeFrame(net::encodeBudget(FrameMeta{}, msg));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(frame->budget.budget),
              std::bit_cast<std::uint64_t>(
                  std::numeric_limits<double>::denorm_min()));
}

TEST(Wire, EveryTruncationRejected)
{
    const auto bytes = net::encodeMetrics(FrameMeta{1, 2, 3},
                                          sampleMetrics());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        EXPECT_FALSE(net::decodeFrame(prefix).has_value())
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(Wire, EverySingleBitFlipRejected)
{
    // CRC-32 detects every single-bit error, so each of the frame's
    // bits flipped in isolation must fail decoding.
    const auto bytes = net::encodeMetrics(FrameMeta{1, 2, 3},
                                          sampleMetrics());
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        auto corrupted = bytes;
        corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(net::decodeFrame(corrupted).has_value())
            << "bit " << bit << " flip decoded";
    }
}

TEST(Wire, PinnedSummaryEveryTruncationRejected)
{
    const auto bytes = net::encodePinnedSummary(FrameMeta{1, 2, 3},
                                                sampleMetrics());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        EXPECT_FALSE(net::decodeFrame(prefix).has_value())
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(Wire, PinnedSummaryEverySingleBitFlipRejected)
{
    const auto bytes = net::encodePinnedSummary(FrameMeta{1, 2, 3},
                                                sampleMetrics());
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        auto corrupted = bytes;
        corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(net::decodeFrame(corrupted).has_value())
            << "bit " << bit << " flip decoded";
    }
}

TEST(Wire, PinnedSummaryRandomMultiBitCorruptionNeverCrashes)
{
    util::Rng rng(90210);
    const auto base = net::encodePinnedSummary(FrameMeta{1, 2, 3},
                                               sampleMetrics());
    for (int trial = 0; trial < 2000; ++trial) {
        auto corrupted = base;
        const int flips = rng.uniformInt(2, 64);
        for (int f = 0; f < flips; ++f) {
            const auto bit = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(corrupted.size() * 8) - 1));
            corrupted[bit / 8] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
        }
        const auto frame = net::decodeFrame(corrupted);
        if (frame.has_value()
            && frame->type == MsgType::PinnedSummary) {
            const auto &classes = frame->metrics.metrics.classes();
            for (std::size_t i = 1; i < classes.size(); ++i)
                EXPECT_LT(classes[i].priority, classes[i - 1].priority);
        }
    }
}

TEST(Wire, SpoBudgetTruncationAndBitFlipsRejected)
{
    BudgetMsg msg;
    msg.tree = 7;
    msg.edgeNode = 3;
    msg.budget = 775.25;
    const auto bytes =
        net::encodeSpoBudget(FrameMeta{net::kRoomSender, 4, 6}, msg);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        EXPECT_FALSE(net::decodeFrame(prefix).has_value());
    }
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        auto corrupted = bytes;
        corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(net::decodeFrame(corrupted).has_value());
    }
}

TEST(Wire, TrailingGarbageRejected)
{
    auto bytes = net::encodeHeartbeat(FrameMeta{1, 2, 3});
    bytes.push_back(0x00);
    EXPECT_FALSE(net::decodeFrame(bytes).has_value());
}

TEST(Wire, RandomGarbageNeverCrashes)
{
    util::Rng rng(2026);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::size_t len =
            static_cast<std::size_t>(rng.uniformInt(0, 256));
        std::vector<std::uint8_t> junk(len);
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        (void)net::decodeFrame(junk); // must not crash or throw
    }
}

TEST(Wire, RandomMultiBitCorruptionNeverCrashes)
{
    // Start from valid frames and apply several random flips: the vast
    // majority must be rejected, and none may crash. (Multi-bit errors
    // can in principle alias the CRC, so we only assert no-crash plus
    // structural validity of anything that does decode.)
    util::Rng rng(31337);
    const auto base = net::encodeMetrics(FrameMeta{1, 2, 3},
                                         sampleMetrics());
    for (int trial = 0; trial < 2000; ++trial) {
        auto corrupted = base;
        const int flips = rng.uniformInt(2, 64);
        for (int f = 0; f < flips; ++f) {
            const auto bit = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(corrupted.size() * 8) - 1));
            corrupted[bit / 8] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
        }
        const auto frame = net::decodeFrame(corrupted);
        if (frame.has_value() && frame->type == MsgType::Metrics) {
            // Anything that survives must still satisfy the invariants.
            const auto &classes = frame->metrics.metrics.classes();
            for (std::size_t i = 1; i < classes.size(); ++i)
                EXPECT_LT(classes[i].priority, classes[i - 1].priority);
        }
    }
}

TEST(Wire, VersionSkewRejected)
{
    auto bytes = net::encodeHeartbeat(FrameMeta{1, 2, 3});
    bytes[2] = net::kWireVersion + 1; // bump version
    // Refresh the CRC so only the version check can reject it.
    const std::uint32_t crc =
        net::crc32(bytes.data(), bytes.size() - net::kCrcSize);
    for (std::size_t i = 0; i < net::kCrcSize; ++i) {
        bytes[bytes.size() - net::kCrcSize + i] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    }
    EXPECT_FALSE(net::decodeFrame(bytes).has_value());
}

TEST(Wire, Crc32MatchesKnownVector)
{
    // IEEE 802.3 check value for "123456789".
    const std::uint8_t data[] = {'1', '2', '3', '4', '5',
                                 '6', '7', '8', '9'};
    EXPECT_EQ(net::crc32(data, sizeof(data)), 0xCBF43926u);
}

namespace {

/** Bitwise CRC-32 (reflected 0xEDB88320, one bit per step): the
 *  definition the table-driven net::crc32 must reproduce. */
std::uint32_t
referenceCrc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
    return ~crc;
}

} // namespace

TEST(Wire, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset)
{
    // Every length 0..256 from every start offset 0..7 covers the
    // eight-byte body, every tail length, and misaligned starts.
    for (const std::uint64_t seed : {1u, 2019u, 0xCA9Eu}) {
        util::Rng rng(seed);
        std::vector<std::uint8_t> buf(256 + 8);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        for (std::size_t offset = 0; offset < 8; ++offset) {
            for (std::size_t len = 0; len <= 256; ++len) {
                ASSERT_EQ(net::crc32(buf.data() + offset, len),
                          referenceCrc32(buf.data() + offset, len))
                    << "seed " << seed << " offset " << offset << " len "
                    << len;
            }
        }
    }
}

TEST(Wire, MetricsFrameGoldenBytes)
{
    // The exact v6 encoding of a 2-class Metrics frame: any encoder
    // change that moves a field, a length or the CRC shows up here.
    MetricsMsg msg;
    msg.tree = 3;
    msg.edgeNode = 17;
    msg.metrics.accumulate(1, 270.5, 0.1 + 0.2, 412.75);
    msg.metrics.accumulate(0, 135.0, -0.0, 1e-300);
    msg.metrics.setConstraint(1234.000000001);
    const std::vector<std::uint8_t> want = {
        // magic, version 6, type Metrics, sender 5
        0x9E, 0xCA, 0x06, 0x01, 0x05, 0x00,
        // epoch 0x01020304, seq 9
        0x04, 0x03, 0x02, 0x01, 0x09, 0x00, 0x00, 0x00,
        // payload length 72, no trace context
        0x48, 0x00, 0x00,
        // tree 3, edge node 17, constraint
        0x03, 0x00, 0x11, 0x00, 0x00, 0x00,
        0x2E, 0x11, 0x00, 0x00, 0x00, 0x48, 0x93, 0x40,
        // class count 2; priority 1: capMin, demand, request
        0x02, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xE8, 0x70, 0x40,
        0x34, 0x33, 0x33, 0x33, 0x33, 0x33, 0xD3, 0x3F,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xCC, 0x79, 0x40,
        // priority 0: capMin, demand (-0.0), request (1e-300)
        0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x60, 0x40,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
        0x59, 0xF3, 0xF8, 0xC2, 0x1F, 0x6E, 0xA5, 0x01,
        // CRC-32 over the 89 bytes above
        0x5A, 0xB9, 0x1D, 0x3C};
    EXPECT_EQ(net::encodeMetrics({5, 0x01020304u, 9}, msg), want);
    const auto frame = net::decodeFrame(want);
    ASSERT_TRUE(frame.has_value());
    expectBitExact(frame->metrics.metrics, msg.metrics);
}

TEST(Wire, BudgetFrameWithTraceContextGoldenBytes)
{
    BudgetMsg msg;
    msg.tree = 2;
    msg.edgeNode = 0x000A0B0Cu;
    msg.budget = 1234.5;
    FrameMeta meta{net::kRoomSender, 77, 1000};
    net::TraceContext ctx;
    ctx.traceId = 0xBEEF;
    ctx.originTier = 2;
    ctx.sendMs = 1723111845123.000244140625;
    meta.trace = ctx;
    const std::vector<std::uint8_t> want = {
        // magic, version 6, type Budget, sender kRoomSender
        0x9E, 0xCA, 0x06, 0x02, 0xFF, 0xFF,
        // epoch 77, seq 1000
        0x4D, 0x00, 0x00, 0x00, 0xE8, 0x03, 0x00, 0x00,
        // payload length 14, trace context length 11
        0x0E, 0x00, 0x0B,
        // trace id 0xBEEF, origin tier 2, send time
        0xEF, 0xBE, 0x02,
        0x01, 0x30, 0xD0, 0x82, 0x17, 0x13, 0x79, 0x42,
        // tree 2, edge node 0x000A0B0C, budget 1234.5
        0x02, 0x00, 0x0C, 0x0B, 0x0A, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x4A, 0x93, 0x40,
        // CRC-32 over the 42 bytes above
        0x6A, 0xC5, 0xDB, 0x19};
    EXPECT_EQ(net::encodeBudget(meta, msg), want);
    const auto frame = net::decodeFrame(want);
    ASSERT_TRUE(frame.has_value());
    ASSERT_TRUE(frame->trace.has_value());
    EXPECT_EQ(frame->trace->traceId, 0xBEEF);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(frame->budget.budget),
              std::bit_cast<std::uint64_t>(1234.5));
}

TEST(Wire, SpanDecodeReadsAFrameInsideALargerBuffer)
{
    // The span form decodes a frame where it lies, e.g. inside a
    // receive buffer, without copying it out first.
    const auto frame = net::encodeMetrics({1, 2, 3}, sampleMetrics());
    std::vector<std::uint8_t> buffer(5, 0xAA);
    buffer.insert(buffer.end(), frame.begin(), frame.end());
    buffer.resize(buffer.size() + 7, 0xBB);
    const auto decoded = net::decodeFrame(
        std::span<const std::uint8_t>(buffer).subspan(5, frame.size()));
    ASSERT_TRUE(decoded.has_value());
    expectBitExact(decoded->metrics.metrics, sampleMetrics().metrics);
    // One byte short or long of the frame is a length mismatch.
    EXPECT_FALSE(net::decodeFrame(
        std::span<const std::uint8_t>(buffer).subspan(5, frame.size() - 1)));
    EXPECT_FALSE(net::decodeFrame(
        std::span<const std::uint8_t>(buffer).subspan(5, frame.size() + 1)));
}

namespace {

/** Overwrite the trailing CRC so later checks see a "valid" frame. */
void
refreshCrc(std::vector<std::uint8_t> &bytes)
{
    const std::uint32_t crc =
        net::crc32(bytes.data(), bytes.size() - net::kCrcSize);
    for (std::size_t i = 0; i < net::kCrcSize; ++i) {
        bytes[bytes.size() - net::kCrcSize + i] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    }
}

/** Patch the header's declared payload-length field (offset 14). */
void
declarePayloadLength(std::vector<std::uint8_t> &bytes,
                     std::uint16_t length)
{
    bytes[14] = static_cast<std::uint8_t>(length & 0xFF);
    bytes[15] = static_cast<std::uint8_t>(length >> 8);
}

} // namespace

TEST(Wire, FrameOverHardCapRejected)
{
    // A buffer larger than kMaxFrameBytes is rejected up front, even
    // if everything inside it were to check out.
    auto bytes = net::encodeHeartbeat(FrameMeta{1, 2, 3});
    bytes.resize(net::kMaxFrameBytes + 1, 0);
    refreshCrc(bytes);
    EXPECT_FALSE(net::decodeFrame(bytes).has_value());
}

TEST(Wire, HostileDeclaredPayloadLengthRejected)
{
    // Declared payload length beyond kMaxPayloadBytes must be rejected
    // on the declared value alone — before any size-equality or CRC
    // work that would trust it. Keep the CRC honest so nothing else
    // can be the reason for rejection.
    for (const std::uint32_t hostile :
         {static_cast<std::uint32_t>(net::kMaxPayloadBytes) + 1,
          40000u, 65535u}) {
        auto bytes = net::encodeHeartbeat(FrameMeta{1, 2, 3});
        declarePayloadLength(bytes,
                             static_cast<std::uint16_t>(hostile));
        refreshCrc(bytes);
        EXPECT_FALSE(net::decodeFrame(bytes).has_value())
            << "declared length " << hostile;
    }
}

TEST(Wire, HostileMetricsCountRejectedBeforeAllocation)
{
    // A Metrics payload declaring more class records than the payload
    // holds must be rejected by arithmetic on the declared count, not
    // by faulting after a count-sized allocation. The frame below is
    // fully valid (magic, version, length, CRC) except that its count
    // field promises 1024 records while carrying none.
    std::vector<std::uint8_t> bytes;
    const std::uint8_t header[] = {
        0x9E, 0xCA,                  // magic, little-endian
        net::kWireVersion,
        static_cast<std::uint8_t>(MsgType::Metrics),
        0x01, 0x00,                  // sender
        0x02, 0x00, 0x00, 0x00,      // epoch
        0x03, 0x00, 0x00, 0x00,      // seq
        0x10, 0x00,                  // payload length: 16 bytes
        0x00,                        // no trace context
    };
    bytes.reserve(64);
    bytes.assign(header, header + sizeof(header));
    const std::uint8_t payload[] = {
        0x00, 0x00,                  // tree
        0x11, 0x00, 0x00, 0x00,      // edge node
        0, 0, 0, 0, 0, 0, 0, 0,      // constraint (0.0)
        0x00, 0x04,                  // count = 1024, but no records
    };
    bytes.insert(bytes.end(), payload, payload + sizeof(payload));
    bytes.resize(bytes.size() + net::kCrcSize, 0);
    refreshCrc(bytes);
    EXPECT_FALSE(net::decodeFrame(bytes).has_value());
}

namespace {

/** A checkpoint exercising every field with precision-hostile values. */
net::CheckpointMsg
sampleCheckpoint()
{
    net::CheckpointMsg msg;
    msg.simNow = 12345.000000000001;
    msg.rehomeAckEpoch = 0xDEADBEEF;
    net::CheckpointServer a;
    a.serverId = 7;
    a.integratorPrimed = true;
    a.spoPinned = false;
    a.integratorDc = 270.1 + 0.2;
    a.demandEstimate = 412.3333333333333;
    a.avgThrottle = 0.1 + 0.2;
    a.supplies.push_back({350.125, 0.5000000001, 348.875});
    a.supplies.push_back({349.875, 0.4999999999, 351.0625});
    msg.servers.push_back(a);
    net::CheckpointServer b;
    b.serverId = 2;
    b.integratorPrimed = false;
    b.spoPinned = true;
    b.avgThrottle = 1.0;
    b.supplies.push_back({0.0, 1.0, 0.0});
    msg.servers.push_back(b);
    // A server with no supplies at all (dead plant) must round-trip.
    net::CheckpointServer c;
    c.serverId = 9;
    msg.servers.push_back(c);
    return msg;
}

void
expectBitExact(const net::CheckpointMsg &a, const net::CheckpointMsg &b)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.simNow),
              std::bit_cast<std::uint64_t>(b.simNow));
    EXPECT_EQ(a.rehomeAckEpoch, b.rehomeAckEpoch);
    ASSERT_EQ(a.servers.size(), b.servers.size());
    for (std::size_t i = 0; i < a.servers.size(); ++i) {
        const auto &sa = a.servers[i];
        const auto &sb = b.servers[i];
        EXPECT_EQ(sa.serverId, sb.serverId);
        EXPECT_EQ(sa.integratorPrimed, sb.integratorPrimed);
        EXPECT_EQ(sa.spoPinned, sb.spoPinned);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.integratorDc),
                  std::bit_cast<std::uint64_t>(sb.integratorDc));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.demandEstimate),
                  std::bit_cast<std::uint64_t>(sb.demandEstimate));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.avgThrottle),
                  std::bit_cast<std::uint64_t>(sb.avgThrottle));
        ASSERT_EQ(sa.supplies.size(), sb.supplies.size());
        for (std::size_t s = 0; s < sa.supplies.size(); ++s) {
            EXPECT_EQ(
                std::bit_cast<std::uint64_t>(sa.supplies[s].lastBudget),
                std::bit_cast<std::uint64_t>(sb.supplies[s].lastBudget));
            EXPECT_EQ(
                std::bit_cast<std::uint64_t>(sa.supplies[s].share),
                std::bit_cast<std::uint64_t>(sb.supplies[s].share));
            EXPECT_EQ(
                std::bit_cast<std::uint64_t>(sa.supplies[s].avgAc),
                std::bit_cast<std::uint64_t>(sb.supplies[s].avgAc));
        }
    }
}

} // namespace

TEST(Wire, CheckpointRoundTripIsBitExact)
{
    const auto msg = sampleCheckpoint();
    const FrameMeta meta{3, 4000, 123};
    const auto bytes = net::encodeCheckpoint(meta, msg);

    const auto frame = net::decodeFrame(bytes);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::Checkpoint);
    EXPECT_EQ(frame->sender, 3);
    EXPECT_EQ(frame->epoch, 4000u);
    EXPECT_EQ(frame->seq, 123u);
    expectBitExact(frame->checkpoint, msg);
}

TEST(Wire, RehomeReusesCheckpointLayoutUnderDistinctType)
{
    // A re-played checkpoint travels under its own type code, so a
    // retransmitted upstream Checkpoint can never masquerade as the
    // room's downstream Rehome (or vice versa).
    const auto msg = sampleCheckpoint();
    const FrameMeta meta{net::kRoomSender, 8, 44};
    const auto frame = net::decodeFrame(net::encodeRehome(meta, msg));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::Rehome);
    EXPECT_EQ(frame->sender, net::kRoomSender);
    expectBitExact(frame->checkpoint, msg);

    const auto up = net::decodeFrame(net::encodeCheckpoint(meta, msg));
    ASSERT_TRUE(up.has_value());
    EXPECT_NE(up->type, frame->type);
}

TEST(Wire, EmptyCheckpointRoundTrip)
{
    // The room completes a re-homing handshake with an empty Rehome
    // when it never stored a checkpoint; the codec must carry it.
    net::CheckpointMsg msg;
    msg.simNow = 0.0;
    const auto frame =
        net::decodeFrame(net::encodeRehome(FrameMeta{}, msg));
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(frame->checkpoint.servers.empty());
}

TEST(Wire, CheckpointEveryTruncationRejected)
{
    const auto bytes =
        net::encodeCheckpoint(FrameMeta{1, 2, 3}, sampleCheckpoint());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        EXPECT_FALSE(net::decodeFrame(prefix).has_value())
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(Wire, CheckpointEverySingleBitFlipRejected)
{
    const auto bytes =
        net::encodeRehome(FrameMeta{1, 2, 3}, sampleCheckpoint());
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        auto corrupted = bytes;
        corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(net::decodeFrame(corrupted).has_value())
            << "bit " << bit << " flip decoded";
    }
}

TEST(Wire, CheckpointVersionSkewRejected)
{
    // A frame from outside the one-version rolling-upgrade window must
    // be rejected on its version byte alone; keep the CRC honest so
    // nothing else can be the reason.
    for (const std::uint8_t version :
         {static_cast<std::uint8_t>(net::kWireCompatVersion - 1),
          static_cast<std::uint8_t>(net::kWireVersion + 1),
          static_cast<std::uint8_t>(0), static_cast<std::uint8_t>(255)}) {
        auto bytes = net::encodeCheckpoint(FrameMeta{1, 2, 3},
                                           sampleCheckpoint());
        bytes[2] = version;
        refreshCrc(bytes);
        EXPECT_FALSE(net::decodeFrame(bytes).has_value())
            << "version " << static_cast<int>(version);
    }
    // The previous version is inside the window: a v5 checkpoint from a
    // not-yet-upgraded worker still decodes.
    auto compat = net::encodeCheckpoint(FrameMeta{1, 2, 3},
                                        sampleCheckpoint());
    compat[2] = net::kWireCompatVersion;
    refreshCrc(compat);
    const auto frame = net::decodeFrame(compat);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->wireVersion, net::kWireCompatVersion);
}

namespace {

/**
 * Hand-assemble a Checkpoint frame whose payload bytes are given
 * verbatim (valid magic/version/length/CRC), so only the payload
 * parser can reject it.
 */
std::vector<std::uint8_t>
rawCheckpointFrame(const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(net::kHeaderSize + payload.size() + net::kCrcSize);
    bytes = {
        0x9E, 0xCA,                  // magic, little-endian
        net::kWireVersion,
        static_cast<std::uint8_t>(MsgType::Checkpoint),
        0x01, 0x00,                  // sender
        0x02, 0x00, 0x00, 0x00,      // epoch
        0x03, 0x00, 0x00, 0x00,      // seq
        static_cast<std::uint8_t>(payload.size() & 0xFF),
        static_cast<std::uint8_t>(payload.size() >> 8),
        0x00,                        // no trace context
    };
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    bytes.resize(bytes.size() + net::kCrcSize, 0);
    refreshCrc(bytes);
    return bytes;
}

} // namespace

TEST(Wire, HostileCheckpointServerCountRejectedBeforeAllocation)
{
    // Fixed prelude: simNow f64, rehomeAckEpoch u32, then a server
    // count promising far more records than the payload (or the
    // kMaxCheckpointServers bound) allows. The parser must reject on
    // the declared count, not fault after a count-sized allocation.
    for (const std::uint16_t hostile : {
             static_cast<std::uint16_t>(net::kMaxCheckpointServers + 1),
             static_cast<std::uint16_t>(1024),
             static_cast<std::uint16_t>(65535)}) {
        std::vector<std::uint8_t> payload(14, 0);
        payload[12] = static_cast<std::uint8_t>(hostile & 0xFF);
        payload[13] = static_cast<std::uint8_t>(hostile >> 8);
        EXPECT_FALSE(
            net::decodeFrame(rawCheckpointFrame(payload)).has_value())
            << "server count " << hostile;
    }
}

TEST(Wire, HostileCheckpointSupplyCountRejectedBeforeAllocation)
{
    // One well-formed server record whose supplyCount promises more
    // slices than the payload carries (and more than the
    // kMaxCheckpointSupplies bound).
    for (const std::uint16_t hostile : {
             static_cast<std::uint16_t>(net::kMaxCheckpointSupplies + 1),
             static_cast<std::uint16_t>(512),
             static_cast<std::uint16_t>(65535)}) {
        std::vector<std::uint8_t> payload(14, 0);
        payload[12] = 1; // one server
        std::vector<std::uint8_t> server(31, 0);
        server[29] = static_cast<std::uint8_t>(hostile & 0xFF);
        server[30] = static_cast<std::uint8_t>(hostile >> 8);
        payload.insert(payload.end(), server.begin(), server.end());
        EXPECT_FALSE(
            net::decodeFrame(rawCheckpointFrame(payload)).has_value())
            << "supply count " << hostile;
    }
}

TEST(Wire, CheckpointTrailingGarbageRejected)
{
    // Extra bytes after the last declared server record mean the
    // payload length and the structure disagree; reject.
    const auto msg = sampleCheckpoint();
    auto bytes = net::encodeCheckpoint(FrameMeta{1, 2, 3}, msg);
    const std::size_t payload_len =
        bytes.size() - net::kHeaderSize - net::kCrcSize;
    bytes.insert(bytes.end() - net::kCrcSize, 0x00);
    declarePayloadLength(
        bytes, static_cast<std::uint16_t>(payload_len + 1));
    refreshCrc(bytes);
    EXPECT_FALSE(net::decodeFrame(bytes).has_value());
}

TEST(Wire, CheckpointRandomMultiBitCorruptionNeverCrashes)
{
    // Multi-bit errors can in principle alias the CRC; anything that
    // does decode must still satisfy the structural sanity bounds.
    util::Rng rng(60188);
    const auto base =
        net::encodeCheckpoint(FrameMeta{1, 2, 3}, sampleCheckpoint());
    for (int trial = 0; trial < 2000; ++trial) {
        auto corrupted = base;
        const int flips = rng.uniformInt(2, 64);
        for (int f = 0; f < flips; ++f) {
            const auto bit = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(corrupted.size() * 8) - 1));
            corrupted[bit / 8] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
        }
        const auto frame = net::decodeFrame(corrupted);
        if (frame.has_value()
            && (frame->type == MsgType::Checkpoint
                || frame->type == MsgType::Rehome)) {
            EXPECT_LE(frame->checkpoint.servers.size(),
                      net::kMaxCheckpointServers);
            for (const auto &server : frame->checkpoint.servers) {
                EXPECT_LE(server.supplies.size(),
                          net::kMaxCheckpointSupplies);
            }
        }
    }
}

TEST(Wire, FuzzedDeclaredLengthsNeverCrash)
{
    // Randomized declared-length hostility over every message type:
    // patch the length field to an arbitrary value, refresh the CRC,
    // and decode. Any declared length that differs from the real one
    // must be rejected; none may crash or over-allocate.
    util::Rng rng(40426);
    const auto metrics =
        net::encodeMetrics(FrameMeta{1, 2, 3}, sampleMetrics());
    BudgetMsg budget;
    budget.tree = 1;
    budget.edgeNode = 9;
    budget.budget = 512.25;
    const std::vector<std::vector<std::uint8_t>> bases = {
        metrics,
        net::encodeBudget(FrameMeta{1, 2, 4}, budget),
        net::encodeHeartbeat(FrameMeta{1, 2, 5}),
        net::encodePinnedSummary(FrameMeta{1, 2, 6}, sampleMetrics()),
        net::encodeSpoBudget(FrameMeta{1, 2, 7}, budget),
        net::encodeCheckpoint(FrameMeta{1, 2, 8}, sampleCheckpoint()),
        net::encodeRehome(FrameMeta{1, 2, 9}, sampleCheckpoint()),
    };
    for (int trial = 0; trial < 4000; ++trial) {
        auto bytes = bases[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(bases.size()) - 1))];
        const auto declared =
            static_cast<std::uint16_t>(rng.uniformInt(0, 65535));
        const std::size_t real_length =
            bytes.size() - net::kHeaderSize - net::kCrcSize;
        declarePayloadLength(bytes, declared);
        refreshCrc(bytes);
        const auto frame = net::decodeFrame(bytes);
        if (declared != real_length) {
            EXPECT_FALSE(frame.has_value())
                << "declared " << declared << " real " << real_length;
        } else {
            EXPECT_TRUE(frame.has_value());
        }
    }
}

// ------------------------------------- deep-tree aggregator frames

TEST(Wire, SummaryRoundTripIsBitExact)
{
    // An aggregator's upstream Summary reuses the Metrics payload
    // layout (edgeNode = the aggregator's top station) but must come
    // back under its own type code.
    const auto msg = sampleMetrics();
    const FrameMeta meta{23, 4000, 55};
    const auto bytes = net::encodeSummary(meta, msg);

    const auto frame = net::decodeFrame(bytes);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::Summary);
    EXPECT_EQ(frame->sender, 23);
    EXPECT_EQ(frame->epoch, 4000u);
    EXPECT_EQ(frame->metrics.tree, 3);
    EXPECT_EQ(frame->metrics.edgeNode, 17u);
    expectBitExact(frame->metrics.metrics, msg.metrics);
}

TEST(Wire, SubBudgetRoundTripIsBitExact)
{
    // The downstream SubBudget reuses the Budget payload layout
    // (edgeNode = the receiving aggregator's top station).
    BudgetMsg msg;
    msg.tree = 2;
    msg.edgeNode = 31;
    msg.budget = 123456.789000001;
    const auto bytes =
        net::encodeSubBudget(FrameMeta{net::kRoomSender, 8, 21}, msg);

    const auto frame = net::decodeFrame(bytes);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::SubBudget);
    EXPECT_EQ(frame->sender, net::kRoomSender);
    EXPECT_EQ(frame->budget.tree, 2);
    EXPECT_EQ(frame->budget.edgeNode, 31u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(frame->budget.budget),
              std::bit_cast<std::uint64_t>(msg.budget));
}

TEST(Wire, AggregatorTypesAreDistinctFromEveryOtherType)
{
    // A Summary must never decode as Metrics/PinnedSummary (identical
    // payload layouts) nor a SubBudget as Budget/SpoBudget: the period
    // state machines dispatch on the type byte alone.
    const auto metrics = sampleMetrics();
    BudgetMsg budget;
    budget.tree = 1;
    budget.edgeNode = 5;
    budget.budget = 640.5;
    const FrameMeta meta{3, 9, 1};
    const auto summary = net::decodeFrame(net::encodeSummary(meta, metrics));
    const auto sub = net::decodeFrame(net::encodeSubBudget(meta, budget));
    ASSERT_TRUE(summary.has_value());
    ASSERT_TRUE(sub.has_value());
    const std::set<MsgType> others = {
        MsgType::Metrics,    MsgType::Budget,
        MsgType::Heartbeat,  MsgType::PinnedSummary,
        MsgType::SpoBudget,  MsgType::Checkpoint,
        MsgType::Rehome,
    };
    EXPECT_EQ(others.count(summary->type), 0u);
    EXPECT_EQ(others.count(sub->type), 0u);
    EXPECT_NE(summary->type, sub->type);
}

TEST(Wire, SummaryEveryTruncationRejected)
{
    const auto bytes = net::encodeSummary(FrameMeta{1, 2, 3},
                                          sampleMetrics());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        EXPECT_FALSE(net::decodeFrame(prefix).has_value())
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(Wire, SummaryEverySingleBitFlipRejected)
{
    const auto bytes = net::encodeSummary(FrameMeta{1, 2, 3},
                                          sampleMetrics());
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        auto corrupted = bytes;
        corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(net::decodeFrame(corrupted).has_value())
            << "bit " << bit << " flip decoded";
    }
}

TEST(Wire, SubBudgetTruncationAndBitFlipsRejected)
{
    BudgetMsg msg;
    msg.tree = 4;
    msg.edgeNode = 12;
    msg.budget = 8201.125;
    const auto bytes =
        net::encodeSubBudget(FrameMeta{9, 40, 2}, msg);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        EXPECT_FALSE(net::decodeFrame(prefix).has_value());
    }
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        auto corrupted = bytes;
        corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(net::decodeFrame(corrupted).has_value());
    }
}

TEST(Wire, AggregatorFramesRejectOldWireVersions)
{
    // Deep-tree frame types were introduced at wire v4: a peer still
    // speaking v2/v3 (or a v5 future) must be rejected on the version
    // byte alone. The CRC is kept honest so nothing else can reject.
    BudgetMsg budget;
    budget.tree = 0;
    budget.edgeNode = 1;
    budget.budget = 100.0;
    for (auto bytes : {net::encodeSummary(FrameMeta{1, 2, 3},
                                          sampleMetrics()),
                       net::encodeSubBudget(FrameMeta{1, 2, 4},
                                            budget)}) {
        for (const std::uint8_t version :
             {std::uint8_t{2}, std::uint8_t{3},
              static_cast<std::uint8_t>(net::kWireVersion + 1)}) {
            auto skewed = bytes;
            skewed[2] = version;
            refreshCrc(skewed);
            EXPECT_FALSE(net::decodeFrame(skewed).has_value())
                << "version " << static_cast<int>(version);
        }
    }
}

TEST(Wire, SummaryHostileClassCountRejectedBeforeAllocation)
{
    // Patch the Summary's class-count field to a hostile value with a
    // refreshed CRC: the decoder must reject on the length/count
    // cross-check, never trust the count to size an allocation.
    auto bytes = net::encodeSummary(FrameMeta{1, 2, 3},
                                    sampleMetrics());
    // Count sits after tree (2) + edge node (4) + constraint (8) in
    // the Metrics payload layout.
    bytes[net::kHeaderSize + 14] = 0xFF;
    bytes[net::kHeaderSize + 15] = 0xFF;
    refreshCrc(bytes);
    EXPECT_FALSE(net::decodeFrame(bytes).has_value());
}

TEST(Wire, SummaryRandomMultiBitCorruptionNeverCrashes)
{
    util::Rng rng(60309);
    const auto base = net::encodeSummary(FrameMeta{1, 2, 3},
                                         sampleMetrics());
    for (int trial = 0; trial < 2000; ++trial) {
        auto corrupted = base;
        const int flips = rng.uniformInt(2, 64);
        for (int f = 0; f < flips; ++f) {
            const auto bit = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(corrupted.size() * 8) - 1));
            corrupted[bit / 8] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
        }
        const auto frame = net::decodeFrame(corrupted);
        if (frame.has_value() && frame->type == MsgType::Summary) {
            const auto &classes = frame->metrics.metrics.classes();
            for (std::size_t i = 1; i < classes.size(); ++i)
                EXPECT_LT(classes[i].priority, classes[i - 1].priority);
        }
    }
}

TEST(Wire, AggregatorFramesFuzzedDeclaredLengthsNeverCrash)
{
    // The declared-length hostility sweep over the v4 aggregator
    // frames specifically (the generic sweep above covers the rest).
    util::Rng rng(48811);
    BudgetMsg budget;
    budget.tree = 3;
    budget.edgeNode = 2;
    budget.budget = 99.75;
    const std::vector<std::vector<std::uint8_t>> bases = {
        net::encodeSummary(FrameMeta{1, 2, 6}, sampleMetrics()),
        net::encodeSubBudget(FrameMeta{1, 2, 7}, budget),
    };
    for (int trial = 0; trial < 2000; ++trial) {
        auto bytes = bases[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(bases.size()) - 1))];
        const auto declared =
            static_cast<std::uint16_t>(rng.uniformInt(0, 65535));
        const std::size_t real_length =
            bytes.size() - net::kHeaderSize - net::kCrcSize;
        declarePayloadLength(bytes, declared);
        refreshCrc(bytes);
        const auto frame = net::decodeFrame(bytes);
        if (declared != real_length) {
            EXPECT_FALSE(frame.has_value())
                << "declared " << declared << " real " << real_length;
        } else {
            EXPECT_TRUE(frame.has_value());
        }
    }
}

// ------------------------------------ wire v5 trace context

namespace {

/** A context exercising every field, with a precision-hostile clock. */
net::TraceContext
sampleContext()
{
    net::TraceContext ctx;
    ctx.traceId = 0xBEEF;
    ctx.originTier = 2;
    ctx.sendMs = 1723111845123.000244140625; // sub-ms unix epoch
    return ctx;
}

FrameMeta
metaWithContext(std::uint16_t sender, std::uint32_t epoch,
                std::uint32_t seq)
{
    FrameMeta meta{sender, epoch, seq};
    meta.trace = sampleContext();
    return meta;
}

} // namespace

TEST(Wire, TraceContextRoundTripIsBitExact)
{
    const auto bytes = net::encodeMetrics(metaWithContext(42, 1000, 77),
                                          sampleMetrics());
    const auto frame = net::decodeFrame(bytes);
    ASSERT_TRUE(frame.has_value());
    ASSERT_TRUE(frame->trace.has_value());
    EXPECT_EQ(frame->trace->traceId, 0xBEEF);
    EXPECT_EQ(frame->trace->originTier, 2);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(frame->trace->sendMs),
              std::bit_cast<std::uint64_t>(sampleContext().sendMs));
    // The payload decodes identically with the context in front of it.
    expectBitExact(frame->metrics.metrics, sampleMetrics().metrics);
}

TEST(Wire, TraceContextAbsentByDefault)
{
    const auto frame = net::decodeFrame(
        net::encodeHeartbeat(FrameMeta{7, 3, 1}));
    ASSERT_TRUE(frame.has_value());
    EXPECT_FALSE(frame->trace.has_value());
}

TEST(Wire, TraceContextOnEveryMessageType)
{
    // Stamping a context must not disturb any payload parser: every
    // type round-trips with the context present.
    BudgetMsg budget;
    budget.tree = 1;
    budget.edgeNode = 9;
    budget.budget = 512.25;
    const std::vector<std::vector<std::uint8_t>> bases = {
        net::encodeMetrics(metaWithContext(1, 2, 3), sampleMetrics()),
        net::encodeBudget(metaWithContext(1, 2, 4), budget),
        net::encodeHeartbeat(metaWithContext(1, 2, 5)),
        net::encodePinnedSummary(metaWithContext(1, 2, 6),
                                 sampleMetrics()),
        net::encodeSpoBudget(metaWithContext(1, 2, 7), budget),
        net::encodeCheckpoint(metaWithContext(1, 2, 8),
                              sampleCheckpoint()),
        net::encodeRehome(metaWithContext(1, 2, 9), sampleCheckpoint()),
        net::encodeSummary(metaWithContext(1, 2, 10), sampleMetrics()),
        net::encodeSubBudget(metaWithContext(1, 2, 11), budget),
    };
    for (const auto &bytes : bases) {
        const auto frame = net::decodeFrame(bytes);
        ASSERT_TRUE(frame.has_value());
        ASSERT_TRUE(frame->trace.has_value());
        EXPECT_EQ(frame->trace->traceId, 0xBEEF);
        EXPECT_EQ(frame->trace->originTier, 2);
    }
}

TEST(Wire, HostileTraceContextLengthRejected)
{
    // The context-length byte (header offset 16) may only hold 0 or
    // kTraceContextBytes. Every other value — shorter, longer, or
    // sentinel-looking — must be rejected on the declared value alone;
    // the CRC is kept honest so nothing else can be the reason.
    for (const std::uint8_t hostile :
         {std::uint8_t{1}, std::uint8_t{5}, std::uint8_t{10},
          std::uint8_t{12}, std::uint8_t{64}, std::uint8_t{255}}) {
        auto bytes = net::encodeHeartbeat(metaWithContext(1, 2, 3));
        bytes[16] = hostile;
        refreshCrc(bytes);
        EXPECT_FALSE(net::decodeFrame(bytes).has_value())
            << "context length " << static_cast<int>(hostile);
    }
}

TEST(Wire, TraceContextDeclaredButMissingRejected)
{
    // A header promising a context over a frame that carries none is a
    // length mismatch, not an out-of-bounds read.
    auto bytes = net::encodeHeartbeat(FrameMeta{1, 2, 3});
    bytes[16] = static_cast<std::uint8_t>(net::kTraceContextBytes);
    refreshCrc(bytes);
    EXPECT_FALSE(net::decodeFrame(bytes).has_value());
}

TEST(Wire, TraceContextPresentButUndeclaredRejected)
{
    // The mirror image: a stamped frame whose length byte is zeroed
    // makes the context bytes trailing garbage.
    auto bytes = net::encodeHeartbeat(metaWithContext(1, 2, 3));
    bytes[16] = 0;
    refreshCrc(bytes);
    EXPECT_FALSE(net::decodeFrame(bytes).has_value());
}

TEST(Wire, V4FramesRejectedByV5Decoder)
{
    // A v4 peer's frame has no context-length byte at all: its payload
    // (or CRC) begins at offset 16. Reconstruct that exact layout and
    // confirm the v5 decoder rejects it on the version byte — and
    // still rejects it if the version byte alone is forged to 5, since
    // the missing byte then shifts every remaining field.
    BudgetMsg msg;
    msg.tree = 1;
    msg.edgeNode = 4;
    msg.budget = 640.5;
    auto v5 = net::encodeBudget(FrameMeta{2, 9, 31}, msg);
    std::vector<std::uint8_t> v4(v5.begin(), v5.end());
    v4.erase(v4.begin() + 16); // drop the context-length byte
    v4[2] = 4;                 // claim wire v4
    refreshCrc(v4);
    EXPECT_FALSE(net::decodeFrame(v4).has_value());

    auto forged = v4;
    forged[2] = net::kWireVersion;
    refreshCrc(forged);
    EXPECT_FALSE(net::decodeFrame(forged).has_value());

    // And skew in the other direction: a well-formed v5 frame stamped
    // with the v4 version byte must be rejected by a v5 decoder.
    auto skewed = v5;
    skewed[2] = 4;
    refreshCrc(skewed);
    EXPECT_FALSE(net::decodeFrame(skewed).has_value());
}

TEST(Wire, FuzzedTraceContextLengthsNeverCrash)
{
    // Randomized context-length hostility over stamped and unstamped
    // frames of several types: patch the length byte to an arbitrary
    // value, refresh the CRC, and decode. Only the true length may
    // decode; nothing may crash or over-read.
    util::Rng rng(50915);
    BudgetMsg budget;
    budget.tree = 3;
    budget.edgeNode = 2;
    budget.budget = 99.75;
    const std::vector<std::vector<std::uint8_t>> bases = {
        net::encodeMetrics(metaWithContext(1, 2, 3), sampleMetrics()),
        net::encodeMetrics(FrameMeta{1, 2, 3}, sampleMetrics()),
        net::encodeSummary(metaWithContext(4, 5, 6), sampleMetrics()),
        net::encodeSubBudget(FrameMeta{7, 8, 9}, budget),
        net::encodeHeartbeat(metaWithContext(1, 2, 10)),
        net::encodeCheckpoint(FrameMeta{1, 2, 11}, sampleCheckpoint()),
    };
    for (int trial = 0; trial < 3000; ++trial) {
        auto bytes = bases[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(bases.size()) - 1))];
        const auto real = bytes[16];
        const auto declared =
            static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        bytes[16] = declared;
        refreshCrc(bytes);
        const auto frame = net::decodeFrame(bytes);
        if (declared != real) {
            EXPECT_FALSE(frame.has_value())
                << "declared " << static_cast<int>(declared) << " real "
                << static_cast<int>(real);
        } else {
            EXPECT_TRUE(frame.has_value());
        }
    }
}

// ===================================================================
// Membership plane (wire v6): MembershipDelta / MembershipAck carry
// the elasticity protocol, so they get the same hostile-input
// treatment as Checkpoint/Rehome — truncation, bit flips, version
// skew, and count/state hostility must all reject cleanly.
// ===================================================================

namespace {

/** A snapshot exercising every state and the generation fields. */
net::MembershipDeltaMsg
sampleMembershipDelta()
{
    net::MembershipDeltaMsg msg;
    msg.generation = 0xDEAD0007;
    msg.entries.push_back({0, net::WireUnitState::Live, 1});
    msg.entries.push_back({1, net::WireUnitState::Joining, 0xDEAD0006});
    msg.entries.push_back({2, net::WireUnitState::Draining, 42});
    msg.entries.push_back({5, net::WireUnitState::Left, 0});
    msg.entries.push_back({65535, net::WireUnitState::Live, 7});
    return msg;
}

/**
 * Hand-assemble a MembershipDelta frame whose payload bytes are given
 * verbatim (valid magic/version/length/CRC), so only the payload
 * parser can reject it.
 */
std::vector<std::uint8_t>
rawMembershipFrame(const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(net::kHeaderSize + payload.size() + net::kCrcSize);
    bytes = {
        0x9E, 0xCA,                  // magic, little-endian
        net::kWireVersion,
        static_cast<std::uint8_t>(MsgType::MembershipDelta),
        0xFF, 0xFF,                  // sender (the room)
        0x02, 0x00, 0x00, 0x00,      // epoch
        0x03, 0x00, 0x00, 0x00,      // seq
        static_cast<std::uint8_t>(payload.size() & 0xFF),
        static_cast<std::uint8_t>(payload.size() >> 8),
        0x00,                        // no trace context
    };
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    bytes.resize(bytes.size() + net::kCrcSize, 0);
    refreshCrc(bytes);
    return bytes;
}

} // namespace

TEST(Wire, MembershipDeltaRoundTrip)
{
    const auto msg = sampleMembershipDelta();
    const FrameMeta meta{net::kRoomSender, 77, 900};
    const auto frame =
        net::decodeFrame(net::encodeMembershipDelta(meta, msg));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::MembershipDelta);
    EXPECT_EQ(frame->sender, net::kRoomSender);
    EXPECT_EQ(frame->epoch, 77u);
    EXPECT_EQ(frame->wireVersion, net::kWireVersion);
    EXPECT_EQ(frame->membershipDelta.generation, msg.generation);
    ASSERT_EQ(frame->membershipDelta.entries.size(),
              msg.entries.size());
    for (std::size_t i = 0; i < msg.entries.size(); ++i) {
        EXPECT_EQ(frame->membershipDelta.entries[i].endpoint,
                  msg.entries[i].endpoint);
        EXPECT_EQ(frame->membershipDelta.entries[i].state,
                  msg.entries[i].state);
        EXPECT_EQ(frame->membershipDelta.entries[i].sinceGeneration,
                  msg.entries[i].sinceGeneration);
    }
}

TEST(Wire, MembershipAckRoundTrip)
{
    net::MembershipAckMsg ack;
    ack.generation = 0xCAFE0001;
    ack.endpoint = 513;
    ack.state = net::WireUnitState::Draining;
    const auto frame = net::decodeFrame(
        net::encodeMembershipAck(FrameMeta{513, 9, 10}, ack));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::MembershipAck);
    EXPECT_EQ(frame->membershipAck.generation, ack.generation);
    EXPECT_EQ(frame->membershipAck.endpoint, ack.endpoint);
    EXPECT_EQ(frame->membershipAck.state, ack.state);
}

TEST(Wire, EmptyMembershipDeltaRoundTrip)
{
    // A table with no rows is legal on the wire (a deployment of one
    // root); the codec must carry it.
    net::MembershipDeltaMsg msg;
    msg.generation = 1;
    const auto frame = net::decodeFrame(
        net::encodeMembershipDelta(FrameMeta{}, msg));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->membershipDelta.generation, 1u);
    EXPECT_TRUE(frame->membershipDelta.entries.empty());
}

TEST(Wire, MembershipDeltaEveryTruncationRejected)
{
    const auto bytes = net::encodeMembershipDelta(
        FrameMeta{net::kRoomSender, 2, 3}, sampleMembershipDelta());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        EXPECT_FALSE(net::decodeFrame(prefix).has_value())
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(Wire, MembershipAckEveryTruncationRejected)
{
    net::MembershipAckMsg ack;
    ack.generation = 9;
    ack.endpoint = 4;
    ack.state = net::WireUnitState::Left;
    const auto bytes =
        net::encodeMembershipAck(FrameMeta{4, 2, 3}, ack);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        EXPECT_FALSE(net::decodeFrame(prefix).has_value())
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(Wire, MembershipDeltaEverySingleBitFlipRejected)
{
    const auto bytes = net::encodeMembershipDelta(
        FrameMeta{net::kRoomSender, 2, 3}, sampleMembershipDelta());
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        auto corrupted = bytes;
        corrupted[bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(net::decodeFrame(corrupted).has_value())
            << "bit " << bit << " flip decoded";
    }
}

TEST(Wire, MembershipAckEverySingleBitFlipRejected)
{
    net::MembershipAckMsg ack;
    ack.generation = 0xCAFE0001;
    ack.endpoint = 513;
    ack.state = net::WireUnitState::Joining;
    const auto bytes =
        net::encodeMembershipAck(FrameMeta{513, 2, 3}, ack);
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        auto corrupted = bytes;
        corrupted[bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(net::decodeFrame(corrupted).has_value())
            << "bit " << bit << " flip decoded";
    }
}

TEST(Wire, MembershipUnderCompatVersionRejected)
{
    // Membership is a v6-only plane: a delta or ack re-stamped with
    // the compat (v5) version byte must be rejected even with an
    // honest CRC — a not-yet-upgraded worker can neither originate
    // nor be asked to parse elasticity frames. Data-plane types under
    // v5 keep decoding (the rolling-upgrade steady state); that is
    // covered by CheckpointVersionSkewRejected.
    auto delta = net::encodeMembershipDelta(
        FrameMeta{net::kRoomSender, 2, 3}, sampleMembershipDelta());
    delta[2] = net::kWireCompatVersion;
    refreshCrc(delta);
    EXPECT_FALSE(net::decodeFrame(delta).has_value());

    net::MembershipAckMsg ack;
    ack.generation = 2;
    ack.endpoint = 1;
    auto ack_bytes = net::encodeMembershipAck(FrameMeta{1, 2, 3}, ack);
    ack_bytes[2] = net::kWireCompatVersion;
    refreshCrc(ack_bytes);
    EXPECT_FALSE(net::decodeFrame(ack_bytes).has_value());
}

TEST(Wire, MembershipVersionSkewOutsideWindowRejected)
{
    for (const std::uint8_t version :
         {static_cast<std::uint8_t>(net::kWireCompatVersion - 1),
          static_cast<std::uint8_t>(net::kWireVersion + 1),
          static_cast<std::uint8_t>(0),
          static_cast<std::uint8_t>(255)}) {
        auto bytes = net::encodeMembershipDelta(
            FrameMeta{net::kRoomSender, 2, 3},
            sampleMembershipDelta());
        bytes[2] = version;
        refreshCrc(bytes);
        EXPECT_FALSE(net::decodeFrame(bytes).has_value())
            << "version " << static_cast<int>(version);
    }
}

TEST(Wire, HostileMembershipEntryCountRejectedBeforeAllocation)
{
    // Prelude: generation u32, then a count promising more rows than
    // the payload (or the kMaxMembershipEntries bound) allows. The
    // parser must reject on the declared count, not fault after a
    // count-sized allocation.
    for (const std::uint16_t hostile : {
             static_cast<std::uint16_t>(net::kMaxMembershipEntries + 1),
             static_cast<std::uint16_t>(4097),
             static_cast<std::uint16_t>(65535)}) {
        std::vector<std::uint8_t> payload(6, 0);
        payload[4] = static_cast<std::uint8_t>(hostile & 0xFF);
        payload[5] = static_cast<std::uint8_t>(hostile >> 8);
        EXPECT_FALSE(
            net::decodeFrame(rawMembershipFrame(payload)).has_value())
            << "entry count " << hostile;
    }
}

TEST(Wire, MembershipNonAscendingEndpointsRejected)
{
    // The snapshot invariant is strictly ascending endpoints: a
    // duplicate (or out-of-order) row could shadow an earlier unit's
    // state, so the parser rejects it outright.
    for (const std::uint16_t second : {7, 3}) {
        std::vector<std::uint8_t> payload(6, 0);
        payload[0] = 2; // generation = 2
        payload[4] = 2; // two rows
        const std::uint8_t live =
            static_cast<std::uint8_t>(net::WireUnitState::Live);
        const std::uint8_t rows[] = {
            7, 0, live, 1, 0, 0, 0,  // endpoint 7
            static_cast<std::uint8_t>(second & 0xFF),
            static_cast<std::uint8_t>(second >> 8),
            live, 1, 0, 0, 0,
        };
        payload.insert(payload.end(), rows, rows + sizeof(rows));
        EXPECT_FALSE(
            net::decodeFrame(rawMembershipFrame(payload)).has_value())
            << "second endpoint " << second;
    }
}

TEST(Wire, MembershipHostileStateByteRejected)
{
    // State bytes beyond Left (3) are outside the enum; reject rather
    // than cast-and-hope.
    for (const std::uint8_t hostile : {4, 5, 127, 255}) {
        std::vector<std::uint8_t> payload(6, 0);
        payload[0] = 2; // generation
        payload[4] = 1; // one row
        const std::uint8_t row[] = {1, 0, hostile, 1, 0, 0, 0};
        payload.insert(payload.end(), row, row + sizeof(row));
        EXPECT_FALSE(
            net::decodeFrame(rawMembershipFrame(payload)).has_value())
            << "state " << static_cast<int>(hostile);
    }
}

TEST(Wire, MembershipDeltaTrailingGarbageRejected)
{
    // Extra bytes after the last declared row mean the payload length
    // and the structure disagree; reject.
    auto bytes = net::encodeMembershipDelta(
        FrameMeta{net::kRoomSender, 2, 3}, sampleMembershipDelta());
    const std::size_t payload_len =
        bytes.size() - net::kHeaderSize - net::kCrcSize;
    bytes.insert(bytes.end() - net::kCrcSize, 0x00);
    declarePayloadLength(
        bytes, static_cast<std::uint16_t>(payload_len + 1));
    refreshCrc(bytes);
    EXPECT_FALSE(net::decodeFrame(bytes).has_value());
}
