#include "net/wire.hh"

#include <array>
#include <bit>
#include <cstring>

#include "util/logging.hh"

namespace capmaestro::net {

namespace {

/** Most classes a metrics payload may carry (sanity bound, not a real
 *  limit: the paper expects ~10 priority levels per center). */
constexpr std::size_t kMaxClasses = 1024;

/** Encoded size of one ClassMetrics record (i32 + 3 x f64). */
constexpr std::size_t kClassBytes = 4 + 3 * 8;

static_assert(kMaxClasses * kClassBytes + 16 <= kMaxPayloadBytes,
              "the largest legitimate Metrics payload must fit under "
              "the frame-size cap");

/** Fixed bytes of one checkpoint server record (before supplies). */
constexpr std::size_t kCheckpointServerBytes = 4 + 1 + 3 * 8 + 2;

/** Bytes of one checkpoint supply slice (3 x f64). */
constexpr std::size_t kCheckpointSupplyBytes = 3 * 8;

/** Bytes of one membership-table row (endpoint u16 + state u8 +
 *  sinceGeneration u32). */
constexpr std::size_t kMembershipEntryBytes = 2 + 1 + 4;

static_assert(kMaxMembershipEntries * kMembershipEntryBytes + 6
                  <= kMaxPayloadBytes,
              "the largest legitimate MembershipDelta payload must fit "
              "under the frame-size cap");

// ------------------------------------------------------------- writing

/**
 * Little-endian writer of one whole frame. The buffer is reserved to
 * the frame's exact size up front; the constructor writes the header
 * and the trace context, the encoder appends the payload, and finish()
 * backpatches the payload length at offset 14 and appends the CRC — so
 * a frame costs one allocation and no copy.
 */
class FrameWriter
{
  public:
    FrameWriter(MsgType type, const FrameMeta &meta,
                std::size_t payload_size)
    {
        if (meta.wireVersion != kWireVersion
            && meta.wireVersion != kWireCompatVersion) {
            util::fatal("wire: cannot encode under version %u (current "
                        "%u, compat %u)",
                        meta.wireVersion, kWireVersion,
                        kWireCompatVersion);
        }
        if (meta.wireVersion < kWireVersion
            && (type == MsgType::MembershipDelta
                || type == MsgType::MembershipAck)) {
            util::fatal("wire: membership types do not exist before "
                        "version %u",
                        kWireVersion);
        }
        const std::size_t ctx_size =
            meta.trace.has_value() ? kTraceContextBytes : 0;
        bytes_.reserve(kHeaderSize + ctx_size + payload_size + kCrcSize);
        u16(kWireMagic);
        u8(meta.wireVersion);
        u8(static_cast<std::uint8_t>(type));
        u16(meta.sender);
        u32(meta.epoch);
        u32(meta.seq);
        u16(0); // payload length, backpatched by finish()
        u8(static_cast<std::uint8_t>(ctx_size));
        if (meta.trace.has_value()) {
            u16(meta.trace->traceId);
            u8(meta.trace->originTier);
            f64(meta.trace->sendMs);
        }
        payloadStart_ = bytes_.size();
    }

    void
    u8(std::uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        bytes_.push_back(static_cast<std::uint8_t>(v));
        bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    i32(std::int32_t v)
    {
        u32(static_cast<std::uint32_t>(v));
    }

    void
    f64(double v)
    {
        const auto raw = std::bit_cast<std::uint64_t>(v);
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(raw >> (8 * i)));
    }

    /** Backpatch the payload length, append the CRC, hand the frame
     *  over (the writer is spent). */
    std::vector<std::uint8_t>
    finish()
    {
        const std::size_t payload = bytes_.size() - payloadStart_;
        bytes_[kPayloadLengthOffset] = static_cast<std::uint8_t>(payload);
        bytes_[kPayloadLengthOffset + 1] =
            static_cast<std::uint8_t>(payload >> 8);
        u32(crc32(bytes_.data(), bytes_.size()));
        return std::move(bytes_);
    }

  private:
    /** Offset of the u16 payload-length field in the header. */
    static constexpr std::size_t kPayloadLengthOffset = 14;

    std::vector<std::uint8_t> bytes_;
    std::size_t payloadStart_ = 0;
};

// ------------------------------------------------------------- reading

/** Bounds-checked little-endian reader; ok() goes false on overrun. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool
    ok() const
    {
        return ok_;
    }

    std::size_t
    remaining() const
    {
        return size_ - pos_;
    }

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        if (!take(2))
            return 0;
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::int32_t
    i32()
    {
        return static_cast<std::int32_t>(u32());
    }

    double
    f64()
    {
        if (!take(8))
            return 0.0;
        std::uint64_t raw = 0;
        for (int i = 0; i < 8; ++i)
            raw |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return std::bit_cast<double>(raw);
    }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || size_ - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** Slicing-by-8 tables for the reflected IEEE polynomial: kCrcTables[0]
 *  is the classic byte table, kCrcTables[k][b] the CRC of byte b
 *  followed by k zero bytes. */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t crc = b;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
        tables[0][b] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t b = 0; b < 256; ++b) {
            const std::uint32_t prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xFFu];
        }
    }
    return tables;
}

constexpr auto kCrcTables = makeCrcTables();

/** Little-endian u32 at @p p, whatever the host byte order. */
inline std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0])
           | static_cast<std::uint32_t>(p[1]) << 8
           | static_cast<std::uint32_t>(p[2]) << 16
           | static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    // Reflected IEEE 802.3 polynomial, slicing-by-8: eight bytes per
    // step through the eight tables, the tail byte by byte.
    const auto &t = kCrcTables;
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = crc ^ loadLe32(data);
        const std::uint32_t hi = loadLe32(data + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu]
              ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24]
              ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu]
              ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
    return ~crc;
}

namespace {

std::vector<std::uint8_t>
encodeMetricsLayout(MsgType type, const FrameMeta &meta,
                    const MetricsMsg &msg)
{
    const auto &classes = msg.metrics.classes();
    FrameWriter w(type, meta, 16 + classes.size() * kClassBytes);
    w.u16(msg.tree);
    w.u32(msg.edgeNode);
    w.f64(msg.metrics.constraint());
    w.u16(static_cast<std::uint16_t>(classes.size()));
    for (const auto &c : classes) {
        w.i32(c.priority);
        w.f64(c.capMin);
        w.f64(c.demand);
        w.f64(c.request);
    }
    return w.finish();
}

std::vector<std::uint8_t>
encodeBudgetLayout(MsgType type, const FrameMeta &meta,
                   const BudgetMsg &msg)
{
    FrameWriter w(type, meta, 2 + 4 + 8);
    w.u16(msg.tree);
    w.u32(msg.edgeNode);
    w.f64(msg.budget);
    return w.finish();
}

std::vector<std::uint8_t>
encodeCheckpointLayout(MsgType type, const FrameMeta &meta,
                       const CheckpointMsg &msg)
{
    if (msg.servers.size() > kMaxCheckpointServers) {
        util::fatal("wire: checkpoint with %zu servers exceeds the "
                    "%zu-server bound",
                    msg.servers.size(), kMaxCheckpointServers);
    }
    std::size_t payload_size = 8 + 4 + 2;
    for (const auto &srv : msg.servers) {
        if (srv.supplies.size() > kMaxCheckpointSupplies) {
            util::fatal("wire: checkpoint server %u with %zu supplies "
                        "exceeds the %zu-supply bound",
                        srv.serverId, srv.supplies.size(),
                        kMaxCheckpointSupplies);
        }
        payload_size += kCheckpointServerBytes
                        + srv.supplies.size() * kCheckpointSupplyBytes;
    }
    if (payload_size > kMaxPayloadBytes) {
        util::fatal("wire: checkpoint payload of %zu bytes exceeds the "
                    "%zu-byte frame cap; partition the topology into "
                    "smaller racks",
                    payload_size, kMaxPayloadBytes);
    }
    FrameWriter w(type, meta, payload_size);
    w.f64(msg.simNow);
    w.u32(msg.rehomeAckEpoch);
    w.u16(static_cast<std::uint16_t>(msg.servers.size()));
    for (const auto &srv : msg.servers) {
        w.u32(srv.serverId);
        w.u8(static_cast<std::uint8_t>(
            (srv.integratorPrimed ? 0x01 : 0x00)
            | (srv.spoPinned ? 0x02 : 0x00)));
        w.f64(srv.integratorDc);
        w.f64(srv.demandEstimate);
        w.f64(srv.avgThrottle);
        w.u16(static_cast<std::uint16_t>(srv.supplies.size()));
        for (const auto &sup : srv.supplies) {
            w.f64(sup.lastBudget);
            w.f64(sup.share);
            w.f64(sup.avgAc);
        }
    }
    return w.finish();
}

/** Parse a MembershipDelta payload; false on malformation. The count
 *  is validated against the remaining payload before the reserve, so
 *  hostile lengths cannot drive allocation. */
bool
readMembershipDeltaPayload(Reader &p, MembershipDeltaMsg &out)
{
    out.generation = p.u32();
    const std::size_t count = p.u16();
    if (!p.ok() || count > kMaxMembershipEntries)
        return false;
    if (count * kMembershipEntryBytes > p.remaining())
        return false;
    out.entries.reserve(count);
    bool first = true;
    std::uint16_t prev = 0;
    for (std::size_t i = 0; i < count; ++i) {
        MembershipEntry entry;
        entry.endpoint = p.u16();
        const std::uint8_t state = p.u8();
        entry.sinceGeneration = p.u32();
        if (!p.ok() || state > static_cast<std::uint8_t>(
                           WireUnitState::Left))
            return false;
        // Table invariant: strictly ascending endpoints — one row per
        // unit, and a hostile duplicate cannot shadow an earlier row.
        if (!first && entry.endpoint <= prev)
            return false;
        first = false;
        prev = entry.endpoint;
        entry.state = static_cast<WireUnitState>(state);
        out.entries.push_back(entry);
    }
    return true;
}

bool
readMembershipAckPayload(Reader &p, MembershipAckMsg &out)
{
    out.generation = p.u32();
    out.endpoint = p.u16();
    const std::uint8_t state = p.u8();
    if (!p.ok()
        || state > static_cast<std::uint8_t>(WireUnitState::Left))
        return false;
    out.state = static_cast<WireUnitState>(state);
    return true;
}

/** Parse a Metrics-layout payload into @p out; false on malformation. */
bool
readMetricsPayload(Reader &p, MetricsMsg &out)
{
    out.tree = p.u16();
    out.edgeNode = p.u32();
    const double constraint = p.f64();
    const std::size_t count = p.u16();
    if (count > kMaxClasses)
        return false;
    // A hostile count field must not drive the reserve below: the
    // declared records must actually fit in the remaining payload.
    if (count * kClassBytes > p.remaining())
        return false;
    auto &classes = out.metrics.classes();
    classes.reserve(count);
    bool first = true;
    Priority prev = 0;
    for (std::size_t i = 0; i < count; ++i) {
        ctrl::ClassMetrics c;
        c.priority = p.i32();
        c.capMin = p.f64();
        c.demand = p.f64();
        c.request = p.f64();
        if (!p.ok())
            return false;
        // NodeMetrics invariant: strictly descending priorities.
        if (!first && c.priority >= prev)
            return false;
        first = false;
        prev = c.priority;
        classes.push_back(c);
    }
    out.metrics.setConstraint(constraint);
    return true;
}

/** Parse a Checkpoint-layout payload; false on malformation. Every
 *  count field is validated against the remaining payload before any
 *  reserve, so hostile lengths cannot drive allocation. */
bool
readCheckpointPayload(Reader &p, CheckpointMsg &out)
{
    out.simNow = p.f64();
    out.rehomeAckEpoch = p.u32();
    const std::size_t count = p.u16();
    if (count > kMaxCheckpointServers)
        return false;
    if (count * kCheckpointServerBytes > p.remaining())
        return false;
    out.servers.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        CheckpointServer srv;
        srv.serverId = p.u32();
        const std::uint8_t flags = p.u8();
        if ((flags & ~0x03u) != 0)
            return false;
        srv.integratorPrimed = (flags & 0x01u) != 0;
        srv.spoPinned = (flags & 0x02u) != 0;
        srv.integratorDc = p.f64();
        srv.demandEstimate = p.f64();
        srv.avgThrottle = p.f64();
        const std::size_t supplies = p.u16();
        if (!p.ok() || supplies > kMaxCheckpointSupplies)
            return false;
        if (supplies * kCheckpointSupplyBytes > p.remaining())
            return false;
        srv.supplies.reserve(supplies);
        for (std::size_t s = 0; s < supplies; ++s) {
            CheckpointSupply sup;
            sup.lastBudget = p.f64();
            sup.share = p.f64();
            sup.avgAc = p.f64();
            srv.supplies.push_back(sup);
        }
        if (!p.ok())
            return false;
        out.servers.push_back(std::move(srv));
    }
    return true;
}

} // namespace

std::vector<std::uint8_t>
encodeMetrics(const FrameMeta &meta, const MetricsMsg &msg)
{
    return encodeMetricsLayout(MsgType::Metrics, meta, msg);
}

std::vector<std::uint8_t>
encodePinnedSummary(const FrameMeta &meta, const MetricsMsg &msg)
{
    return encodeMetricsLayout(MsgType::PinnedSummary, meta, msg);
}

std::vector<std::uint8_t>
encodeSummary(const FrameMeta &meta, const MetricsMsg &msg)
{
    return encodeMetricsLayout(MsgType::Summary, meta, msg);
}

std::vector<std::uint8_t>
encodeBudget(const FrameMeta &meta, const BudgetMsg &msg)
{
    return encodeBudgetLayout(MsgType::Budget, meta, msg);
}

std::vector<std::uint8_t>
encodeSpoBudget(const FrameMeta &meta, const BudgetMsg &msg)
{
    return encodeBudgetLayout(MsgType::SpoBudget, meta, msg);
}

std::vector<std::uint8_t>
encodeSubBudget(const FrameMeta &meta, const BudgetMsg &msg)
{
    return encodeBudgetLayout(MsgType::SubBudget, meta, msg);
}

std::vector<std::uint8_t>
encodeCheckpoint(const FrameMeta &meta, const CheckpointMsg &msg)
{
    return encodeCheckpointLayout(MsgType::Checkpoint, meta, msg);
}

std::vector<std::uint8_t>
encodeRehome(const FrameMeta &meta, const CheckpointMsg &msg)
{
    return encodeCheckpointLayout(MsgType::Rehome, meta, msg);
}

std::vector<std::uint8_t>
encodeHeartbeat(const FrameMeta &meta)
{
    return FrameWriter(MsgType::Heartbeat, meta, 0).finish();
}

std::vector<std::uint8_t>
encodeMembershipDelta(const FrameMeta &meta,
                      const MembershipDeltaMsg &msg)
{
    if (msg.entries.size() > kMaxMembershipEntries) {
        util::fatal("wire: membership delta with %zu entries exceeds "
                    "the %zu-entry bound",
                    msg.entries.size(), kMaxMembershipEntries);
    }
    FrameWriter w(MsgType::MembershipDelta, meta,
                  4 + 2 + msg.entries.size() * kMembershipEntryBytes);
    w.u32(msg.generation);
    w.u16(static_cast<std::uint16_t>(msg.entries.size()));
    for (const MembershipEntry &entry : msg.entries) {
        w.u16(entry.endpoint);
        w.u8(static_cast<std::uint8_t>(entry.state));
        w.u32(entry.sinceGeneration);
    }
    return w.finish();
}

std::vector<std::uint8_t>
encodeMembershipAck(const FrameMeta &meta, const MembershipAckMsg &msg)
{
    FrameWriter w(MsgType::MembershipAck, meta, 4 + 2 + 1);
    w.u32(msg.generation);
    w.u16(msg.endpoint);
    w.u8(static_cast<std::uint8_t>(msg.state));
    return w.finish();
}

std::optional<Frame>
decodeFrame(const std::vector<std::uint8_t> &bytes)
{
    return decodeFrame(std::span<const std::uint8_t>(bytes));
}

std::optional<Frame>
decodeFrame(std::span<const std::uint8_t> bytes)
{
    if (bytes.size() < kHeaderSize + kCrcSize)
        return std::nullopt;
    if (bytes.size() > kMaxFrameBytes)
        return std::nullopt;

    Reader header(bytes.data(), kHeaderSize);
    if (header.u16() != kWireMagic)
        return std::nullopt;
    const std::uint8_t version = header.u8();
    if (version != kWireVersion && version != kWireCompatVersion)
        return std::nullopt;
    const std::uint8_t raw_type = header.u8();

    Frame frame;
    frame.wireVersion = version;
    frame.sender = header.u16();
    frame.epoch = header.u32();
    frame.seq = header.u32();
    // Hostile length fields are rejected here, before the CRC pass and
    // before any payload parsing allocates from them. The trace
    // context is all-or-nothing: any length other than absent (0) or
    // complete (kTraceContextBytes) is malformed.
    const std::size_t payload_size = header.u16();
    const std::size_t ctx_size = header.u8();
    if (payload_size > kMaxPayloadBytes)
        return std::nullopt;
    if (ctx_size != 0 && ctx_size != kTraceContextBytes)
        return std::nullopt;
    if (bytes.size() != kHeaderSize + ctx_size + payload_size + kCrcSize)
        return std::nullopt;

    const std::size_t covered = kHeaderSize + ctx_size + payload_size;
    Reader crc_reader(bytes.data() + covered, kCrcSize);
    if (crc32(bytes.data(), covered) != crc_reader.u32())
        return std::nullopt;

    if (ctx_size == kTraceContextBytes) {
        Reader ctx(bytes.data() + kHeaderSize, ctx_size);
        TraceContext trace;
        trace.traceId = ctx.u16();
        trace.originTier = ctx.u8();
        trace.sendMs = ctx.f64();
        frame.trace = trace;
    }

    Reader p(bytes.data() + kHeaderSize + ctx_size, payload_size);
    switch (raw_type) {
      case static_cast<std::uint8_t>(MsgType::Metrics):
      case static_cast<std::uint8_t>(MsgType::PinnedSummary):
      case static_cast<std::uint8_t>(MsgType::Summary):
        frame.type = static_cast<MsgType>(raw_type);
        if (!readMetricsPayload(p, frame.metrics))
            return std::nullopt;
        break;
      case static_cast<std::uint8_t>(MsgType::Budget):
      case static_cast<std::uint8_t>(MsgType::SpoBudget):
      case static_cast<std::uint8_t>(MsgType::SubBudget):
        frame.type = static_cast<MsgType>(raw_type);
        frame.budget.tree = p.u16();
        frame.budget.edgeNode = p.u32();
        frame.budget.budget = p.f64();
        break;
      case static_cast<std::uint8_t>(MsgType::Checkpoint):
      case static_cast<std::uint8_t>(MsgType::Rehome):
        frame.type = static_cast<MsgType>(raw_type);
        if (!readCheckpointPayload(p, frame.checkpoint))
            return std::nullopt;
        break;
      case static_cast<std::uint8_t>(MsgType::Heartbeat):
        frame.type = MsgType::Heartbeat;
        break;
      case static_cast<std::uint8_t>(MsgType::MembershipDelta):
        // Membership types were introduced with v6: a v5 header
        // carrying one is a forgery or corruption, not legitimate skew.
        if (version < kWireVersion)
            return std::nullopt;
        frame.type = MsgType::MembershipDelta;
        if (!readMembershipDeltaPayload(p, frame.membershipDelta))
            return std::nullopt;
        break;
      case static_cast<std::uint8_t>(MsgType::MembershipAck):
        if (version < kWireVersion)
            return std::nullopt;
        frame.type = MsgType::MembershipAck;
        if (!readMembershipAckPayload(p, frame.membershipAck))
            return std::nullopt;
        break;
      default:
        return std::nullopt;
    }
    if (!p.ok() || p.remaining() != 0)
        return std::nullopt;
    return frame;
}

} // namespace capmaestro::net
