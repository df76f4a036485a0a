#include "fptc/serve/snapshot.hpp"

#include "fptc/util/bytes.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/telemetry.hpp"

namespace fptc::serve {

namespace {

constexpr char kMagic[8] = {'F', 'P', 'T', 'C', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + sizeof(std::uint32_t);

/// The on-disk order of the counter cut, shared by encode and decode.
constexpr std::uint64_t SnapshotCounters::*kCounterFields[] = {
    &SnapshotCounters::events_total,
    &SnapshotCounters::events_quarantined,
    &SnapshotCounters::events_dropped_queue,
    &SnapshotCounters::events_dropped_mem,
    &SnapshotCounters::events_dropped_slo,
    &SnapshotCounters::flows_ingested,
    &SnapshotCounters::flows_classified,
    &SnapshotCounters::flows_correct,
    &SnapshotCounters::shed_mem_budget,
    &SnapshotCounters::shed_queue_full,
    &SnapshotCounters::shed_deadline,
    &SnapshotCounters::shed_breaker,
    &SnapshotCounters::shed_slo,
    &SnapshotCounters::shed_restart_loss,
    &SnapshotCounters::batches,
    &SnapshotCounters::slo_violations,
    &SnapshotCounters::flows_unknown,
    &SnapshotCounters::unknown_truth_total,
    &SnapshotCounters::unknown_truth_rejected,
    &SnapshotCounters::events_quarantined_backwards,
    &SnapshotCounters::drift_alarms,
    &SnapshotCounters::reloads,
    &SnapshotCounters::reload_rollbacks,
};

} // namespace

std::string encode_snapshot(const ServeSnapshot& snapshot)
{
    FPTC_TRACE_SPAN("serve_snapshot_encode");
    util::ByteWriter out;
    out.put_bytes(kMagic, sizeof kMagic);
    out.put(kSnapshotVersion);
    out.put(snapshot.watermark);
    out.put(snapshot.stream_now);
    out.put(snapshot.generation);
    out.put(snapshot.model_generation);
    out.put(snapshot.config_fingerprint);
    for (const auto field : kCounterFields) {
        out.put(snapshot.counters.*field);
    }
    out.put<std::uint64_t>(snapshot.flows.size());
    for (const SnapshotFlow& flow : snapshot.flows) {
        out.put(flow.flow_id);
        out.put(flow.label);
        out.put(flow.first_ts);
        out.put<std::uint64_t>(flow.packets.size());
        for (const flow::Packet& packet : flow.packets) {
            out.put(packet.timestamp);
            out.put(static_cast<std::uint32_t>(packet.size));
            out.put<std::uint32_t>(packet.direction == flow::Direction::upstream ? 1u : 0u);
        }
    }
    out.put_crc32<std::uint32_t>(kHeaderBytes);
    return out.take();
}

std::optional<ServeSnapshot> decode_snapshot(std::string_view data)
{
    FPTC_TRACE_SPAN("serve_snapshot_decode");
    util::ByteReader in(data);
    if (!in.expect_bytes(kMagic, sizeof kMagic) || in.get<std::uint32_t>() != kSnapshotVersion) {
        return std::nullopt;
    }
    ServeSnapshot snapshot;
    in.get(snapshot.watermark);
    in.get(snapshot.stream_now);
    in.get(snapshot.generation);
    in.get(snapshot.model_generation);
    in.get(snapshot.config_fingerprint);
    for (const auto field : kCounterFields) {
        in.get(snapshot.counters.*field);
    }
    // Sanity bounds before reserving: the rest of the record must hold
    // each flow's fixed-size header and each packet's 16 bytes.
    constexpr std::uint64_t kFlowHeaderBytes = 8 + 4 + 8 + 8;
    constexpr std::uint64_t kPacketBytes = 8 + 4 + 4;
    const auto flow_count = in.get<std::uint64_t>();
    if (!in.ok() || flow_count > in.remaining() / kFlowHeaderBytes) {
        return std::nullopt;
    }
    snapshot.flows.reserve(static_cast<std::size_t>(flow_count));
    for (std::uint64_t f = 0; f < flow_count; ++f) {
        SnapshotFlow flow;
        in.get(flow.flow_id);
        in.get(flow.label);
        in.get(flow.first_ts);
        const auto packet_count = in.get<std::uint64_t>();
        if (!in.ok() || packet_count > in.remaining() / kPacketBytes) {
            return std::nullopt;
        }
        flow.packets.reserve(static_cast<std::size_t>(packet_count));
        for (std::uint64_t p = 0; p < packet_count; ++p) {
            const auto ts = in.get<double>();
            const auto size = in.get<std::uint32_t>();
            const auto direction = in.get<std::uint32_t>();
            if (!in.ok()) {
                return std::nullopt;
            }
            flow.packets.push_back(flow::Packet{
                .timestamp = ts,
                .size = static_cast<int>(size),
                .direction = direction != 0 ? flow::Direction::upstream
                                            : flow::Direction::downstream,
                .is_ack = false,
            });
        }
        snapshot.flows.push_back(std::move(flow));
    }
    if (!in.check_crc32<std::uint32_t>(kHeaderBytes) || !in.at_end()) {
        return std::nullopt;
    }
    return snapshot;
}

void save_snapshot(const std::string& path, const ServeSnapshot& snapshot)
{
    util::DurableFile::write_file(path, encode_snapshot(snapshot));
}

std::optional<ServeSnapshot> load_snapshot(const std::string& path,
                                           std::uint64_t expect_fingerprint)
{
    const std::optional<std::string> bytes = util::read_file(path);
    if (!bytes.has_value()) {
        return std::nullopt;
    }
    auto snapshot = decode_snapshot(*bytes);
    if (snapshot.has_value() && expect_fingerprint != 0 &&
        snapshot->config_fingerprint != expect_fingerprint) {
        return std::nullopt;
    }
    return snapshot;
}

} // namespace fptc::serve
