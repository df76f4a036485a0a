// One property suite over every binary record format (util/bytes.hpp):
// model checkpoints v1/v2/v3 (nn/serialize), serve snapshots v2
// (serve/snapshot) and flight-recorder postmortems v1 (serve/flightrec).
//
// Each format is encoded from a fixed input and must be refused after any
// structural damage — every strict prefix, every single-bit flip (formats
// with a CRC trailer), one appended byte, a corrupted magic, the next
// version number.  Each encoding's size and CRC32 are pinned: they are the
// proof that the shared byte layer writes the same bytes as the per-format
// codecs it replaced.  Checkpoints count as refused only when both
// verify_checkpoint and load_parameters refuse.

#include "fptc/nn/serialize.hpp"
#include "fptc/serve/flightrec.hpp"
#include "fptc/serve/snapshot.hpp"
#include "fptc/util/bytes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace fptc;

namespace {

// ---------------------------------------------------------------------------
// Fixed inputs
// ---------------------------------------------------------------------------

std::vector<nn::Parameter> checkpoint_params()
{
    std::vector<nn::Parameter> params;
    params.emplace_back(nn::Tensor({2, 3}), "weight");
    params.emplace_back(nn::Tensor({3}), "bias");
    float v = 0.5f;
    for (auto& p : params) {
        for (auto& x : p.value.data()) {
            x = v;
            v += 0.25f;
        }
    }
    return params;
}

std::vector<nn::Parameter*> pointers(std::vector<nn::Parameter>& params)
{
    std::vector<nn::Parameter*> out;
    for (auto& p : params) {
        out.push_back(&p);
    }
    return out;
}

std::string checkpoint_bytes(std::uint32_t version)
{
    auto params = checkpoint_params();
    std::ostringstream out(std::ios::binary);
    nn::save_parameters(pointers(params), out, version, nn::Calibration{.temperature = 1.5});
    return out.str();
}

bool checkpoint_verifies(std::string_view bytes)
{
    std::istringstream in(std::string(bytes), std::ios::binary);
    return nn::verify_checkpoint(in);
}

bool checkpoint_loads(std::string_view bytes)
{
    auto target = checkpoint_params();
    std::istringstream in(std::string(bytes), std::ios::binary);
    try {
        nn::load_parameters(pointers(target), in);
        return true;
    } catch (const std::runtime_error&) {
        return false;
    }
}

serve::ServeSnapshot fixed_snapshot()
{
    serve::ServeSnapshot snap;
    snap.watermark = 1234;
    snap.stream_now = 17.25;
    snap.generation = 2;
    snap.model_generation = 5;
    snap.config_fingerprint = 0xfeed0001ULL;
    // Distinct values, so a reordered counter changes the pinned CRC.
    auto& c = snap.counters;
    std::uint64_t value = 101;
    for (std::uint64_t* field :
         {&c.events_total, &c.events_quarantined, &c.events_dropped_queue,
          &c.events_dropped_mem, &c.events_dropped_slo, &c.flows_ingested, &c.flows_classified,
          &c.flows_correct, &c.shed_mem_budget, &c.shed_queue_full, &c.shed_deadline,
          &c.shed_breaker, &c.shed_slo, &c.shed_restart_loss, &c.batches, &c.slo_violations,
          &c.flows_unknown, &c.unknown_truth_total, &c.unknown_truth_rejected,
          &c.events_quarantined_backwards, &c.drift_alarms, &c.reloads,
          &c.reload_rollbacks}) {
        *field = value++;
    }
    for (const std::uint64_t id : {11u, 99u}) {
        serve::SnapshotFlow flow{.flow_id = id, .label = 2, .first_ts = 2.5, .packets = {}};
        for (std::size_t i = 0; i < 3 + id % 4; ++i) {
            flow.packets.push_back(flow::Packet{
                .timestamp = 2.5 + 0.01 * static_cast<double>(i),
                .size = 100 + static_cast<int>(i),
                .direction = i % 2 == 0 ? flow::Direction::upstream : flow::Direction::downstream,
                .is_ack = false,
            });
        }
        snap.flows.push_back(std::move(flow));
    }
    return snap;
}

serve::Postmortem fixed_postmortem()
{
    serve::Postmortem pm;
    pm.reason = static_cast<std::uint32_t>(serve::PostmortemReason::manual);
    pm.generation = 3;
    pm.detail = "fixed input";
    serve::Postmortem::RingDump ring;
    ring.ring = static_cast<std::uint32_t>(serve::FrecRing::assembler);
    ring.recorded = 7;
    ring.dropped = 2;
    for (std::uint64_t i = 0; i < 5; ++i) {
        ring.events.push_back(serve::FlightEvent{
            .ts_ns = 100 * i,
            .flow_id = i,
            .arg = i * i,
            .kind = static_cast<std::uint32_t>(serve::FrecKind::admit),
            .detail = static_cast<std::uint32_t>(i),
        });
    }
    pm.rings.push_back(std::move(ring));
    pm.exemplars.push_back({static_cast<std::uint32_t>(serve::FrecStage::backend_compute),
                            20, 77});
    pm.metrics_text = "# TYPE fptc_serve_events_total counter\nfptc_serve_events_total 1\n";
    return pm;
}

// ---------------------------------------------------------------------------
// The format table
// ---------------------------------------------------------------------------

struct Format {
    std::string bytes;  ///< encoding of the fixed input
    /// Every decoder of the format; each must accept `bytes` and refuse
    /// every malformation.
    std::vector<std::function<bool(std::string_view)>> decoders;
    std::size_t magic_at = 0;    ///< one byte inside the magic
    std::size_t version_at = 0;  ///< offset of the u32 version field
    // Pinned from the per-format codecs that util/bytes.hpp replaced.
    std::size_t golden_size = 0;
    std::uint32_t golden_crc = 0;  ///< util::crc32 over the whole encoding
};

Format format_named(const std::string& name)
{
    const std::vector<std::function<bool(std::string_view)>> checkpoint_decoders = {
        checkpoint_verifies, checkpoint_loads};
    // Checkpoint header: a little-endian u64 (magic << 32 | version).
    if (name == "checkpoint_v1") {
        return {checkpoint_bytes(1), checkpoint_decoders, 4, 0, 92, 2289776980u};
    }
    if (name == "checkpoint_v2") {
        return {checkpoint_bytes(2), checkpoint_decoders, 4, 0, 100, 3400244040u};
    }
    if (name == "checkpoint_v3") {
        return {checkpoint_bytes(3), checkpoint_decoders, 4, 0, 108, 3979895076u};
    }
    // Snapshot and postmortem headers: 8-byte magic, then the u32 version.
    if (name == "snapshot_v2") {
        return {serve::encode_snapshot(fixed_snapshot()),
                {[](std::string_view b) { return serve::decode_snapshot(b).has_value(); }},
                0,
                8,
                488,
                1286183092u};
    }
    if (name == "postmortem_v1") {
        return {serve::encode_postmortem(fixed_postmortem()),
                {[](std::string_view b) { return serve::decode_postmortem(b).has_value(); }},
                0,
                8,
                336,
                336356688u};
    }
    ADD_FAILURE() << "unknown format " << name;
    return {};
}

class BinaryRecord : public ::testing::TestWithParam<std::string> {
protected:
    void SetUp() override { format_ = format_named(GetParam()); }

    /// Every decoder refuses `bytes`.
    void expect_refused(std::string_view bytes, const std::string& what) const
    {
        for (std::size_t d = 0; d < format_.decoders.size(); ++d) {
            EXPECT_FALSE(format_.decoders[d](bytes)) << "decoder " << d << " accepted " << what;
        }
    }

    Format format_;
};

/// The bit-flip property holds only for formats with a CRC trailer.
class ChecksummedBinaryRecord : public BinaryRecord {};

TEST_P(BinaryRecord, EncodingMatchesGoldenSizeAndCrc)
{
    EXPECT_EQ(format_.bytes.size(), format_.golden_size);
    EXPECT_EQ(util::crc32(format_.bytes), format_.golden_crc);
    for (std::size_t d = 0; d < format_.decoders.size(); ++d) {
        EXPECT_TRUE(format_.decoders[d](format_.bytes)) << "decoder " << d;
    }
}

TEST_P(BinaryRecord, RefusesEveryStrictPrefix)
{
    for (std::size_t len = 0; len < format_.bytes.size(); ++len) {
        expect_refused(std::string_view(format_.bytes).substr(0, len),
                       "a prefix of " + std::to_string(len) + " bytes");
    }
}

TEST_P(BinaryRecord, RefusesOneAppendedByte)
{
    expect_refused(format_.bytes + '\0', "one appended byte");
}

TEST_P(BinaryRecord, RefusesCorruptedMagic)
{
    std::string bytes = format_.bytes;
    bytes[format_.magic_at] = static_cast<char>(bytes[format_.magic_at] ^ 0x20);
    expect_refused(bytes, "a corrupted magic");
}

TEST_P(BinaryRecord, RefusesNextVersion)
{
    std::string bytes = format_.bytes;
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + format_.version_at, sizeof version);
    ++version;
    std::memcpy(bytes.data() + format_.version_at, &version, sizeof version);
    expect_refused(bytes, "version " + std::to_string(version));
}

TEST_P(ChecksummedBinaryRecord, RefusesEverySingleBitFlip)
{
    for (std::size_t byte = 0; byte < format_.bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bytes = format_.bytes;
            bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
            expect_refused(bytes, "bit " + std::to_string(bit) + " of byte " +
                                      std::to_string(byte) + " flipped");
        }
    }
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info)
{
    return info.param;
}

INSTANTIATE_TEST_SUITE_P(Formats, BinaryRecord,
                         ::testing::Values("checkpoint_v1", "checkpoint_v2", "checkpoint_v3",
                                           "snapshot_v2", "postmortem_v1"),
                         param_name);

INSTANTIATE_TEST_SUITE_P(Formats, ChecksummedBinaryRecord,
                         ::testing::Values("checkpoint_v2", "checkpoint_v3", "snapshot_v2",
                                           "postmortem_v1"),
                         param_name);

// ---------------------------------------------------------------------------
// The byte layer itself
// ---------------------------------------------------------------------------

TEST(ByteCodec, ReaderStopsAtTheEndAndStaysFailed)
{
    util::ByteWriter writer;
    writer.put<std::uint32_t>(7);
    writer.put_string("abc");
    writer.put_crc32<std::uint32_t>(0);
    const std::string bytes = writer.take();

    util::ByteReader in(bytes);
    EXPECT_EQ(in.get<std::uint32_t>(), 7u);
    std::string text;
    EXPECT_TRUE(in.get_string(text, 3));
    EXPECT_EQ(text, "abc");
    EXPECT_TRUE(in.check_crc32<std::uint32_t>(0));
    EXPECT_TRUE(in.at_end());
    // A read past the end fails, yields zero and poisons the reader.
    EXPECT_EQ(in.get<std::uint64_t>(), 0u);
    EXPECT_FALSE(in.ok());
    EXPECT_FALSE(in.at_end());

    // A length above the cap fails without consuming the string.
    util::ByteReader capped(bytes);
    EXPECT_EQ(capped.get<std::uint32_t>(), 7u);
    EXPECT_FALSE(capped.get_string(text, 2));
    EXPECT_FALSE(capped.ok());
}

} // namespace
