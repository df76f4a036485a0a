#include "fptc/serve/flightrec.hpp"

#include "fptc/util/bytes.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace fptc::serve {

namespace {

// ---------------------------------------------------------------------------
// Ring-file layout (version 1).  Everything is u64 words so every slot is
// naturally aligned for std::atomic_ref:
//
//   [0..7]   file header: magic, version, generation, ring_count,
//            ring_capacity, stage_count, bucket_count, reserved
//   [8..]    exemplar region: stage_count × bucket_count flow ids
//   then per ring: 8-word ring header (word 0 = head), then
//            ring_capacity × 4-word event slots (ts, flow, arg, kind|detail)
// ---------------------------------------------------------------------------

constexpr char kRingMagic[8] = {'F', 'P', 'T', 'C', 'F', 'R', 'E', 'C'};
constexpr std::uint64_t kRingVersion = 1;
constexpr std::size_t kFileHeaderWords = 8;
constexpr std::size_t kRingHeaderWords = 8;
constexpr std::size_t kWordsPerEvent = 4;
constexpr std::size_t kMinCapacity = 64;
constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

// Word offsets inside a region, shared by the live recorder and
// read_ring_file (which reads a dead worker's region from a file copy).
std::size_t ring_head_index(std::size_t capacity, std::size_t ring)
{
    return kFileHeaderWords + kFrecStageCount * kFrecBuckets +
           ring * (kRingHeaderWords + capacity * kWordsPerEvent);
}

/// Whole-region size: where a ring after the last one would start.
std::size_t region_words(std::size_t capacity)
{
    return ring_head_index(capacity, kFrecRingCount);
}

std::size_t exemplar_index(std::size_t stage, std::size_t bucket)
{
    return kFileHeaderWords + stage * kFrecBuckets + bucket;
}

std::uint64_t load_word(const std::uint64_t& word,
                        std::memory_order order = std::memory_order_relaxed)
{
    return std::atomic_ref<const std::uint64_t>(word).load(order);
}

/// The surviving window of one ring whose head is `head`, oldest first.
std::vector<FlightEvent> ring_events(const std::uint64_t* base, std::size_t capacity,
                                     std::size_t ring, std::uint64_t head)
{
    const std::uint64_t count = std::min<std::uint64_t>(head, capacity);
    std::vector<FlightEvent> out;
    out.reserve(static_cast<std::size_t>(count));
    const std::uint64_t* slots = base + ring_head_index(capacity, ring) + kRingHeaderWords;
    for (std::uint64_t i = head - count; i < head; ++i) {
        const std::uint64_t* slot = slots + (i % capacity) * kWordsPerEvent;
        const std::uint64_t kd = load_word(slot[3]);
        out.push_back(FlightEvent{
            .ts_ns = load_word(slot[0]),
            .flow_id = load_word(slot[1]),
            .arg = load_word(slot[2]),
            .kind = static_cast<std::uint32_t>(kd >> 32),
            .detail = static_cast<std::uint32_t>(kd & 0xFFFFFFFFu),
        });
    }
    return out;
}

/// Every ring window plus the non-empty exemplar slots of a region.
Postmortem read_region(const std::uint64_t* base, std::size_t capacity)
{
    Postmortem out;
    for (std::size_t r = 0; r < kFrecRingCount; ++r) {
        const std::uint64_t head =
            load_word(base[ring_head_index(capacity, r)], std::memory_order_acquire);
        Postmortem::RingDump dump;
        dump.ring = static_cast<std::uint32_t>(r);
        dump.recorded = head;
        dump.dropped = head > capacity ? head - capacity : 0;
        dump.events = ring_events(base, capacity, r, head);
        out.rings.push_back(std::move(dump));
    }
    for (std::size_t stage = 0; stage < kFrecStageCount; ++stage) {
        for (std::size_t bucket = 0; bucket < kFrecBuckets; ++bucket) {
            const std::uint64_t flow = load_word(base[exemplar_index(stage, bucket)]);
            if (flow != 0) {
                out.exemplars.push_back({static_cast<std::uint32_t>(stage),
                                         static_cast<std::uint32_t>(bucket), flow});
            }
        }
    }
    return out;
}

std::uint64_t steady_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::atomic<FlightRecorder*> g_recorder{nullptr};

// -------------------------- postmortem codec -------------------------------

constexpr char kPmMagic[8] = {'F', 'P', 'T', 'C', 'P', 'M', 'R', 'T'};
/// Magic, u32 version, u64 payload length; the CRC trailer covers the payload.
constexpr std::size_t kPmHeaderBytes =
    sizeof(kPmMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t);
constexpr std::uint64_t kPmEventBytes = 8 + 8 + 8 + 4 + 4;

} // namespace

// ---------------------------------------------------------------------------
// Vocabulary names
// ---------------------------------------------------------------------------

const char* frec_ring_name(std::uint32_t ring) noexcept
{
    switch (static_cast<FrecRing>(ring)) {
    case FrecRing::driver: return "driver";
    case FrecRing::assembler: return "assembler";
    case FrecRing::classifier: return "classifier";
    }
    return "unknown";
}

const char* frec_kind_name(std::uint32_t kind) noexcept
{
    switch (static_cast<FrecKind>(kind)) {
    case FrecKind::ingest: return "ingest";
    case FrecKind::quarantine: return "quarantine";
    case FrecKind::admit: return "admit";
    case FrecKind::codel_drop: return "codel_drop";
    case FrecKind::window_close: return "window_close";
    case FrecKind::batch_enqueue: return "batch_enqueue";
    case FrecKind::classify_start: return "classify_start";
    case FrecKind::classify_end: return "classify_end";
    case FrecKind::shed: return "shed";
    case FrecKind::unknown_route: return "unknown_route";
    case FrecKind::snapshot_marker: return "snapshot_marker";
    }
    return "unknown";
}

const char* frec_shed_name(std::uint32_t reason) noexcept
{
    switch (static_cast<FrecShed>(reason)) {
    case FrecShed::mem_budget: return "mem_budget";
    case FrecShed::queue_full: return "queue_full";
    case FrecShed::deadline: return "deadline";
    case FrecShed::breaker: return "breaker";
    case FrecShed::slo: return "slo";
    }
    return "unknown";
}

const char* frec_stage_name(std::uint32_t stage) noexcept
{
    switch (static_cast<FrecStage>(stage)) {
    case FrecStage::ingest_wait: return "ingest_wait";
    case FrecStage::assembly: return "assembly";
    case FrecStage::ready_wait: return "ready_wait";
    case FrecStage::backend_compute: return "backend_compute";
    }
    return "unknown";
}

const char* frec_stage_metric_name(FrecStage stage) noexcept
{
    switch (stage) {
    case FrecStage::ingest_wait: return "fptc_serve_stage_ingest_wait_ns";
    case FrecStage::assembly: return "fptc_serve_stage_assembly_ns";
    case FrecStage::ready_wait: return "fptc_serve_stage_ready_wait_ns";
    case FrecStage::backend_compute: return "fptc_serve_stage_backend_compute_ns";
    }
    return "fptc_serve_stage_unknown_ns";
}

std::size_t frec_bucket(std::uint64_t value) noexcept
{
    return static_cast<std::size_t>(std::bit_width(value));
}

const char* postmortem_reason_name(std::uint32_t reason) noexcept
{
    switch (static_cast<PostmortemReason>(reason)) {
    case PostmortemReason::watchdog_stall: return "watchdog_stall";
    case PostmortemReason::breaker_hard_trip: return "breaker_hard_trip";
    case PostmortemReason::sigkill_reap: return "sigkill_reap";
    case PostmortemReason::manual: return "manual";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Postmortem helpers + codec
// ---------------------------------------------------------------------------

std::optional<std::uint64_t> Postmortem::last_watermark() const
{
    std::optional<std::uint64_t> watermark;
    std::uint64_t best_ts = 0;
    for (const RingDump& dump : rings) {
        for (const FlightEvent& event : dump.events) {
            if (event.kind == static_cast<std::uint32_t>(FrecKind::snapshot_marker) &&
                (!watermark.has_value() || event.ts_ns >= best_ts)) {
                best_ts = event.ts_ns;
                watermark = event.arg;
            }
        }
    }
    return watermark;
}

std::uint64_t Postmortem::event_count() const noexcept
{
    std::uint64_t total = 0;
    for (const RingDump& dump : rings) {
        total += dump.events.size();
    }
    return total;
}

std::string encode_postmortem(const Postmortem& postmortem)
{
    util::ByteWriter payload;
    payload.put(postmortem.reason);
    payload.put(postmortem.generation);
    payload.put_string(postmortem.detail);
    payload.put(static_cast<std::uint32_t>(postmortem.rings.size()));
    for (const Postmortem::RingDump& dump : postmortem.rings) {
        payload.put(dump.ring);
        payload.put(dump.recorded);
        payload.put(dump.dropped);
        payload.put<std::uint64_t>(dump.events.size());
        for (const FlightEvent& event : dump.events) {
            payload.put(event.ts_ns);
            payload.put(event.flow_id);
            payload.put(event.arg);
            payload.put(event.kind);
            payload.put(event.detail);
        }
    }
    payload.put(static_cast<std::uint32_t>(postmortem.exemplars.size()));
    for (const Postmortem::Exemplar& exemplar : postmortem.exemplars) {
        payload.put(exemplar.stage);
        payload.put(exemplar.bucket);
        payload.put(exemplar.flow_id);
    }
    payload.put_string(postmortem.metrics_text);

    util::ByteWriter out;
    out.put_bytes(kPmMagic, sizeof(kPmMagic));
    out.put(kPostmortemVersion);
    out.put<std::uint64_t>(payload.size());
    out.put_bytes(payload.bytes().data(), payload.size());
    out.put_crc32<std::uint32_t>(kPmHeaderBytes);
    return out.take();
}

std::optional<Postmortem> decode_postmortem(std::string_view bytes)
{
    util::ByteReader in(bytes);
    if (!in.expect_bytes(kPmMagic, sizeof(kPmMagic)) ||
        in.get<std::uint32_t>() != kPostmortemVersion) {
        return std::nullopt;
    }
    const auto payload_size = in.get<std::uint64_t>();
    if (!in.ok() || in.remaining() < sizeof(std::uint32_t) ||
        payload_size != in.remaining() - sizeof(std::uint32_t)) {
        return std::nullopt;
    }

    Postmortem out;
    in.get(out.reason);
    in.get(out.generation);
    if (!in.get_string(out.detail, 1 << 16)) {
        return std::nullopt;
    }
    const auto ring_count = in.get<std::uint32_t>();
    if (!in.ok() || ring_count > 16) {
        return std::nullopt;
    }
    out.rings.reserve(ring_count);
    for (std::uint32_t r = 0; r < ring_count; ++r) {
        Postmortem::RingDump dump;
        in.get(dump.ring);
        in.get(dump.recorded);
        in.get(dump.dropped);
        const auto count = in.get<std::uint64_t>();
        if (!in.ok() || count > (std::uint64_t{1} << 22) ||
            count > in.remaining() / kPmEventBytes) {
            return std::nullopt;
        }
        dump.events.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
            FlightEvent event;
            in.get(event.ts_ns);
            in.get(event.flow_id);
            in.get(event.arg);
            in.get(event.kind);
            in.get(event.detail);
            dump.events.push_back(event);
        }
        out.rings.push_back(std::move(dump));
    }
    const auto exemplar_count = in.get<std::uint32_t>();
    if (!in.ok() || exemplar_count > 16 * 128) {
        return std::nullopt;
    }
    out.exemplars.reserve(exemplar_count);
    for (std::uint32_t i = 0; i < exemplar_count; ++i) {
        Postmortem::Exemplar exemplar;
        in.get(exemplar.stage);
        in.get(exemplar.bucket);
        in.get(exemplar.flow_id);
        out.exemplars.push_back(exemplar);
    }
    if (!in.get_string(out.metrics_text, std::uint64_t{1} << 26)) {
        return std::nullopt;
    }
    if (!in.check_crc32<std::uint32_t>(kPmHeaderBytes) || !in.at_end()) {
        return std::nullopt;  // CRC mismatch or trailing garbage = corruption, refuse
    }
    return out;
}

bool save_postmortem(const std::string& path, const Postmortem& postmortem)
{
    try {
        util::DurableFile::write_file(path, encode_postmortem(postmortem));
        return true;
    } catch (const std::exception& e) {
        util::log_info(std::string("serve: postmortem write failed (") + e.what() + ")");
        return false;
    }
}

std::optional<Postmortem> load_postmortem(const std::string& path)
{
    const std::optional<std::string> bytes = util::read_file(path);
    if (!bytes.has_value()) {
        return std::nullopt;
    }
    return decode_postmortem(*bytes);
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

namespace frec_detail {

std::atomic<int> gate{0};

void note_slow(FrecRing ring, FrecKind kind, std::uint64_t flow_id, std::uint64_t arg,
               std::uint32_t detail) noexcept
{
    FlightRecorder* recorder = g_recorder.load(std::memory_order_acquire);
    if (recorder != nullptr) {
        recorder->note(ring, kind, flow_id, arg, detail);
    }
}

void exemplar_slow(FrecStage stage, std::uint64_t value, std::uint64_t flow_id) noexcept
{
    FlightRecorder* recorder = g_recorder.load(std::memory_order_acquire);
    if (recorder != nullptr) {
        recorder->observe_exemplar(stage, value, flow_id);
    }
}

} // namespace frec_detail

FlightRecorder::FlightRecorder(const FrecConfig& config) : config_(config)
{
    config_.ring_capacity = std::clamp(config_.ring_capacity, kMinCapacity, kMaxCapacity);
    words_ = region_words(config_.ring_capacity);
    const std::size_t size = words_ * sizeof(std::uint64_t);

    if (!config_.ring_path.empty()) {
        const int fd = ::open(config_.ring_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (fd >= 0 && ::ftruncate(fd, static_cast<off_t>(size)) == 0) {
            void* mapping =
                ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
            if (mapping != MAP_FAILED) {
                base_ = static_cast<std::uint64_t*>(mapping);
                mapped_ = true;
            }
        }
        if (fd >= 0) {
            ::close(fd);
        }
        if (!mapped_) {
            util::log_info("serve: flight-recorder ring mmap failed for " +
                           config_.ring_path + "; falling back to private memory");
        }
    }
    if (base_ == nullptr) {
        base_ = new std::uint64_t[words_]();
    }

    // Reinitialize the region unconditionally: a leftover ring file from a
    // previous generation describes a run that already got its postmortem.
    std::memset(base_, 0, size);
    std::memcpy(&base_[0], kRingMagic, sizeof(kRingMagic));
    base_[1] = kRingVersion;
    base_[2] = config_.generation;
    base_[3] = kFrecRingCount;
    base_[4] = config_.ring_capacity;
    base_[5] = kFrecStageCount;
    base_[6] = kFrecBuckets;
    if (mapped_) {
        // Push the header through to the page cache so even an immediate
        // SIGKILL leaves a parseable (if empty) ring file.
        ::msync(base_, size, MS_ASYNC);
    }

    epoch_ns_ = steady_ns();
    g_recorder.store(this, std::memory_order_release);
    frec_detail::gate.store(1, std::memory_order_release);
}

FlightRecorder::~FlightRecorder()
{
    frec_detail::gate.store(0, std::memory_order_seq_cst);
    g_recorder.store(nullptr, std::memory_order_seq_cst);
    if (mapped_) {
        ::munmap(base_, words_ * sizeof(std::uint64_t));
    } else {
        delete[] base_;
    }
    base_ = nullptr;
}

void FlightRecorder::note(FrecRing ring, FrecKind kind, std::uint64_t flow_id,
                          std::uint64_t arg, std::uint32_t detail) noexcept
{
    std::uint64_t* head_word =
        base_ + ring_head_index(config_.ring_capacity, static_cast<std::size_t>(ring));
    // Single producer per ring: the relaxed head load sees this thread's own
    // last store; the release store publishes the fully-written slot.
    const std::uint64_t head = load_word(*head_word);
    std::uint64_t* slot =
        head_word + kRingHeaderWords + (head % config_.ring_capacity) * kWordsPerEvent;
    const std::uint64_t ts = steady_ns() - epoch_ns_;
    const std::uint64_t kd =
        (static_cast<std::uint64_t>(kind) << 32) | static_cast<std::uint64_t>(detail);
    std::atomic_ref<std::uint64_t>(slot[0]).store(ts, std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t>(slot[1]).store(flow_id, std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t>(slot[2]).store(arg, std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t>(slot[3]).store(kd, std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t>(*head_word).store(head + 1, std::memory_order_release);
}

void FlightRecorder::observe_exemplar(FrecStage stage, std::uint64_t value,
                                      std::uint64_t flow_id) noexcept
{
    const std::size_t bucket = frec_bucket(value);
    std::atomic_ref<std::uint64_t>(base_[exemplar_index(static_cast<std::size_t>(stage), bucket)])
        .store(flow_id, std::memory_order_relaxed);
}

std::vector<FlightEvent> FlightRecorder::ring_snapshot(FrecRing ring) const
{
    return ring_events(base_, config_.ring_capacity, static_cast<std::size_t>(ring),
                       recorded(ring));
}

std::uint64_t FlightRecorder::recorded(FrecRing ring) const noexcept
{
    return load_word(base_[ring_head_index(config_.ring_capacity, static_cast<std::size_t>(ring))],
                     std::memory_order_acquire);
}

std::uint64_t FlightRecorder::dropped(FrecRing ring) const noexcept
{
    const std::uint64_t head = recorded(ring);
    return head > config_.ring_capacity ? head - config_.ring_capacity : 0;
}

std::uint64_t FlightRecorder::recorded_total() const noexcept
{
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < kFrecRingCount; ++r) {
        total += recorded(static_cast<FrecRing>(r));
    }
    return total;
}

std::uint64_t FlightRecorder::dropped_total() const noexcept
{
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < kFrecRingCount; ++r) {
        total += dropped(static_cast<FrecRing>(r));
    }
    return total;
}

std::uint64_t FlightRecorder::exemplar(FrecStage stage, std::size_t bucket) const noexcept
{
    if (bucket >= kFrecBuckets) {
        return 0;
    }
    return load_word(base_[exemplar_index(static_cast<std::size_t>(stage), bucket)]);
}

Postmortem FlightRecorder::build_postmortem(PostmortemReason reason, std::string detail,
                                            std::string metrics_text) const
{
    Postmortem out = read_region(base_, config_.ring_capacity);
    out.reason = static_cast<std::uint32_t>(reason);
    out.generation = config_.generation;
    out.detail = std::move(detail);
    out.metrics_text = std::move(metrics_text);
    return out;
}

bool FlightRecorder::dump(const std::string& path, PostmortemReason reason,
                          std::string detail) const
{
    if (path.empty()) {
        return false;
    }
    Postmortem postmortem = build_postmortem(reason, std::move(detail),
                                             util::metrics().prometheus_text());
    const bool saved = save_postmortem(path, postmortem);
    if (saved) {
        util::log_info("serve: postmortem written to " + path + " (reason=" +
                       postmortem_reason_name(postmortem.reason) + " events=" +
                       std::to_string(postmortem.event_count()) + ")");
    }
    return saved;
}

void FlightRecorder::remove_backing() noexcept
{
    if (mapped_ && !config_.ring_path.empty()) {
        ::unlink(config_.ring_path.c_str());
    }
}

std::optional<Postmortem> FlightRecorder::read_ring_file(const std::string& ring_path)
{
    const std::optional<std::string> bytes = util::read_file(ring_path);
    if (!bytes.has_value() || bytes->size() < kFileHeaderWords * sizeof(std::uint64_t) ||
        bytes->size() % sizeof(std::uint64_t) != 0) {
        return std::nullopt;
    }
    // Aligned u64 words, so the live recorder's region reader applies.
    std::vector<std::uint64_t> words(bytes->size() / sizeof(std::uint64_t));
    std::memcpy(words.data(), bytes->data(), bytes->size());
    if (std::memcmp(words.data(), kRingMagic, sizeof(kRingMagic)) != 0 ||
        words[1] != kRingVersion) {
        return std::nullopt;
    }
    const std::uint64_t generation = words[2];
    const std::uint64_t ring_count = words[3];
    const std::uint64_t capacity = words[4];
    const std::uint64_t stage_count = words[5];
    const std::uint64_t bucket_count = words[6];
    if (ring_count != kFrecRingCount || stage_count != kFrecStageCount ||
        bucket_count != kFrecBuckets || capacity < kMinCapacity ||
        capacity > kMaxCapacity ||
        words.size() < region_words(static_cast<std::size_t>(capacity))) {
        return std::nullopt;
    }
    Postmortem out = read_region(words.data(), static_cast<std::size_t>(capacity));
    out.generation = static_cast<std::uint32_t>(generation);
    return out;
}

bool FlightRecorder::seal_from_ring_file(const std::string& ring_path,
                                         const std::string& out_path,
                                         PostmortemReason reason, std::uint32_t generation,
                                         std::string detail)
{
    if (ring_path.empty() || out_path.empty()) {
        return false;
    }
    std::optional<Postmortem> postmortem = read_ring_file(ring_path);
    if (!postmortem.has_value()) {
        util::log_info("serve: no decodable flight-recorder ring at " + ring_path +
                       "; postmortem not sealed");
        return false;
    }
    postmortem->reason = static_cast<std::uint32_t>(reason);
    postmortem->generation = generation;
    postmortem->detail = std::move(detail);
    const bool saved = save_postmortem(out_path, *postmortem);
    if (saved) {
        util::log_info("serve: sealed postmortem to " + out_path + " (reason=" +
                       postmortem_reason_name(postmortem->reason) + " generation=" +
                       std::to_string(generation) + " events=" +
                       std::to_string(postmortem->event_count()) + ")");
    }
    return saved;
}

} // namespace fptc::serve
