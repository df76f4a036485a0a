#include "fptc/nn/serialize.hpp"

#include "fptc/util/bytes.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/journal.hpp"
#include "fptc/util/log.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace fptc::nn {

namespace {

constexpr std::uint32_t kMagic = 0x46505443; // "FPTC"

/// The packed u64 magic|version header; the v2+ CRC trailer covers every
/// byte after it.
constexpr std::size_t kHeaderBytes = sizeof(std::uint64_t);

[[nodiscard]] std::string shape_to_string(const Shape& shape)
{
    std::string out = "[";
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (i > 0) {
            out += ", ";
        }
        out += std::to_string(shape[i]);
    }
    return out + "]";
}

/// Sanity caps on counts read from a file (guard dimension products and
/// table sizes from corrupt files before they turn into huge allocations).
constexpr std::uint64_t kMaxElements = 1ULL << 33;
constexpr std::uint64_t kMaxRank = 16;
constexpr std::uint64_t kMaxParameters = 1ULL << 20;

/// Semantic weight check: nullptr when `w` is a plausible model weight,
/// otherwise a short defect name for the error message.
[[nodiscard]] const char* weight_defect(float w) noexcept
{
    if (std::isnan(w)) {
        return "NaN";
    }
    if (std::isinf(w)) {
        return "infinite";
    }
    if (std::abs(w) > kMaxAbsWeight) {
        return "out-of-range";
    }
    return nullptr;
}

/// Semantic calibration check (same contract as weight_defect).
[[nodiscard]] const char* temperature_defect(double temperature) noexcept
{
    if (std::isnan(temperature) || std::isinf(temperature)) {
        return "non-finite";
    }
    if (temperature <= 0.0 || temperature > kMaxTemperature) {
        return "out-of-range";
    }
    return nullptr;
}

/// A structurally valid checkpoint: each tensor as stored, plus the
/// calibration temperature (1 for v1/v2 records).
struct StoredTensor {
    Shape shape;
    std::vector<float> values;
};

struct Record {
    std::vector<StoredTensor> tensors;
    double temperature = 1.0;
};

[[nodiscard]] std::string read_all(std::istream& in)
{
    std::ostringstream buffer(std::ios::binary);
    buffer << in.rdbuf();
    return std::move(buffer).str();
}

/// The one checkpoint parser behind load_parameters and verify_checkpoint:
/// magic, version, shape table, tensor data, calibration (v3), the CRC
/// trailer (v2+) and an exact end — the record must stop at the trailer
/// (v1: at the last tensor).  Structural defects throw std::runtime_error
/// prefixed with `who`; content is not judged here.
[[nodiscard]] Record decode(std::string_view bytes, const std::string& who)
{
    util::ByteReader in(bytes);
    const auto require = [&](const std::string& context) {
        if (!in.ok()) {
            throw std::runtime_error(who + ": truncated stream while reading " + context);
        }
    };
    const auto header = in.get<std::uint64_t>();
    require("header");
    if ((header >> 32) != kMagic) {
        throw std::runtime_error(who + ": bad magic (not an FPTC checkpoint)");
    }
    const auto version = static_cast<std::uint32_t>(header & 0xffffffffULL);
    if (version < 1 || version > kSerializeVersion) {
        throw std::runtime_error(who + ": unsupported format version " +
                                 std::to_string(version) + " (supported: 1.." +
                                 std::to_string(kSerializeVersion) + ")");
    }

    const auto count = in.get<std::uint64_t>();
    require("parameter count");
    if (count > kMaxParameters) {
        throw std::runtime_error(who + ": implausible parameter count " + std::to_string(count));
    }
    Record record;
    for (std::uint64_t index = 0; index < count; ++index) {
        const std::string context = "parameter " + std::to_string(index);
        const auto rank = in.get<std::uint64_t>();
        require(context + " rank");
        if (rank > kMaxRank) {
            throw std::runtime_error(who + ": " + context + ": implausible rank " +
                                     std::to_string(rank) + " (corrupt stream?)");
        }
        StoredTensor tensor;
        tensor.shape.resize(static_cast<std::size_t>(rank));
        std::uint64_t elements = 1;
        for (auto& d : tensor.shape) {
            const auto dim = in.get<std::uint64_t>();
            require(context + " shape");
            if (dim == 0 || elements > kMaxElements / dim) {
                throw std::runtime_error(who + ": " + context + ": implausible shape");
            }
            elements *= dim;
            d = static_cast<std::size_t>(dim);
        }
        // Allocate no more than the file still holds: when it is short, the
        // read below fails without copying anything.
        tensor.values.resize(static_cast<std::size_t>(
            std::min<std::uint64_t>(elements, in.remaining() / sizeof(float))));
        in.get_bytes(tensor.values.data(), elements * sizeof(float));
        require(context + " data");
        record.tensors.push_back(std::move(tensor));
    }
    if (version >= 3) {
        in.get(record.temperature);
        require("calibration temperature");
    }
    if (version >= 2) {
        const bool intact = in.check_crc32<std::uint64_t>(kHeaderBytes);
        require("checksum");
        if (!intact) {
            throw std::runtime_error(who +
                                     ": checksum mismatch — checkpoint corrupt or truncated");
        }
    }
    if (!in.at_end()) {
        throw std::runtime_error(who + ": " + std::to_string(in.remaining()) +
                                 " trailing bytes after the checkpoint record");
    }
    return record;
}

/// Semantic validation, after the structural checks: the CRC proves the
/// bytes are the writer's bytes, this proves the writer's bytes are a
/// model.  Throws the typed CheckpointError so callers know a retry cannot
/// help — the file's content is garbage.
void check_semantics(const Record& record, const std::string& who)
{
    for (std::size_t index = 0; index < record.tensors.size(); ++index) {
        for (const float w : record.tensors[index].values) {
            if (const char* defect = weight_defect(w); defect != nullptr) {
                throw CheckpointError(who + ": parameter " + std::to_string(index) +
                                      " contains a " + defect + " weight (" +
                                      std::to_string(w) + ") — checkpoint semantically invalid");
            }
        }
    }
    if (const char* defect = temperature_defect(record.temperature); defect != nullptr) {
        throw CheckpointError(who + ": " + defect + " calibration temperature (" +
                              std::to_string(record.temperature) +
                              ") — checkpoint semantically invalid");
    }
}

} // namespace

void save_parameters(const std::vector<Parameter*>& parameters, std::ostream& out,
                     std::uint32_t version, const Calibration& calibration)
{
    if (version < 1 || version > kSerializeVersion) {
        throw std::runtime_error("save_parameters: unsupported format version " +
                                 std::to_string(version));
    }
    util::ByteWriter record;
    record.put((static_cast<std::uint64_t>(kMagic) << 32) | version);
    record.put<std::uint64_t>(parameters.size());
    for (const auto* p : parameters) {
        record.put<std::uint64_t>(p->value.shape().size());
        for (const auto d : p->value.shape()) {
            record.put<std::uint64_t>(d);
        }
        const auto data = p->value.data();
        record.put_bytes(data.data(), data.size() * sizeof(float));
    }
    if (version >= 3) {
        record.put(calibration.temperature);
    }
    if (version >= 2) {
        record.put_crc32<std::uint64_t>(kHeaderBytes);
    }
    out.write(record.bytes().data(), static_cast<std::streamsize>(record.size()));
    if (!out) {
        throw std::runtime_error("save_parameters: stream failure");
    }
}

void load_parameters(const std::vector<Parameter*>& parameters, std::istream& in,
                     Calibration* calibration)
{
    // Decode and validate the whole record before touching the network, so
    // a corrupt stream never leaves it half-overwritten.
    const std::string who = "load_parameters";
    const Record record = decode(read_all(in), who);
    if (record.tensors.size() != parameters.size()) {
        throw std::runtime_error(who + ": parameter count mismatch (stream has " +
                                 std::to_string(record.tensors.size()) + ", network has " +
                                 std::to_string(parameters.size()) + ")");
    }
    for (std::size_t index = 0; index < parameters.size(); ++index) {
        const auto* p = parameters[index];
        if (record.tensors[index].shape != p->value.shape()) {
            throw std::runtime_error(
                who + ": parameter " + std::to_string(index) +
                (p->name.empty() ? "" : " ('" + p->name + "')") + ": shape mismatch (stream " +
                shape_to_string(record.tensors[index].shape) + ", network " +
                shape_to_string(p->value.shape()) + ")");
        }
    }
    check_semantics(record, who);
    for (std::size_t index = 0; index < parameters.size(); ++index) {
        const auto& values = record.tensors[index].values;
        std::copy(values.begin(), values.end(), parameters[index]->value.data().begin());
    }
    if (calibration != nullptr) {
        *calibration = Calibration{.temperature = record.temperature};
    }
}

bool verify_checkpoint(std::istream& in, std::string* error)
{
    try {
        // decode() verifies the CRC before check_semantics() runs: a corrupt
        // byte stream fails as "checksum mismatch", not as whatever garbage
        // float it happened to decode to.
        const std::string who = "verify_checkpoint";
        check_semantics(decode(read_all(in), who), who);
    } catch (const std::exception& e) {
        if (error != nullptr) {
            *error = e.what();
        }
        return false;
    }
    return true;
}

void save_network(Sequential& network, const std::string& path, const Calibration& calibration)
{
    // Serialize to memory first so a truncated write never leaves a partial
    // file at `path` (durable temp + fsync + rename + dir fsync via
    // util::atomic_write_file), then re-verify the bytes on disk; a
    // corrupted write (e.g. the fault injector's truncated-write fault, or
    // a full disk) is detected and rewritten once.  An ENOSPC or fsync
    // failure surfaces as util::IoError (transient), which the campaign
    // executor retries and then degrades — the previous checkpoint at
    // `path`, if any, is left untouched.
    std::ostringstream buffer(std::ios::binary);
    save_parameters(network.parameters(), buffer, kSerializeVersion, calibration);
    const std::string blob = buffer.str();

    constexpr int kAttempts = 2;
    std::string last_error;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
        std::string written = blob;
        if (util::fault_injector().inject_truncated_write()) {
            written.resize(written.size() / 2);
            util::log_info("save_network: fault injector truncated checkpoint write to " + path);
        }
        util::atomic_write_file(path, written);

        std::ifstream readback(path, std::ios::binary);
        std::string error;
        if (readback && verify_checkpoint(readback, &error)) {
            return;
        }
        last_error = error.empty() ? "cannot re-open " + path : error;
        util::log_info("save_network: checkpoint verification failed (" + last_error +
                       "); rewriting");
    }
    throw std::runtime_error("save_network: checkpoint at " + path +
                             " failed verification after rewrite: " + last_error);
}

void load_network(Sequential& network, const std::string& path, Calibration* calibration)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        throw std::runtime_error("load_network: cannot open " + path);
    }
    load_parameters(network.parameters(), file, calibration);
}

} // namespace fptc::nn
