#include "fptc/flow/io.hpp"

#include "fptc/util/fault.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/log.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

namespace fptc::flow {

namespace {

constexpr const char* kColumns[] = {"flow_id", "label",     "class_name", "timestamp",
                                    "size",    "direction", "is_ack",     "background"};
constexpr std::size_t kColumnCount = sizeof(kColumns) / sizeof(kColumns[0]);
constexpr const char* kHeader = "flow_id,label,class_name,timestamp,size,direction,is_ack,background";

/// Labels beyond this are treated as corruption (they would otherwise grow
/// the class vocabulary — and its allocation — without bound).
constexpr std::size_t kMaxLabel = 1'000'000;

/// Largest packet size a CSV row may carry: the maximum IP datagram.  The
/// flowpic input representation caps at flow::kMaxPacketSize (1500) later;
/// this bound only rejects values no packet on any wire can have.
constexpr int kMaxCsvPacketSize = 65535;

/// Split `line` on ',' into `fields`, reusing the vector's strings (and
/// their heap buffers) across calls — the bulk-ingestion loop calls this
/// once per row, so per-row allocations would dominate the parse.
/// '\r' is stripped anywhere, matching the historical behaviour.
void split_fields_into(const std::string& line, std::vector<std::string>& fields)
{
    std::size_t used = 0;
    auto next_field = [&fields, &used]() -> std::string& {
        if (used == fields.size()) {
            fields.emplace_back();
        }
        std::string& field = fields[used++];
        field.clear();  // keeps capacity
        return field;
    };
    std::string* current = &next_field();
    for (const char c : line) {
        if (c == ',') {
            current = &next_field();
        } else if (c != '\r') {
            current->push_back(c);
        }
    }
    fields.resize(used);
}

[[nodiscard]] std::vector<std::string> split_fields(const std::string& line)
{
    std::vector<std::string> fields;
    split_fields_into(line, fields);
    return fields;
}

[[nodiscard]] std::string line_prefix(std::size_t line_number)
{
    return "read_dataset_csv: line " + std::to_string(line_number) + ": ";
}

template <typename T>
[[nodiscard]] T parse_number(const std::string& field, const char* what, std::size_t line_number)
{
    T value{};
    const auto* begin = field.data();
    const auto* end = begin + field.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end) {
        throw std::runtime_error(line_prefix(line_number) + "bad " + what + " '" + field + "'");
    }
    return value;
}

[[nodiscard]] double parse_double(const std::string& field, const char* what,
                                  std::size_t line_number)
{
    // std::from_chars<double> is not universally available; strtod suffices
    // for the numeric grammar — but it also accepts "nan", "inf"/"infinity",
    // hex floats ("0x1p3") and leading whitespace, none of which a dataset
    // row may legitimately contain (a NaN timestamp would silently poison
    // every downstream flowpic).  Restrict the alphabet to plain decimal
    // notation first, then reject any non-finite result (e.g. "1e999").
    for (const char c : field) {
        const bool decimal = (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
                             c == 'e' || c == 'E';
        if (!decimal) {
            throw std::runtime_error(line_prefix(line_number) + "bad " + what + " '" + field +
                                     "'");
        }
    }
    char* end = nullptr;
    const double value = std::strtod(field.c_str(), &end);
    if (field.empty() || end != field.c_str() + field.size() || !std::isfinite(value)) {
        throw std::runtime_error(line_prefix(line_number) + "bad " + what + " '" + field + "'");
    }
    return value;
}

/// Column-by-column header validation: naming the first wrong column catches
/// reordered exports that would otherwise parse silently wherever the field
/// types happen to line up.
void validate_header(const std::string& raw_header)
{
    std::string line = raw_header;
    // Tolerate a UTF-8 BOM and trailing CR on the header.
    if (line.size() >= 3 && static_cast<unsigned char>(line[0]) == 0xEF) {
        line.erase(0, 3);
    }
    if (!line.empty() && line.back() == '\r') {
        line.pop_back();
    }
    const auto columns = split_fields(line);
    if (columns.size() != kColumnCount) {
        throw std::runtime_error("read_dataset_csv: line 1: header has " +
                                 std::to_string(columns.size()) + " columns, expected " +
                                 std::to_string(kColumnCount) + " ('" + kHeader + "')");
    }
    for (std::size_t c = 0; c < kColumnCount; ++c) {
        if (columns[c] != kColumns[c]) {
            throw std::runtime_error("read_dataset_csv: line 1: header column " +
                                     std::to_string(c + 1) + " is '" + columns[c] +
                                     "', expected '" + kColumns[c] +
                                     "' — refusing to guess a column order");
        }
    }
}

} // namespace

void write_dataset_csv(const Dataset& dataset, std::ostream& out)
{
    out << kHeader << '\n';
    for (std::size_t flow_id = 0; flow_id < dataset.flows.size(); ++flow_id) {
        const auto& flow = dataset.flows[flow_id];
        const std::string& class_name = flow.label < dataset.class_names.size()
                                            ? dataset.class_names[flow.label]
                                            : std::string("class-") + std::to_string(flow.label);
        for (const auto& packet : flow.packets) {
            out << flow_id << ',' << flow.label << ',' << class_name << ',' << packet.timestamp
                << ',' << packet.size << ','
                << (packet.direction == Direction::upstream ? "up" : "down") << ','
                << (packet.is_ack ? 1 : 0) << ',' << (flow.background ? 1 : 0) << '\n';
        }
    }
    if (!out) {
        throw std::runtime_error("write_dataset_csv: stream failure");
    }
}

void write_dataset_csv(const Dataset& dataset, const std::string& path)
{
    // Durable temp-file + fsync + rename: a killed export never leaves a
    // partial (or, after power loss, empty-but-renamed) dataset behind for
    // a later campaign to trip over.
    std::ostringstream buffer;
    write_dataset_csv(dataset, buffer);
    util::DurableFile::write_file(path, buffer.str());
}

Dataset read_dataset_csv(std::istream& in, const CsvReadOptions& options, CsvReadReport* report)
{
    CsvReadReport local_report;
    CsvReadReport& rep = report != nullptr ? *report : local_report;
    rep = CsvReadReport{};

    std::string line;
    if (!std::getline(in, line)) {
        throw std::runtime_error("read_dataset_csv: empty input");
    }
    validate_header(line);

    Dataset dataset;
    // Strict mode enforces contiguous ascending flow ids (the written
    // format).  Quarantine mode only requires that each flow's rows stay
    // contiguous: when a flow's first row was dropped the remaining rows
    // still begin a usable flow, but a flow id *resuming* after other flows
    // is corruption.
    long current_flow = -1;
    bool flow_open = false;
    std::unordered_set<long> seen_flow_ids;
    std::size_t line_number = 1;
    std::vector<std::string> fields;  // reused across rows (split_fields_into)

    while (std::getline(in, line)) {
        ++line_number;
        if (line.empty()) {
            continue;
        }
        if (options.quarantine && util::fault_injector().inject_csv_corruption()) {
            // Deterministically mangle the row (wrong field count) so the
            // quarantine path is exercised end-to-end.
            line.insert(0, "~fault~,");
            ++rep.injected_faults;
        }
        try {
            split_fields_into(line, fields);
            if (fields.size() != kColumnCount) {
                throw std::runtime_error(line_prefix(line_number) + "expected " +
                                         std::to_string(kColumnCount) + " fields, got " +
                                         std::to_string(fields.size()));
            }
            const auto flow_id = parse_number<long>(fields[0], "flow_id", line_number);
            const auto label = parse_number<std::size_t>(fields[1], "label", line_number);
            if (label > kMaxLabel) {
                throw std::runtime_error(line_prefix(line_number) + "implausible label " +
                                         std::to_string(label));
            }
            const auto& class_name = fields[2];

            // Parse the packet before creating any flow, so a malformed row
            // never leaves a half-registered flow behind.
            Packet packet;
            packet.timestamp = parse_double(fields[3], "timestamp", line_number);
            packet.size = parse_number<int>(fields[4], "size", line_number);
            // from_chars accepts any int; constrain to the physical packet
            // domain so a corrupted size column cannot smuggle negative or
            // absurd values into the flowpic rasterizer.
            if (packet.size < 0 || packet.size > kMaxCsvPacketSize) {
                throw std::runtime_error(line_prefix(line_number) + "size " + fields[4] +
                                         " outside [0, " + std::to_string(kMaxCsvPacketSize) +
                                         "]");
            }
            if (fields[5] == "up") {
                packet.direction = Direction::upstream;
            } else if (fields[5] == "down") {
                packet.direction = Direction::downstream;
            } else {
                throw std::runtime_error(line_prefix(line_number) + "bad direction '" + fields[5] +
                                         "'");
            }
            packet.is_ack = fields[6] == "1";

            if (!flow_open || flow_id != current_flow) {
                if (!options.quarantine) {
                    if (flow_id != current_flow + 1) {
                        throw std::runtime_error(line_prefix(line_number) +
                                                 "flow_id must be contiguous ascending (got " +
                                                 std::to_string(flow_id) + " after " +
                                                 std::to_string(current_flow) + ")");
                    }
                } else if (seen_flow_ids.count(flow_id) > 0) {
                    throw std::runtime_error(line_prefix(line_number) + "flow_id " +
                                             std::to_string(flow_id) +
                                             " resumes after other flows (rows of one flow must "
                                             "be contiguous)");
                }
                // Vocabulary consistency is checked before the flow is
                // registered so a mismatch quarantines cleanly.
                if (label < dataset.class_names.size() && !dataset.class_names[label].empty() &&
                    dataset.class_names[label] != class_name) {
                    throw std::runtime_error(line_prefix(line_number) +
                                             "class name mismatch for label " +
                                             std::to_string(label) + " ('" + class_name +
                                             "' vs '" + dataset.class_names[label] + "')");
                }
                current_flow = flow_id;
                flow_open = true;
                seen_flow_ids.insert(flow_id);
                Flow flow;
                flow.label = label;
                flow.background = fields[7] == "1";
                dataset.flows.push_back(std::move(flow));
                // Grow the vocabulary as labels appear.
                if (label >= dataset.class_names.size()) {
                    dataset.class_names.resize(label + 1);
                }
                if (dataset.class_names[label].empty()) {
                    dataset.class_names[label] = class_name;
                }
            }
            dataset.flows.back().packets.push_back(packet);
            ++rep.rows_read;
        } catch (const std::runtime_error& error) {
            if (!options.quarantine) {
                throw;
            }
            rep.quarantined.push_back(BadRow{line_number, line, error.what()});
            if (rep.quarantined.size() > options.max_quarantined) {
                throw std::runtime_error("read_dataset_csv: more than " +
                                         std::to_string(options.max_quarantined) +
                                         " quarantined rows — input looks unusable (first: " +
                                         rep.quarantined.front().error + ")");
            }
        }
    }
    if (!rep.quarantined.empty()) {
        util::log_info("read_dataset_csv: quarantined " +
                       std::to_string(rep.quarantined.size()) + " bad row(s), kept " +
                       std::to_string(rep.rows_read) + " (first: " +
                       rep.quarantined.front().error + ")");
    }
    // Drop flows whose every packet row was quarantined: an empty flow
    // cannot be rasterized and would poison downstream campaigns.
    if (options.quarantine) {
        std::vector<Flow> kept;
        kept.reserve(dataset.flows.size());
        for (auto& flow : dataset.flows) {
            if (!flow.packets.empty()) {
                kept.push_back(std::move(flow));
            }
        }
        dataset.flows = std::move(kept);
    }
    // Fill any gaps in the vocabulary with placeholder names.
    for (std::size_t label = 0; label < dataset.class_names.size(); ++label) {
        if (dataset.class_names[label].empty()) {
            dataset.class_names[label] = "class-" + std::to_string(label);
        }
    }
    return dataset;
}

Dataset read_dataset_csv(std::istream& in)
{
    return read_dataset_csv(in, CsvReadOptions{}, nullptr);
}

Dataset read_dataset_csv(const std::string& path, const CsvReadOptions& options,
                         CsvReadReport* report)
{
    std::ifstream file(path);
    if (!file) {
        throw std::runtime_error("read_dataset_csv: cannot open " + path);
    }
    return read_dataset_csv(file, options, report);
}

Dataset read_dataset_csv(const std::string& path)
{
    return read_dataset_csv(path, CsvReadOptions{}, nullptr);
}

} // namespace fptc::flow
