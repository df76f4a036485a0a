#include "fptc/util/csv.hpp"

#include "fptc/util/durable.hpp"

#include <sstream>
#include <stdexcept>

namespace fptc::util {

CsvWriter::CsvWriter(std::vector<std::string> header) : header_(std::move(header)) {}

void CsvWriter::add_row(std::vector<std::string> row)
{
    rows_.push_back(std::move(row));
}

std::string csv_escape(const std::string& field)
{
    const bool needs_quotes =
        field.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quotes) {
        return field;
    }
    std::string out = "\"";
    for (const char c : field) {
        if (c == '"') {
            out += '"';
        }
        out += c;
    }
    out += '"';
    return out;
}

std::string CsvWriter::to_string() const
{
    std::ostringstream out;
    for (std::size_t c = 0; c < header_.size(); ++c) {
        if (c > 0) {
            out << ',';
        }
        out << csv_escape(header_[c]);
    }
    out << '\n';
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c > 0) {
                out << ',';
            }
            out << csv_escape(row[c]);
        }
        out << '\n';
    }
    if (!out) {
        throw std::runtime_error("CsvWriter::to_string: render stream failure");
    }
    return out.str();
}

void CsvWriter::write_file(const std::string& path) const
{
    // Durable temp-file + fsync + rename so a killed (or power-cut)
    // campaign never leaves a partial or empty artifact behind.
    DurableFile::write_file(path, to_string());
}

} // namespace fptc::util
