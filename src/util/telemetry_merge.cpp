#include "fptc/util/telemetry_merge.hpp"

#include "fptc/util/durable.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace fptc::util {

namespace {

/// One metric family accumulated across inputs.  Everything the registry
/// exposes is integral (counters, gauges, histogram buckets/sum/count), so
/// the merge works in exact integer arithmetic.
struct Family {
    std::string type;  ///< "counter" | "gauge" | "histogram"
    long long scalar = 0;               ///< counter sum or gauge max
    bool has_scalar = false;
    std::map<unsigned long long, unsigned long long> bucket_increments;  ///< le -> count
    unsigned long long inf_count = 0;   ///< +Inf cumulative (== _count)
    unsigned long long sum = 0;
    unsigned long long count = 0;
};

[[nodiscard]] bool read_file_lines(const std::string& path, std::vector<std::string>& lines)
{
    std::ifstream in(path);
    if (!in) {
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        lines.push_back(line);
    }
    return true;
}

/// "name_bucket{le=\"8\"} 3" -> series "name_bucket{le=\"8\"}", value 3.
[[nodiscard]] bool split_sample(const std::string& line, std::string& series, long long& value)
{
    const auto space = line.find_last_of(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
        return false;
    }
    char* end = nullptr;
    value = std::strtoll(line.c_str() + space + 1, &end, 10);
    if (end != line.c_str() + line.size()) {
        return false;
    }
    series = line.substr(0, space);
    return true;
}

} // namespace

std::size_t merge_prometheus_files(const std::vector<std::string>& input_paths,
                                   const std::string& output_path)
{
    // family name (insertion-ordered via the vector) -> accumulated state
    std::map<std::string, Family> families;
    std::vector<std::string> family_order;
    std::size_t contributing = 0;

    for (const auto& path : input_paths) {
        std::vector<std::string> lines;
        if (!read_file_lines(path, lines) || lines.empty()) {
            continue;
        }
        ++contributing;
        std::string current;  ///< family of the lines being read
        // Per-input de-cumulation state for the current histogram family.
        unsigned long long previous_cumulative = 0;
        for (const auto& line : lines) {
            if (line.rfind("# TYPE ", 0) == 0) {
                std::istringstream fields(line.substr(7));
                std::string name;
                std::string type;
                fields >> name >> type;
                if (name.empty()) {
                    continue;
                }
                auto [it, inserted] = families.try_emplace(name);
                if (inserted) {
                    it->second.type = type;
                    family_order.push_back(name);
                }
                current = name;
                previous_cumulative = 0;
                continue;
            }
            std::string series;
            long long value = 0;
            if (!split_sample(line, series, value) || current.empty()) {
                continue;
            }
            Family& family = families[current];
            if (family.type == "counter") {
                family.scalar += value;
                family.has_scalar = true;
            } else if (family.type == "gauge") {
                family.scalar = family.has_scalar ? std::max(family.scalar, value) : value;
                family.has_scalar = true;
            } else if (family.type == "histogram") {
                const std::string bucket_prefix = current + "_bucket{le=\"";
                if (series.rfind(bucket_prefix, 0) == 0) {
                    const std::string le_text =
                        series.substr(bucket_prefix.size(),
                                      series.size() - bucket_prefix.size() - 2);  // strip "}
                    const auto cumulative = static_cast<unsigned long long>(value);
                    if (le_text == "+Inf") {
                        family.inf_count += cumulative;
                    } else {
                        // De-cumulate within this input: per-le increments
                        // sum correctly across shards even when the sparse
                        // bucket sets differ; the writer re-cumulates.
                        const unsigned long long le =
                            std::strtoull(le_text.c_str(), nullptr, 10);
                        family.bucket_increments[le] += cumulative - previous_cumulative;
                        previous_cumulative = cumulative;
                    }
                } else if (series == current + "_sum") {
                    family.sum += static_cast<unsigned long long>(value);
                } else if (series == current + "_count") {
                    family.count += static_cast<unsigned long long>(value);
                }
            }
        }
    }

    std::string out;
    for (const auto& name : family_order) {
        const Family& family = families.at(name);
        out += "# TYPE " + name + " " + family.type + "\n";
        if (family.type == "histogram") {
            unsigned long long cumulative = 0;
            for (const auto& [le, increment] : family.bucket_increments) {
                cumulative += increment;
                out += name + "_bucket{le=\"" + std::to_string(le) + "\"} " +
                       std::to_string(cumulative) + "\n";
            }
            out += name + "_bucket{le=\"+Inf\"} " + std::to_string(family.inf_count) + "\n";
            out += name + "_sum " + std::to_string(family.sum) + "\n";
            out += name + "_count " + std::to_string(family.count) + "\n";
        } else {
            out += name + " " + std::to_string(family.scalar) + "\n";
        }
    }
    DurableFile::write_file(output_path, out);
    return contributing;
}

std::size_t merge_trace_files(const std::vector<std::string>& input_paths,
                              const std::string& output_path)
{
    std::vector<std::string> events;
    std::size_t contributing = 0;
    for (std::size_t i = 0; i < input_paths.size(); ++i) {
        std::vector<std::string> lines;
        if (!read_file_lines(input_paths[i], lines)) {
            continue;
        }
        bool contributed = false;
        const std::string pid_field = "\"pid\": " + std::to_string(i + 1);
        for (auto& line : lines) {
            // Event lines are the ones chrome_trace_json() emits between the
            // traceEvents brackets: one JSON object each, comma-terminated
            // except the last.
            if (line.rfind("{\"name\":", 0) != 0) {
                continue;
            }
            if (!line.empty() && line.back() == ',') {
                line.pop_back();
            }
            const auto pid_at = line.find("\"pid\": 1");
            if (pid_at != std::string::npos) {
                line.replace(pid_at, 8, pid_field);
            }
            events.push_back(std::move(line));
            contributed = true;
        }
        if (contributed) {
            ++contributing;
        }
    }
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < events.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += events[i];
    }
    out += "\n]}\n";
    DurableFile::write_file(output_path, out);
    return contributing;
}

} // namespace fptc::util
