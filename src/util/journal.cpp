#include "fptc/util/journal.hpp"

#include "fptc/util/durable.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/telemetry.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include <dirent.h>
#include <unistd.h>

namespace fptc::util {

std::string json_escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string to_json_line(const JournalRecord& record)
{
    std::string out = "{\"key\":\"" + json_escape(record.key) + "\"";
    for (const auto& [name, value] : record.fields) {
        out += ",\"" + json_escape(name) + "\":\"" + json_escape(value) + "\"";
    }
    out += "}";
    return out;
}

namespace {

/// Scan a JSON string literal starting at `pos` (which must point at the
/// opening quote).  Returns the decoded value and advances `pos` past the
/// closing quote; std::nullopt on malformed input.
[[nodiscard]] std::optional<std::string> scan_string(const std::string& line, std::size_t& pos)
{
    if (pos >= line.size() || line[pos] != '"') {
        return std::nullopt;
    }
    ++pos;
    std::string out;
    while (pos < line.size()) {
        const char c = line[pos];
        if (c == '"') {
            ++pos;
            return out;
        }
        if (c == '\\') {
            if (pos + 1 >= line.size()) {
                return std::nullopt;
            }
            const char esc = line[pos + 1];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos + 5 >= line.size()) {
                    return std::nullopt;
                }
                const std::string hex = line.substr(pos + 2, 4);
                char* end = nullptr;
                const long code = std::strtol(hex.c_str(), &end, 16);
                if (end != hex.c_str() + 4 || code < 0 || code > 0x7f) {
                    return std::nullopt; // journal only emits \u00xx escapes
                }
                out += static_cast<char>(code);
                pos += 4;
                break;
            }
            default: return std::nullopt;
            }
            pos += 2;
        } else {
            out += c;
            ++pos;
        }
    }
    return std::nullopt; // unterminated string (torn line)
}

void skip_spaces(const std::string& line, std::size_t& pos)
{
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
        ++pos;
    }
}

} // namespace

std::optional<JournalRecord> parse_json_line(const std::string& line)
{
    std::size_t pos = 0;
    skip_spaces(line, pos);
    if (pos >= line.size() || line[pos] != '{') {
        return std::nullopt;
    }
    ++pos;
    JournalRecord record;
    bool have_key = false;
    bool first = true;
    while (true) {
        skip_spaces(line, pos);
        if (pos < line.size() && line[pos] == '}') {
            ++pos;
            break;
        }
        if (!first) {
            if (pos >= line.size() || line[pos] != ',') {
                return std::nullopt;
            }
            ++pos;
            skip_spaces(line, pos);
        }
        first = false;
        auto name = scan_string(line, pos);
        if (!name) {
            return std::nullopt;
        }
        skip_spaces(line, pos);
        if (pos >= line.size() || line[pos] != ':') {
            return std::nullopt;
        }
        ++pos;
        skip_spaces(line, pos);
        auto value = scan_string(line, pos);
        if (!value) {
            return std::nullopt;
        }
        if (*name == "key") {
            record.key = *value;
            have_key = true;
        } else {
            record.fields[*name] = *value;
        }
    }
    skip_spaces(line, pos);
    if (!have_key || record.key.empty() || pos != line.size()) {
        return std::nullopt;
    }
    return record;
}

std::vector<JournalRecord> read_journal_records(const std::string& path, std::size_t* discarded)
{
    std::vector<JournalRecord> records;
    std::map<std::string, std::size_t> index;  // key -> slot, last record wins
    std::ifstream in(path);
    if (!in) {
        return records;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        auto record = parse_json_line(line);
        if (!record) {
            if (discarded != nullptr) {
                ++*discarded;
            }
            continue;
        }
        const auto it = index.find(record->key);
        if (it == index.end()) {
            index[record->key] = records.size();
            records.push_back(*std::move(record));
        } else {
            records[it->second] = *std::move(record);
        }
    }
    return records;
}

std::string shard_journal_path(const std::string& base, int shard_id)
{
    return base + ".shard" + std::to_string(shard_id);
}

std::string shard_lease_path(const std::string& base)
{
    return base + ".leases";
}

std::string shard_lock_path(const std::string& base)
{
    return base + ".lock";
}

std::vector<std::string> list_shard_journals(const std::string& base)
{
    const std::string dir = parent_dir_of(base);
    const auto slash = base.find_last_of('/');
    const std::string prefix =
        (slash == std::string::npos ? base : base.substr(slash + 1)) + ".shard";
    // shard id -> path, so the returned order is by shard id regardless of
    // readdir order (merge precedence must be deterministic).
    std::map<long, std::string> found;
    DIR* handle = ::opendir(dir.c_str());
    if (handle == nullptr) {
        return {};
    }
    while (const dirent* entry = ::readdir(handle)) {
        const std::string name = entry->d_name;
        if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
            continue;
        }
        const std::string tail = name.substr(prefix.size());
        if (tail.find_first_not_of("0123456789") != std::string::npos) {
            continue;  // companion files (.shardN.out, .shardN.trace, ...)
        }
        found[std::strtol(tail.c_str(), nullptr, 10)] = dir + "/" + name;
    }
    ::closedir(handle);
    std::vector<std::string> paths;
    paths.reserve(found.size());
    for (const auto& [id, path] : found) {
        paths.push_back(path);
    }
    return paths;
}

std::size_t merge_shard_journals(const std::string& base, bool remove_shards)
{
    const FileLock lock(shard_lock_path(base));
    // Base first, shards in id order: any same-key collision resolves to
    // the highest shard id, and shard results always supersede a stale base
    // entry.  Unit results are deterministic per key, so precedence only
    // matters for exact byte ties anyway.
    std::map<std::string, std::size_t> index;
    std::vector<JournalRecord> merged;
    const auto shard_paths = list_shard_journals(base);
    std::vector<std::string> sources{base};
    sources.insert(sources.end(), shard_paths.begin(), shard_paths.end());
    for (const auto& source : sources) {
        for (auto& record : read_journal_records(source)) {
            const auto it = index.find(record.key);
            if (it == index.end()) {
                index[record.key] = merged.size();
                merged.push_back(std::move(record));
            } else {
                merged[it->second] = std::move(record);
            }
        }
    }
    std::string content;
    for (const auto& record : merged) {
        content += to_json_line(record);
        content += '\n';
    }
    DurableFile::write_file(base, content);
    if (remove_shards) {
        for (const auto& path : shard_paths) {
            ::unlink(path.c_str());
        }
        ::unlink(shard_lease_path(base).c_str());
        // The flock fd stays valid past the unlink; only safe because every
        // worker has exited, so no late claimer can recreate-and-lock a
        // second lock file concurrently.
        ::unlink(shard_lock_path(base).c_str());
    }
    return merged.size();
}

RunJournal::RunJournal(std::string path) : path_(std::move(path))
{
    // Validate writability up front: a bad path must fail here, before the
    // campaign sinks CPU time into a unit whose record() would then throw.
    probe_appendable(path_);
    std::ifstream in(path_);
    if (!in) {
        return; // fresh journal (the append probe just created it)
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        if (auto record = parse_json_line(line)) {
            if (records_.find(record->key) == records_.end()) {
                order_.push_back(record->key);
            }
            records_[record->key] = std::move(record->fields);
            ++recovered_records_;
        } else {
            ++discarded_lines_; // torn tail from a crash mid-append
        }
    }
    if (discarded_lines_ > 0) {
        log_info("journal: dropped " + std::to_string(discarded_lines_) +
                 " torn line(s) from " + path_);
    }
}

bool RunJournal::completed(const std::string& key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return records_.find(key) != records_.end();
}

const std::map<std::string, std::string>* RunJournal::find(const std::string& key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second;
}

std::optional<std::map<std::string, std::string>> RunJournal::find_copy(
    const std::string& key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = records_.find(key);
    if (it == records_.end()) {
        return std::nullopt;
    }
    return it->second;
}

void RunJournal::record(const std::string& key, std::map<std::string, std::string> fields)
{
    // One durable append (write + fsync) per record, all under the lock:
    // concurrent workers can never interleave bytes within a line, and a
    // record() that returned survives power loss.  A failed append throws
    // *before* the in-memory maps change, so a retried unit re-commits the
    // same line — and even a duplicate line is safe (last record wins on
    // reload).
    const std::lock_guard<std::mutex> lock(mutex_);
    FPTC_TRACE_SPAN("journal_commit");
    durable_append_line(path_, to_json_line(JournalRecord{key, fields}));
    if (records_.find(key) == records_.end()) {
        order_.push_back(key);
    }
    records_[key] = std::move(fields);
}

void RunJournal::compact()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    FPTC_TRACE_SPAN("journal_compact");
    std::string content;
    for (const auto& key : order_) {
        content += to_json_line(JournalRecord{key, records_.at(key)});
        content += '\n';
    }
    DurableFile::write_file(path_, content);
}

std::size_t RunJournal::absorb(const std::vector<JournalRecord>& records)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t changed = 0;
    for (const auto& record : records) {
        const auto it = records_.find(record.key);
        if (it == records_.end()) {
            order_.push_back(record.key);
            records_[record.key] = record.fields;
            ++changed;
        } else if (it->second != record.fields) {
            it->second = record.fields;
            ++changed;
        }
    }
    return changed;
}

std::size_t RunJournal::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return order_.size();
}

CampaignJournal::CampaignJournal(std::string campaign, int shard_id)
    : campaign_(std::move(campaign))
{
    const char* path = std::getenv("FPTC_JOURNAL");
    if (path == nullptr || *path == '\0') {
        return;
    }
    base_path_ = path;
    if (shard_id < 0) {
        journal_.emplace(base_path_);
    } else {
        // Shard worker: the hot append path is private (<base>.shard<i>, no
        // cross-process contention), but the initial view must be the whole
        // family — base journal plus every sibling — so a restarted fleet
        // replays units any member already finished.
        journal_.emplace(shard_journal_path(base_path_, shard_id));
        const std::string own_path = journal_->path();
        std::size_t absorbed = journal_->absorb(read_journal_records(base_path_));
        for (const auto& sibling : list_shard_journals(base_path_)) {
            if (sibling != own_path) {
                absorbed += journal_->absorb(read_journal_records(sibling));
            }
        }
        if (absorbed > 0) {
            log_debug("journal: shard " + std::to_string(shard_id) + " absorbed " +
                      std::to_string(absorbed) + " record(s) from the journal family");
        }
    }
    if (journal_->size() > 0) {
        log_info("journal: resuming from " + journal_->path() + " (" +
                 std::to_string(journal_->size()) + " completed unit(s) on record)");
    }
}

std::size_t CampaignJournal::absorb_shard_journals(bool remove_shards)
{
    if (!journal_) {
        return 0;
    }
    const std::size_t before = journal_->size();
    merge_shard_journals(base_path_, remove_shards);
    const std::size_t absorbed = journal_->absorb(read_journal_records(base_path_));
    log_info("journal: merged shard journals into " + base_path_ + " (" +
             std::to_string(absorbed) + " new record(s), " +
             std::to_string(before) + " already known)");
    return absorbed;
}

std::map<std::string, std::string> CampaignJournal::run_or_replay(
    const std::string& key, const std::function<std::map<std::string, std::string>()>& run)
{
    if (auto fields = try_replay(key)) {
        return *std::move(fields);
    }
    auto fields = run();
    commit(key, fields);
    return fields;
}

std::optional<std::map<std::string, std::string>> CampaignJournal::try_replay(
    const std::string& key)
{
    if (!journal_) {
        return std::nullopt;
    }
    const std::string full_key = campaign_ + "|" + key;
    auto fields = journal_->find_copy(full_key);
    if (!fields) {
        return std::nullopt;
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++replayed_;
    }
    log_debug("journal: replaying " + full_key);
    return fields;
}

void CampaignJournal::commit(const std::string& key,
                             const std::map<std::string, std::string>& fields)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++executed_;
    }
    if (journal_) {
        journal_->record(campaign_ + "|" + key, fields);
    }
}

std::size_t CampaignJournal::replayed() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return replayed_;
}

std::size_t CampaignJournal::executed() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return executed_;
}

std::string CampaignJournal::summary() const
{
    if (!journal_) {
        return {};
    }
    return "journal " + journal_->path() + ": " + std::to_string(replayed()) + " replayed, " +
           std::to_string(executed()) + " executed";
}

std::string field_from_double(double value)
{
    std::ostringstream out;
    out << std::setprecision(17) << value;
    return out.str();
}

double field_double(const std::map<std::string, std::string>& fields, const std::string& name)
{
    const auto it = fields.find(name);
    if (it == fields.end()) {
        throw std::runtime_error("journal record is missing field '" + name + "'");
    }
    return std::strtod(it->second.c_str(), nullptr);
}

long field_long(const std::map<std::string, std::string>& fields, const std::string& name)
{
    const auto it = fields.find(name);
    if (it == fields.end()) {
        throw std::runtime_error("journal record is missing field '" + name + "'");
    }
    return std::strtol(it->second.c_str(), nullptr, 10);
}

} // namespace fptc::util
