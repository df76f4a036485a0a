#include "fptc/util/shard.hpp"

#include "fptc/util/durable.hpp"
#include "fptc/util/log.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

namespace fptc::util {

namespace {

constexpr const char* kOpClaim = "claim";
constexpr const char* kOpBeat = "beat";
constexpr const char* kOpRelease = "release";

/// Compact the lease file once this many appends accumulated (per process;
/// approximate is fine — compaction only bounds file growth, never changes
/// the folded state).
constexpr std::size_t kCompactEvery = 256;

} // namespace

std::int64_t now_realtime_ms()
{
    timespec ts{};
    ::clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000 +
           static_cast<std::int64_t>(ts.tv_nsec) / 1000000;
}

LeaseStore::LeaseStore(std::string base, int shard_id, double ttl_s)
    : lease_path_(shard_lease_path(base)),
      lock_path_(shard_lock_path(base)),
      shard_id_(shard_id),
      ttl_s_(ttl_s > 0.0 ? ttl_s : 30.0)
{
    // The whole lease protocol rests on flock actually excluding; probe it
    // once at startup so a filesystem with no-op locks (NFS without lockd)
    // fails loudly as an EnvError naming the filesystem instead of
    // silently double-claiming units.
    probe_flock(lock_path_);
}

std::map<std::string, LeaseInfo> LeaseStore::load_locked()
{
    std::map<std::string, LeaseInfo> leases;
    for (const auto& record : read_journal_records(lease_path_)) {
        const auto op = record.fields.find("op");
        const auto shard = record.fields.find("shard");
        const auto exp = record.fields.find("exp_ms");
        if (op == record.fields.end()) {
            continue;
        }
        if (op->second == kOpRelease) {
            leases.erase(record.key);
            continue;
        }
        if (shard == record.fields.end() || exp == record.fields.end()) {
            continue;
        }
        LeaseInfo info;
        info.shard = static_cast<int>(std::strtol(shard->second.c_str(), nullptr, 10));
        info.exp_ms = std::strtoll(exp->second.c_str(), nullptr, 10);
        leases[record.key] = info;
    }
    return leases;
}

void LeaseStore::append_locked(const std::string& key, const char* op, std::int64_t exp_ms)
{
    JournalRecord record;
    record.key = key;
    record.fields["op"] = op;
    record.fields["shard"] = std::to_string(shard_id_);
    record.fields["exp_ms"] = std::to_string(exp_ms);
    durable_append_line(lease_path_, to_json_line(record));
    if (++appends_since_compact_ >= kCompactEvery) {
        appends_since_compact_ = 0;
        // Rewrite with one claim line per live lease (released keys drop
        // out entirely).  Runs under the caller's flock, so the rewrite can
        // never race another shard's append.
        std::string content;
        for (const auto& [live_key, info] : load_locked()) {
            JournalRecord line;
            line.key = live_key;
            line.fields["op"] = kOpClaim;
            line.fields["shard"] = std::to_string(info.shard);
            line.fields["exp_ms"] = std::to_string(info.exp_ms);
            content += to_json_line(line);
            content += '\n';
        }
        DurableFile::write_file(lease_path_, content);
    }
}

bool LeaseStore::try_claim(const std::string& key)
{
    const FileLock lock(lock_path_);
    const auto leases = load_locked();
    const std::int64_t now = now_realtime_ms();
    const auto it = leases.find(key);
    if (it != leases.end() && it->second.shard != shard_id_) {
        if (it->second.exp_ms > now) {
            return false;  // unexpired foreign lease
        }
        ++stolen_;
        log_info("lease: shard " + std::to_string(shard_id_) + " stealing " + key +
                 " from dead shard " + std::to_string(it->second.shard));
    }
    append_locked(key, kOpClaim, now + static_cast<std::int64_t>(ttl_s_ * 1000.0));
    return true;
}

void LeaseStore::heartbeat(const std::vector<std::string>& keys)
{
    if (keys.empty()) {
        return;
    }
    const FileLock lock(lock_path_);
    const std::int64_t exp = now_realtime_ms() + static_cast<std::int64_t>(ttl_s_ * 1000.0);
    for (const auto& key : keys) {
        append_locked(key, kOpBeat, exp);
    }
}

void LeaseStore::release(const std::string& key)
{
    const FileLock lock(lock_path_);
    append_locked(key, kOpRelease, 0);
}

std::map<std::string, LeaseInfo> LeaseStore::snapshot()
{
    const FileLock lock(lock_path_);
    auto leases = load_locked();
    const std::int64_t now = now_realtime_ms();
    for (auto it = leases.begin(); it != leases.end();) {
        it = it->second.exp_ms <= now ? leases.erase(it) : std::next(it);
    }
    return leases;
}

ShardJournalSet::ShardJournalSet(std::string base, int own_shard)
    : base_(std::move(base)),
      own_path_(own_shard >= 0 ? shard_journal_path(base_, own_shard) : std::string())
{
}

bool ShardJournalSet::maybe_reload(std::int64_t min_interval_ms)
{
    const std::int64_t now = now_realtime_ms();
    if (last_reload_ms_ != 0 && min_interval_ms > 0 &&
        now - last_reload_ms_ < min_interval_ms) {
        return false;
    }
    last_reload_ms_ = now;
    records_.clear();
    std::vector<std::string> sources{base_};
    for (const auto& sibling : list_shard_journals(base_)) {
        if (sibling != own_path_) {
            sources.push_back(sibling);
        }
    }
    for (const auto& source : sources) {
        for (auto& record : read_journal_records(source)) {
            records_[record.key] = std::move(record.fields);
        }
    }
    return true;
}

std::optional<std::map<std::string, std::string>> ShardJournalSet::find(
    const std::string& key) const
{
    const auto it = records_.find(key);
    if (it == records_.end()) {
        return std::nullopt;
    }
    return it->second;
}

namespace {

/// This process's argv, recovered from /proc/self/cmdline (NUL-separated).
[[nodiscard]] std::vector<std::string> self_cmdline()
{
    const std::string raw = read_file("/proc/self/cmdline").value_or("");
    std::vector<std::string> argv;
    std::size_t start = 0;
    while (start < raw.size()) {
        const auto nul = raw.find('\0', start);
        const auto end = nul == std::string::npos ? raw.size() : nul;
        argv.push_back(raw.substr(start, end - start));
        start = end + 1;
    }
    return argv;
}

} // namespace

int spawn_shard_worker(const std::vector<EnvVar>& env, const std::string& stdout_path)
{
    const auto argv_strings = self_cmdline();
    if (argv_strings.empty()) {
        throw IoError("spawn_shard_worker: cannot read /proc/self/cmdline",
                      /*transient=*/false);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        const int err = errno;
        throw IoError("spawn_shard_worker: fork failed: " + std::string(std::strerror(err)),
                      err == EAGAIN);
    }
    if (pid > 0) {
        return static_cast<int>(pid);
    }
    // Child: only async-signal-safe-ish setup until exec.  The coordinator
    // forks before starting any worker thread, so heap use here is safe.
    for (const auto& var : env) {
        if (var.unset) {
            ::unsetenv(var.name.c_str());
        } else {
            ::setenv(var.name.c_str(), var.value.c_str(), 1);
        }
    }
    if (!stdout_path.empty()) {
        const int fd =
            ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::close(fd);
        }
    }
    std::vector<char*> argv;
    argv.reserve(argv_strings.size() + 1);
    for (const auto& arg : argv_strings) {
        argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    // exec failed: nothing sane to do in the child but die loudly.
    const char* note = "[fptc] spawn_shard_worker: execv(/proc/self/exe) failed\n";
    [[maybe_unused]] const auto n = ::write(STDERR_FILENO, note, std::strlen(note));
    ::_exit(127);
}

} // namespace fptc::util
