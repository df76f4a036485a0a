#include "fptc/core/executor.hpp"

#include "fptc/core/guard.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/membudget.hpp"
#include "fptc/util/rng.hpp"
#include "fptc/util/shutdown.hpp"
#include "fptc/util/telemetry.hpp"
#include "fptc/util/telemetry_merge.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <new>
#include <sstream>
#include <thread>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace fptc::core {

namespace {

/// FNV-1a over the unit key: a stable, platform-independent stream id for
/// the backoff jitter (std::hash is not stable across implementations).
[[nodiscard]] std::uint64_t key_hash(const std::string& key) noexcept
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : key) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/// Inverse of error_class_name, for restoring journaled degradations.
[[nodiscard]] ErrorClass error_class_from_name(const std::string& name) noexcept
{
    if (name == "transient") {
        return ErrorClass::transient;
    }
    if (name == "timeout") {
        return ErrorClass::timeout;
    }
    if (name == "cancelled") {
        return ErrorClass::cancelled;
    }
    return ErrorClass::fatal;
}

} // namespace

ExecutorConfig executor_config_from_env()
{
    ExecutorConfig config;
    config.jobs = static_cast<int>(util::env_int("FPTC_JOBS").value_or(1));
    config.jobs = std::max(1, config.jobs);
    config.unit_timeout_s = util::env_double("FPTC_UNIT_TIMEOUT_S").value_or(0.0);
    config.unit_retries = static_cast<int>(util::env_int("FPTC_UNIT_RETRIES").value_or(2));
    config.unit_retries = std::max(0, config.unit_retries);
    config.backoff_base_ms = util::env_double("FPTC_UNIT_BACKOFF_MS").value_or(50.0);
    config.mem_budget_bytes =
        static_cast<std::size_t>(util::env_int("FPTC_MEM_BUDGET_MB").value_or(0)) * 1024 * 1024;
    config.shards = std::max(0, static_cast<int>(util::env_int("FPTC_SHARDS").value_or(0)));
    config.shard_id = static_cast<int>(util::env_int("FPTC_SHARD_ID").value_or(-1));
    config.lease_ttl_s = util::env_double("FPTC_LEASE_TTL_S").value_or(30.0);
    return config;
}

std::size_t estimate_unit_bytes(const FootprintEstimate& estimate)
{
    const std::size_t d = nn::effective_input_dim(estimate.resolution);
    const std::size_t channels = std::max<std::size_t>(1, estimate.channels);
    const std::size_t pixel_bytes = channels * d * d * sizeof(float);
    // Stored sample sets (train + eval) at the effective input dimension.
    const std::size_t stored = (estimate.samples + estimate.eval_samples) * pixel_bytes;
    // Two native-resolution grids alive while a flow rasterizes (the flowpic
    // plus its pooled copy; directional sets hold an up/down pair).
    const std::size_t rasterize = 2 * estimate.resolution * estimate.resolution * sizeof(float);
    // Per-step tensor traffic: input batch plus activations and gradients,
    // a conservative constant multiple of the batch tensor.
    const std::size_t batch_traffic = std::max<std::size_t>(1, estimate.batch) * pixel_bytes * 12;
    return stored + rasterize + batch_traffic;
}

double backoff_delay_ms(const ExecutorConfig& config, const std::string& key, int retry)
{
    if (retry < 1 || config.backoff_base_ms <= 0.0) {
        return 0.0;
    }
    double delay = config.backoff_base_ms;
    for (int i = 1; i < retry; ++i) {
        delay *= 2.0;
        if (delay >= config.backoff_max_ms) {
            break;
        }
    }
    util::Rng jitter(util::mix_seed(config.backoff_seed, key_hash(key),
                                    static_cast<std::uint64_t>(retry)));
    delay *= 0.5 + jitter.uniform();
    return std::min(delay, config.backoff_max_ms);
}

ErrorClass classify_exception(const std::exception& error) noexcept
{
    if (const auto* unit_error = dynamic_cast<const UnitError*>(&error)) {
        return unit_error->error_class();
    }
    if (const auto* cancelled = dynamic_cast<const util::CancelledError*>(&error)) {
        return cancelled->kind() == util::CancelKind::timeout ? ErrorClass::timeout
                                                              : ErrorClass::cancelled;
    }
    if (dynamic_cast<const DivergenceError*>(&error) != nullptr) {
        return ErrorClass::fatal;
    }
    if (const auto* io_error = dynamic_cast<const util::IoError*>(&error)) {
        // Durable-I/O failures carry their own hint: ENOSPC / fsync trouble
        // is resource exhaustion (retry, then degrade the cell), a bad path
        // or unexpected syscall error is deterministic.
        return io_error->transient() ? ErrorClass::transient : ErrorClass::fatal;
    }
    if (const auto* budget = dynamic_cast<const util::BudgetExceeded*>(&error)) {
        // Memory-budget refusals carry the same kind of hint: pressure from
        // concurrent units passes, a structurally oversized unit does not.
        return budget->transient() ? ErrorClass::transient : ErrorClass::fatal;
    }
    if (dynamic_cast<const std::bad_alloc*>(&error) != nullptr) {
        return ErrorClass::transient;
    }
    return ErrorClass::fatal;
}

CampaignExecutor::CampaignExecutor(std::string campaign, ExecutorConfig config)
    : campaign_(std::move(campaign)), config_(config), journal_(campaign_, config.shard_id)
{
    // Resolve and validate the telemetry sinks now, on the campaign's main
    // thread: an empty or unwritable FPTC_TRACE / FPTC_METRICS target throws
    // util::EnvError here, before any unit has sunk CPU time.
    util::telemetry_init();
    if ((config_.shards >= 1 || config_.shard_id >= 0) && !journal_.enabled()) {
        // The journal family *is* the coordination medium: without it the
        // fleet has no claim registry and no way to merge results.
        throw util::EnvError("FPTC_SHARDS/FPTC_SHARD_ID require FPTC_JOURNAL to be set");
    }
    util::install_shutdown_handlers();
    // Scavenge crash debris (orphan DurableFile temps of dead incarnations)
    // from the directories this campaign will write to, before anything new
    // lands there.
    if (journal_.enabled()) {
        util::scavenge_orphan_temps(util::parent_dir_of(journal_.base_path()));
    }
    if (const char* artifacts = std::getenv("FPTC_ARTIFACTS_DIR");
        artifacts != nullptr && *artifacts != '\0') {
        util::scavenge_orphan_temps(artifacts);
    }
}

std::size_t CampaignExecutor::submit(std::string key, UnitFn run, std::size_t estimated_bytes)
{
    units_.push_back(Unit{std::move(key), std::move(run), estimated_bytes});
    return units_.size() - 1;
}

void CampaignExecutor::run_unit(std::size_t index)
{
    const Unit& unit = units_[index];
    FPTC_TRACE_SPAN("unit", {{"campaign", campaign_.c_str()}, {"key", unit.key.c_str()}});
    UnitOutcome outcome;
    outcome.key = unit.key;
    const auto unit_start = std::chrono::steady_clock::now();

    const int max_attempts = config_.unit_retries + 1;
    int shrink = 0;
    bool shrink_retry_used = false;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        poll_shutdown();
        if (campaign_cancel_.cancelled()) {
            outcome.status = UnitStatus::cancelled;
            outcome.final_error = ErrorClass::cancelled;
            outcome.error_chain.push_back("cancelled: campaign cancelled before attempt");
            break;
        }
        if (attempt > 0) {
            FPTC_TRACE_SPAN("backoff");
            util::metrics().counter("fptc_executor_retries_total").add(1);
            const double delay = backoff_delay_ms(config_, unit.key, attempt);
            util::log_info("executor[" + campaign_ + "]: retrying " + unit.key +
                           " (unit retry " + std::to_string(attempt) + "/" +
                           std::to_string(config_.unit_retries) + " after " +
                           std::to_string(static_cast<long>(delay)) + "ms backoff)");
            std::this_thread::sleep_for(
                std::chrono::microseconds(static_cast<std::int64_t>(delay * 1000.0)));
            ++outcome.unit_retries;
        }
        ++outcome.attempts;
        FPTC_TRACE_SPAN("attempt");

        util::CancelToken token;
        token.set_parent(&campaign_cancel_);
        token.set_timeout(config_.unit_timeout_s);
        if (util::fault_injector().inject_unit_stall()) {
            // Simulated hang: the unit's next poll sleeps until the watchdog
            // deadline trips it (capped so a stall without a watchdog ends).
            const auto cap_ms = config_.unit_timeout_s > 0.0
                                    ? static_cast<std::int64_t>(config_.unit_timeout_s * 2000.0) + 1000
                                    : std::int64_t{500};
            token.arm_stall(std::chrono::milliseconds(cap_ms));
        }
        // Every attempt gets a fresh allocation-fault byte scope, so the
        // FPTC_FAULT_ALLOC_FAIL_AFTER_MB refusal point depends only on this
        // unit's own charges — deterministic for any FPTC_JOBS.
        util::fault_injector().begin_alloc_scope();

        try {
            if (util::fault_injector().inject_unit_transient()) {
                throw UnitError(ErrorClass::transient, "injected transient fault");
            }
            if (shrink == 0 && util::fault_injector().inject_unit_alloc_fail(index)) {
                throw util::BudgetExceeded("fault-injected unit " + unit.key,
                                           unit.estimated_bytes, 0);
            }
            const UnitContext context{token, shrink};
            outcome.fields = unit.run(context);
            outcome.status = UnitStatus::ok;
            if (util::fault_injector().inject_shard_kill(config_.shard_id)) {
                // FPTC_FAULT_KILL_SHARD: die *after* the work but *before*
                // the commit — the worst crash point.  The lease stays held,
                // the finished result is lost, and a sibling must wait out
                // the TTL and redo the unit from scratch.
                util::log_info("executor[" + campaign_ + "]: injected shard kill at " +
                               unit.key);
                ::raise(SIGKILL);
            }
            journal_.commit(unit.key, outcome.fields);
            break;
        } catch (const std::exception& error) {
            const ErrorClass klass = classify_exception(error);
            outcome.error_chain.push_back(std::string(error_class_name(klass)) + ": " +
                                          error.what());
            outcome.final_error = klass;
            const bool budget_refusal =
                dynamic_cast<const util::BudgetExceeded*>(&error) != nullptr;
            if (budget_refusal && !shrink_retry_used && klass == ErrorClass::transient) {
                // OOM-graceful path: one immediate re-execution at half batch
                // size.  It does not consume the transient retry budget —
                // halving the footprint is the mitigation, not waiting.
                shrink_retry_used = true;
                shrink = 1;
                outcome.shrinks = 1;
                util::metrics().counter("fptc_executor_shrunk_total").add(1);
                util::log_info("executor[" + campaign_ + "]: unit " + unit.key +
                               " hit the memory budget; retrying at half batch size");
                --attempt;
                continue;
            }
            if (klass == ErrorClass::transient && attempt + 1 < max_attempts) {
                continue;
            }
            outcome.status = klass == ErrorClass::cancelled ? UnitStatus::cancelled
                                                            : UnitStatus::degraded;
            util::log_info("executor[" + campaign_ + "]: unit " + unit.key + " " +
                           (outcome.status == UnitStatus::cancelled ? "cancelled"
                                                                    : "degraded") +
                           " after " + std::to_string(outcome.attempts) + " attempt(s): " +
                           outcome.error_chain.back());
            break;
        }
    }
    if (is_shard_worker() && outcome.status == UnitStatus::degraded) {
        // Journal the terminal failure so the rest of the fleet stops
        // re-claiming this unit; the reserved __status__ field makes every
        // later replay (sibling, coordinator, sequential resume) restore a
        // degraded outcome instead of treating the record as metrics.
        std::string chain;
        for (const auto& entry : outcome.error_chain) {
            chain += chain.empty() ? entry : "\n" + entry;
        }
        journal_.commit(unit.key,
                        {{util::kStatusField, util::kDegradedStatus},
                         {util::kErrorField, chain},
                         {util::kFinalErrorField, error_class_name(outcome.final_error)}});
    }
    outcome.busy_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - unit_start).count();
    outcomes_[index] = std::move(outcome);
}

void CampaignExecutor::poll_shutdown() const noexcept
{
    if (util::shutdown_requested() && !campaign_cancel_.cancelled()) {
        campaign_cancel_.cancel(util::CancelKind::cancelled);
    }
}

void CampaignExecutor::worker_loop()
{
    std::unique_lock<std::mutex> lock(sched_mutex_);
    while (true) {
        poll_shutdown();
        const std::size_t budget = config_.mem_budget_bytes;
        std::size_t pick = pending_.size();
        bool any_unclaimed = false;
        for (std::size_t slot = 0; slot < pending_.size(); ++slot) {
            if (claimed_[slot] != 0) {
                continue;
            }
            any_unclaimed = true;
            const std::size_t estimate = units_[pending_[slot]].estimated_bytes;
            const bool fits = budget == 0 || estimate == 0 ||
                              (est_outstanding_ < budget && estimate <= budget - est_outstanding_);
            // Deadlock-free admission: with nothing running there is nothing
            // to wait for, so even an over-budget estimate is admitted (the
            // accountant still enforces the hard cap mid-unit).
            if (fits || running_ == 0) {
                pick = slot;
                break;
            }
            if (deferred_marked_[slot] == 0) {
                deferred_marked_[slot] = 1;
                util::metrics().counter("fptc_executor_deferred_total").add(1);
                util::log_info("executor[" + campaign_ + "]: deferring " +
                               units_[pending_[slot]].key + " (estimate " +
                               std::to_string(estimate) + " B over remaining budget)");
            }
        }
        if (!any_unclaimed) {
            return;
        }
        if (pick == pending_.size()) {
            // Nothing admissible right now; park until a unit completes.
            // Bounded wait: a latched shutdown signal must be noticed even
            // when no completion ever arrives to ring the cv.
            FPTC_TRACE_SPAN("admission_wait");
            sched_cv_.wait_for(lock, std::chrono::milliseconds(250));
            continue;
        }
        claimed_[pick] = 1;
        ++running_;
        const std::size_t estimate = units_[pending_[pick]].estimated_bytes;
        est_outstanding_ += estimate;
        lock.unlock();
        run_unit(pending_[pick]);
        lock.lock();
        --running_;
        est_outstanding_ -= estimate;
        sched_cv_.notify_all();
    }
}

void CampaignExecutor::outcome_from_record(UnitOutcome& outcome, const std::string& key,
                                           std::map<std::string, std::string> fields)
{
    outcome.key = key;
    const auto status = fields.find(util::kStatusField);
    if (status != fields.end() && status->second == util::kDegradedStatus) {
        // A journaled terminal failure: restore the degraded outcome (error
        // chain and final class included) so a resumed or merged campaign
        // renders the same †-marked cells as the run that degraded it.
        outcome.status = UnitStatus::degraded;
        outcome.final_error = error_class_from_name(fields[util::kFinalErrorField]);
        const std::string& chain = fields[util::kErrorField];
        std::size_t start = 0;
        while (start < chain.size()) {
            const auto newline = chain.find('\n', start);
            const auto end = newline == std::string::npos ? chain.size() : newline;
            outcome.error_chain.push_back(chain.substr(start, end - start));
            start = end + 1;
        }
        return;
    }
    outcome.status = UnitStatus::replayed;
    outcome.fields = std::move(fields);
}

void CampaignExecutor::replay_pending()
{
    std::vector<std::size_t> leftover;
    for (const std::size_t index : pending_) {
        if (auto fields = journal_.try_replay(units_[index].key)) {
            outcome_from_record(outcomes_[index], units_[index].key, *std::move(fields));
        } else {
            leftover.push_back(index);
        }
    }
    pending_ = std::move(leftover);
    claimed_.assign(pending_.size(), 0);
    deferred_marked_.assign(pending_.size(), 0);
    foreign_until_ms_.assign(pending_.size(), 0);
}

void CampaignExecutor::worker_loop_sharded()
{
    constexpr auto kPark = std::chrono::milliseconds(250);
    std::unique_lock<std::mutex> lock(sched_mutex_);
    while (true) {
        poll_shutdown();
        const bool cancelled = campaign_cancel_.cancelled();
        const std::size_t budget = config_.mem_budget_bytes;
        const std::int64_t now = util::now_realtime_ms();
        std::size_t pick = pending_.size();
        bool any_unclaimed = false;
        for (std::size_t slot = 0; slot < pending_.size(); ++slot) {
            if (claimed_[slot] != 0) {
                continue;
            }
            any_unclaimed = true;
            // Recently seen under an unexpired foreign lease: leave it
            // parked instead of re-hitting the lease file every pass.
            // Cancellation overrides the parking — cancelled slots resolve
            // locally without touching a lease at all.
            if (!cancelled && foreign_until_ms_[slot] > now) {
                continue;
            }
            const std::size_t estimate = units_[pending_[slot]].estimated_bytes;
            const bool fits = budget == 0 || estimate == 0 ||
                              (est_outstanding_ < budget && estimate <= budget - est_outstanding_);
            if (fits || running_ == 0) {
                pick = slot;
                break;
            }
            if (deferred_marked_[slot] == 0) {
                deferred_marked_[slot] = 1;
                util::metrics().counter("fptc_executor_deferred_total").add(1);
                util::log_info("executor[" + campaign_ + "]: deferring " +
                               units_[pending_[slot]].key + " (estimate " +
                               std::to_string(estimate) + " B over remaining budget)");
            }
        }
        if (!any_unclaimed) {
            return;
        }
        if (pick == pending_.size()) {
            // Everything left is inadmissible or foreign-leased; park until
            // a completion (or a lease expiry window) changes the picture.
            FPTC_TRACE_SPAN("admission_wait");
            sched_cv_.wait_for(lock, kPark);
            continue;
        }
        claimed_[pick] = 1;
        ++running_;
        const std::size_t index = pending_[pick];
        const std::size_t estimate = units_[index].estimated_bytes;
        est_outstanding_ += estimate;
        lock.unlock();

        const std::string& key = units_[index].key;
        const std::string lease_key = journal_.full_key(key);
        bool resolved = false;
        if (cancelled) {
            run_unit(index);  // marks the unit cancelled without journaling
            resolved = true;
        }
        // Adopt a result some other family member already committed —
        // cheaper than claiming, and the only way to resolve a slot a live
        // sibling currently owns.  Caller holds lease_mutex_.
        const auto adopt_committed = [&] {
            auto fields = sibling_journals_->find(lease_key);
            if (!fields) {
                return false;
            }
            UnitOutcome outcome;
            outcome_from_record(outcome, key, *std::move(fields));
            outcomes_[index] = std::move(outcome);
            util::metrics().counter("fptc_shard_units_adopted_total").add(1);
            return true;
        };
        if (!resolved) {
            const std::lock_guard<std::mutex> lease_lock(lease_mutex_);
            sibling_journals_->maybe_reload(500);
            resolved = adopt_committed();
        }
        if (!resolved) {
            bool lease_held = false;
            {
                const std::lock_guard<std::mutex> lease_lock(lease_mutex_);
                lease_held = lease_store_->try_claim(lease_key);
                // A sibling commits before it releases its lease, so one that
                // finished this unit since the rate-limited check above is
                // visible now: re-read with the lease held, so a finished
                // unit is adopted and never run twice.
                if (lease_held && sibling_journals_->maybe_reload(0) && adopt_committed()) {
                    lease_store_->release(lease_key);
                    lease_held = false;
                    resolved = true;
                }
                if (lease_held) {
                    inflight_keys_.push_back(lease_key);
                }
            }
            if (lease_held) {
                run_unit(index);
                const std::lock_guard<std::mutex> lease_lock(lease_mutex_);
                lease_store_->release(lease_key);
                inflight_keys_.erase(
                    std::remove(inflight_keys_.begin(), inflight_keys_.end(), lease_key),
                    inflight_keys_.end());
                resolved = true;
            }
        }

        lock.lock();
        --running_;
        est_outstanding_ -= estimate;
        if (!resolved) {
            // An unexpired foreign lease holds the unit: un-claim the slot
            // and park it for half a TTL (capped at 1s) before looking
            // again — by then the owner has either committed (adopt) or
            // died (steal).
            claimed_[pick] = 0;
            foreign_until_ms_[pick] =
                util::now_realtime_ms() +
                std::min<std::int64_t>(
                    static_cast<std::int64_t>(config_.lease_ttl_s * 500.0), 1000);
        }
        sched_cv_.notify_all();
    }
}

void CampaignExecutor::start_heartbeat_thread()
{
    heartbeat_stop_ = false;
    const auto interval = std::chrono::milliseconds(std::max<std::int64_t>(
        50, static_cast<std::int64_t>(config_.lease_ttl_s * 1000.0 / 3.0)));
    heartbeat_thread_ = std::thread([this, interval] {
        std::unique_lock<std::mutex> lock(lease_mutex_);
        while (!heartbeat_stop_) {
            heartbeat_cv_.wait_for(lock, interval);
            if (heartbeat_stop_) {
                return;
            }
            if (!inflight_keys_.empty()) {
                lease_store_->heartbeat(inflight_keys_);
            }
        }
    });
}

void CampaignExecutor::stop_heartbeat_thread()
{
    {
        const std::lock_guard<std::mutex> lock(lease_mutex_);
        heartbeat_stop_ = true;
    }
    heartbeat_cv_.notify_all();
    if (heartbeat_thread_.joinable()) {
        heartbeat_thread_.join();
    }
}

void CampaignExecutor::run_shard_coordinator()
{
    const int shards = config_.shards;
    const std::string base = journal_.base_path();
    const int worker_jobs = std::max(1, config_.jobs / shards);
    util::log_info("executor[" + campaign_ + "]: coordinating " + std::to_string(shards) +
                   " shard worker(s) over " + std::to_string(pending_.size()) +
                   " pending unit(s), " + std::to_string(worker_jobs) + " job(s) each");
    util::metrics().counter("fptc_shard_workers_spawned_total").add(shards);
    (void)util::metrics().counter("fptc_shard_worker_failures_total");
    const char* trace = std::getenv("FPTC_TRACE");
    const char* metrics_path = std::getenv("FPTC_METRICS");

    // Fork/exec the fleet.  This runs before the coordinator starts any
    // worker thread, so the fork happens in a single-threaded process.
    std::vector<int> pids;
    pids.reserve(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i) {
        std::vector<util::EnvVar> env;
        env.push_back({"FPTC_SHARD_ID", std::to_string(i), false});
        env.push_back({"FPTC_JOBS", std::to_string(worker_jobs), false});
        // Workers own no campaign artifacts: tables and CSVs come from the
        // coordinator's aggregation pass over the merged journal.
        env.push_back({"FPTC_ARTIFACTS_DIR", "", true});
        if (trace != nullptr && *trace != '\0') {
            env.push_back({"FPTC_TRACE", std::string(trace) + ".shard" + std::to_string(i),
                           false});
        }
        if (metrics_path != nullptr && *metrics_path != '\0') {
            env.push_back({"FPTC_METRICS",
                           std::string(metrics_path) + ".shard" + std::to_string(i), false});
        }
        pids.push_back(util::spawn_shard_worker(
            env, util::shard_journal_path(base, i) + ".out"));
    }

    // Reap the fleet.  A latched shutdown signal is forwarded as SIGTERM so
    // workers flush and exit through their own cooperative path.
    std::vector<char> reaped(pids.size(), 0);
    std::size_t live = pids.size();
    std::size_t failures = 0;
    bool term_forwarded = false;
    while (live > 0) {
        if (util::shutdown_requested() && !term_forwarded) {
            term_forwarded = true;
            util::log_info("executor[" + campaign_ +
                           "]: shutdown requested; forwarding SIGTERM to the shard fleet");
            for (std::size_t i = 0; i < pids.size(); ++i) {
                if (reaped[i] == 0) {
                    ::kill(static_cast<pid_t>(pids[i]), SIGTERM);
                }
            }
        }
        bool progressed = false;
        for (std::size_t i = 0; i < pids.size(); ++i) {
            if (reaped[i] != 0) {
                continue;
            }
            int status = 0;
            const pid_t result = ::waitpid(static_cast<pid_t>(pids[i]), &status, WNOHANG);
            if (result == 0) {
                continue;
            }
            reaped[i] = 1;
            --live;
            progressed = true;
            if (result < 0) {
                continue;  // ECHILD: already reaped elsewhere; nothing to log
            }
            if (WIFSIGNALED(status)) {
                ++failures;
                util::metrics().counter("fptc_shard_worker_failures_total").add(1);
                util::log_info("executor[" + campaign_ + "]: shard " + std::to_string(i) +
                               " (pid " + std::to_string(pids[i]) + ") killed by signal " +
                               std::to_string(WTERMSIG(status)));
            } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
                ++failures;
                util::metrics().counter("fptc_shard_worker_failures_total").add(1);
                util::log_info("executor[" + campaign_ + "]: shard " + std::to_string(i) +
                               " exited with status " + std::to_string(WEXITSTATUS(status)));
            } else {
                util::log_debug("executor[" + campaign_ + "]: shard " + std::to_string(i) +
                                " finished cleanly");
            }
        }
        if (!progressed && live > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    }

    // Fold the family back together: shard journals into the base journal
    // (removing the absorbed shard/lease files — every worker has exited),
    // per-shard telemetry into `.merged` artifacts.  The merged telemetry
    // goes to new paths because this process's own atexit flush will still
    // rewrite the plain FPTC_TRACE / FPTC_METRICS files.
    journal_.absorb_shard_journals(/*remove_shards=*/true);
    if (trace != nullptr && *trace != '\0') {
        std::vector<std::string> inputs;
        for (int i = 0; i < shards; ++i) {
            inputs.push_back(std::string(trace) + ".shard" + std::to_string(i));
        }
        util::merge_trace_files(inputs, std::string(trace) + ".merged");
    }
    if (metrics_path != nullptr && *metrics_path != '\0') {
        std::vector<std::string> inputs;
        for (int i = 0; i < shards; ++i) {
            inputs.push_back(std::string(metrics_path) + ".shard" + std::to_string(i) +
                             ".prom");
        }
        util::merge_prometheus_files(inputs, std::string(metrics_path) + ".merged.prom");
    }
    if (failures > 0) {
        util::log_info("executor[" + campaign_ + "]: " + std::to_string(failures) +
                       " shard worker(s) died; surviving shards stole their leases and any "
                       "remainder runs locally");
    }
}

void CampaignExecutor::run_all()
{
    if (ran_) {
        throw std::logic_error("CampaignExecutor::run_all: already ran");
    }
    ran_ = true;
    outcomes_.assign(units_.size(), UnitOutcome{});
    util::metrics().counter("fptc_executor_units_total").add(units_.size());
    // Touch the event-site counters so a clean campaign still exports the
    // full executor instrument set at zero.
    for (const char* name :
         {"fptc_executor_executed_total", "fptc_executor_replayed_total",
          "fptc_executor_retries_total", "fptc_executor_deferred_total",
          "fptc_executor_shrunk_total", "fptc_executor_degraded_total",
          "fptc_executor_cancelled_total", "fptc_membudget_rejections_total"}) {
        (void)util::metrics().counter(name);
    }

    // Replay journal-completed units up front; only the rest hit the pool
    // (in worker mode the journal already holds the union of the family's
    // records, so fleet-wide progress replays here too).
    {
        FPTC_TRACE_SPAN("journal_replay");
        pending_.clear();
        for (std::size_t i = 0; i < units_.size(); ++i) {
            pending_.push_back(i);
        }
        replay_pending();
    }

    if (is_shard_coordinator() && !pending_.empty()) {
        // Coordinator: the fleet executes the pending units; afterwards the
        // merged base journal replays their results here.  Anything still
        // unresolved (every shard holding it died) falls through to the
        // local pool below — completion never depends on fleet luck.
        run_shard_coordinator();
        {
            FPTC_TRACE_SPAN("journal_replay");
            replay_pending();
        }
        if (!pending_.empty()) {
            util::log_info("executor[" + campaign_ + "]: " + std::to_string(pending_.size()) +
                           " unit(s) left unfinished by the shard fleet; executing locally");
        }
    }

    const auto wall_start = std::chrono::steady_clock::now();
    const int workers =
        static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(config_.jobs),
                                               pending_.size()));
    if (is_shard_worker()) {
        lease_store_.emplace(journal_.base_path(), config_.shard_id, config_.lease_ttl_s);
        sibling_journals_.emplace(journal_.base_path(), config_.shard_id);
        (void)util::metrics().counter("fptc_shard_units_stolen_total");
        (void)util::metrics().counter("fptc_shard_units_adopted_total");
        start_heartbeat_thread();
        if (workers <= 1) {
            worker_loop_sharded();
        } else {
            std::vector<std::thread> pool;
            pool.reserve(static_cast<std::size_t>(workers));
            for (int i = 0; i < workers; ++i) {
                pool.emplace_back([this] { worker_loop_sharded(); });
            }
            for (auto& thread : pool) {
                thread.join();
            }
        }
        stop_heartbeat_thread();
        util::metrics()
            .counter("fptc_shard_units_stolen_total")
            .add(static_cast<std::int64_t>(lease_store_->stolen()));
    } else if (workers <= 1) {
        worker_loop();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int i = 0; i < workers; ++i) {
            pool.emplace_back([this] { worker_loop(); });
        }
        for (auto& thread : pool) {
            thread.join();
        }
    }
    wall_seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                  wall_start)
                        .count();

    // The workers have joined (happens-before), so outcomes_ is stable: fold
    // the admission-control deferral marks into it (run_unit assigns outcome
    // slots wholesale, so the flag is applied here, not in the scheduler) and
    // mirror the per-status tallies into the process-wide registry.
    for (std::size_t slot = 0; slot < pending_.size(); ++slot) {
        if (deferred_marked_[slot] != 0) {
            outcomes_[pending_[slot]].deferred = true;
        }
    }
    auto& registry = util::metrics();
    for (const auto& outcome : outcomes_) {
        switch (outcome.status) {
        case UnitStatus::ok: registry.counter("fptc_executor_executed_total").add(1); break;
        case UnitStatus::replayed: registry.counter("fptc_executor_replayed_total").add(1); break;
        case UnitStatus::degraded: registry.counter("fptc_executor_degraded_total").add(1); break;
        case UnitStatus::cancelled:
            registry.counter("fptc_executor_cancelled_total").add(1);
            break;
        }
    }

    // Surface the resource-governance counters: a journal record for
    // post-mortems (the replay path only looks up unit keys, so the reserved
    // key is inert on resume) and a stderr line for live runs.  Peak bytes
    // are scheduling-dependent with FPTC_JOBS > 1, so they never go to
    // stdout.  The record reads from the metrics registry — the same
    // instruments FPTC_METRICS exports — after publishing the accountant's
    // current state into it.
    util::publish_membudget_metrics();
    const auto& budget = util::mem_budget();
    if (executed() > 0 || degraded() > 0) {
        // Skipped for campaigns cancelled before any unit committed: a
        // cancelled campaign must leave no journal trace at all.
        journal_.commit(
            "__membudget__",
            {{"peak_bytes",
              std::to_string(registry.gauge("fptc_membudget_peak_bytes").value())},
             {"budget_bytes",
              std::to_string(registry.gauge("fptc_membudget_budget_bytes").value())},
             {"rejections",
              std::to_string(registry.counter("fptc_membudget_rejections_total").value())},
             {"deferred", std::to_string(deferred_units())},
             {"shrunk", std::to_string(shrunk_units())}});
    }
    util::log_info("executor[" + campaign_ + "]: mem " + budget.summary() + " deferred=" +
                   std::to_string(deferred_units()) + " shrunk=" + std::to_string(shrunk_units()));

    // Cooperative shutdown: leave a final journal record describing how far
    // the campaign got, flush every telemetry sink, and exit with the
    // conventional status — callers never see half-aggregated tables.
    const int shutdown_signum = util::shutdown_signal();
    if (shutdown_signum != 0) {
        journal_.commit("__shutdown__",
                        {{"signal", std::to_string(shutdown_signum)},
                         {"completed", std::to_string(executed() + resumed())},
                         {"degraded", std::to_string(degraded())},
                         {"units", std::to_string(units_.size())}});
    }

    // Campaign finished: export trace/metrics/profile so a long-running bench
    // binary leaves artifacts per campaign (the atexit hook re-exports the
    // final cumulative state).
    util::telemetry_flush();

    if (shutdown_signum != 0) {
        util::log_info("executor[" + campaign_ + "]: shutdown on signal " +
                       std::to_string(shutdown_signum) + "; journal and telemetry flushed, "
                       "exiting " +
                       std::to_string(util::shutdown_exit_code(shutdown_signum)));
        std::exit(util::shutdown_exit_code(shutdown_signum));
    }
}

std::size_t CampaignExecutor::executed() const noexcept
{
    std::size_t count = 0;
    for (const auto& outcome : outcomes_) {
        count += outcome.status == UnitStatus::ok ? 1 : 0;
    }
    return count;
}

std::size_t CampaignExecutor::resumed() const noexcept
{
    std::size_t count = 0;
    for (const auto& outcome : outcomes_) {
        count += outcome.status == UnitStatus::replayed ? 1 : 0;
    }
    return count;
}

std::size_t CampaignExecutor::degraded() const noexcept
{
    std::size_t count = 0;
    for (const auto& outcome : outcomes_) {
        count += outcome.status == UnitStatus::degraded ? 1 : 0;
    }
    return count;
}

std::size_t CampaignExecutor::retried_units() const noexcept
{
    std::size_t count = 0;
    for (const auto& outcome : outcomes_) {
        count += outcome.unit_retries > 0 ? 1 : 0;
    }
    return count;
}

std::size_t CampaignExecutor::deferred_units() const noexcept
{
    std::size_t count = 0;
    for (const auto& outcome : outcomes_) {
        count += outcome.deferred ? 1 : 0;
    }
    return count;
}

std::size_t CampaignExecutor::shrunk_units() const noexcept
{
    std::size_t count = 0;
    for (const auto& outcome : outcomes_) {
        count += outcome.shrinks > 0 ? 1 : 0;
    }
    return count;
}

std::string CampaignExecutor::summary() const
{
    std::size_t cancelled = 0;
    for (const auto& outcome : outcomes_) {
        if (outcome.status == UnitStatus::cancelled) {
            ++cancelled;
        }
    }
    std::ostringstream out;
    out << "executor[" << campaign_ << "]: " << units_.size() << " unit(s): " << executed()
        << " executed, " << resumed() << " resumed, " << retried_units() << " retried, "
        << degraded() << " degraded";
    // Resource-governance counters appear only when they fired, so the line
    // is unchanged for unconstrained runs.
    if (shrunk_units() > 0) {
        out << ", " << shrunk_units() << " shrunk";
    }
    if (deferred_units() > 0) {
        out << ", " << deferred_units() << " deferred";
    }
    if (cancelled > 0) {
        out << ", " << cancelled << " cancelled";
    }
    return out.str();
}

std::string CampaignExecutor::timing_summary() const
{
    // Busy time folds per-unit wall time in submission order — the same
    // summation order the old accumulating member used, so the rendered
    // value is bit-identical for a given set of outcomes.
    double busy_seconds = 0.0;
    for (const auto& outcome : outcomes_) {
        busy_seconds += outcome.busy_seconds;
    }
    std::ostringstream out;
    out << "executor[" << campaign_ << "]: " << config_.jobs << " worker(s), wall "
        << wall_seconds_ << "s";
    if (wall_seconds_ > 0.0 && busy_seconds > 0.0) {
        out << ", busy " << busy_seconds << "s, speedup "
            << busy_seconds / wall_seconds_ << "x";
    }
    return out.str();
}

} // namespace fptc::core
