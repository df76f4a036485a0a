// Repository benchmark: entry point, run loops and result output.
//
//   repobench --workload train32|prep1500|serve --seed N --seconds S --trace 0|1
//             [--pad serve.backend=F|core.augment_set=F] [--trace-out FILE]
//
// Untraced (--trace 0): set-up runs at least kMinSetupPasses times and for
// at least kMinSetupSeconds (setup_s is the median pass), one untimed
// warm-up unit follows, then fixed-work units run until S seconds have
// passed (at least kMinUnits).  The end-to-end metrics are medians over the
// timed units.
//
// Traced (--trace 1): every workload is set up and run as real, untraced
// decomposed and traced decomposed units, so each traced run reports every
// per-layer metric; the named workload repeats for S seconds and gives
// trace.overhead_share, trace.coverage_share and the MemBudget figures.
//
// The last line of stdout is the result JSON: correct, attempted, failed
// and metrics ({"name": {"value": v, "unit": u}}).  Exit status 0 means a
// result was printed; a failed check sets "correct": false.
#include "bench.hpp"

#include "fptc/util/membudget.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include <sched.h>
#include <unistd.h>

extern char** environ;

namespace repobench {

void spin_for(double seconds)
{
    const auto until = Clock::now() + std::chrono::duration<double>(seconds);
    while (Clock::now() < until) {
    }
}

fptc::core::SampleSet augment_set(std::span<const fptc::flow::Flow> flows,
                                  fptc::augment::AugmentationKind kind, int copies,
                                  const fptc::flowpic::FlowpicConfig& config, fptc::util::Rng& rng,
                                  double pad)
{
    const auto start = Clock::now();
    fptc::core::SampleSet set = fptc::core::augment_set(flows, kind, copies, config, rng);
    spin_for(pad * seconds_since(start));
    return set;
}

double Tracer::covered_seconds() const noexcept
{
    double total = 0.0;
    for (const Span& span : spans_) {
        total += span.seconds;
    }
    return total;
}

void Tracer::collect(Samples& samples, const std::string& metric, const char* name,
                     double scale) const
{
    auto& values = samples[metric];
    for (const Span& span : spans_) {
        if (std::string_view(span.name) == name) {
            values.push_back(span.seconds / span.items * scale);
        }
    }
}

double Tracer::total_seconds(const char* name) const
{
    double total = 0.0;
    for (const Span& span : spans_) {
        if (std::string_view(span.name) == name) {
            total += span.seconds;
        }
    }
    return total;
}

std::size_t Tracer::count(const char* name) const
{
    return static_cast<std::size_t>(std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) {
        return std::string_view(s.name) == name;
    }));
}

void Tracer::record(const char* name, Clock::time_point start, double items)
{
    if (enabled_) {
        const auto end = Clock::now();
        spans_.push_back({name, std::chrono::duration<double>(start - epoch_).count(),
                          std::chrono::duration<double>(end - start).count(), items});
    }
}

namespace {

/// Time of a fixed 64x64 float matrix product (~0.3 ms) on the calling thread.
[[nodiscard]] double probe_seconds()
{
    static thread_local std::vector<float> a(64 * 64, 0.5f), b(64 * 64, 0.25f), c(64 * 64);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < 64; ++i) {
        for (std::size_t k = 0; k < 64; ++k) {
            const float x = a[i * 64 + k];
            for (std::size_t j = 0; j < 64; ++j) {
                c[i * 64 + j] += x * b[k * 64 + j];
            }
        }
    }
    const double seconds = seconds_since(start);
    volatile float sink = c[7];
    (void)sink;
    return seconds;
}

/// Probe time of every CPU of `allowed`, fastest first.  Leaves the calling
/// thread pinned to the last CPU probed.
[[nodiscard]] std::vector<std::pair<double, int>> probe_cpus(const cpu_set_t& allowed)
{
    std::vector<std::pair<double, int>> speeds;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed)) {
            continue;
        }
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0) {
            continue;
        }
        double best = probe_seconds();
        for (int rep = 0; rep < 2; ++rep) {
            best = std::min(best, probe_seconds());
        }
        speeds.emplace_back(best, cpu);
    }
    std::sort(speeds.begin(), speeds.end());
    return speeds;
}

/// Pins the calling thread, and the threads it creates afterwards, to the
/// `count` CPUs of `allowed` that run a fixed probe fastest right now.  The
/// host's other tenants slow single vCPUs by up to ~40% for seconds at a
/// time; measuring on the quietest ones removes much of that from the
/// figures.  It also holds train32 and prep1500 to one CPU and serve to
/// three.
void pin_to_quietest(const cpu_set_t& allowed, std::size_t count)
{
    const auto speeds = probe_cpus(allowed);
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    for (std::size_t i = 0; i < std::min(count, speeds.size()); ++i) {
        CPU_SET(speeds[i].second, &chosen);
    }
    if (CPU_COUNT(&chosen) == 0 || sched_setaffinity(0, sizeof chosen, &chosen) != 0) {
        (void)sched_setaffinity(0, sizeof allowed, &allowed);
    }
}

/// While alive, re-probes the CPUs every kPeriod from its own thread and
/// moves the thread that created it to a clearly faster CPU, so a
/// single-threaded unit follows the quietest CPU as contention moves.  The
/// probes preempt the unit for under 1% of its time.
class QuietCpuTracker {
public:
    explicit QuietCpuTracker(const cpu_set_t& allowed)
        : allowed_(allowed), tid_(gettid()), thread_([this] { run(); })
    {
    }

    ~QuietCpuTracker()
    {
        {
            const std::lock_guard lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        thread_.join();
    }

    QuietCpuTracker(const QuietCpuTracker&) = delete;
    QuietCpuTracker& operator=(const QuietCpuTracker&) = delete;

private:
    static constexpr auto kPeriod = std::chrono::milliseconds(100);
    static constexpr double kMoveBelow = 0.85;  ///< move when the best probe is this much faster

    void run() noexcept
    {
        try {
            loop();
        } catch (const std::exception& e) {
            std::cerr << "repobench: CPU tracking stopped: " << e.what() << '\n';
        }
    }

    void loop()
    {
        std::unique_lock lock(mutex_);
        while (!wake_.wait_for(lock, kPeriod, [this] { return stop_; })) {
            lock.unlock();
            cpu_set_t current;
            CPU_ZERO(&current);
            const auto speeds = probe_cpus(allowed_);
            if (!speeds.empty() && sched_getaffinity(tid_, sizeof current, &current) == 0 &&
                CPU_COUNT(&current) == 1) {
                const auto here = std::find_if(speeds.begin(), speeds.end(), [&](const auto& s) {
                    return CPU_ISSET(s.second, &current);
                });
                if (here != speeds.end() && speeds.front().first < kMoveBelow * here->first) {
                    cpu_set_t best;
                    CPU_ZERO(&best);
                    CPU_SET(speeds.front().second, &best);
                    (void)sched_setaffinity(tid_, sizeof best, &best);
                }
            }
            lock.lock();
        }
    }

    cpu_set_t allowed_;
    pid_t tid_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

constexpr std::size_t kMinSetupPasses = 3;
constexpr double kMinSetupSeconds = 2.0;
constexpr std::size_t kMinUnits = 3;

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    Pad pad;
    std::string trace_out;
};

[[nodiscard]] Options parse(int argc, char** argv)
{
    Options options;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value for " + flag);
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::stoull(value);
            have_seed = true;
        } else if (flag == "--seconds") {
            options.seconds = std::stod(value);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                throw std::invalid_argument("--trace takes 0 or 1");
            }
            options.trace = value == "1";
            have_trace = true;
        } else if (flag == "--pad") {
            const auto eq = value.find('=');
            options.pad.layer = value.substr(0, eq);
            options.pad.fraction = eq == std::string::npos ? -1.0 : std::stod(value.substr(eq + 1));
            if ((options.pad.layer != "serve.backend" && options.pad.layer != "core.augment_set") ||
                !(options.pad.fraction > 0.0)) {
                throw std::invalid_argument(
                    "--pad takes serve.backend=F or core.augment_set=F with F > 0");
            }
        } else if (flag == "--trace-out") {
            options.trace_out = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (options.workload != "train32" && options.workload != "prep1500" &&
        options.workload != "serve") {
        throw std::invalid_argument("--workload must be train32, prep1500 or serve");
    }
    if (!have_seed || !have_seconds || !have_trace || !(options.seconds > 0.0)) {
        throw std::invalid_argument("--seed, --seconds (> 0) and --trace are required");
    }
    return options;
}

/// Hermetic runs: the library reads FPTC_* knobs itself (fault injection,
/// serve and drift settings, job counts, memory budget, tracing), so any of
/// them would change the measured program.
void require_clean_environment()
{
    for (char** entry = environ; *entry != nullptr; ++entry) {
        const std::string_view variable(*entry);
        if (variable.starts_with("FPTC_")) {
            throw std::runtime_error("refusing to run with " +
                                     std::string(variable.substr(0, variable.find('='))) +
                                     " set: the benchmark measures the library's defaults");
        }
    }
#ifndef __OPTIMIZE__
    throw std::runtime_error("refusing to run an unoptimised build");
#endif
}

[[nodiscard]] std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed,
                                             Samples& layer)
{
    if (name == "train32") {
        return make_train32(seed, layer);
    }
    if (name == "prep1500") {
        return make_prep1500(seed, layer);
    }
    return make_serve(seed, layer);
}

[[nodiscard]] double median(std::vector<double> values)
{
    if (values.empty()) {
        throw std::logic_error("median of no values");
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Process high-water mark (VmHWM) in MB.
[[nodiscard]] double peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.starts_with("VmHWM:")) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Failure bookkeeping and metrics of one run.
struct Run {
    Run() { sched_getaffinity(0, sizeof allowed, &allowed); }

    cpu_set_t allowed;  ///< the CPUs the run may pin its work to
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

    void fail(std::uint64_t count, const std::string& what, bool incorrect = true)
    {
        failed += count;
        correct = correct && !incorrect;
        std::cerr << "repobench: FAILED " << what << '\n';
    }

    void metric(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    /// Runs one real unit and accounts its checks; nullopt when it threw.
    std::optional<UnitResult> unit(Workload& workload, std::uint64_t unit_seed, const Pad& pad)
    {
        auto& budget = fptc::util::mem_budget();
        const std::size_t in_use = budget.in_use();
        budget.reset_peak();
        const std::uint64_t reserved = budget.reserved_total();
        std::optional<UnitResult> result;
        try {
            pin_to_quietest(allowed, workload.threads());
            std::optional<QuietCpuTracker> tracker;
            if (workload.threads() == 1) {
                tracker.emplace(allowed);
            }
            result = workload.unit(unit_seed, pad);
        } catch (const std::exception& e) {
            attempted += workload.ops_per_unit();
            fail(workload.ops_per_unit(), std::string("unit threw: ") + e.what());
        }
        if (result) {
            attempted += result->attempted;
            if (result->failed > 0) {
                fail(result->failed, result->failure, result->incorrect);
            }
            result->layer["util.membudget.reserved_bytes"].push_back(
                static_cast<double>(budget.reserved_total() - reserved));
            result->layer["util.membudget.peak_bytes"].push_back(
                static_cast<double>(budget.peak_bytes() - std::min(budget.peak_bytes(), in_use)));
        }
        if (budget.in_use() != in_use) {
            attempted += 1;
            fail(1, "MemBudget in_use " + std::to_string(budget.in_use()) +
                        " did not return to " + std::to_string(in_use) + " after a unit");
        }
        return result;
    }
};

[[nodiscard]] std::uint64_t unit_seed(std::uint64_t seed, std::size_t index)
{
    return fptc::util::mix_seed(seed, 0x0417, index);
}

void run_untraced(const Options& options, Run& run)
{
    Samples ignored;
    std::vector<double> setup;
    std::unique_ptr<Workload> workload;
    const auto setup_start = Clock::now();
    while (setup.size() < kMinSetupPasses || seconds_since(setup_start) < kMinSetupSeconds) {
        workload.reset();
        pin_to_quietest(run.allowed, 1);
        const auto start = Clock::now();
        workload = make(options.workload, options.seed, ignored);
        setup.push_back(seconds_since(start));
    }

    std::size_t index = 0;
    (void)run.unit(*workload, unit_seed(options.seed, index++), options.pad); // warm-up
    std::vector<double> rates;
    std::vector<double> accuracies;
    const auto start = Clock::now();
    for (; rates.size() < kMinUnits || seconds_since(start) < options.seconds; ++index) {
        if (rates.empty() && seconds_since(start) > options.seconds) {
            throw std::runtime_error("every unit failed");
        }
        const auto result = run.unit(*workload, unit_seed(options.seed, index), options.pad);
        if (result) {
            rates.push_back(result->items / result->seconds);
            accuracies.push_back(result->accuracy);
            std::cerr << "repobench: unit " << index << ": " << result->seconds << " s, "
                      << rates.back() << " items/s\n";
        }
    }
    std::cerr << "repobench: " << options.workload << " ran " << rates.size()
              << " timed units in " << seconds_since(start) << " s\n";
    run.metric("setup_s", median(setup), "s");
    run.metric("peak_rss_mb", peak_rss_mb(), "MB");
    run.metric("items_per_s", median(rates), "1/s");
    run.metric("accuracy", median(accuracies), "ratio");
}

/// Unit of a per-layer metric, from its name (first matching rule wins).
[[nodiscard]] std::string layer_unit(const std::string& name)
{
    static const std::pair<const char*, const char*> rules[] = {
        {"bytes", "bytes"}, {"share", "ratio"}, {"batch_fill", "ratio"},
        {"_ms", "ms"},      {"_us", "us"},      {"_ns", "ns"}};
    for (const auto& [part, unit] : rules) {
        if (name.find(part) != std::string::npos) {
            return unit;
        }
    }
    return name.ends_with("_s") ? "s" : "count";
}

void write_trace(const std::string& path, const std::vector<std::pair<std::string, Tracer>>& traces)
{
    std::ofstream out(path);
    out << std::setprecision(17) << "[";
    bool first = true;
    for (std::size_t t = 0; t < traces.size(); ++t) {
        for (const Span& span : traces[t].second.spans()) {
            out << (first ? "\n" : ",\n") << R"({"name":")" << span.name << R"(","cat":")"
                << traces[t].first << R"(","ph":"X","pid":1,"tid":)" << t + 1
                << R"(,"ts":)" << span.start_s * 1e6 << R"(,"dur":)" << span.seconds * 1e6
                << R"(,"args":{"items":)" << span.items << "}}";
            first = false;
        }
    }
    out << "\n]\n";
    if (!out) {
        throw std::runtime_error("cannot write " + path);
    }
}

void run_traced(const Options& options, Run& run)
{
    Samples layer;
    std::vector<std::pair<std::string, Tracer>> traces;
    for (const std::string name : {"train32", "prep1500", "serve"}) {
        const bool primary = name == options.workload;
        Samples setup_layer;
        pin_to_quietest(run.allowed, 1);
        auto workload = make(name, options.seed, setup_layer);
        for (const auto& [metric, values] : setup_layer) {
            layer[metric].insert(layer[metric].end(), values.begin(), values.end());
        }
        std::vector<double> untraced_s;
        std::vector<double> traced_s;
        std::vector<double> coverage;
        const auto start = Clock::now();
        for (std::size_t index = 0;
             index == 0 || (primary && (index < 2 || seconds_since(start) < options.seconds));
             ++index) {
            const std::uint64_t seed = unit_seed(options.seed, index);
            const auto real = run.unit(*workload, seed, {});
            // The decomposed unit without spans is the untraced reference;
            // the two alternate which runs first.
            Tracer off(false);
            Tracer on(true);
            std::optional<UnitResult> plain;
            std::optional<UnitResult> traced;
            for (int pass = 0; pass < 2; ++pass) {
                const bool traced_pass = (pass == 0) == (index % 2 == 1);
                pin_to_quietest(run.allowed, 1);
                const QuietCpuTracker tracker(run.allowed);
                const auto begin = Clock::now();
                Tracer& tracer = traced_pass ? on : off;
                (traced_pass ? traced : plain) = workload->traced_unit(seed, tracer);
                (traced_pass ? traced_s : untraced_s).push_back(seconds_since(begin));
            }
            coverage.push_back(on.covered_seconds() / traced_s.back());

            run.attempted += traced->attempted;
            if (traced->failed > 0) {
                run.fail(traced->failed, traced->failure, traced->incorrect);
            }
            if (real && !std::isnan(real->fingerprint) &&
                (real->fingerprint != traced->fingerprint ||
                 real->fingerprint != plain->fingerprint)) {
                run.fail(1, name + ": decomposed unit reproduced " +
                                std::to_string(traced->fingerprint) + ", real unit " +
                                std::to_string(real->fingerprint));
            }
            workload->summarize(on, layer);
            std::vector<const UnitResult*> results{&*traced};
            if (real) {
                results.push_back(&*real);
            }
            for (const UnitResult* result : results) {
                for (const auto& [metric, values] : result->layer) {
                    if (primary || !metric.starts_with("util.membudget.")) {
                        layer[metric].insert(layer[metric].end(), values.begin(), values.end());
                    }
                }
            }
            if (primary && !options.trace_out.empty()) {
                traces.emplace_back(name + "#" + std::to_string(index), std::move(on));
            }
        }
        if (primary) {
            layer["trace.overhead_share"].push_back(median(traced_s) / median(untraced_s) - 1.0);
            layer["trace.coverage_share"].push_back(median(coverage));
            std::cerr << "repobench: traced " << traced_s.size() << " units of " << name << '\n';
        }
    }
    for (const auto& [metric, values] : layer) {
        run.metric(metric, median(values), layer_unit(metric));
    }
    if (!options.trace_out.empty()) {
        write_trace(options.trace_out, traces);
    }
}

void print(const Run& run)
{
    std::ostringstream out;
    out << std::setprecision(17) << R"({"correct": )" << (run.correct ? "true" : "false")
        << R"(, "attempted": )" << run.attempted << R"(, "failed": )" << run.failed
        << R"(, "metrics": {)";
    for (std::size_t i = 0; i < run.metrics.size(); ++i) {
        const auto& [name, value] = run.metrics[i];
        if (!std::isfinite(value.first)) {
            throw std::runtime_error("metric " + name + " is not finite");
        }
        out << (i == 0 ? "" : ", ") << '"' << name << R"(": {"value": )" << value.first
            << R"(, "unit": ")" << value.second << R"("})";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
}

} // namespace
} // namespace repobench

int main(int argc, char** argv)
{
    using namespace repobench;
    try {
        const Options options = parse(argc, argv);
        require_clean_environment();
        Run run;
        if (options.trace) {
            run_traced(options, run);
        } else {
            run_untraced(options, run);
        }
        if (run.attempted == 0) {
            throw std::runtime_error("no operation was attempted");
        }
        print(run);
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "repobench: " << e.what() << '\n';
        return 2;
    }
}
