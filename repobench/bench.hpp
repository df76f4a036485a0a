// Shared pieces of the repository benchmark: options, the outside-in span
// recorder, per-unit results and the three workload factories.
//
// Every workload is a sequence of fixed-work units.  A unit does the same
// work for any seed; the seed only changes the inputs.  The untraced run
// times the real units (end-to-end metrics); the traced run additionally
// runs a decomposed copy of the unit that calls the modules' public pieces
// one by one under spans (per-layer metrics).
#pragma once

#include "fptc/augment/augmentation.hpp"
#include "fptc/core/data.hpp"

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace repobench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Busy-waits for `seconds` on the calling thread (slowdown self-test).
void spin_for(double seconds);

/// Benchmark-side slowdown switch: pads every call of one layer by
/// `fraction` of that call's own duration.
struct Pad {
    std::string layer;      ///< "serve.backend", "core.augment_set" or empty
    double fraction = 0.0;

    [[nodiscard]] double for_layer(const std::string& name) const
    {
        return layer == name ? fraction : 0.0;
    }
};

/// core::augment_set, padded by `pad` of its own duration.
[[nodiscard]] fptc::core::SampleSet augment_set(std::span<const fptc::flow::Flow> flows,
                                               fptc::augment::AugmentationKind kind, int copies,
                                               const fptc::flowpic::FlowpicConfig& config,
                                               fptc::util::Rng& rng, double pad);

/// Named samples; each metric is reported as the median of its samples.
using Samples = std::map<std::string, std::vector<double>>;

/// One finished span.  Spans of a decomposed unit never nest, so their
/// durations add up to the share of the unit they cover.
struct Span {
    const char* name;
    double start_s;      ///< since the tracer's epoch
    double seconds;
    double items;        ///< calls or elements the span covers (per-item metrics)
};

/// In-memory span recorder.  Disabled, it runs the timed callable and
/// records nothing, so the same decomposed unit gives the untraced
/// reference for the tracing overhead.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Runs `fn` under a span named `name` covering `items` calls/elements.
    template <class Fn>
    decltype(auto) time(const char* name, double items, Fn&& fn)
    {
        if (!enabled_) {
            return fn();
        }
        struct Guard {
            Tracer& tracer;
            const char* name;
            double items;
            Clock::time_point start = Clock::now();
            ~Guard() { tracer.record(name, start, items); }
        } guard{*this, name, items};
        return fn();
    }

    template <class Fn>
    decltype(auto) time(const char* name, Fn&& fn)
    {
        return time(name, 1.0, std::forward<Fn>(fn));
    }

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Sum of span durations (the spans never nest).
    [[nodiscard]] double covered_seconds() const noexcept;

    /// Per-item durations of every span named `name`, scaled by `scale`
    /// (1e6 for microseconds, ...), appended to samples[metric].
    void collect(Samples& samples, const std::string& metric, const char* name,
                 double scale) const;

    /// Total seconds of the spans named `name`.
    [[nodiscard]] double total_seconds(const char* name) const;

    /// Number of spans named `name`.
    [[nodiscard]] std::size_t count(const char* name) const;

    /// Records a span that started at `start` and ends now (no-op when
    /// disabled); for spans whose item count is known only at the end.
    void record(const char* name, Clock::time_point start, double items);

private:
    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
};

/// What one unit did, for the run's accounting.
struct UnitResult {
    double seconds = 0.0;    ///< timed work of the unit
    double items = 0.0;      ///< work items (items_per_s numerator)
    double accuracy = std::numeric_limits<double>::quiet_NaN();
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool incorrect = false;  ///< an output failed its check (not just an operation)
    std::string failure;     ///< first failed check, for the log
    /// Value the traced copy of the unit must reproduce exactly (NaN = none).
    double fingerprint = std::numeric_limits<double>::quiet_NaN();
    Samples layer;           ///< per-layer samples the unit measured on the way

    /// `count` operations produced a wrong or invalid output.
    void fail(std::uint64_t count, const std::string& what)
    {
        incorrect = true;
        shed(count, what);
    }

    /// `count` operations were refused without a wrong output: the serve
    /// pipeline's typed overload sheds, which depend on thread scheduling.
    void shed(std::uint64_t count, const std::string& what)
    {
        failed += count;
        if (failure.empty()) {
            failure = what;
        }
    }
};

/// A workload after its set-up step.
class Workload {
public:
    virtual ~Workload() = default;

    /// Threads a real unit keeps busy (the CPUs it is pinned to).
    [[nodiscard]] virtual std::size_t threads() const { return 1; }

    /// Operations charged as failed when a unit throws.
    [[nodiscard]] virtual std::uint64_t ops_per_unit() const = 0;

    /// One real unit, timed end to end.
    [[nodiscard]] virtual UnitResult unit(std::uint64_t unit_seed, const Pad& pad) = 0;

    /// The same unit decomposed into public calls under `tracer`'s spans;
    /// per-layer samples that are not span durations go into its `layer`.
    [[nodiscard]] virtual UnitResult traced_unit(std::uint64_t unit_seed, Tracer& tracer) = 0;

    /// Turns one traced unit's spans into per-layer samples.
    virtual void summarize(const Tracer& tracer, Samples& layer) const = 0;
};

/// Workload factories: each runs the workload's set-up step and records
/// its per-layer set-up timings into `layer`.
[[nodiscard]] std::unique_ptr<Workload> make_train32(std::uint64_t seed, Samples& layer);
[[nodiscard]] std::unique_ptr<Workload> make_prep1500(std::uint64_t seed, Samples& layer);
[[nodiscard]] std::unique_ptr<Workload> make_serve(std::uint64_t seed, Samples& layer);

} // namespace repobench
