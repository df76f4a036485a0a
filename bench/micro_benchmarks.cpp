// google-benchmark micro-benchmarks over the substrate layers: flowpic
// rasterization, augmentation throughput, CNN forward/backward, NT-Xent,
// and GBT training.  These quantify the per-experiment cost that drives the
// campaign-scale decisions documented in DESIGN.md.
//
// Besides the console table, every run writes BENCH_micro.json (to
// FPTC_ARTIFACTS_DIR when set, else the working directory) with name,
// CPU ns/op, wall ns/op and bytes/op per benchmark so campaign tooling can
// consume the numbers without scraping stdout.
#include "fptc/augment/augmentation.hpp"
#include "fptc/core/data.hpp"
#include "fptc/serve/backend.hpp"
#include "fptc/serve/flightrec.hpp"
#include "fptc/serve/reload.hpp"
#include "fptc/flowpic/flowpic.hpp"
#include "fptc/gbt/gbt.hpp"
#include "fptc/nn/conv.hpp"
#include "fptc/nn/layers.hpp"
#include "fptc/nn/loss.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/trafficgen/ucdavis19.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/membudget.hpp"
#include "fptc/util/telemetry.hpp"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

using namespace fptc;

/// Attributes MemBudget-accounted allocations to a benchmark as a
/// bytes_per_op counter: delta of the accountant's monotonic reserved
/// total across the timing loop, divided by iterations.  Layers that do
/// not charge the budget report 0.
class AllocPerOp {
public:
    explicit AllocPerOp(benchmark::State& state)
        : state_(state), start_(util::mem_budget().reserved_total())
    {
    }

    ~AllocPerOp()
    {
        const std::uint64_t delta = util::mem_budget().reserved_total() - start_;
        const auto iterations = state_.iterations() > 0 ? state_.iterations() : 1;
        state_.counters["bytes_per_op"] =
            benchmark::Counter(static_cast<double>(delta) / static_cast<double>(iterations));
    }

    AllocPerOp(const AllocPerOp&) = delete;
    AllocPerOp& operator=(const AllocPerOp&) = delete;

private:
    benchmark::State& state_;
    std::uint64_t start_;
};

flow::Flow make_test_flow()
{
    util::Rng rng(7);
    return trafficgen::generate_flow(trafficgen::ucdavis19_profile(4, false), 4, rng);
}

void BM_FlowpicRasterize(benchmark::State& state)
{
    const auto flow = make_test_flow();
    flowpic::FlowpicConfig config;
    config.resolution = static_cast<std::size_t>(state.range(0));
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(flowpic::Flowpic::from_flow(flow, config));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(flow.packets.size()));
}
BENCHMARK(BM_FlowpicRasterize)->Arg(32)->Arg(64)->Arg(1500);

void BM_Augmentation(benchmark::State& state)
{
    const auto flow = make_test_flow();
    const auto kind = static_cast<augment::AugmentationKind>(state.range(0));
    const auto augmentation = augment::make_augmentation(kind);
    flowpic::FlowpicConfig config;
    util::Rng rng(11);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(augmentation->augmented_flowpic(flow, config, rng));
    }
}
BENCHMARK(BM_Augmentation)
    ->Arg(static_cast<int>(augment::AugmentationKind::rotate))
    ->Arg(static_cast<int>(augment::AugmentationKind::color_jitter))
    ->Arg(static_cast<int>(augment::AugmentationKind::packet_loss))
    ->Arg(static_cast<int>(augment::AugmentationKind::change_rtt));

void BM_LeNetForward(benchmark::State& state)
{
    nn::ModelConfig config;
    config.flowpic_dim = static_cast<std::size_t>(state.range(0));
    auto network = nn::make_supervised_network(config);
    const std::size_t dim = nn::effective_input_dim(config.flowpic_dim);
    util::Rng rng(3);
    const auto input = nn::Tensor::randn({32, 1, dim, dim}, rng, 0.5f);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(network.forward(input, false));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_LeNetForward)->Arg(32)->Arg(64);

void BM_LeNetTrainStep(benchmark::State& state)
{
    nn::ModelConfig config;
    config.flowpic_dim = 32;
    auto network = nn::make_supervised_network(config);
    util::Rng rng(3);
    const auto input = nn::Tensor::randn({32, 1, 32, 32}, rng, 0.5f);
    std::vector<std::size_t> labels(32);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = i % 5;
    }
    AllocPerOp alloc(state);
    for (auto _ : state) {
        const auto logits = network.forward(input, true);
        const auto loss = nn::cross_entropy(logits, labels);
        network.zero_grad();
        benchmark::DoNotOptimize(network.backward(loss.grad));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_LeNetTrainStep);

/// Random [shape] values with `zero_share` of them exactly zero: post-ReLU
/// activations are about half zeros, max-pool gradients at least 75%.
nn::Tensor sparse_randn(const nn::Shape& shape, double zero_share, std::uint64_t seed)
{
    util::Rng rng(seed);
    auto t = nn::Tensor::randn(shape, rng, 0.5f);
    for (auto& v : t.data()) {
        if (rng.uniform() < zero_share) {
            v = 0.0f;
        }
    }
    return t;
}

/// Conv2d (5x5 kernel) on a batch of 32: args are in_channels,
/// out_channels and the input side — the LeNet conv1/conv2 shapes at
/// flowpic resolutions 32 and 64.
void BM_Conv2dForward(benchmark::State& state)
{
    const auto in = static_cast<std::size_t>(state.range(0));
    const auto side = static_cast<std::size_t>(state.range(2));
    nn::Conv2d layer(in, static_cast<std::size_t>(state.range(1)), 5, 1);
    const auto input = sparse_randn({32, in, side, side}, 0.5, 3);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(layer.forward(input, true));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_Conv2dForward)
    ->Args({1, 6, 32})->Args({6, 16, 14})->Args({1, 6, 64})->Args({6, 16, 30});

void BM_Conv2dBackward(benchmark::State& state)
{
    const auto in = static_cast<std::size_t>(state.range(0));
    const auto side = static_cast<std::size_t>(state.range(2));
    nn::Conv2d layer(in, static_cast<std::size_t>(state.range(1)), 5, 1);
    const auto input = sparse_randn({32, in, side, side}, 0.5, 3);
    const auto grad = sparse_randn(layer.forward(input, true).shape(), 0.75, 4);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(layer.backward(grad));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_Conv2dBackward)
    ->Args({1, 6, 32})->Args({6, 16, 14})->Args({1, 6, 64})->Args({6, 16, 30});

/// Linear 400 -> 120 (LeNet fc1) at the given batch size.
void BM_LinearForward(benchmark::State& state)
{
    const auto batch = static_cast<std::size_t>(state.range(0));
    nn::Linear layer(400, 120, 1);
    const auto input = sparse_randn({batch, 400}, 0.5, 3);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(layer.forward(input, true));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_LinearForward)->Arg(32)->Arg(16);

void BM_LinearBackward(benchmark::State& state)
{
    const auto batch = static_cast<std::size_t>(state.range(0));
    nn::Linear layer(400, 120, 1);
    const auto input = sparse_randn({batch, 400}, 0.5, 3);
    const auto grad = sparse_randn(layer.forward(input, true).shape(), 0.5, 4);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(layer.backward(grad));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_LinearBackward)->Arg(32)->Arg(16);

void BM_NtXent(benchmark::State& state)
{
    util::Rng rng(5);
    const auto projections =
        nn::Tensor::randn({static_cast<std::size_t>(state.range(0)), 30}, rng);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(nn::nt_xent(projections, 0.07));
    }
}
BENCHMARK(BM_NtXent)->Arg(16)->Arg(64);

void BM_GbtFit(benchmark::State& state)
{
    util::Rng rng(9);
    const std::size_t n = 200;
    const std::size_t d = static_cast<std::size_t>(state.range(0));
    std::vector<std::vector<float>> features(n, std::vector<float>(d));
    std::vector<std::size_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
        labels[i] = i % 5;
        for (auto& v : features[i]) {
            v = static_cast<float>(rng.normal(static_cast<double>(labels[i]), 1.5));
        }
    }
    gbt::GbtConfig config;
    config.num_rounds = 20;
    AllocPerOp alloc(state);
    for (auto _ : state) {
        gbt::GbtClassifier model(config, 5);
        model.fit(features, labels);
        benchmark::DoNotOptimize(model.tree_count());
    }
}
BENCHMARK(BM_GbtFit)->Arg(30)->Arg(256);

void BM_TrafficGeneration(benchmark::State& state)
{
    const auto profile =
        trafficgen::ucdavis19_profile(static_cast<std::size_t>(state.range(0)), false);
    util::Rng rng(13);
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(trafficgen::generate_flow(profile, 0, rng));
    }
}
BENCHMARK(BM_TrafficGeneration)->Arg(0)->Arg(4);

/// One serve-stage classify batch (rasterize + CNN forward for 16 flows)
/// through the full-tier backend at the given flowpic resolution — the
/// latency unit the streaming service's deadline and breaker act on.
void BM_ServeClassifyLatency(benchmark::State& state)
{
    const auto resolution = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kBatch = 16;
    auto backend = serve::CnnBackend::untrained(resolution, 5, 17);
    util::Rng rng(19);
    std::vector<serve::ReadyFlow> batch;
    batch.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
        serve::ReadyFlow ready;
        ready.flow_id = i + 1;
        ready.label = static_cast<std::uint32_t>(i % 5);
        ready.flow = trafficgen::generate_flow(trafficgen::ucdavis19_profile(i % 5, false),
                                               i % 5, rng);
        batch.push_back(std::move(ready));
    }
    const util::CancelToken token;
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(backend->classify(batch, token));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_ServeClassifyLatency)->Arg(16)->Arg(32);

/// One golden-replay canary pass (reload.hpp): classify the fixed labeled
/// buffer — `range(0)` flows per class across 5 classes — through the
/// full-tier CNN and score it.  This is the pause the classifier thread
/// takes between batches when vetting a reload candidate, so it bounds how
/// large FPTC_SERVE_RELOAD_CANARY can be before canarying itself violates
/// the latency SLO.
void BM_ServeCanaryReplay(benchmark::State& state)
{
    const auto canary_flows = static_cast<std::size_t>(state.range(0));
    auto backend = serve::CnnBackend::untrained(32, 5, 17);
    serve::ReloadConfig config;
    config.path = "unused-canary-bench.ckpt";  // never read: only golden_accuracy runs
    config.canary_flows = canary_flows;
    const serve::ModelReloader reloader(config, backend.get());
    AllocPerOp alloc(state);
    for (auto _ : state) {
        benchmark::DoNotOptimize(reloader.golden_accuracy(*backend));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(canary_flows * 5));
}
BENCHMARK(BM_ServeCanaryReplay)->Arg(4)->Arg(16);

/// Shared workload for the span-overhead pair: a short FNV-1a mixing loop,
/// heavy enough that timer noise does not dominate but small enough that a
/// non-zero-cost disabled span would register.  tests/run_telemetry.sh
/// compares the two benchmarks to gate disabled-path telemetry overhead.
std::uint64_t fnv_mix(std::uint64_t h)
{
    for (std::uint64_t i = 0; i < 64; ++i) {
        h = (h ^ i) * 1099511628211ULL;
    }
    return h;
}

void BM_SpanOverheadBaseline(benchmark::State& state)
{
    std::uint64_t h = 1469598103934665603ULL;
    AllocPerOp alloc(state);
    for (auto _ : state) {
        h = fnv_mix(h);
        benchmark::DoNotOptimize(h);
    }
}
BENCHMARK(BM_SpanOverheadBaseline);

void BM_TelemetryDisabledSpan(benchmark::State& state)
{
    std::uint64_t h = 1469598103934665603ULL;
    AllocPerOp alloc(state);
    for (auto _ : state) {
        FPTC_TRACE_SPAN("bench_noop");
        h = fnv_mix(h);
        benchmark::DoNotOptimize(h);
    }
}
BENCHMARK(BM_TelemetryDisabledSpan);

/// The flight-recorder overhead pair, same fnv workload and same contract
/// as the span pair: with no recorder installed a frec_note call site is
/// one relaxed load + predicted branch, gated <= 2% (+2 ns slack) against
/// BM_SpanOverheadBaseline by tests/run_serve_torture.sh.
void BM_FlightRecDisabled(benchmark::State& state)
{
    std::uint64_t h = 1469598103934665603ULL;
    AllocPerOp alloc(state);
    for (auto _ : state) {
        serve::frec_note(serve::FrecRing::driver, serve::FrecKind::ingest, h, h);
        h = fnv_mix(h);
        benchmark::DoNotOptimize(h);
    }
}
BENCHMARK(BM_FlightRecDisabled);

/// Enabled cost for context (not gated): one steady-clock read plus five
/// relaxed/release stores into a private-memory ring.
void BM_FlightRecEnabled(benchmark::State& state)
{
    serve::FlightRecorder recorder({.ring_path = "", .ring_capacity = 4096});
    std::uint64_t h = 1469598103934665603ULL;
    AllocPerOp alloc(state);
    for (auto _ : state) {
        serve::frec_note(serve::FrecRing::driver, serve::FrecKind::ingest, h, h);
        h = fnv_mix(h);
        benchmark::DoNotOptimize(h);
    }
}
BENCHMARK(BM_FlightRecEnabled);

/// Console output as usual, plus a machine-readable capture of every
/// per-iteration run for BENCH_micro.json.  Aggregate rows (when
/// --benchmark_repetitions is used) are skipped: consumers want raw runs.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
public:
    void ReportRuns(const std::vector<Run>& runs) override
    {
        benchmark::ConsoleReporter::ReportRuns(runs);
        for (const auto& run : runs) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred ||
                run.iterations <= 0) {
                continue;
            }
            // CPU time of the benchmark thread: wall time also counts the
            // time it spends descheduled, which moves with machine load.
            const double ns_per_op =
                run.cpu_accumulated_time / static_cast<double>(run.iterations) * 1e9;
            const double wall_ns_per_op =
                run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9;
            double bytes_per_op = 0.0;
            const auto counter = run.counters.find("bytes_per_op");
            if (counter != run.counters.end()) {
                bytes_per_op = counter->second.value;
            }
            char row[256];
            std::snprintf(row, sizeof(row),
                          "    {\"name\": \"%s\", \"iterations\": %lld, "
                          "\"ns_per_op\": %.3f, \"wall_ns_per_op\": %.3f, "
                          "\"bytes_per_op\": %.1f}",
                          run.benchmark_name().c_str(), static_cast<long long>(run.iterations),
                          ns_per_op, wall_ns_per_op, bytes_per_op);
            rows_.emplace_back(row);
        }
    }

    [[nodiscard]] std::string json() const
    {
        std::string out = "{\n  \"benchmarks\": [\n";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            out += rows_[i];
            out += i + 1 < rows_.size() ? ",\n" : "\n";
        }
        out += "  ]\n}\n";
        return out;
    }

private:
    std::vector<std::string> rows_;
};

} // namespace

int main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    const char* artifacts_dir = std::getenv("FPTC_ARTIFACTS_DIR");
    const std::string path = (artifacts_dir != nullptr && *artifacts_dir != '\0')
                                 ? std::string(artifacts_dir) + "/BENCH_micro.json"
                                 : std::string("BENCH_micro.json");
    try {
        fptc::util::DurableFile::write_file(path, reporter.json());
    } catch (const std::exception& error) {
        std::fprintf(stderr, "[fptc] failed to write %s: %s\n", path.c_str(), error.what());
        return 1;
    }
    return 0;
}
