// serve: full-speed replays through the streaming classifier.
//
// Set-up trains the three backend tiers once.  A unit builds a fresh
// InterleavedStream of kStreamFlows flows (untimed) and replays it through a
// new StreamingClassifier (replay_config below); the timed part is
// StreamingClassifier::run.  nn runs forward-only on batches of 16 or fewer,
// and flowpic runs at 32 once per flow.
#include "bench.hpp"

#include "fptc/serve/flightrec.hpp"
#include "fptc/serve/service.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

namespace repobench {
namespace {

using namespace fptc;

constexpr std::size_t kTrainFlowsPerClass = 60;
constexpr int kTrainEpochs = 8;
constexpr std::size_t kStreamFlows = 200;
constexpr double kArrivalWindow = 15.0;
constexpr std::size_t kEventsPerChunk = 64;

[[nodiscard]] serve::StreamConfig stream_config(std::uint64_t unit_seed)
{
    serve::StreamConfig config;
    config.flows = kStreamFlows;
    config.arrival_window = kArrivalWindow;
    config.seed = unit_seed;
    return config;
}

/// The default ServeConfig without its time-based answers to a stall: the
/// driver drops an event after 20 ms on a full ingest queue, the assembler
/// sheds a flow after 200 ms on a full ready queue, a batch past the deadline
/// is shed, and a p99 latency breach steps the breaker down a tier.  At full
/// speed a descheduled vCPU on a shared host can trip any of them, so a
/// replay's outcome would depend on the host.  Here both queues hold the
/// whole stream and the deadline and latency trip are off, so no replay
/// sheds a flow or drops an event; the classifier still bounds throughput.
[[nodiscard]] serve::ServeConfig replay_config(const serve::InterleavedStream& stream)
{
    serve::ServeConfig config;
    config.queue_depth = stream.base_events();
    config.ready_depth = stream.flow_count();
    config.deadline_ms = 0.0;
    config.breaker_p99_ms = std::numeric_limits<double>::infinity();
    return config;
}

/// Forwards classify_scored to another backend, then spins for `fraction`
/// of the call's own duration (the slowdown self-test's padded layer).
class PaddedBackend final : public serve::Backend {
public:
    PaddedBackend(serve::Backend& inner, double fraction) : inner_(inner), fraction_(fraction) {}

    [[nodiscard]] const char* name() const noexcept override { return inner_.name(); }

    [[nodiscard]] std::vector<serve::ScoredPrediction>
    classify_scored(std::span<const serve::ReadyFlow> batch,
                    const util::CancelToken& token) override
    {
        const auto start = Clock::now();
        auto predictions = inner_.classify_scored(batch, token);
        spin_for(fraction_ * seconds_since(start));
        return predictions;
    }

private:
    serve::Backend& inner_;
    double fraction_;
};

/// Count and sum of one registry histogram, for per-replay deltas.
struct HistogramMark {
    explicit HistogramMark(const char* name) : histogram(util::metrics().histogram(name)) {}

    util::Histogram& histogram;
    std::uint64_t count = histogram.count();
    std::uint64_t sum = histogram.sum();

    [[nodiscard]] double mean_delta() const
    {
        const std::uint64_t n = histogram.count() - count;
        return n == 0 ? 0.0 : static_cast<double>(histogram.sum() - sum) / static_cast<double>(n);
    }
    [[nodiscard]] double sum_delta() const { return static_cast<double>(histogram.sum() - sum); }
};

class Serve final : public Workload {
public:
    Serve(std::uint64_t seed, Samples& layer)
    {
        const auto start = Clock::now();
        const serve::ServeConfig defaults;
        backends_ = serve::make_backends(defaults.flowpic_dim, defaults.reduced_dim,
                                         defaults.num_classes, util::mix_seed(seed, 0x5E),
                                         kTrainFlowsPerClass, kTrainEpochs);
        layer["serve.backends_train_s"].push_back(seconds_since(start));
        settle();
    }

    /// The driver, assembler and classifier threads of the pipeline.
    [[nodiscard]] std::size_t threads() const override { return 3; }

    [[nodiscard]] std::uint64_t ops_per_unit() const override { return kStreamFlows; }

    [[nodiscard]] UnitResult unit(std::uint64_t unit_seed, const Pad& pad) override
    {
        UnitResult result;
        const auto build_start = Clock::now();
        serve::InterleavedStream stream(stream_config(unit_seed));
        result.layer["trafficgen.stream_build_s"].push_back(seconds_since(build_start));

        const double fraction = pad.for_layer("serve.backend");
        PaddedBackend full(*backends_.full, fraction);
        PaddedBackend reduced(*backends_.reduced, fraction);
        PaddedBackend fallback(*backends_.fallback, fraction);
        const serve::ServeConfig config = replay_config(stream);
        serve::StreamingClassifier service(config, full, reduced, fallback);

        const HistogramMark stages[] = {
            HistogramMark(serve::frec_stage_metric_name(serve::FrecStage::ingest_wait)),
            HistogramMark(serve::frec_stage_metric_name(serve::FrecStage::assembly)),
            HistogramMark(serve::frec_stage_metric_name(serve::FrecStage::ready_wait)),
            HistogramMark(serve::frec_stage_metric_name(serve::FrecStage::backend_compute))};
        const auto start = Clock::now();
        const serve::ServeReport report = service.run(stream);
        result.seconds = seconds_since(start);

        result.items = static_cast<double>(report.flows_classified);
        result.accuracy = report.flows_classified == 0
                              ? 0.0
                              : static_cast<double>(report.flows_correct) /
                                    static_cast<double>(report.flows_classified);
        result.attempted = report.flows_ingested;
        const std::uint64_t dropped_events = report.events_quarantined +
                                             report.events_quarantined_backwards +
                                             report.events_dropped_queue +
                                             report.events_dropped_mem + report.events_dropped_slo;
        if (!report.accounted()) {
            result.fail(1, "serve: flow accounting does not balance: " + report.summary());
        }
        if (report.flows_unknown != 0) {
            result.fail(report.flows_unknown, "serve: flows routed to unknown with the "
                                              "open-set threshold off: " + report.summary());
        }
        const std::uint64_t missing =
            kStreamFlows - std::min<std::uint64_t>(kStreamFlows, report.flows_ingested);
        if (report.shed_total() + dropped_events + missing > 0) {
            result.shed(report.shed_total() + dropped_events + missing,
                        "serve: shed flows or dropped events: " + report.summary());
        }

        const char* const stage_metrics[] = {
            "serve.stage.ingest_wait.mean_us", "serve.stage.assembly.mean_us",
            "serve.stage.ready_wait.mean_us", "serve.stage.backend_compute.mean_us"};
        for (std::size_t i = 0; i < std::size(stages); ++i) {
            result.layer[stage_metrics[i]].push_back(stages[i].mean_delta() / 1e3);
        }
        result.layer["serve.classifier.busy_share"].push_back(stages[3].sum_delta() / 1e9 /
                                                              result.seconds);
        result.layer["serve.batches"].push_back(static_cast<double>(report.batches));
        result.layer["serve.batch_fill"].push_back(
            report.batches == 0 ? 0.0
                                : static_cast<double>(report.flows_classified) /
                                      static_cast<double>(report.batches * config.batch_size));
        result.layer["serve.breaker_trips"].push_back(static_cast<double>(report.breaker_trips));
        settle();
        return result;
    }

    [[nodiscard]] UnitResult traced_unit(std::uint64_t unit_seed, Tracer& tracer) override
    {
        // The pipeline's stages run serially on this thread: stream, flow
        // table, then every backend tier on the same batches of 16.
        UnitResult result;
        serve::InterleavedStream stream = tracer.time("serve.stream.build", [&] {
            return serve::InterleavedStream(stream_config(unit_seed));
        });
        const serve::ServeConfig config = replay_config(stream);
        serve::FlowTable table(config.mem_mb * 1024 * 1024, config.window_seconds);
        std::vector<serve::ReadyFlow> pending;
        std::vector<serve::PacketEvent> chunk;
        chunk.reserve(kEventsPerChunk);
        double stream_now = 0.0;
        std::uint64_t correct = 0;
        bool more = true;
        while (more) {
            chunk.clear();
            const auto next_start = Clock::now();
            while (chunk.size() < kEventsPerChunk) {
                auto event = stream.next();
                if (!event) {
                    more = false;
                    break;
                }
                chunk.push_back(*event);
            }
            tracer.record("serve.stream.next", next_start, static_cast<double>(chunk.size()));
            if (chunk.empty()) {
                break;
            }
            tracer.time("serve.flow_table.add", static_cast<double>(chunk.size()), [&] {
                for (const serve::PacketEvent& event : chunk) {
                    if (serve::validate(event) != nullptr) {
                        result.fail(1, "serve: traced replay saw an invalid event");
                        continue;
                    }
                    stream_now = std::max(stream_now, event.timestamp);
                    const serve::AddOutcome outcome = table.add_packet(event);
                    result.attempted += outcome.new_flow ? 1 : 0;
                    if (!outcome.admitted || outcome.evicted > 0 || outcome.shed_self) {
                        result.fail(1, "serve: traced replay shed a packet or flow");
                    }
                }
            });
            auto ready = tracer.time("serve.flow_table.pop_ready",
                                     [&] { return table.pop_ready(stream_now); });
            std::move(ready.begin(), ready.end(), std::back_inserter(pending));
            while (pending.size() >= config.batch_size) {
                correct += classify(tracer, {pending.data(), config.batch_size}, config.batch_size);
                result.items += static_cast<double>(config.batch_size);
                pending.erase(pending.begin(),
                              pending.begin() + static_cast<std::ptrdiff_t>(config.batch_size));
            }
        }
        auto rest = tracer.time("serve.flow_table.flush", [&] { return table.flush_all(); });
        std::move(rest.begin(), rest.end(), std::back_inserter(pending));
        for (std::size_t begin = 0; begin < pending.size(); begin += config.batch_size) {
            const std::size_t n = std::min(config.batch_size, pending.size() - begin);
            correct += classify(tracer, {pending.data() + begin, n}, config.batch_size);
            result.items += static_cast<double>(n);
        }
        result.accuracy = result.items == 0.0 ? 0.0 : static_cast<double>(correct) / result.items;
        settle();
        return result;
    }

    void summarize(const Tracer& tracer, Samples& layer) const override
    {
        layer["serve.stream.next_ns"].push_back(tracer.total_seconds("serve.stream.next") * 1e9 /
                                                items(tracer, "serve.stream.next"));
        layer["serve.flow_table.add_ns"].push_back(
            tracer.total_seconds("serve.flow_table.add") * 1e9 /
            items(tracer, "serve.flow_table.add"));
        layer["serve.flow_table.pop_ready_us"].push_back(
            tracer.total_seconds("serve.flow_table.pop_ready") * 1e6 /
            static_cast<double>(tracer.count("serve.flow_table.pop_ready")));
        tracer.collect(layer, "serve.backend.full_us_per_flow", "serve.backend.full", 1e6);
        tracer.collect(layer, "serve.backend.reduced_us_per_flow", "serve.backend.reduced", 1e6);
        tracer.collect(layer, "serve.backend.gbt_us_per_flow", "serve.backend.gbt", 1e6);
        tracer.collect(layer, "nn.infer_fwd_ms.b16", "nn.infer_fwd.b16", 1e3);
        tracer.collect(layer, "flowpic.from_flow_us.32", "flowpic.from_flow.32", 1e6);
    }

private:
    /// The CNN layers keep their last batch's activations (charged to the
    /// MemBudget) between calls.  Forwarding one fixed batch puts those
    /// caches in the same state after every unit, so a unit's own charges
    /// can be checked to return to the baseline.
    void settle()
    {
        for (serve::CnnBackend* backend : {backends_.full.get(), backends_.reduced.get()}) {
            const std::size_t dim = backend->resolution();
            (void)backend->network().forward(nn::Tensor({16, 1, dim, dim}), false);
        }
    }

    [[nodiscard]] static double items(const Tracer& tracer, const char* name)
    {
        double total = 0.0;
        for (const Span& span : tracer.spans()) {
            if (std::string_view(span.name) == name) {
                total += span.items;
            }
        }
        return total;
    }

    /// Runs every tier on one batch; a full batch is also probed layer by
    /// layer (rasterization per flow, then the full-tier forward pass).
    /// Returns the full tier's correct labels.
    std::uint64_t classify(Tracer& tracer, std::span<const serve::ReadyFlow> batch,
                           std::size_t batch_size)
    {
        const util::CancelToken token;
        const double n = static_cast<double>(batch.size());
        const auto labels = tracer.time(
            "serve.backend.full", n, [&] { return backends_.full->classify_scored(batch, token); });
        (void)tracer.time("serve.backend.reduced", n,
                          [&] { return backends_.reduced->classify_scored(batch, token); });
        (void)tracer.time("serve.backend.gbt", n,
                          [&] { return backends_.fallback->classify_scored(batch, token); });
        if (batch.size() == batch_size) {
            const std::size_t dim = backends_.full->resolution();
            const flowpic::FlowpicConfig config{
                .resolution = dim, .duration = 15.0, .origin_at_first_packet = true};
            std::vector<float> data;
            data.reserve(batch.size() * dim * dim);
            for (const serve::ReadyFlow& ready : batch) {
                flowpic::Flowpic pic = tracer.time("flowpic.from_flow.32", [&] {
                    return flowpic::Flowpic::from_flow(ready.flow, config);
                });
                pic.normalize_max();
                data.insert(data.end(), pic.counts().begin(), pic.counts().end());
            }
            const nn::Tensor input({batch.size(), 1, dim, dim}, std::move(data));
            (void)tracer.time("nn.infer_fwd.b16",
                              [&] { return backends_.full->network().forward(input, false); });
        }
        std::uint64_t correct = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            correct += labels[i].label == batch[i].label ? 1 : 0;
        }
        return correct;
    }

    serve::BackendBundle backends_;
};

} // namespace

std::unique_ptr<Workload> make_serve(std::uint64_t seed, Samples& layer)
{
    return std::make_unique<Serve>(seed, layer);
}

} // namespace repobench
