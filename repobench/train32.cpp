// train32: one Table 4 cell per unit at 32x32.
//
// Set-up generates the UCDAVIS19 pretraining partition, draws the
// 100-per-class split with its 80/20 train part, and rasterizes a fixed
// held-out set from the leftover flows.  A unit expands the training flows
// with Change RTT, trains a fresh LeNet-5 for exactly kEpochs epochs and
// scores the held-out set.  nn kernels and core batching do almost all the
// work; flowpic and augment at 32 do a few percent.
#include "bench.hpp"

#include "fptc/core/trainer.hpp"
#include "fptc/flow/split.hpp"
#include "fptc/nn/loss.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/nn/optimizer.hpp"
#include "fptc/trafficgen/ucdavis19.hpp"
#include "fptc/util/membudget.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace repobench {
namespace {

using namespace fptc;

constexpr std::size_t kPerClass = 100;
constexpr std::size_t kHeldOut = 500;
constexpr int kCopies = 2;
constexpr int kEpochs = 3;
constexpr auto kKind = augment::AugmentationKind::change_rtt;
const flowpic::FlowpicConfig kFlowpic32{.resolution = 32};

/// Per-layer span names of the LeNet-5 layers, by kind.
const char* const kLayerKinds[] = {"conv1", "conv2", "fc1", "fc2", "fc3", "other"};
const char* const kForwardSpans[] = {"nn.conv1.fwd", "nn.conv2.fwd", "nn.fc1.fwd",
                                     "nn.fc2.fwd",   "nn.fc3.fwd",   "nn.other.fwd"};
const char* const kBackwardSpans[] = {"nn.conv1.bwd", "nn.conv2.bwd", "nn.fc1.bwd",
                                      "nn.fc2.bwd",   "nn.fc3.bwd",   "nn.other.bwd"};

[[nodiscard]] std::vector<flow::Flow> pick(const flow::Dataset& data,
                                           const std::vector<std::size_t>& indices)
{
    std::vector<flow::Flow> flows;
    flows.reserve(indices.size());
    for (const std::size_t i : indices) {
        flows.push_back(data.flows[i]);
    }
    return flows;
}

[[nodiscard]] nn::Sequential make_network(std::uint64_t unit_seed, std::size_t classes)
{
    nn::ModelConfig config;
    config.flowpic_dim = kFlowpic32.resolution;
    config.num_classes = classes;
    config.seed = util::mix_seed(unit_seed, 2);
    return nn::make_supervised_network(config);
}

/// Exactly kEpochs epochs: patience above the epoch count and no validation
/// set, so early stopping can never end a unit early.
[[nodiscard]] core::TrainConfig train_config(std::uint64_t unit_seed)
{
    core::TrainConfig config;
    config.max_epochs = kEpochs;
    config.patience = kEpochs + 1;
    config.seed = util::mix_seed(unit_seed, 3);
    return config;
}

/// Index into kLayerKinds of every layer of the network (conv and linear
/// layers in order; everything else is "other").
[[nodiscard]] std::vector<std::size_t> layer_kinds(const nn::Sequential& network)
{
    std::vector<std::size_t> kinds;
    std::size_t convs = 0;
    std::size_t linears = 0;
    for (std::size_t i = 0; i < network.layer_count(); ++i) {
        const std::string name = network.layer(i).name();
        if (name == "Conv2d" && convs < 2) {
            kinds.push_back(convs++);
        } else if (name == "Linear" && linears < 3) {
            kinds.push_back(2 + linears++);
        } else {
            kinds.push_back(5);
        }
    }
    if (convs != 2 || linears != 3) {
        throw std::runtime_error("train32: network is not the 2-conv 3-linear LeNet-5");
    }
    return kinds;
}

class Train32 final : public Workload {
public:
    Train32(std::uint64_t seed, Samples& layer)
    {
        const auto start = Clock::now();
        const flow::Dataset data = trafficgen::make_ucdavis19(
            trafficgen::UcdavisPartition::pretraining,
            {.samples_scale = 0.2, .seed = util::mix_seed(seed, 0x32)});
        layer["trafficgen.generate_s"].push_back(seconds_since(start));
        classes_ = data.num_classes();

        const auto split = flow::fixed_per_class_split(data, kPerClass, util::mix_seed(seed, 1));
        const auto train_part =
            flow::train_validation_split(split.train, 0.8, util::mix_seed(seed, 2));
        train_flows_ = pick(data, train_part.train);
        auto leftover = split.test;
        util::Rng rng(util::mix_seed(seed, 3));
        rng.shuffle(leftover);
        leftover.resize(std::min(leftover.size(), kHeldOut));
        held_out_ = core::rasterize(pick(data, leftover), kFlowpic32);
        if (held_out_.size() != kHeldOut || train_flows_.size() * kCopies % 32 != 0) {
            throw std::runtime_error("train32: set-up produced a different split size");
        }
    }

    [[nodiscard]] std::uint64_t ops_per_unit() const override { return 1; }

    [[nodiscard]] UnitResult unit(std::uint64_t unit_seed, const Pad& pad) override
    {
        UnitResult result;
        result.attempted = 1;
        const auto start = Clock::now();
        util::Rng rng(util::mix_seed(unit_seed, 1));
        core::SampleSet train = augment_set(train_flows_, kKind, kCopies, kFlowpic32, rng,
                                            pad.for_layer("core.augment_set"));
        nn::Sequential network = make_network(unit_seed, classes_);
        const core::TrainResult trained =
            core::train_supervised(network, train, {}, train_config(unit_seed));
        const stats::ConfusionMatrix confusion = core::evaluate(network, held_out_, classes_);
        result.seconds = seconds_since(start);

        result.items = static_cast<double>(kEpochs) * static_cast<double>(train.size());
        result.accuracy = confusion.accuracy();
        result.fingerprint = trained.final_train_loss;
        check(result, train, trained);
        return result;
    }

    [[nodiscard]] UnitResult traced_unit(std::uint64_t unit_seed, Tracer& tracer) override
    {
        UnitResult result;
        result.attempted = 1;
        util::Rng rng(util::mix_seed(unit_seed, 1));
        core::SampleSet train = tracer.time("core.augment_set", [&] {
            return core::augment_set(train_flows_, kKind, kCopies, kFlowpic32, rng);
        });
        nn::Sequential network = make_network(unit_seed, classes_);
        const core::TrainConfig config = train_config(unit_seed);
        const std::vector<std::size_t> kinds = layer_kinds(network);

        // core::train_supervised's loop, rebuilt from its public pieces so
        // every layer call gets its own span.  Same shuffle stream, same
        // call order: the final train loss must match the real unit's.
        util::Rng shuffle(config.seed);
        nn::Adam optimizer(network.parameters(), config.learning_rate);
        core::DivergenceGuard guard(network.parameters(), config.guard);
        std::vector<std::size_t> order(train.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        double final_loss = 0.0;
        for (int epoch = 0; epoch < kEpochs; ++epoch) {
            shuffle.shuffle(order);
            double epoch_loss = 0.0;
            std::size_t steps = 0;
            for (std::size_t begin = 0; begin < order.size(); begin += config.batch_size) {
                const std::size_t end = std::min(begin + config.batch_size, order.size());
                const std::span<const std::size_t> indices(order.data() + begin, end - begin);
                const std::uint64_t reserved = util::mem_budget().reserved_total();
                nn::Tensor x = tracer.time("core.batch", [&] { return train.batch(indices); });
                std::vector<std::size_t> labels(indices.size());
                for (std::size_t i = 0; i < indices.size(); ++i) {
                    labels[i] = train.labels[indices[i]];
                }
                for (std::size_t i = 0; i < network.layer_count(); ++i) {
                    x = tracer.time(kForwardSpans[kinds[i]],
                                    [&] { return network.layer(i).forward(x, true); });
                }
                nn::LossResult loss =
                    tracer.time("nn.loss", [&] { return nn::cross_entropy(x, labels); });
                tracer.time("nn.optimizer", [&] { network.zero_grad(); });
                nn::Tensor grad = std::move(loss.grad);
                for (std::size_t i = network.layer_count(); i-- > 0;) {
                    grad = tracer.time(kBackwardSpans[kinds[i]],
                                       [&] { return network.layer(i).backward(grad); });
                }
                if (tracer.time("core.guard", [&] { return guard.step_diverged(loss.loss); })) {
                    throw core::DivergenceError("train32: traced step diverged");
                }
                tracer.time("nn.optimizer", [&] { optimizer.step(); });
                if (tracer.enabled()) {
                    result.layer["nn.bytes_per_step"].push_back(
                        static_cast<double>(util::mem_budget().reserved_total() - reserved));
                }
                epoch_loss += loss.loss;
                ++steps;
            }
            tracer.time("core.guard", [&] { guard.commit(); });
            final_loss = epoch_loss / static_cast<double>(steps);
        }
        const stats::ConfusionMatrix confusion =
            tracer.time("core.eval", [&] { return core::evaluate(network, held_out_, classes_); });

        // The data-path layers at 32, probed call by call on the same flows.
        const auto change_rtt = augment::make_augmentation(kKind);
        util::Rng probe_rng(util::mix_seed(unit_seed, 4));
        for (const flow::Flow& flow : train_flows_) {
            const flow::Flow shifted = tracer.time("augment.change_rtt.32", [&] {
                return change_rtt->transform_flow(flow, probe_rng);
            });
            (void)tracer.time("flowpic.from_flow.32",
                              [&] { return flowpic::Flowpic::from_flow(shifted, kFlowpic32); });
        }

        result.items = static_cast<double>(kEpochs) * static_cast<double>(train.size());
        result.accuracy = confusion.accuracy();
        result.fingerprint = final_loss;
        if (!std::isfinite(final_loss)) {
            result.fail(1, "train32: non-finite traced train loss");
        }
        return result;
    }

    void summarize(const Tracer& tracer, Samples& layer) const override
    {
        const double steps = static_cast<double>(tracer.count("nn.loss"));
        if (steps == 0.0) {
            return;
        }
        double kind_seconds[6] = {};
        double nn_seconds = 0.0;
        for (std::size_t k = 0; k < 6; ++k) {
            const double fwd = tracer.total_seconds(kForwardSpans[k]);
            const double bwd = tracer.total_seconds(kBackwardSpans[k]);
            const std::string prefix = std::string("nn.") + kLayerKinds[k];
            layer[prefix + ".fwd_ms"].push_back(fwd / steps * 1e3);
            layer[prefix + ".bwd_ms"].push_back(bwd / steps * 1e3);
            kind_seconds[k] = fwd + bwd;
            nn_seconds += fwd + bwd;
        }
        for (std::size_t k = 0; k < 6; ++k) {
            layer[std::string("nn.") + kLayerKinds[k] + ".share"].push_back(kind_seconds[k] /
                                                                            nn_seconds);
        }
        layer["nn.loss_ms"].push_back(tracer.total_seconds("nn.loss") / steps * 1e3);
        layer["nn.optimizer_ms"].push_back(tracer.total_seconds("nn.optimizer") / steps * 1e3);
        tracer.collect(layer, "core.batch_us", "core.batch", 1e6);
        tracer.collect(layer, "core.augment_set_s", "core.augment_set", 1.0);
        tracer.collect(layer, "core.eval_s", "core.eval", 1.0);
        tracer.collect(layer, "augment.change_rtt_us.32", "augment.change_rtt.32", 1e6);
        tracer.collect(layer, "flowpic.from_flow_us.32", "flowpic.from_flow.32", 1e6);
    }

private:
    void check(UnitResult& result, core::SampleSet& train, const core::TrainResult& trained) const
    {
        if (trained.epochs_run != kEpochs || trained.retries != 0) {
            result.fail(1, "train32: ran " + std::to_string(trained.epochs_run) + " epochs with " +
                               std::to_string(trained.retries) + " retries");
        } else if (!std::isfinite(trained.final_train_loss)) {
            result.fail(1, "train32: non-finite train loss");
        } else if (train.quarantined > 0 || !core::validate_samples(train).clean()) {
            result.fail(1, "train32: training samples quarantined");
        } else if (train.size() != train_flows_.size() * kCopies) {
            result.fail(1, "train32: augment_set produced " + std::to_string(train.size()) +
                               " samples");
        }
    }

    std::size_t classes_ = 0;
    std::vector<flow::Flow> train_flows_;
    core::SampleSet held_out_;
};

} // namespace

std::unique_ptr<Workload> make_train32(std::uint64_t seed, Samples& layer)
{
    return std::make_unique<Train32>(seed, layer);
}

} // namespace repobench
