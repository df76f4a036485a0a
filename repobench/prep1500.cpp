// prep1500: the full-resolution (1500x1500) data path of Tables 4 and 10.
//
// Set-up generates the UCDAVIS19 pretraining partition and fixes
// kFlowsPerClass flows of each class.  A unit runs core::augment_set at 1500
// for no augmentation and each of the six augmentations, one copy per flow;
// every output is max-pooled to the effective ~64x64 (65x65 at 1500).
// flowpic, augment and core pooling do all the work; nn does none.
#include "bench.hpp"

#include "fptc/nn/models.hpp"
#include "fptc/trafficgen/ucdavis19.hpp"
#include "fptc/util/membudget.hpp"

#include <iterator>
#include <stdexcept>

namespace repobench {
namespace {

using namespace fptc;

constexpr std::size_t kFlowsPerClass = 4;
const flowpic::FlowpicConfig kFlowpic1500{.resolution = 1500};

/// Span names of the augmentation layer, indexed by AugmentationKind.
const char* const kAugmentSpans[] = {
    "augment.none",        "augment.rotate",      "augment.horizontal_flip",
    "augment.color_jitter", "augment.packet_loss", "augment.time_shift",
    "augment.change_rtt"};

[[nodiscard]] std::vector<augment::AugmentationKind> kinds()
{
    std::vector<augment::AugmentationKind> all{augment::AugmentationKind::none};
    for (const auto kind : augment::all_augmentations()) {
        if (kind != augment::AugmentationKind::none) {
            all.push_back(kind);
        }
    }
    return all;
}

/// Packets the 15 s window of a flowpic holds: its exact total mass.
[[nodiscard]] double packets_in_window(const flow::Flow& flow)
{
    double count = 0.0;
    for (const flow::Packet& packet : flow.packets) {
        if (packet.timestamp >= 0.0 && packet.timestamp <= kFlowpic1500.duration) {
            count += 1.0;
        }
    }
    return count;
}

class Prep1500 final : public Workload {
public:
    Prep1500(std::uint64_t seed, Samples& layer) : kinds_(kinds())
    {
        if (kinds_.size() != std::size(kAugmentSpans)) {
            throw std::runtime_error("prep1500: expected no augmentation plus six kinds");
        }
        const auto start = Clock::now();
        const flow::Dataset data = trafficgen::make_ucdavis19(
            trafficgen::UcdavisPartition::pretraining,
            {.samples_scale = 0.2, .seed = util::mix_seed(seed, 0x1500)});
        layer["trafficgen.generate_s"].push_back(seconds_since(start));
        util::Rng rng(util::mix_seed(seed, 1));
        for (std::size_t label = 0; label < data.num_classes(); ++label) {
            auto indices = data.indices_of_class(label);
            rng.shuffle(indices);
            for (std::size_t i = 0; i < kFlowsPerClass; ++i) {
                flows_.push_back(data.flows.at(indices.at(i)));
                window_packets_.push_back(packets_in_window(flows_.back()));
            }
        }
    }

    [[nodiscard]] std::uint64_t ops_per_unit() const override
    {
        return kinds_.size() * flows_.size();
    }

    [[nodiscard]] UnitResult unit(std::uint64_t unit_seed, const Pad& pad) override
    {
        UnitResult result;
        result.attempted = ops_per_unit();
        std::vector<core::SampleSet> sets;
        sets.reserve(kinds_.size());
        const auto start = Clock::now();
        for (std::size_t k = 0; k < kinds_.size(); ++k) {
            util::Rng rng(util::mix_seed(unit_seed, k));
            sets.push_back(augment_set(flows_, kinds_[k], 1, kFlowpic1500, rng,
                                       pad.for_layer("core.augment_set")));
        }
        result.seconds = seconds_since(start);

        for (std::size_t k = 0; k < sets.size(); ++k) {
            core::SampleSet& set = sets[k];
            const std::string kind(augment::augmentation_name(kinds_[k]));
            const std::size_t dropped = flows_.size() - set.size();
            const core::SampleValidationReport report = core::validate_samples(set);
            if (dropped + report.quarantined > 0) {
                result.fail(dropped + report.quarantined,
                            "prep1500: " + kind + " samples quarantined: " +
                                std::to_string(dropped) + " at insertion, " +
                                std::to_string(report.quarantined) + " by validate_samples (" +
                                report.first_defect + ")");
            }
            if (set.dim != nn::effective_input_dim(kFlowpic1500.resolution)) {
                result.fail(set.size(), "prep1500: " + kind + " pooled to " +
                                            std::to_string(set.dim));
            }
            result.items += static_cast<double>(set.size());
        }
        // Un-augmented oracle: the full grid holds every packet of the window.
        std::size_t mass_ok = 0;
        for (std::size_t i = 0; i < flows_.size(); ++i) {
            const double mass = flowpic::Flowpic::from_flow(flows_[i], kFlowpic1500).total_mass();
            if (mass == window_packets_[i]) {
                ++mass_ok;
            } else {
                result.fail(1, "prep1500: flowpic mass " + std::to_string(mass) + " != " +
                                   std::to_string(window_packets_[i]) + " packets");
            }
        }
        result.accuracy = static_cast<double>(mass_ok) / static_cast<double>(flows_.size());
        return result;
    }

    [[nodiscard]] UnitResult traced_unit(std::uint64_t unit_seed, Tracer& tracer) override
    {
        // augment_set's per-flow work, one public call at a time: the
        // augmentation's series and image stages, the 1500 rasterization
        // and the pooling to the effective resolution.
        UnitResult result;
        result.attempted = ops_per_unit();
        for (std::size_t k = 0; k < kinds_.size(); ++k) {
            util::Rng rng(util::mix_seed(unit_seed, k));
            const auto augmentation = augment::make_augmentation(kinds_[k]);
            const char* const span = kAugmentSpans[static_cast<std::size_t>(kinds_[k])];
            for (const flow::Flow& flow : flows_) {
                flow::Flow transformed;
                const flow::Flow* series = &flow;
                if (augmentation->is_time_series()) {
                    transformed =
                        tracer.time(span, [&] { return augmentation->transform_flow(flow, rng); });
                    series = &transformed;
                }
                const std::uint64_t reserved = util::mem_budget().reserved_total();
                flowpic::Flowpic pic = tracer.time("flowpic.from_flow.1500", [&] {
                    return flowpic::Flowpic::from_flow(*series, kFlowpic1500);
                });
                if (tracer.enabled()) {
                    result.layer["flowpic.bytes_per_sample.1500"].push_back(
                        static_cast<double>(util::mem_budget().reserved_total() - reserved));
                }
                pic = tracer.time(span, [&] {
                    return augmentation->transform_pic(std::move(pic), rng);
                });
                (void)tracer.time("core.pool.1500", [&] { return core::pool_to_effective(pic); });
                result.items += 1.0;
            }
        }
        return result;
    }

    void summarize(const Tracer& tracer, Samples& layer) const override
    {
        tracer.collect(layer, "flowpic.from_flow_us.1500", "flowpic.from_flow.1500", 1e6);
        tracer.collect(layer, "core.pool_us.1500", "core.pool.1500", 1e6);
        const double flows = static_cast<double>(flows_.size());
        for (const auto kind : kinds_) {
            if (kind != augment::AugmentationKind::none) {
                const char* const span = kAugmentSpans[static_cast<std::size_t>(kind)];
                layer[std::string(span) + "_us.1500"].push_back(tracer.total_seconds(span) /
                                                                flows * 1e6);
            }
        }
    }

private:
    std::vector<augment::AugmentationKind> kinds_;
    std::vector<flow::Flow> flows_;
    std::vector<double> window_packets_;
};

} // namespace

std::unique_ptr<Workload> make_prep1500(std::uint64_t seed, Samples& layer)
{
    return std::make_unique<Prep1500>(seed, layer);
}

} // namespace repobench
