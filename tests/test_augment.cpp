// Unit + property tests for the 7 augmentation strategies and the SimCLR
// view-pair generator.
#include "fptc/augment/augmentation.hpp"
#include "fptc/augment/image.hpp"
#include "fptc/augment/time_series.hpp"
#include "fptc/augment/view_pair.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace fptc;
using namespace fptc::augment;

flow::Flow make_flow(std::size_t packets = 40)
{
    flow::Flow f;
    for (std::size_t i = 0; i < packets; ++i) {
        flow::Packet p;
        p.timestamp = 0.2 + 0.3 * static_cast<double>(i);
        p.size = 100 + static_cast<int>((i * 53) % 1300);
        p.direction = i % 3 == 0 ? flow::Direction::upstream : flow::Direction::downstream;
        f.packets.push_back(p);
    }
    f.label = 3;
    return f;
}

TEST(Augmentations, NamesMatchPaperTables)
{
    EXPECT_EQ(augmentation_name(AugmentationKind::none), "No augmentation");
    EXPECT_EQ(augmentation_name(AugmentationKind::change_rtt), "Change RTT");
    EXPECT_EQ(augmentation_name(AugmentationKind::time_shift), "Time shift");
    EXPECT_EQ(augmentation_name(AugmentationKind::packet_loss), "Packet loss");
    EXPECT_EQ(augmentation_name(AugmentationKind::rotate), "Rotate");
    EXPECT_EQ(augmentation_name(AugmentationKind::horizontal_flip), "Horizontal flip");
    EXPECT_EQ(augmentation_name(AugmentationKind::color_jitter), "Color jitter");
}

TEST(Augmentations, RegistryHasSevenStrategiesNoneFirst)
{
    const auto& all = all_augmentations();
    EXPECT_EQ(all.size(), 7u);
    EXPECT_EQ(all.front(), AugmentationKind::none);
}

TEST(ChangeRtt, ScalesInterArrivalsByOneFactor)
{
    const auto f = make_flow(20);
    ChangeRtt augmentation; // alpha ~ U[0.5, 1.5] per the paper
    util::Rng rng(5);
    const auto out = augmentation.transform_flow(f, rng);
    ASSERT_EQ(out.packets.size(), f.packets.size());
    // First timestamp is the anchor and must be preserved.
    EXPECT_DOUBLE_EQ(out.packets.front().timestamp, f.packets.front().timestamp);
    // All gaps scale by the same alpha in [0.5, 1.5].
    const double alpha = (out.packets[1].timestamp - out.packets[0].timestamp) /
                         (f.packets[1].timestamp - f.packets[0].timestamp);
    EXPECT_GE(alpha, 0.5);
    EXPECT_LE(alpha, 1.5);
    for (std::size_t i = 1; i < f.packets.size(); ++i) {
        const double gap_in = f.packets[i].timestamp - f.packets[i - 1].timestamp;
        const double gap_out = out.packets[i].timestamp - out.packets[i - 1].timestamp;
        EXPECT_NEAR(gap_out, alpha * gap_in, 1e-9);
    }
    // Sizes untouched.
    EXPECT_EQ(out.packets[7].size, f.packets[7].size);
}

TEST(ChangeRtt, ValidatesRange)
{
    EXPECT_THROW(ChangeRtt(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(ChangeRtt(1.5, 0.5), std::invalid_argument);
}

TEST(TimeShift, TranslatesUniformly)
{
    const auto f = make_flow(10);
    TimeShift augmentation(0.3, 0.3); // deterministic shift
    util::Rng rng(1);
    const auto out = augmentation.transform_flow(f, rng);
    ASSERT_EQ(out.packets.size(), f.packets.size());
    for (std::size_t i = 0; i < f.packets.size(); ++i) {
        EXPECT_NEAR(out.packets[i].timestamp, f.packets[i].timestamp + 0.3, 1e-12);
    }
}

TEST(TimeShift, DropsPacketsShiftedBeforeZero)
{
    const auto f = make_flow(10); // first packet at t = 0.2
    TimeShift augmentation(-1.0, -1.0);
    util::Rng rng(1);
    const auto out = augmentation.transform_flow(f, rng);
    // Packets at t = 0.2, 0.5, 0.8 move below 0 and are dropped.
    EXPECT_EQ(out.packets.size(), 7u);
    for (const auto& p : out.packets) {
        EXPECT_GE(p.timestamp, 0.0);
    }
}

TEST(TimeShift, KeepsLastPacketAtZeroWhenEveryPacketShiftsOut)
{
    // A 30-packet flow spanning 0.006-0.5 s lies wholly inside the first
    // second: a -1 s shift used to return it empty.
    flow::Flow f;
    f.label = 1;
    for (int i = 0; i < 30; ++i) {
        f.packets.push_back({.timestamp = 0.006 + (0.5 - 0.006) * i / 29.0,
                             .size = 100 + i,
                             .direction = flow::Direction::upstream,
                             .is_ack = false});
    }
    TimeShift augmentation(-1.0, -1.0);
    util::Rng rng(1);
    const auto out = augmentation.transform_flow(f, rng);
    ASSERT_EQ(out.packets.size(), 1u);
    EXPECT_EQ(out.packets[0].timestamp, 0.0);
    EXPECT_EQ(out.packets[0].size, f.packets.back().size);
    EXPECT_EQ(out.label, f.label);
}

TEST(PacketLoss, DropsSubsetKeepsAtLeastOne)
{
    const auto f = make_flow(200);
    PacketLoss augmentation(0.3, 0.3);
    util::Rng rng(2);
    const auto out = augmentation.transform_flow(f, rng);
    EXPECT_LT(out.packets.size(), f.packets.size());
    EXPECT_GT(out.packets.size(), f.packets.size() / 2); // ~30% loss
    EXPECT_GE(out.packets.size(), 1u);
    EXPECT_EQ(out.label, f.label);

    // Even at extreme loss rates one packet must survive.
    PacketLoss extreme(0.999, 0.999);
    const auto survivor = extreme.transform_flow(f, rng);
    EXPECT_GE(survivor.packets.size(), 1u);
}

TEST(PacketLoss, ValidatesRange)
{
    EXPECT_THROW(PacketLoss(-0.1, 0.5), std::invalid_argument);
    EXPECT_THROW(PacketLoss(0.2, 1.0), std::invalid_argument);
}

TEST(HorizontalFlip, MirrorsTimeAxisExactly)
{
    flowpic::Flowpic pic(4, std::vector<float>{
                                1, 0, 0, 2, //
                                0, 3, 0, 0, //
                                0, 0, 0, 0, //
                                4, 0, 0, 0});
    HorizontalFlip flip(1.0); // always flip
    util::Rng rng(1);
    const auto out = flip.transform_pic(std::move(pic), rng);
    EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(out.at(0, 3), 1.0f);
    EXPECT_FLOAT_EQ(out.at(1, 2), 3.0f);
    EXPECT_FLOAT_EQ(out.at(3, 3), 4.0f);
}

TEST(HorizontalFlip, DoubleFlipIsIdentity)
{
    flow::Flow f = make_flow(30);
    auto original = flowpic::Flowpic::from_flow(f, {.resolution = 32});
    HorizontalFlip flip(1.0);
    util::Rng rng(1);
    auto twice = flip.transform_pic(flip.transform_pic(original, rng), rng);
    for (std::size_t i = 0; i < original.counts().size(); ++i) {
        EXPECT_FLOAT_EQ(twice.counts()[i], original.counts()[i]);
    }
}

TEST(HorizontalFlip, ZeroProbabilityIsIdentity)
{
    auto pic = flowpic::Flowpic(2, std::vector<float>{1, 2, 3, 4});
    HorizontalFlip flip(0.0);
    util::Rng rng(1);
    const auto out = flip.transform_pic(std::move(pic), rng);
    EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 2.0f);
}

TEST(Rotate, ApproximatelyPreservesMass)
{
    const auto f = make_flow(300);
    auto pic = flowpic::Flowpic::from_flow(f, {.resolution = 32});
    const double mass_before = pic.total_mass();
    Rotate rotate(10.0);
    util::Rng rng(3);
    const auto out = rotate.transform_pic(std::move(pic), rng);
    // Bilinear resampling + border clipping loses a little mass only.
    EXPECT_NEAR(out.total_mass(), mass_before, 0.15 * mass_before);
    for (const float v : out.counts()) {
        EXPECT_GE(v, 0.0f);
    }
}

TEST(Rotate, ZeroAngleIsNearIdentity)
{
    const auto f = make_flow(50);
    auto pic = flowpic::Flowpic::from_flow(f, {.resolution = 32});
    const auto reference = pic;
    Rotate rotate(0.0);
    util::Rng rng(3);
    const auto out = rotate.transform_pic(std::move(pic), rng);
    for (std::size_t i = 0; i < reference.counts().size(); ++i) {
        EXPECT_NEAR(out.counts()[i], reference.counts()[i], 1e-4);
    }
}

TEST(ColorJitter, KeepsCountsNonNegativeAndZerosZeroWithoutBrightness)
{
    const auto f = make_flow(100);
    auto pic = flowpic::Flowpic::from_flow(f, {.resolution = 32});
    ColorJitter jitter(0.3, 0.0, 0.1); // no brightness offset
    util::Rng rng(4);
    const auto reference = pic;
    const auto out = jitter.transform_pic(std::move(pic), rng);
    for (std::size_t i = 0; i < out.counts().size(); ++i) {
        EXPECT_GE(out.counts()[i], 0.0f);
        if (reference.counts()[i] == 0.0f) {
            EXPECT_FLOAT_EQ(out.counts()[i], 0.0f); // empty cells stay empty
        }
    }
}

TEST(ColorJitter, ChangesIntensities)
{
    const auto f = make_flow(100);
    auto pic = flowpic::Flowpic::from_flow(f, {.resolution = 32});
    const auto reference = pic;
    ColorJitter jitter;
    util::Rng rng(4);
    const auto out = jitter.transform_pic(std::move(pic), rng);
    double diff = 0.0;
    for (std::size_t i = 0; i < out.counts().size(); ++i) {
        diff += std::fabs(out.counts()[i] - reference.counts()[i]);
    }
    EXPECT_GT(diff, 0.0);
}

// Property sweep over every strategy through the full pipeline.
class AugmentationPipelineTest : public ::testing::TestWithParam<AugmentationKind> {};

TEST_P(AugmentationPipelineTest, ProducesValidFlowpic)
{
    const auto kind = GetParam();
    const auto augmentation = make_augmentation(kind);
    EXPECT_EQ(augmentation->kind(), kind);
    const auto f = make_flow(80);
    util::Rng rng(9);
    flowpic::FlowpicConfig config;
    config.resolution = 32;
    for (int trial = 0; trial < 5; ++trial) {
        const auto pic = augmentation->augmented_flowpic(f, config, rng);
        EXPECT_EQ(pic.resolution(), 32u);
        EXPECT_GT(pic.total_mass(), 0.0);
        for (const float v : pic.counts()) {
            EXPECT_GE(v, 0.0f);
            EXPECT_TRUE(std::isfinite(v));
        }
    }
}

TEST_P(AugmentationPipelineTest, TimeSeriesFlagConsistent)
{
    const auto kind = GetParam();
    const auto augmentation = make_augmentation(kind);
    const bool expected = kind == AugmentationKind::change_rtt ||
                          kind == AugmentationKind::time_shift ||
                          kind == AugmentationKind::packet_loss;
    EXPECT_EQ(augmentation->is_time_series(), expected);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AugmentationPipelineTest,
                         ::testing::ValuesIn(all_augmentations()),
                         [](const auto& info) {
                             std::string name(augmentation_name(info.param));
                             for (auto& c : name) {
                                 if (!std::isalnum(static_cast<unsigned char>(c))) {
                                     c = '_';
                                 }
                             }
                             return name;
                         });

TEST(ViewPair, ProducesTwoDistinctViews)
{
    const auto f = make_flow(60);
    ViewPairGenerator views; // paper pair: Change RTT + Time shift
    EXPECT_EQ(views.first_kind(), AugmentationKind::change_rtt);
    EXPECT_EQ(views.second_kind(), AugmentationKind::time_shift);
    util::Rng rng(6);
    const auto [a, b] = views.view_pair(f, rng);
    EXPECT_EQ(a.resolution(), 32u);
    EXPECT_EQ(b.resolution(), 32u);
    // Two independently transformed views of the same flow must differ.
    bool different = false;
    for (std::size_t i = 0; i < a.counts().size(); ++i) {
        if (a.counts()[i] != b.counts()[i]) {
            different = true;
            break;
        }
    }
    EXPECT_TRUE(different);
}

TEST(ViewPair, MixedFamilyPairWorks)
{
    const auto f = make_flow(60);
    flowpic::FlowpicConfig config;
    config.resolution = 64;
    ViewPairGenerator views(AugmentationKind::color_jitter, AugmentationKind::change_rtt, config);
    util::Rng rng(6);
    const auto view = views.view(f, rng);
    EXPECT_EQ(view.resolution(), 64u);
    EXPECT_GT(view.total_mass(), 0.0);
}

} // namespace
