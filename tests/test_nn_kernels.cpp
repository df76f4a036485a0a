// Differential tests: the GEMM-lowered Conv2d and Linear layers against the
// original scalar loops (nn_reference.hpp).  Forward, dW, bias gradients and
// Linear dX must match byte for byte — the kernel sums every output in the
// reference's order; conv dX goes through col2im, which sums overlapping
// patches in a different order, so it gets a tight tolerance instead.
#include "nn_reference.hpp"

#include "fptc/nn/conv.hpp"
#include "fptc/nn/gemm.hpp"
#include "fptc/nn/layers.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/nn/serialize.hpp"
#include "fptc/util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

namespace {

using namespace fptc;
using namespace fptc::nn;

/// Values with a given share of exact zeros (flowpics are 88-99.98% zeros,
/// max-pool gradients >= 75%); `zero_share` 1 gives an all-zero tensor.
Tensor sparse_tensor(const Shape& shape, double zero_share, std::uint64_t seed)
{
    util::Rng rng(seed);
    Tensor t(shape);
    for (auto& v : t.data()) {
        v = rng.uniform() < zero_share ? 0.0f : static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    return t;
}

void expect_identical(const Tensor& actual, const Tensor& expected, const std::string& what)
{
    ASSERT_EQ(actual.shape(), expected.shape()) << what;
    if (std::memcmp(actual.data().data(), expected.data().data(),
                    expected.size() * sizeof(float)) == 0) {
        return;
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (std::memcmp(actual.data().data() + i, expected.data().data() + i, sizeof(float)) != 0) {
            ADD_FAILURE() << what << ": first byte difference at " << i << ": " << actual[i]
                          << " vs reference " << expected[i];
            return;
        }
    }
}

void expect_close(const Tensor& actual, const Tensor& expected, const std::string& what)
{
    ASSERT_EQ(actual.shape(), expected.shape()) << what;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const double tolerance = 1e-5 * std::fabs(expected[i]) + 1e-6;
        ASSERT_LE(std::fabs(static_cast<double>(actual[i]) - expected[i]), tolerance)
            << what << " at " << i;
    }
}

// --- gemm_accumulate alone ---------------------------------------------------

struct GemmShape {
    std::size_t m, n, k;
};

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, MatchesNaiveTripleLoopBitForBit)
{
    const auto [m, n, k] = GetParam();
    const auto a = sparse_tensor({m, k}, 0.5, 1);
    const auto b = sparse_tensor({k, n}, 0.1, 2);
    auto c = sparse_tensor({m, n}, 0.3, 3);
    auto expected = c;
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float accum = expected[i * n + j];
            for (std::size_t p = 0; p < k; ++p) {
                accum += a[i * k + p] * b[p * n + j];
            }
            expected[i * n + j] = accum;
        }
    }
    gemm_accumulate(m, n, k, a.data().data(), b.data().data(), c.data().data());
    expect_identical(c, expected, "gemm");
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmTest,
                         ::testing::Values(GemmShape{1, 1, 1}, GemmShape{4, 8, 1},
                                           GemmShape{5, 3, 1}, GemmShape{3, 5, 7},
                                           GemmShape{7, 13, 9}, GemmShape{16, 100, 150},
                                           GemmShape{6, 25, 784}, GemmShape{32, 120, 400},
                                           GemmShape{2, 7, 64}));

TEST(Gemm, AllZeroAOnlyKeepsC)
{
    const Tensor a({5, 6});
    const auto b = sparse_tensor({6, 11}, 0.0, 4);
    auto c = sparse_tensor({5, 11}, 0.0, 5);
    const auto before = c;
    gemm_accumulate(5, 11, 6, a.data().data(), b.data().data(), c.data().data());
    expect_identical(c, before, "zero A");
}

TEST(Gemm, TransposeSwapsIndices)
{
    const auto src = sparse_tensor({3, 5}, 0.0, 6);
    Tensor dst({5, 3});
    transpose(3, 5, src.data().data(), dst.data().data());
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 5; ++c) {
            EXPECT_EQ(dst[c * 3 + r], src[r * 5 + c]);
        }
    }
}

// --- Conv2d --------------------------------------------------------------------

struct ConvCase {
    const char* name;
    std::size_t batch, in_channels, out_channels, kernel, stride, h, w;
    double input_zeros; ///< share of zero inputs (1 = all-zero input)
    double grad_zeros;  ///< share of zero output gradients (1 = all-zero)
};

class ConvKernelTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvKernelTest, MatchesScalarReference)
{
    const auto& c = GetParam();
    Conv2d layer(c.in_channels, c.out_channels, c.kernel, /*seed=*/11, c.stride);
    const auto params = layer.parameters();
    const Tensor& weight = params[0]->value;
    // Non-zero biases so the forward seed value is exercised.
    params[1]->value = sparse_tensor(params[1]->value.shape(), 0.0, 12);
    const Tensor& bias = params[1]->value;

    const auto input = sparse_tensor({c.batch, c.in_channels, c.h, c.w}, c.input_zeros, 13);
    const auto output = layer.forward(input, true);
    expect_identical(output, reference::conv2d_forward(input, weight, bias, c.stride), "forward");

    // Two backward passes: gradients accumulate across calls in both paths.
    Tensor ref_gw(weight.shape());
    Tensor ref_gb(bias.shape());
    for (std::uint64_t pass = 0; pass < 2; ++pass) {
        const auto grad = sparse_tensor(output.shape(), c.grad_zeros, 20 + pass);
        const auto grad_input = layer.backward(grad);
        const auto ref_gx =
            reference::conv2d_backward(input, weight, grad, c.stride, ref_gw, ref_gb);
        expect_identical(params[0]->grad, ref_gw, "dW pass " + std::to_string(pass));
        expect_identical(params[1]->grad, ref_gb, "db pass " + std::to_string(pass));
        expect_close(grad_input, ref_gx, "dX pass " + std::to_string(pass));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvKernelTest,
    ::testing::Values(ConvCase{"LeNetConv1At32", 32, 1, 6, 5, 1, 32, 32, 0.88, 0.75},
                      ConvCase{"LeNetConv2At32", 32, 6, 16, 5, 1, 14, 14, 0.5, 0.75},
                      ConvCase{"LeNetConv1At64", 4, 1, 6, 5, 1, 64, 64, 0.95, 0.75},
                      ConvCase{"LeNetConv2At64", 4, 6, 16, 5, 1, 30, 30, 0.5, 0.75},
                      ConvCase{"Directional2Channel", 8, 2, 6, 5, 1, 32, 32, 0.88, 0.75},
                      ConvCase{"Stride2Batch1", 1, 1, 6, 5, 2, 32, 32, 0.5, 0.5},
                      ConvCase{"OddTiles", 3, 3, 5, 3, 1, 11, 13, 0.3, 0.3},
                      ConvCase{"AllZeroInput", 4, 1, 6, 5, 1, 32, 32, 1.0, 0.75},
                      ConvCase{"AllZeroGradient", 4, 6, 16, 5, 1, 14, 14, 0.5, 1.0}),
    [](const ::testing::TestParamInfo<ConvCase>& info) { return std::string(info.param.name); });

// --- Linear --------------------------------------------------------------------

struct LinearCase {
    const char* name;
    std::size_t batch, in_features, out_features;
    double input_zeros;
    double grad_zeros;
};

class LinearKernelTest : public ::testing::TestWithParam<LinearCase> {};

TEST_P(LinearKernelTest, MatchesScalarReferenceBitForBit)
{
    const auto& c = GetParam();
    Linear layer(c.in_features, c.out_features, /*seed=*/31);
    const auto params = layer.parameters();
    const Tensor& weight = params[0]->value;
    params[1]->value = sparse_tensor(params[1]->value.shape(), 0.0, 32);
    const Tensor& bias = params[1]->value;

    const auto input = sparse_tensor({c.batch, c.in_features}, c.input_zeros, 33);
    const auto output = layer.forward(input, true);
    expect_identical(output, reference::linear_forward(input, weight, bias), "forward");

    Tensor ref_gw(weight.shape());
    Tensor ref_gb(bias.shape());
    for (std::uint64_t pass = 0; pass < 2; ++pass) {
        const auto grad = sparse_tensor(output.shape(), c.grad_zeros, 40 + pass);
        const auto grad_input = layer.backward(grad);
        const auto ref_gx = reference::linear_backward(input, weight, grad, ref_gw, ref_gb);
        expect_identical(params[0]->grad, ref_gw, "dW pass " + std::to_string(pass));
        expect_identical(params[1]->grad, ref_gb, "db pass " + std::to_string(pass));
        expect_identical(grad_input, ref_gx, "dX pass " + std::to_string(pass));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LinearKernelTest,
    ::testing::Values(LinearCase{"Fc1Batch32", 32, 400, 120, 0.5, 0.5},
                      LinearCase{"Fc2Batch32", 32, 120, 84, 0.5, 0.5},
                      LinearCase{"Fc3Batch32", 32, 84, 5, 0.5, 0.0},
                      LinearCase{"Fc1Batch1", 1, 400, 120, 0.5, 0.5},
                      LinearCase{"OddTiles", 7, 13, 11, 0.3, 0.3},
                      LinearCase{"AllZeroInput", 5, 400, 120, 1.0, 0.5},
                      LinearCase{"AllZeroGradient", 5, 400, 120, 0.5, 1.0}),
    [](const ::testing::TestParamInfo<LinearCase>& info) { return std::string(info.param.name); });

// --- Whole network -------------------------------------------------------------

/// Forward through `network` with every Conv2d / Linear replaced by its
/// reference loop; the other layers are unchanged code and run as-is.
Tensor reference_forward(Sequential& network, const Tensor& input)
{
    Tensor current = input;
    for (std::size_t i = 0; i < network.layer_count(); ++i) {
        auto& layer = network.layer(i);
        if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
            const auto p = conv->parameters();
            current = reference::conv2d_forward(current, p[0]->value, p[1]->value, 1);
        } else if (auto* linear = dynamic_cast<Linear*>(&layer)) {
            const auto p = linear->parameters();
            current = reference::linear_forward(current, p[0]->value, p[1]->value);
        } else {
            current = layer.forward(current, false);
        }
    }
    return current;
}

TEST(NnKernels, LoadedCheckpointClassifiesLikeTheReference)
{
    for (const std::size_t dim : {32u, 64u}) {
        ModelConfig config;
        config.flowpic_dim = dim;
        config.seed = 5;
        auto trained = make_supervised_network(config);
        const auto path = (std::filesystem::temp_directory_path() /
                           ("fptc_test_nn_kernels_" + std::to_string(dim) + ".bin"))
                              .string();
        save_network(trained, path);
        config.seed = 6; // different init, overwritten by the checkpoint
        auto loaded = make_supervised_network(config);
        load_network(loaded, path);
        std::filesystem::remove(path);

        const std::size_t side = effective_input_dim(dim);
        const auto input = sparse_tensor({16, 1, side, side}, 0.9, 50);
        expect_identical(loaded.forward(input, false), reference_forward(loaded, input),
                         "logits at " + std::to_string(dim));
    }
}

} // namespace
