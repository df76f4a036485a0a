// Convolution and pooling layers.
//
// LeNet-5 (App. C listing 1) needs only valid (unpadded) stride-1
// convolutions with square kernels and 2x2 max pooling.  Conv2d lowers its
// three products (forward, dW, dX) per sample onto the shared GEMM kernel
// (gemm.hpp) through an im2col workspace the layer owns; for the 1500x1500
// "full" architecture the model factory inserts an aggressive input pooling
// stage first (see models.hpp), so that workspace stays small.
#pragma once

#include "fptc/nn/gemm.hpp"
#include "fptc/nn/layer.hpp"

#include <cstdint>
#include <vector>

namespace fptc::nn {

/// 2-d convolution, stride `stride`, no padding:
/// input [N, C_in, H, W] -> output [N, C_out, (H-k)/stride+1, (W-k)/stride+1].
class Conv2d final : public Layer {
public:
    Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel_size,
           std::uint64_t seed, std::size_t stride = 1);

    [[nodiscard]] std::string name() const override { return "Conv2d"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }

    [[nodiscard]] std::size_t in_channels() const noexcept { return in_channels_; }
    [[nodiscard]] std::size_t out_channels() const noexcept { return out_channels_; }
    [[nodiscard]] std::size_t kernel_size() const noexcept { return kernel_size_; }

private:
    std::size_t in_channels_;
    std::size_t out_channels_;
    std::size_t kernel_size_;
    std::size_t stride_;
    Parameter weight_; ///< [C_out, C_in, k, k]
    Parameter bias_;   ///< [C_out]
    Tensor input_cache_;
    Workspace workspace_; ///< one sample's im2col patches and gathered gradients
};

/// Max pooling with square window == stride (LeNet uses 2x2/2).
class MaxPool2d final : public Layer {
public:
    explicit MaxPool2d(std::size_t window);

    [[nodiscard]] std::string name() const override { return "MaxPool2d"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;

private:
    std::size_t window_;
    Shape input_shape_;
    std::vector<std::size_t> argmax_; ///< flat source index per output element
};

} // namespace fptc::nn
