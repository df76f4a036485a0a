// Reference oracle for the GEMM-lowered layers: the original scalar
// Conv2d and Linear forward/backward loops, kept verbatim as free functions
// over plain tensors.  Test-only — the library has exactly one code path
// (src/nn/gemm.cpp); test_nn_kernels.cpp checks it against these loops.
#pragma once

#include "fptc/nn/tensor.hpp"

#include <cstddef>

namespace fptc::nn::reference {

/// Conv2d forward: input [N, C_in, H, W], weight [C_out, C_in, k, k],
/// bias [C_out], no padding.
inline Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                             std::size_t stride)
{
    const std::size_t in_channels_ = weight.dim(1);
    const std::size_t out_channels_ = weight.dim(0);
    const std::size_t kernel_size_ = weight.dim(2);
    const std::size_t stride_ = stride;
    const std::size_t batch = input.dim(0);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t out_h = (h - kernel_size_) / stride_ + 1;
    const std::size_t out_w = (w - kernel_size_) / stride_ + 1;
    Tensor output({batch, out_channels_, out_h, out_w});

    const auto x = input.data();
    const auto kernel = weight.data();
    const auto b = bias.data();
    auto y = output.data();

    const std::size_t in_plane = h * w;
    const std::size_t out_plane = out_h * out_w;
    const std::size_t kernel_plane = kernel_size_ * kernel_size_;

    for (std::size_t n = 0; n < batch; ++n) {
        const float* x_n = x.data() + n * in_channels_ * in_plane;
        float* y_n = y.data() + n * out_channels_ * out_plane;
        for (std::size_t oc = 0; oc < out_channels_; ++oc) {
            const float* k_oc = kernel.data() + oc * in_channels_ * kernel_plane;
            float* y_oc = y_n + oc * out_plane;
            const float bias_value = b[oc];
            for (std::size_t oy = 0; oy < out_h; ++oy) {
                for (std::size_t ox = 0; ox < out_w; ++ox) {
                    float accum = bias_value;
                    const std::size_t iy0 = oy * stride_;
                    const std::size_t ix0 = ox * stride_;
                    for (std::size_t ic = 0; ic < in_channels_; ++ic) {
                        const float* x_ic = x_n + ic * in_plane;
                        const float* k_ic = k_oc + ic * kernel_plane;
                        for (std::size_t ky = 0; ky < kernel_size_; ++ky) {
                            const float* x_row = x_ic + (iy0 + ky) * w + ix0;
                            const float* k_row = k_ic + ky * kernel_size_;
                            for (std::size_t kx = 0; kx < kernel_size_; ++kx) {
                                accum += x_row[kx] * k_row[kx];
                            }
                        }
                    }
                    y_oc[oy * out_w + ox] = accum;
                }
            }
        }
    }
    return output;
}

/// Conv2d backward: accumulates into grad_weight / grad_bias and returns the
/// input gradient.
inline Tensor conv2d_backward(const Tensor& input_cache_, const Tensor& weight,
                              const Tensor& grad_output, std::size_t stride, Tensor& grad_weight,
                              Tensor& grad_bias)
{
    const std::size_t in_channels_ = weight.dim(1);
    const std::size_t out_channels_ = weight.dim(0);
    const std::size_t kernel_size_ = weight.dim(2);
    const std::size_t stride_ = stride;
    const std::size_t batch = input_cache_.dim(0);
    const std::size_t h = input_cache_.dim(2);
    const std::size_t w = input_cache_.dim(3);
    const std::size_t out_h = (h - kernel_size_) / stride_ + 1;
    const std::size_t out_w = (w - kernel_size_) / stride_ + 1;

    Tensor grad_input(input_cache_.shape());
    const auto x = input_cache_.data();
    const auto kernel = weight.data();
    auto gk = grad_weight.data();
    auto gb = grad_bias.data();
    const auto gy = grad_output.data();
    auto gx = grad_input.data();

    const std::size_t in_plane = h * w;
    const std::size_t out_plane = out_h * out_w;
    const std::size_t kernel_plane = kernel_size_ * kernel_size_;

    for (std::size_t n = 0; n < batch; ++n) {
        const float* x_n = x.data() + n * in_channels_ * in_plane;
        float* gx_n = gx.data() + n * in_channels_ * in_plane;
        const float* gy_n = gy.data() + n * out_channels_ * out_plane;
        for (std::size_t oc = 0; oc < out_channels_; ++oc) {
            const float* k_oc = kernel.data() + oc * in_channels_ * kernel_plane;
            float* gk_oc = gk.data() + oc * in_channels_ * kernel_plane;
            const float* gy_oc = gy_n + oc * out_plane;
            for (std::size_t oy = 0; oy < out_h; ++oy) {
                for (std::size_t ox = 0; ox < out_w; ++ox) {
                    const float g = gy_oc[oy * out_w + ox];
                    if (g == 0.0f) {
                        continue;
                    }
                    gb[oc] += g;
                    const std::size_t iy0 = oy * stride_;
                    const std::size_t ix0 = ox * stride_;
                    for (std::size_t ic = 0; ic < in_channels_; ++ic) {
                        const float* x_ic = x_n + ic * in_plane;
                        float* gx_ic = gx_n + ic * in_plane;
                        const float* k_ic = k_oc + ic * kernel_plane;
                        float* gk_ic = gk_oc + ic * kernel_plane;
                        for (std::size_t ky = 0; ky < kernel_size_; ++ky) {
                            const float* x_row = x_ic + (iy0 + ky) * w + ix0;
                            float* gx_row = gx_ic + (iy0 + ky) * w + ix0;
                            const float* k_row = k_ic + ky * kernel_size_;
                            float* gk_row = gk_ic + ky * kernel_size_;
                            for (std::size_t kx = 0; kx < kernel_size_; ++kx) {
                                gk_row[kx] += g * x_row[kx];
                                gx_row[kx] += g * k_row[kx];
                            }
                        }
                    }
                }
            }
        }
    }
    return grad_input;
}

/// Linear forward: input [N, in], weight [out, in], bias [out].
inline Tensor linear_forward(const Tensor& input, const Tensor& weight, const Tensor& bias)
{
    const std::size_t out_features_ = weight.dim(0);
    const std::size_t in_features_ = weight.dim(1);
    const std::size_t batch = input.dim(0);
    Tensor output({batch, out_features_});
    const auto w = weight.data();
    const auto b = bias.data();
    const auto x = input.data();
    auto y = output.data();
    for (std::size_t n = 0; n < batch; ++n) {
        const float* x_row = x.data() + n * in_features_;
        float* y_row = y.data() + n * out_features_;
        for (std::size_t o = 0; o < out_features_; ++o) {
            const float* w_row = w.data() + o * in_features_;
            float accum = b[o];
            for (std::size_t i = 0; i < in_features_; ++i) {
                accum += w_row[i] * x_row[i];
            }
            y_row[o] = accum;
        }
    }
    return output;
}

/// Linear backward: accumulates into grad_weight / grad_bias and returns the
/// input gradient.
inline Tensor linear_backward(const Tensor& input_cache_, const Tensor& weight,
                              const Tensor& grad_output, Tensor& grad_weight, Tensor& grad_bias)
{
    const std::size_t out_features_ = weight.dim(0);
    const std::size_t in_features_ = weight.dim(1);
    const std::size_t batch = input_cache_.dim(0);
    Tensor grad_input({batch, in_features_});
    const auto w = weight.data();
    auto gw = grad_weight.data();
    auto gb = grad_bias.data();
    const auto x = input_cache_.data();
    const auto gy = grad_output.data();
    auto gx = grad_input.data();
    for (std::size_t n = 0; n < batch; ++n) {
        const float* x_row = x.data() + n * in_features_;
        const float* gy_row = gy.data() + n * out_features_;
        float* gx_row = gx.data() + n * in_features_;
        for (std::size_t o = 0; o < out_features_; ++o) {
            const float g = gy_row[o];
            gb[o] += g;
            const float* w_row = w.data() + o * in_features_;
            float* gw_row = gw.data() + o * in_features_;
            for (std::size_t i = 0; i < in_features_; ++i) {
                gw_row[i] += g * x_row[i];
                gx_row[i] += g * w_row[i];
            }
        }
    }
    return grad_input;
}

} // namespace fptc::nn::reference
