#include "fptc/nn/conv.hpp"

#include "fptc/nn/gemm.hpp"
#include "fptc/util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fptc::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel_size,
               std::uint64_t seed, std::size_t stride)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      weight_(Tensor({out_channels, in_channels, kernel_size, kernel_size}), "weight"),
      bias_(Tensor({out_channels}), "bias")
{
    if (in_channels == 0 || out_channels == 0 || kernel_size == 0 || stride == 0) {
        throw std::invalid_argument("Conv2d: zero-sized configuration");
    }
    util::Rng rng(seed);
    const double fan_in = static_cast<double>(in_channels * kernel_size * kernel_size);
    const auto limit = static_cast<float>(std::sqrt(6.0 / fan_in));
    for (auto& w : weight_.value.data()) {
        w = static_cast<float>(rng.uniform(-limit, limit));
    }
}

namespace {

// Receptive-field copies for the GEMM lowering.  Patch element
// k = (ic * ks + ky) * ks + kx of output position p = oy * out_w + ox is
// x[ic][oy * stride + ky][ox * stride + kx]; this (ic, ky, kx) order is the
// order the reference loops sum in, so the GEMM's k loop reproduces it.
struct PatchGeometry {
    std::size_t channels, h, w, ks, stride, out_h, out_w;

    [[nodiscard]] std::size_t patch() const noexcept { return channels * ks * ks; }
    [[nodiscard]] std::size_t positions() const noexcept { return out_h * out_w; }
    /// Offset of input element (ic, iy, ix) within one sample.
    [[nodiscard]] std::size_t at(std::size_t ic, std::size_t iy, std::size_t ix) const noexcept
    {
        return (ic * h + iy) * w + ix;
    }
};

/// col[k][p] (K x P): one row per patch element, for W · col.
void im2col(const PatchGeometry& g, const float* x, float* col) noexcept
{
    const std::size_t positions = g.positions();
    for (std::size_t ic = 0; ic < g.channels; ++ic) {
        for (std::size_t ky = 0; ky < g.ks; ++ky) {
            for (std::size_t kx = 0; kx < g.ks; ++kx) {
                for (std::size_t oy = 0; oy < g.out_h; ++oy) {
                    const float* src = x + g.at(ic, oy * g.stride + ky, kx);
                    float* dst = col + oy * g.out_w;
                    for (std::size_t ox = 0; ox < g.out_w; ++ox) {
                        dst[ox] = src[ox * g.stride];
                    }
                }
                col += positions;
            }
        }
    }
}

/// Copy the patch of output position (oy, ox) into one row of P x K.
void copy_patch(const PatchGeometry& g, const float* x, std::size_t oy, std::size_t ox,
                float* row) noexcept
{
    for (std::size_t ic = 0; ic < g.channels; ++ic) {
        for (std::size_t ky = 0; ky < g.ks; ++ky) {
            const float* src = x + g.at(ic, oy * g.stride + ky, ox * g.stride);
            for (std::size_t kx = 0; kx < g.ks; ++kx) {
                *row++ = src[kx];
            }
        }
    }
}

/// The inverse scatter: add one row of P x K back onto its patch of gx.
void add_patch(const PatchGeometry& g, const float* row, std::size_t oy, std::size_t ox,
               float* gx) noexcept
{
    for (std::size_t ic = 0; ic < g.channels; ++ic) {
        for (std::size_t ky = 0; ky < g.ks; ++ky) {
            float* dst = gx + g.at(ic, oy * g.stride + ky, ox * g.stride);
            for (std::size_t kx = 0; kx < g.ks; ++kx) {
                dst[kx] += *row++;
            }
        }
    }
}

} // namespace

Tensor Conv2d::forward(const Tensor& input, bool /*training*/)
{
    if (input.rank() != 4 || input.dim(1) != in_channels_) {
        throw std::invalid_argument("Conv2d::forward: expected [N, " + std::to_string(in_channels_) +
                                    ", H, W], got " + input.shape_string());
    }
    const std::size_t batch = input.dim(0);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    if (h < kernel_size_ || w < kernel_size_) {
        throw std::invalid_argument("Conv2d::forward: input smaller than kernel");
    }
    input_cache_ = input;
    const PatchGeometry g{in_channels_, h, w, kernel_size_, stride_,
                          (h - kernel_size_) / stride_ + 1, (w - kernel_size_) / stride_ + 1};
    const std::size_t patch = g.patch();
    const std::size_t positions = g.positions();
    Tensor output({batch, out_channels_, g.out_h, g.out_w});

    float* col = workspace_.reserve(patch * positions);
    const auto x = input.data();
    const auto b = bias_.value.data();
    auto y = output.data();
    for (std::size_t n = 0; n < batch; ++n) {
        float* y_n = y.data() + n * out_channels_ * positions;
        im2col(g, x.data() + n * in_channels_ * h * w, col);
        for (std::size_t oc = 0; oc < out_channels_; ++oc) {
            std::fill_n(y_n + oc * positions, positions, b[oc]);
        }
        gemm_accumulate(out_channels_, positions, patch, weight_.value.data().data(), col, y_n);
    }
    return output;
}

Tensor Conv2d::backward(const Tensor& grad_output)
{
    const std::size_t batch = input_cache_.dim(0);
    const std::size_t h = input_cache_.dim(2);
    const std::size_t w = input_cache_.dim(3);
    const PatchGeometry g{in_channels_, h, w, kernel_size_, stride_,
                          (h - kernel_size_) / stride_ + 1, (w - kernel_size_) / stride_ + 1};
    if (grad_output.rank() != 4 || grad_output.dim(0) != batch ||
        grad_output.dim(1) != out_channels_ || grad_output.dim(2) != g.out_h ||
        grad_output.dim(3) != g.out_w) {
        throw std::invalid_argument("Conv2d::backward: bad grad shape " + grad_output.shape_string());
    }
    const std::size_t patch = g.patch();
    const std::size_t positions = g.positions();

    Tensor grad_input(input_cache_.shape());
    // Only output positions whose gradient is nonzero in some channel take
    // part (most are zero behind ReLU and max pooling): they are gathered,
    // in position order, into `live` (indices as floats, exact below 2^24),
    // their gradients into `gy_live` [L x C_out] and `gy_live_t` [C_out x L],
    // and their patches into `rows` [L x K].  Skipping the rest is exactly
    // the reference's skipping of zero gradients.
    float* rows = workspace_.reserve(positions * (patch + 2 * out_channels_ + 1));
    float* gy_live = rows + positions * patch;
    float* gy_live_t = gy_live + positions * out_channels_;
    float* live = gy_live_t + positions * out_channels_;
    const auto x = input_cache_.data();
    const float* kernel = weight_.value.data().data();
    float* gk = weight_.grad.data().data();
    auto gb = bias_.grad.data();
    const auto gy = grad_output.data();
    auto gx = grad_input.data();
    for (std::size_t n = 0; n < batch; ++n) {
        const float* x_n = x.data() + n * in_channels_ * h * w;
        float* gx_n = gx.data() + n * in_channels_ * h * w;
        const float* gy_n = gy.data() + n * out_channels_ * positions;
        std::size_t count = 0;
        for (std::size_t p = 0; p < positions; ++p) {
            bool any = false;
            for (std::size_t oc = 0; oc < out_channels_; ++oc) {
                const float grad = gy_n[oc * positions + p];
                gb[oc] += grad; // per channel in position order, like the reference
                gy_live[count * out_channels_ + oc] = grad;
                any |= grad != 0.0f;
            }
            live[count] = static_cast<float>(p);
            count += any ? 1 : 0;
        }
        const auto position = [&](std::size_t i) { return static_cast<std::size_t>(live[i]); };
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t p = position(i);
            copy_patch(g, x_n, p / g.out_w, p % g.out_w, rows + i * patch);
        }
        // dW += dY_n · rows, summed over positions in order like the reference.
        transpose(count, out_channels_, gy_live, gy_live_t);
        gemm_accumulate(out_channels_, patch, count, gy_live_t, rows, gk);
        // dX: patch gradients dY_nᵀ · W (the transpose of Wᵀ · dY_n, so the
        // mostly-zero gradient is the skipped operand), scattered back.
        std::fill_n(rows, count * patch, 0.0f);
        gemm_accumulate(count, patch, out_channels_, gy_live, kernel, rows);
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t p = position(i);
            add_patch(g, rows + i * patch, p / g.out_w, p % g.out_w, gx_n);
        }
    }
    return grad_input;
}

MaxPool2d::MaxPool2d(std::size_t window) : window_(window)
{
    if (window == 0) {
        throw std::invalid_argument("MaxPool2d: window must be > 0");
    }
}

Tensor MaxPool2d::forward(const Tensor& input, bool /*training*/)
{
    if (input.rank() != 4) {
        throw std::invalid_argument("MaxPool2d::forward: expected [N, C, H, W]");
    }
    input_shape_ = input.shape();
    const std::size_t batch = input.dim(0);
    const std::size_t channels = input.dim(1);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t out_h = h / window_;
    const std::size_t out_w = w / window_;
    if (out_h == 0 || out_w == 0) {
        throw std::invalid_argument("MaxPool2d::forward: input smaller than window");
    }
    Tensor output({batch, channels, out_h, out_w});
    argmax_.assign(output.size(), 0);

    const auto x = input.data();
    auto y = output.data();
    const std::size_t in_plane = h * w;
    const std::size_t out_plane = out_h * out_w;

    for (std::size_t nc = 0; nc < batch * channels; ++nc) {
        const float* x_plane = x.data() + nc * in_plane;
        float* y_plane = y.data() + nc * out_plane;
        std::size_t* arg_plane = argmax_.data() + nc * out_plane;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
            for (std::size_t ox = 0; ox < out_w; ++ox) {
                float best = -std::numeric_limits<float>::infinity();
                std::size_t best_index = 0;
                for (std::size_t wy = 0; wy < window_; ++wy) {
                    for (std::size_t wx = 0; wx < window_; ++wx) {
                        const std::size_t idx = (oy * window_ + wy) * w + (ox * window_ + wx);
                        if (x_plane[idx] > best) {
                            best = x_plane[idx];
                            best_index = idx;
                        }
                    }
                }
                y_plane[oy * out_w + ox] = best;
                arg_plane[oy * out_w + ox] = nc * in_plane + best_index;
            }
        }
    }
    return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output)
{
    if (grad_output.size() != argmax_.size()) {
        throw std::invalid_argument("MaxPool2d::backward: grad size mismatch");
    }
    Tensor grad_input(input_shape_);
    auto gx = grad_input.data();
    const auto gy = grad_output.data();
    for (std::size_t i = 0; i < argmax_.size(); ++i) {
        gx[argmax_[i]] += gy[i];
    }
    return grad_input;
}

} // namespace fptc::nn
