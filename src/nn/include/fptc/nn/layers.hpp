// Basic layers: Linear, ReLU, Flatten, Identity, Dropout, Dropout2d.
//
// Together with Conv2d/MaxPool2d (conv.hpp) these are exactly the layer
// types appearing in the paper's App. C listings.  Identity matters more
// than it looks: "our architectures are designed to use nn.Identity()
// modules to mask out layers that are not needed from a given architecture"
// — the dropout ablation (Table 5, Fig. 11) and the fine-tune network
// (listing 5) are all expressed by masking layers with Identity.
#pragma once

#include "fptc/nn/gemm.hpp"
#include "fptc/nn/layer.hpp"
#include "fptc/util/rng.hpp"

#include <cstdint>

namespace fptc::nn {

/// Fully connected layer: y = W x + b, input [N, in], output [N, out].
class Linear final : public Layer {
public:
    /// He-uniform initialization seeded deterministically.
    Linear(std::size_t in_features, std::size_t out_features, std::uint64_t seed);

    [[nodiscard]] std::string name() const override { return "Linear"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }

    [[nodiscard]] std::size_t in_features() const noexcept { return in_features_; }
    [[nodiscard]] std::size_t out_features() const noexcept { return out_features_; }

private:
    std::size_t in_features_;
    std::size_t out_features_;
    Parameter weight_; ///< [out, in]
    Parameter bias_;   ///< [out]
    Tensor input_cache_;
    Workspace workspace_; ///< Wᵀ (forward) or dYᵀ (backward)
};

/// Element-wise rectified linear unit.
class ReLU final : public Layer {
public:
    [[nodiscard]] std::string name() const override { return "ReLU"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;

private:
    Tensor input_cache_;
};

/// Collapse all non-batch dimensions: [N, C, H, W] -> [N, C*H*W].
class Flatten final : public Layer {
public:
    [[nodiscard]] std::string name() const override { return "Flatten"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;

private:
    Shape input_shape_;
};

/// Pass-through used to mask out layers (paper App. C).
class Identity final : public Layer {
public:
    [[nodiscard]] std::string name() const override { return "Identity"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
};

/// Inverted dropout: at train time zero each activation with probability p
/// and scale survivors by 1/(1-p); identity at eval time.
class Dropout final : public Layer {
public:
    Dropout(double probability, std::uint64_t seed);

    [[nodiscard]] std::string name() const override { return "Dropout"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;

    [[nodiscard]] double probability() const noexcept { return probability_; }

private:
    double probability_;
    util::Rng rng_;
    Tensor mask_;
};

/// Channel-wise dropout for [N, C, H, W] inputs (PyTorch's Dropout2d):
/// entire feature maps are zeroed together.
class Dropout2d final : public Layer {
public:
    Dropout2d(double probability, std::uint64_t seed);

    [[nodiscard]] std::string name() const override { return "Dropout2d"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;

    [[nodiscard]] double probability() const noexcept { return probability_; }

private:
    double probability_;
    util::Rng rng_;
    Tensor mask_; ///< per-(n, c) keep mask expanded lazily in backward
};

} // namespace fptc::nn
