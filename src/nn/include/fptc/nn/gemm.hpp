// The one matrix-product kernel under Conv2d and Linear, plus the
// layer-owned scratch buffer their lowerings use.
//
// Every dense product of the CNN layers (conv forward / dW / dX via im2col,
// Linear forward / dW / dX) is phrased as C += A·B over row-major matrices
// and runs through gemm_accumulate.  The kernel keeps a 4x8 tile of C in
// registers across the k loop and vectorises across output columns, never
// across k: each C element receives its products one at a time in
// k = 0..K-1 order, exactly as a scalar `c += a * b` loop would.  That is
// what lets the layers promise byte-identical results against the scalar
// reference loops (tests/nn_reference.hpp) — see DESIGN.md "Compute kernels".
#pragma once

#include "fptc/util/membudget.hpp"

#include <cstddef>
#include <vector>

namespace fptc::nn {

/// C[M x N] += A[M x K] · B[K x N], all row-major and densely packed.
///
/// Column j of row i accumulates A[i][k] * B[k][j] for k = 0..K-1 in order,
/// starting from the value already in C (a bias, a running gradient, or 0).
/// Zero entries of A are skipped: only the steps where a tile's rows are
/// nonzero run, and rows that rarely share such steps (ReLU / max-pool
/// gradients) run one at a time over their own steps, so sparse A costs
/// proportionally less.  A zero entry that is not skipped adds an exact ±0,
/// which leaves any accumulator that did not start as -0 unchanged.  Results
/// therefore equal the scalar loop bit for bit whenever B is finite.
void gemm_accumulate(std::size_t M, std::size_t N, std::size_t K, const float* A, const float* B,
                     float* C) noexcept;

/// dst[cols x rows] = transpose of src[rows x cols].
void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst) noexcept;

/// A layer's reusable float scratch, charged to the MemBudget: it grows to
/// the largest request seen, never shrinks, and is released with its owner.
class Workspace {
public:
    /// At least `floats` floats (contents unspecified).  Throws
    /// util::BudgetExceeded, without allocating, when growth is refused.
    [[nodiscard]] float* reserve(std::size_t floats);

private:
    util::Charge charge_{0, "nn::Workspace"};
    std::vector<float> data_;
};

} // namespace fptc::nn
