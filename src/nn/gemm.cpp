#include "fptc/nn/gemm.hpp"

#include <cstdint>
#include <cstring>

namespace fptc::nn {

namespace {

// Four floats: one SSE register on plain x86-64 (NEON on arm64), so a tile
// of accumulators stays in registers.  Only lane-wise multiply and add are
// used, so every lane does exactly the scalar arithmetic of its own output
// column.
typedef float Vec4 __attribute__((vector_size(4 * sizeof(float))));

constexpr std::size_t kRows = 4; ///< tile height: rows of C held in registers
constexpr std::size_t kCols = 8; ///< tile width: two Vec4 per row
constexpr std::size_t kChunk = 256; ///< k steps listed at a time

inline Vec4 load4(const float* p) noexcept
{
    Vec4 v{};
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void store4(float* p, Vec4 v) noexcept
{
    std::memcpy(p, &v, sizeof v);
}

/// The first n (1..4) floats of p, zero-padded.  Built in registers: going
/// through a stack buffer would stall every load on store forwarding.
inline Vec4 load_part(const float* p, std::size_t n) noexcept
{
    switch (n) {
    case 1: return Vec4{p[0], 0.0f, 0.0f, 0.0f};
    case 2: return Vec4{p[0], p[1], 0.0f, 0.0f};
    case 3: return Vec4{p[0], p[1], p[2], 0.0f};
    default: return load4(p);
    }
}

inline void store_part(float* p, Vec4 v, std::size_t n) noexcept
{
    switch (n) {
    case 1: p[0] = v[0]; break;
    case 2: p[0] = v[0]; p[1] = v[1]; break;
    case 3: p[0] = v[0]; p[1] = v[1]; p[2] = v[2]; break;
    default: store4(p, v); break;
    }
}

/// Eight floats of a row as two Vec4, or its first `cols` zero-padded to
/// eight when not Full.
template <bool Full>
inline void load8(const float* p, std::size_t cols, Vec4& lo, Vec4& hi) noexcept
{
    if constexpr (Full) {
        lo = load4(p);
        hi = load4(p + 4);
    } else {
        lo = load_part(p, cols);
        hi = cols > 4 ? load_part(p + 4, cols - 4) : Vec4{};
    }
}

template <bool Full>
inline void store8(float* p, std::size_t cols, Vec4 lo, Vec4 hi) noexcept
{
    if constexpr (Full) {
        store4(p, lo);
        store4(p + 4, hi);
    } else {
        store_part(p, lo, cols);
        if (cols > 4) {
            store_part(p + 4, hi, cols - 4);
        }
    }
}

/// One tile of MR rows x `cols` columns (cols == kCols when Full) of C,
/// accumulated in registers over the listed k steps, in order.
template <std::size_t MR, bool Full>
void tile(std::size_t cols, std::size_t N, std::size_t K, const float* a, const float* b,
          float* c, const std::uint32_t* steps, std::size_t count) noexcept
{
    Vec4 lo[MR]{};
    Vec4 hi[MR]{};
    for (std::size_t r = 0; r < MR; ++r) {
        load8<Full>(c + r * N, cols, lo[r], hi[r]);
    }
    for (std::size_t t = 0; t < count; ++t) {
        const std::size_t k = steps[t];
        Vec4 b_lo{};
        Vec4 b_hi{};
        load8<Full>(b + k * N, cols, b_lo, b_hi);
        for (std::size_t r = 0; r < MR; ++r) {
            const float av = a[r * K + k];
            lo[r] += av * b_lo;
            hi[r] += av * b_hi;
        }
    }
    for (std::size_t r = 0; r < MR; ++r) {
        store8<Full>(c + r * N, cols, lo[r], hi[r]);
    }
}

/// Every column panel of rows [0, MR) over the listed k steps.
template <std::size_t MR>
void panels(std::size_t N, std::size_t K, const float* a, const float* B, float* c,
            const std::uint32_t* steps, std::size_t count) noexcept
{
    if (count == 0) {
        return;
    }
    std::size_t j = 0;
    for (; j + kCols <= N; j += kCols) {
        tile<MR, true>(kCols, N, K, a, B + j, c + j, steps, count);
    }
    if (j < N) {
        tile<MR, false>(N - j, N, K, a, B + j, c + j, steps, count);
    }
}

/// Append to `steps` every k in [k0, k1) where some row of A is nonzero,
/// without a branch per step, so a random sparsity pattern costs no
/// mispredictions.  Returns the new count.
template <std::size_t MR>
std::size_t list_steps(std::size_t K, std::size_t k0, std::size_t k1, const float* a,
                       std::uint32_t* steps) noexcept
{
    std::size_t count = 0;
    for (std::size_t k = k0; k < k1; ++k) {
        std::uint32_t nonzero = 0;
        for (std::size_t r = 0; r < MR; ++r) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, a + r * K + k, sizeof bits);
            nonzero |= bits << 1; // ignore the sign: -0 is zero too
        }
        steps[count] = static_cast<std::uint32_t>(k);
        count += nonzero != 0 ? 1 : 0;
    }
    return count;
}

/// Rows [0, MR) of A and C, a chunk of k at a time.  The chunk's steps
/// where some row of A is nonzero are listed first.  When the rows rarely
/// share nonzero steps (ReLU and max-pool gradients) each row then runs
/// alone over its own list; otherwise the MR rows run together over the
/// shared one.  Either way every C element sees its nonzero products in k
/// order.
template <std::size_t MR>
void row_block(std::size_t N, std::size_t K, const float* a, const float* B, float* c) noexcept
{
    std::uint32_t steps[kChunk];
    for (std::size_t k0 = 0; k0 < K; k0 += kChunk) {
        const std::size_t k1 = k0 + kChunk < K ? k0 + kChunk : K;
        const std::size_t shared = list_steps<MR>(K, k0, k1, a, steps);
        std::size_t own_total = 0;
        for (std::size_t t = 0; t < shared; ++t) {
            for (std::size_t r = 0; r < MR; ++r) {
                own_total += a[r * K + steps[t]] != 0.0f ? 1 : 0;
            }
        }
        // A lone-row step costs about a third of an MR = 4 step.
        if (MR > 1 && own_total < 3 * shared) {
            for (std::size_t r = 0; r < MR; ++r) {
                const std::size_t own = list_steps<1>(K, k0, k1, a + r * K, steps);
                panels<1>(N, K, a + r * K, B, c + r * N, steps, own);
            }
        } else {
            panels<MR>(N, K, a, B, c, steps, shared);
        }
    }
}

} // namespace

void gemm_accumulate(std::size_t M, std::size_t N, std::size_t K, const float* A, const float* B,
                     float* C) noexcept
{
    std::size_t i = 0;
    for (; i + kRows <= M; i += kRows) {
        row_block<kRows>(N, K, A + i * K, B, C + i * N);
    }
    switch (M - i) {
    case 3: row_block<3>(N, K, A + i * K, B, C + i * N); break;
    case 2: row_block<2>(N, K, A + i * K, B, C + i * N); break;
    case 1: row_block<1>(N, K, A + i * K, B, C + i * N); break;
    default: break;
    }
}

void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst) noexcept
{
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

float* Workspace::reserve(std::size_t floats)
{
    if (floats > data_.size()) {
        charge_.grow((floats - data_.size()) * sizeof(float));
        data_.resize(floats);
    }
    return data_.data();
}

} // namespace fptc::nn
