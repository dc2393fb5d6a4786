/**
 * @file
 * Parity tests for the compute-backend layer (core/backend.h): the
 * SimdBackend's gemm must be bit-identical across thread counts and
 * its gemmTransposedB, reduceRows and row maps bit-identical to
 * NaiveBackend at every thread count (gemmTransposedB also at every
 * SIMD level and on special values), OpCounts must not depend on the
 * installed backend, and the end-to-end CTA pipeline must produce
 * thread-count-invariant results and identical op accounting
 * whichever backend runs it.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/matrix.h"
#include "core/op_counter.h"
#include "core/rng.h"
#include "core/simd.h"
#include "cta/compressed_attention.h"
#include "nn/attention.h"
#include "nn/workload.h"

namespace {

using cta::core::Backend;
using cta::core::Index;
using cta::core::makeBackend;
using cta::core::Matrix;
using cta::core::NaiveBackend;
using cta::core::OpCounts;
using cta::core::Real;
using cta::core::Rng;
using cta::core::setActiveBackend;
using cta::core::SimdBackend;
using cta::core::SimdLevel;
using cta::core::Wide;

/** RAII guard restoring the previously active backend. */
class ScopedBackend
{
  public:
    explicit ScopedBackend(Backend *backend)
        : previous_(setActiveBackend(backend))
    {
    }
    ~ScopedBackend() { setActiveBackend(previous_); }

  private:
    Backend *previous_;
};

/** RAII guard restoring the previously forced SIMD level. */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level)
        : previous_(cta::core::setSimdLevel(level))
    {
    }
    ~ScopedSimdLevel() { cta::core::setSimdLevel(previous_); }

  private:
    SimdLevel previous_;
};

/** Every SIMD level this host can run, scalar first. */
std::vector<SimdLevel>
supportedSimdLevels()
{
    std::vector<SimdLevel> levels;
    for (const SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2,
                                  SimdLevel::Avx512, SimdLevel::Neon}) {
        if (cta::core::simdLevelSupported(level))
            levels.push_back(level);
    }
    return levels;
}

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(Real)) == 0;
}

/** Shapes straddling the serial-inline GEMM threshold, with tails
 *  that exercise the micro-kernel row / column block remainders. */
struct GemmShape
{
    Index m, k, n;
};

const std::vector<GemmShape> kShapes = {
    {1, 1, 1},   {3, 5, 7},    {17, 33, 9}, {64, 64, 64},
    {65, 63, 66}, {70, 128, 96}, {128, 96, 130},
};

TEST(BackendParityTest, GemmBitIdenticalAcrossThreadCounts)
{
    // The simd gemm runs FMA chains, so its reference is its own
    // single-thread result; naive bounds it by tolerance only.
    NaiveBackend naive;
    SimdBackend one(1);
    Rng rng(7);
    for (const auto &[m, k, n] : kShapes) {
        const Matrix a = Matrix::randomNormal(m, k, rng);
        const Matrix b = Matrix::randomNormal(k, n, rng);
        Matrix ref(m, n), naive_out(m, n);
        one.gemm(a, b, ref);
        naive.gemm(a, b, naive_out);
        EXPECT_LT(maxAbsDiff(ref, naive_out), 1e-3f)
            << "gemm " << m << "x" << k << "x" << n;
        for (const int threads : {2, 8}) {
            SimdBackend simd(threads);
            Matrix out(m, n);
            simd.gemm(a, b, out);
            EXPECT_TRUE(bitIdentical(out, ref))
                << "gemm " << m << "x" << k << "x" << n << " with "
                << threads << " threads";
        }
    }
}

/** Transposed-B shapes (m x k times (n x k)^T) beyond kShapes: above
 *  the serial cutover (4M MACs) so the pooled panel partition runs,
 *  column tails of 1..15 past the 16-wide panel, row tails past every
 *  micro-kernel height, a row block boundary (128) and m = 1. */
const std::vector<GemmShape> kTransBShapes = {
    {300, 64, 301}, {512, 64, 512}, {1, 64, 33},  {1, 7, 1},
    {2, 9, 17},     {3, 64, 15},    {5, 3, 16},   {9, 1, 31},
    {13, 40, 47},   {129, 17, 18},  {4, 0, 5},
};

/** N(0, 1) entries with every 5th replaced, in turn, by +-0,
 *  +-inf, denormals and magnitudes near the float range. */
Matrix
specialValueMatrix(Index rows, Index cols, Rng &rng)
{
    const Real inf = std::numeric_limits<Real>::infinity();
    const Real denorm = std::numeric_limits<Real>::denorm_min();
    const std::vector<Real> palette = {
        0.0f,      -0.0f,    inf,         -inf,   denorm,
        -denorm,   1e-40f,   -3e-39f,     3e38f,  -3.4e38f,
        1.5e19f,   -2e-19f,  1e-30f,      7e30f,
    };
    Matrix x = Matrix::randomNormal(rows, cols, rng);
    std::size_t next = 0;
    for (Index e = 0; e < x.size(); e += 5) {
        x.data()[e] = palette[next];
        next = (next + 1) % palette.size();
    }
    return x;
}

/**
 * Rows whose second half cancels the first: entry k of the first half
 * is +-2^e (e in [10, 30]), entry K-1-k its negation plus a small
 * N(0, 2^-20) residue. Against a B of ones the Wide partial sums reach
 * ~2^31 before cancelling to the residues, so the rounding of every
 * step reaches the float result: any change to the chain's order or
 * its intermediate roundings shows in the output bits.
 */
Matrix
cancellingMatrix(Index rows, Index cols, Rng &rng)
{
    Matrix x(rows, cols);
    for (Index i = 0; i < rows; ++i) {
        Real *row = x.row(i).data();
        for (Index k = 0; k < cols / 2; ++k) {
            const Real big = std::ldexp(
                rng.normal() > 0 ? 1.0f : -1.0f,
                10 + static_cast<int>(rng.uniform() * 21));
            row[k] = big;
            row[cols - 1 - k] =
                -big + std::ldexp(rng.normal(), -20);
        }
        if (cols % 2 == 1)
            row[cols / 2] = rng.normal();
    }
    return x;
}

TEST(BackendParityTest, GemmTransposedBBitIdenticalAcrossThreadCounts)
{
    // The Wide-chain panel kernel against the naive reference at
    // every ISA level and thread count: on random values, on special
    // values (where a product overflows float, underflows to a
    // denormal or meets inf * 0, the cast must still agree), and on
    // cancelling rows, where only the exact chain order reproduces
    // the bits.
    NaiveBackend naive;
    Rng rng(13);
    std::vector<GemmShape> shapes = kShapes;
    shapes.insert(shapes.end(), kTransBShapes.begin(),
                  kTransBShapes.end());
    enum class Input { Random, Special, Cancelling };
    for (const auto &[m, k, n] : shapes) {
        for (const Input input :
             {Input::Random, Input::Special, Input::Cancelling}) {
            const Matrix a = input == Input::Random
                                 ? Matrix::randomNormal(m, k, rng)
                             : input == Input::Special
                                 ? specialValueMatrix(m, k, rng)
                                 : cancellingMatrix(m, k, rng);
            const Matrix b = input == Input::Random
                                 ? Matrix::randomNormal(n, k, rng)
                             : input == Input::Special
                                 ? specialValueMatrix(n, k, rng)
                                 : Matrix(n, k, 1.0f);
            Matrix ref(m, n);
            naive.gemmTransposedB(a, b, ref);
            for (const SimdLevel level : supportedSimdLevels()) {
                ScopedSimdLevel level_guard(level);
                for (const int threads : {1, 2, 8}) {
                    SimdBackend simd(threads);
                    Matrix out(m, n);
                    simd.gemmTransposedB(a, b, out);
                    EXPECT_TRUE(bitIdentical(out, ref))
                        << "gemmTransB " << m << "x" << k << "x" << n
                        << " input " << static_cast<int>(input) << " at "
                        << cta::core::simdLevelName(level) << " with "
                        << threads << " threads";
                }
            }
        }
    }
}

TEST(BackendParityTest, ReduceRowsBitIdenticalAcrossThreadCounts)
{
    // Float reductions are order-sensitive; the shared chunking policy
    // makes the partial-sum tree identical in both backends.
    Rng rng(3);
    const Matrix x = Matrix::randomNormal(257, 33, rng);
    NaiveBackend naive;
    const auto body = [&](Index begin, Index end) {
        Wide sum = 0;
        for (Index i = begin; i < end; ++i)
            for (Index j = 0; j < x.cols(); ++j)
                sum += static_cast<Wide>(x(i, j)) * x(i, j);
        return sum;
    };
    const Wide ref = naive.reduceRows(x.rows(), body);
    for (const int threads : {1, 2, 8}) {
        SimdBackend simd(threads);
        EXPECT_EQ(simd.reduceRows(x.rows(), body), ref)
            << threads << " threads";
    }
}

TEST(BackendParityTest, FreeFunctionKernelsMatchUnderEitherBackend)
{
    // matmulTransB and frobeniusNorm dispatch to gemmTransposedB and
    // reduceRows, which the simd backend shares bit-for-bit with
    // naive; matmul runs the FMA-chain gemm and matches by tolerance.
    Rng rng(19);
    const Matrix a = Matrix::randomNormal(70, 40, rng);
    const Matrix b = Matrix::randomNormal(40, 50, rng);
    const Matrix bt = transpose(b);

    NaiveBackend naive;
    SimdBackend simd(4);

    Matrix prod_naive, prod_simd, prod_t_naive, prod_t_simd;
    Real norm_naive = 0, norm_simd = 0;
    {
        ScopedBackend guard(&naive);
        prod_naive = matmul(a, b);
        prod_t_naive = matmulTransB(a, bt);
        norm_naive = frobeniusNorm(a);
    }
    {
        ScopedBackend guard(&simd);
        prod_simd = matmul(a, b);
        prod_t_simd = matmulTransB(a, bt);
        norm_simd = frobeniusNorm(a);
    }
    EXPECT_LT(maxAbsDiff(prod_naive, prod_simd), 1e-3f);
    EXPECT_TRUE(bitIdentical(prod_t_naive, prod_t_simd));
    EXPECT_EQ(norm_naive, norm_simd);
}

TEST(BackendParityTest, OpCountsIndependentOfBackend)
{
    Rng rng(23);
    const Matrix a = Matrix::randomNormal(48, 32, rng);
    const Matrix b = Matrix::randomNormal(32, 24, rng);

    NaiveBackend naive;
    SimdBackend simd(8);

    OpCounts counts_naive, counts_simd;
    {
        ScopedBackend guard(&naive);
        (void)matmul(a, b, &counts_naive);
        (void)matmulTransB(a, transpose(b), &counts_naive);
        (void)add(a, a, &counts_naive);
        (void)scale(a, 2.0f, &counts_naive);
    }
    {
        ScopedBackend guard(&simd);
        (void)matmul(a, b, &counts_simd);
        (void)matmulTransB(a, transpose(b), &counts_simd);
        (void)add(a, a, &counts_simd);
        (void)scale(a, 2.0f, &counts_simd);
    }
    EXPECT_EQ(counts_naive, counts_simd);
}

TEST(BackendFactoryTest, ParsesSpecStrings)
{
    EXPECT_EQ(makeBackend("naive")->name(), "naive");
    EXPECT_EQ(makeBackend("simd:3")->threadCount(), 3);
    EXPECT_GE(makeBackend("simd")->threadCount(), 1);
}

TEST(BackendFactoryDeathTest, RejectsMalformedThreadCounts)
{
    // Regression: atoi accepted trailing garbage, so
    // CTA_BACKEND=simd:8x silently ran with 8 threads.
    EXPECT_EXIT(makeBackend("simd:8x"), ::testing::ExitedWithCode(1),
                "malformed CTA_BACKEND thread count");
    EXPECT_EXIT(makeBackend("simd:abc"), ::testing::ExitedWithCode(1),
                "malformed CTA_BACKEND thread count");
    EXPECT_EXIT(makeBackend("simd:"), ::testing::ExitedWithCode(1),
                "empty CTA_BACKEND thread count");
    EXPECT_EXIT(makeBackend("simd:0"), ::testing::ExitedWithCode(1),
                "outside");
    EXPECT_EXIT(makeBackend("simd:65"), ::testing::ExitedWithCode(1),
                "outside");
}

TEST(BackendFactoryDeathTest, RejectsParallelSpecsAsUnknown)
{
    // "parallel" names no backend: its specs must panic as unknown
    // names, never run silently as another backend.
    EXPECT_DEATH(makeBackend("parallel"), "unknown backend 'parallel'");
    EXPECT_DEATH(makeBackend("parallel:4"),
                 "unknown backend 'parallel:4'");
    EXPECT_DEATH(makeBackend("parallel:8x"),
                 "unknown backend 'parallel:8x'");
}

/** End-to-end CTA run under a specific backend. */
cta::alg::CtaResult
runCta(Backend *backend)
{
    ScopedBackend guard(backend);
    Rng rng(41);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(32, 16, rng);
    cta::nn::WorkloadProfile profile;
    profile.seqLen = 192;
    profile.tokenDim = 32;
    profile.coarseClusters = 8;
    profile.fineClusters = 6;
    profile.noiseScale = 0.02f;
    cta::nn::WorkloadGenerator gen(profile, 99);
    const Matrix tokens = gen.sampleTokens();
    cta::alg::CtaConfig config;
    return ctaAttention(tokens, tokens, params, config);
}

TEST(BackendEndToEndTest, SimdBackendThreadCountInvariantAndClose)
{
    // The simd backend's GEMM is a different rounding chain than
    // naive (FMA vs mul+add), so the end-to-end outputs are compared
    // across ITS OWN thread counts bitwise, and against naive only by
    // tolerance.
    SimdBackend one(1);
    SimdBackend eight(8);
    NaiveBackend naive;

    const auto ref = runCta(&one);
    const auto multi = runCta(&eight);
    EXPECT_TRUE(bitIdentical(multi.output, ref.output));
    EXPECT_EQ(multi.totalOps(), ref.totalOps());

    const auto exact = runCta(&naive);
    EXPECT_EQ(exact.totalOps(), ref.totalOps());
    EXPECT_EQ(exact.stats.k0, ref.stats.k0);
    EXPECT_EQ(exact.stats.k1, ref.stats.k1);
    EXPECT_LT(maxAbsDiff(ref.output, exact.output), 1e-3f);
}

/** Best-of wall time of @p backend's 256^3 GEMM over @p reps runs. */
double
bestGemmSeconds(Backend &backend, const Matrix &a, const Matrix &b,
                Matrix &c, int reps)
{
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep) {
        c.fill(0);
        const auto t0 = std::chrono::steady_clock::now();
        backend.gemm(a, b, c);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

TEST(BackendScalingTest, MoreThreadsNeverSlowerAt256)
{
    // Regression for the negative-scaling bug: 8 threads used to run
    // a 256^3 GEMM ~30% SLOWER than 1 (fork-join overhead on
    // oversubscribed hosts, re-dispatched per row block). With the
    // size-aware serial cutover and the oversubscription inline
    // shortcut, 8 threads must never lose to 1 beyond noise — and the
    // outputs must stay bit-exact, which is what makes the cutover
    // legal in the first place.
    Rng rng(51);
    const Index n = 256;
    const Matrix a = Matrix::randomNormal(n, n, rng);
    const Matrix b = Matrix::randomNormal(n, n, rng);
    SimdBackend one(1);
    SimdBackend eight(8);
    Matrix c1(n, n), c8(n, n);

    // Warm up (page faults, pool spin-up), then best-of to shed
    // scheduler noise. 1.5x tolerance absorbs shared-host jitter
    // while still catching the ~permanent regressions this guards.
    (void)bestGemmSeconds(one, a, b, c1, 1);
    (void)bestGemmSeconds(eight, a, b, c8, 1);
    const double t1 = bestGemmSeconds(one, a, b, c1, 5);
    const double t8 = bestGemmSeconds(eight, a, b, c8, 5);
    EXPECT_TRUE(bitIdentical(c8, c1));
    EXPECT_LE(t8, 1.5 * t1)
        << "simd:8 " << t8 << "s vs simd:1 " << t1 << "s";
}

} // namespace
