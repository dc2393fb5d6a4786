/**
 * @file
 * Tests for the LeOPArd baseline reconstruction: threshold
 * calibration, pruning behaviour, early-termination accounting and
 * approximation quality.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "cta/error.h"
#include "leopard/leopard_accel.h"
#include "leopard/leopard_attention.h"
#include "nn/workload.h"

namespace {

using cta::core::Backend;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::OpCounts;
using cta::core::Real;
using cta::core::Rng;
using cta::core::Wide;
using cta::leopard::calibrateLeopard;
using cta::leopard::LeopardConfig;
using cta::leopard::LeopardResult;
using cta::nn::AttentionHeadParams;

struct Fixture
{
    Matrix tokens;
    AttentionHeadParams params;

    Fixture()
        : params([] {
              Rng rng(1);
              return AttentionHeadParams::randomInit(32, 16, rng);
          }())
    {
        cta::nn::WorkloadProfile profile;
        profile.seqLen = 128;
        profile.tokenDim = 32;
        cta::nn::WorkloadGenerator gen(profile, 2);
        tokens = gen.sampleTokens();
    }
};

TEST(LeopardTest, OutputShapeAndFiniteness)
{
    Fixture fx;
    const LeopardResult r = leopardAttention(
        fx.tokens, fx.tokens, fx.params, LeopardConfig{});
    EXPECT_EQ(r.output.rows(), 128);
    EXPECT_EQ(r.output.cols(), 16);
    EXPECT_GT(r.keepRatio, 0.0f);
    EXPECT_LE(r.keepRatio, 1.0f);
}

TEST(LeopardTest, LargeMarginIsNearlyExact)
{
    Fixture fx;
    LeopardConfig config;
    config.margin = 50.0f; // keeps everything
    const LeopardResult r =
        leopardAttention(fx.tokens, fx.tokens, fx.params, config);
    const Matrix exact =
        exactAttention(fx.tokens, fx.tokens, fx.params);
    EXPECT_NEAR(r.keepRatio, 1.0f, 1e-6f);
    EXPECT_LT(relativeError(r.output, exact), 1e-4f);
}

TEST(LeopardTest, SmallerMarginPrunesHarder)
{
    Fixture fx;
    LeopardConfig mild, hard;
    mild.margin = 6.0f;
    hard.margin = 1.5f;
    const auto r_mild =
        leopardAttention(fx.tokens, fx.tokens, fx.params, mild);
    const auto r_hard =
        leopardAttention(fx.tokens, fx.tokens, fx.params, hard);
    EXPECT_LT(r_hard.keepRatio, r_mild.keepRatio);
    EXPECT_LT(r_hard.bitWorkRatio, r_mild.bitWorkRatio);
}

TEST(LeopardTest, PruningStaysAccurate)
{
    // Keys below rowmax - 4.6 carry < 1% relative softmax weight
    // each, so the output barely moves.
    Fixture fx;
    const LeopardResult r = leopardAttention(
        fx.tokens, fx.tokens, fx.params, LeopardConfig{});
    const Matrix exact =
        exactAttention(fx.tokens, fx.tokens, fx.params);
    const auto err = cta::alg::compareOutputs(r.output, exact);
    EXPECT_GT(err.meanCosine, 0.995f);
}

TEST(LeopardTest, BitWorkRatioBounds)
{
    Fixture fx;
    LeopardConfig config;
    config.margin = 2.0f;
    config.scoreBits = 12;
    config.earlyTerminationBits = 4;
    const auto r =
        leopardAttention(fx.tokens, fx.tokens, fx.params, config);
    // Ratio in [early/score, 1].
    EXPECT_GE(r.bitWorkRatio, 4.0f / 12.0f - 1e-6f);
    EXPECT_LE(r.bitWorkRatio, 1.0f + 1e-6f);
    // Consistency: ratio = keep + (1-keep) * early/score.
    const Real expect =
        r.keepRatio + (1.0f - r.keepRatio) * 4.0f / 12.0f;
    EXPECT_NEAR(r.bitWorkRatio, expect, 1e-4f);
}

TEST(LeopardTest, CalibrationMeetsMassTarget)
{
    Fixture fx;
    const LeopardConfig config =
        calibrateLeopard(fx.tokens, fx.params, 0.99f);
    // Verify retained softmax mass on the sample.
    const auto trace = cta::nn::exactAttentionTraced(
        fx.tokens, fx.tokens, fx.params);
    double mass = 0;
    for (Index i = 0; i < 128; ++i) {
        Real row_max = trace.scores(i, 0);
        for (Index j = 1; j < 128; ++j)
            row_max = std::max(row_max, trace.scores(i, j));
        for (Index j = 0; j < 128; ++j)
            if (trace.scores(i, j) >= row_max - config.margin)
                mass += trace.probs(i, j);
    }
    EXPECT_GE(mass / 128.0, 0.989);
}

TEST(LeopardTest, TighterMassTargetSmallerMargin)
{
    Fixture fx;
    const auto strict = calibrateLeopard(fx.tokens, fx.params, 0.999f);
    const auto loose = calibrateLeopard(fx.tokens, fx.params, 0.90f);
    EXPECT_LE(loose.margin, strict.margin);
}

TEST(LeopardTest, QuerySpecificPruningVaries)
{
    // Different queries keep different key counts — the defining
    // query-specific behaviour CTA's critique targets. Check the
    // aggregate is strictly between the extremes.
    Fixture fx;
    LeopardConfig config;
    config.margin = 2.5f;
    const auto r =
        leopardAttention(fx.tokens, fx.tokens, fx.params, config);
    EXPECT_GT(r.keepRatio, 0.01f);
    EXPECT_LT(r.keepRatio, 0.99f);
}

// ---------------------------------------------------------------
// Reference: the LeOPArd score pass and calibration as first
// written — per-element Matrix reads, one Wide chain per score, each
// survivor's exp computed twice — kept here so the optimized model
// is held to bit-identical outputs, ratios and OpCounts.
// ---------------------------------------------------------------

LeopardConfig
referenceCalibrate(const Matrix &sample_tokens,
                   const AttentionHeadParams &params, Real mass_target)
{
    const auto trace = cta::nn::exactAttentionTraced(
        sample_tokens, sample_tokens, params);
    LeopardConfig config;
    for (const Real margin :
         {1.0f, 1.5f, 2.0f, 2.5f, 3.0f, 3.5f, 4.0f, 4.6f, 5.5f,
          6.9f}) {
        Wide kept_mass = 0;
        const Index m = trace.scores.rows();
        for (Index i = 0; i < m; ++i) {
            Real row_max = trace.scores(i, 0);
            for (Index j = 1; j < trace.scores.cols(); ++j)
                row_max = std::max(row_max, trace.scores(i, j));
            for (Index j = 0; j < trace.scores.cols(); ++j) {
                if (trace.scores(i, j) >= row_max - margin)
                    kept_mass += trace.probs(i, j);
            }
        }
        kept_mass /= m;
        if (kept_mass >= mass_target) {
            config.margin = margin;
            return config;
        }
    }
    config.margin = 6.9f;
    return config;
}

LeopardResult
referenceLeopard(const Matrix &xq, const Matrix &xkv,
                 const AttentionHeadParams &params,
                 const LeopardConfig &config)
{
    LeopardResult result;
    result.m = xq.rows();
    result.n = xkv.rows();
    const Matrix q = params.wq.forward(xq, &result.linearOps);
    const Matrix k = params.wk.forward(xkv, &result.linearOps);
    const Matrix v = params.wv.forward(xkv, &result.linearOps);
    result.d = q.cols();
    const Real inv_sqrt_d =
        1.0f / std::sqrt(static_cast<Real>(result.d));
    result.output = Matrix(result.m, result.d);
    const std::uint64_t full_planes =
        static_cast<std::uint64_t>(result.m) *
        static_cast<std::uint64_t>(result.n) *
        static_cast<std::uint64_t>(config.scoreBits);

    // The model's query chunks, partials summed in chunk order.
    Wide keep_sum = 0;
    std::uint64_t bit_planes_used = 0;
    for (const auto &[begin, end] :
         cta::core::chunkSpans(0, result.m, /*grain=*/8)) {
        Wide chunk_keep = 0;
        std::vector<Real> scores(static_cast<std::size_t>(result.n));
        for (Index i = begin; i < end; ++i) {
            Real row_max = -1e30f;
            for (Index j = 0; j < result.n; ++j) {
                Wide dot = 0;
                for (Index c = 0; c < result.d; ++c)
                    dot += static_cast<Wide>(q(i, c)) * k(j, c);
                scores[static_cast<std::size_t>(j)] =
                    static_cast<Real>(dot) * inv_sqrt_d;
                row_max = std::max(row_max,
                                   scores[static_cast<std::size_t>(j)]);
            }
            const Real threshold = row_max - config.margin;
            Wide denom = 0;
            Index kept = 0;
            std::vector<bool> keep(static_cast<std::size_t>(result.n));
            for (Index j = 0; j < result.n; ++j) {
                const bool survives =
                    scores[static_cast<std::size_t>(j)] >= threshold;
                keep[static_cast<std::size_t>(j)] = survives;
                bit_planes_used += survives
                    ? static_cast<std::uint64_t>(config.scoreBits)
                    : static_cast<std::uint64_t>(
                          config.earlyTerminationBits);
                if (!survives)
                    continue;
                ++kept;
                denom += std::exp(
                    scores[static_cast<std::size_t>(j)] - row_max);
            }
            chunk_keep += static_cast<Wide>(kept) / result.n;
            result.attnOps.exps += 2ull * static_cast<std::uint64_t>(kept);
            result.attnOps.adds += static_cast<std::uint64_t>(kept);
            const Real inv_denom = static_cast<Real>(1.0 / denom);
            for (Index j = 0; j < result.n; ++j) {
                if (!keep[static_cast<std::size_t>(j)])
                    continue;
                const Real p =
                    std::exp(scores[static_cast<std::size_t>(j)] -
                             row_max) * inv_denom;
                for (Index c = 0; c < result.d; ++c)
                    result.output(i, c) += p * v(j, c);
                result.attnOps.macs +=
                    static_cast<std::uint64_t>(result.d);
                result.attnOps.muls += 1;
            }
            result.attnOps.divs += 1;
        }
        keep_sum += chunk_keep;
    }
    result.approxOps.macs = static_cast<std::uint64_t>(
        static_cast<Wide>(bit_planes_used) / config.scoreBits *
        static_cast<Wide>(result.d));
    result.approxOps.cmps = static_cast<std::uint64_t>(result.m) *
                            static_cast<std::uint64_t>(result.n);
    result.keepRatio = static_cast<Real>(keep_sum / result.m);
    result.bitWorkRatio = static_cast<Real>(
        static_cast<Wide>(bit_planes_used) /
        static_cast<Wide>(full_planes));
    return result;
}

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(Real)) == 0;
}

TEST(LeopardReferenceTest, BitIdenticalToReferenceUnderEveryBackend)
{
    // A 128-token head, and a 300-token head whose 300 x 300 x 64
    // score GEMM exceeds the serial cutover (the pooled path runs).
    struct Case
    {
        Index seqLen, dHead;
    };
    for (const Case c : {Case{128, 16}, Case{300, 64}}) {
        Rng rng(31);
        const auto params =
            AttentionHeadParams::randomInit(32, c.dHead, rng);
        cta::nn::WorkloadProfile profile;
        profile.seqLen = c.seqLen;
        profile.tokenDim = 32;
        cta::nn::WorkloadGenerator gen(profile, 32);
        const Matrix tokens = gen.sampleTokens();
        for (const std::string spec : {"naive", "simd:1", "simd:8"}) {
            const auto backend = cta::core::makeBackend(spec);
            Backend *previous =
                cta::core::setActiveBackend(backend.get());
            for (const Real target : {0.9f, 0.99f, 0.999f}) {
                EXPECT_EQ(calibrateLeopard(tokens, params,
                                           target)
                              .margin,
                          referenceCalibrate(tokens, params, target)
                              .margin);
            }
            for (const Real margin : {1.5f, 4.6f, 50.0f}) {
                LeopardConfig config;
                config.margin = margin;
                const LeopardResult got =
                    leopardAttention(tokens, tokens, params, config);
                const LeopardResult want =
                    referenceLeopard(tokens, tokens, params, config);
                const std::string where = spec + " n=" +
                                          std::to_string(c.seqLen) +
                                          " margin=" +
                                          std::to_string(margin);
                EXPECT_TRUE(bitIdentical(got.output, want.output))
                    << where;
                EXPECT_EQ(got.keepRatio, want.keepRatio) << where;
                EXPECT_EQ(got.bitWorkRatio, want.bitWorkRatio) << where;
                EXPECT_EQ(got.attnOps, want.attnOps) << where;
                EXPECT_EQ(got.approxOps, want.approxOps) << where;
                EXPECT_EQ(got.linearOps, want.linearOps) << where;
            }
            cta::core::setActiveBackend(previous);
        }
    }
}

// The accelerator model divides by freqGhz and sizes K/V SRAM by
// maxSeqLen; degenerate values must die at construction.
TEST(LeopardAccelTest, RejectsDegenerateHwConfig)
{
    using cta::leopard::LeopardAccelerator;
    using cta::leopard::LeopardHwConfig;
    using cta::sim::TechParams;
    auto zero_freq = LeopardHwConfig::paperDefault();
    zero_freq.freqGhz = 0;
    EXPECT_DEATH(LeopardAccelerator(zero_freq,
                                    TechParams::smic40nmClass()),
                 "LeOPArd clock frequency must be positive");
    auto zero_mem = LeopardHwConfig::paperDefault();
    zero_mem.maxSeqLen = 0;
    EXPECT_DEATH(LeopardAccelerator(zero_mem,
                                    TechParams::smic40nmClass()),
                 "LeOPArd memory sizing must be positive");
    auto zero_lanes = LeopardHwConfig::paperDefault();
    zero_lanes.keyLanes = 0;
    EXPECT_DEATH(LeopardAccelerator(zero_lanes,
                                    TechParams::smic40nmClass()),
                 "invalid LeOPArd configuration");
}

} // namespace
