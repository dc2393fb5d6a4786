/**
 * @file
 * Unit tests for the ELSA baseline reconstruction: sign hashing,
 * candidate filtering behaviour and approximation quality.
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
#include "core/stats.h"
#include "cta/error.h"
#include "elsa/elsa_attention.h"
#include "elsa/sign_hash.h"
#include "nn/workload.h"

namespace {

using cta::core::Backend;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;
using cta::core::Wide;
using cta::elsa::ElsaConfig;
using cta::elsa::ElsaPreset;
using cta::elsa::ElsaResult;
using cta::elsa::SignatureMatrix;
using cta::elsa::SignHashParams;
using cta::nn::AttentionHeadParams;

TEST(SignatureMatrixTest, BitSetAndGet)
{
    SignatureMatrix sig(2, 70); // forces two 64-bit words per row
    sig.setBit(0, 0, true);
    sig.setBit(0, 69, true);
    sig.setBit(1, 69, true);
    EXPECT_TRUE(sig.bit(0, 0));
    EXPECT_TRUE(sig.bit(0, 69));
    EXPECT_FALSE(sig.bit(0, 1));
    EXPECT_EQ(sig.hamming(0, 1), 1); // differ only in bit 0
}

TEST(SignatureMatrixTest, HammingIsSymmetricAndZeroOnSelf)
{
    Rng rng(1);
    SignatureMatrix sig(3, 64);
    for (Index r = 0; r < 3; ++r)
        for (Index b = 0; b < 64; ++b)
            sig.setBit(r, b, rng.bernoulli(0.5f));
    EXPECT_EQ(sig.hamming(0, 0), 0);
    EXPECT_EQ(sig.hamming(0, 1), sig.hamming(1, 0));
}

TEST(SignHashTest, ParallelVectorsShareSignature)
{
    Rng rng(2);
    const SignHashParams params = SignHashParams::sample(64, 16, rng);
    Matrix x(2, 16);
    for (Index j = 0; j < 16; ++j) {
        x(0, j) = rng.normal();
        x(1, j) = 3.0f * x(0, j); // same direction
    }
    const SignatureMatrix sig = signHash(x, params);
    EXPECT_EQ(sig.hamming(0, 1), 0);
}

TEST(SignHashTest, OppositeVectorsAllBitsDiffer)
{
    Rng rng(3);
    const SignHashParams params = SignHashParams::sample(64, 16, rng);
    Matrix x(2, 16);
    for (Index j = 0; j < 16; ++j) {
        x(0, j) = rng.normal();
        x(1, j) = -x(0, j);
    }
    const SignatureMatrix sig = signHash(x, params);
    // Opposite signs except on measure-zero boundaries.
    EXPECT_GE(sig.hamming(0, 1), 62);
}

TEST(SignHashTest, HammingEstimatesAngle)
{
    // Orthogonal vectors should land near kappa/2 Hamming distance.
    Rng rng(4);
    const SignHashParams params =
        SignHashParams::sample(256, 32, rng);
    Matrix x(2, 32);
    x(0, 0) = 1.0f;
    x(1, 1) = 1.0f;
    const SignatureMatrix sig = signHash(x, params);
    EXPECT_NEAR(static_cast<double>(sig.hamming(0, 1)), 128.0, 30.0);
}

TEST(EstimateDotTest, Endpoints)
{
    EXPECT_NEAR(cta::elsa::estimateDot(0, 64, 2.0f, 3.0f), 6.0f,
                1e-5f);
    EXPECT_NEAR(cta::elsa::estimateDot(64, 64, 2.0f, 3.0f), -6.0f,
                1e-5f);
    EXPECT_NEAR(cta::elsa::estimateDot(32, 64, 2.0f, 3.0f), 0.0f,
                1e-5f);
}

TEST(SignatureMatrixTest, CrossMatrixHammingMatchesBitCounting)
{
    // Widths on, below and past a word boundary; the popcount over
    // words must equal the bit-by-bit count of differing bits.
    for (const Index bits : {1, 63, 64, 65, 128, 130}) {
        Rng rng(static_cast<std::uint64_t>(bits));
        SignatureMatrix qs(5, bits), ks(7, bits);
        for (Index b = 0; b < bits; ++b) {
            for (Index r = 0; r < 5; ++r)
                qs.setBit(r, b, rng.bernoulli(0.5f));
            for (Index r = 0; r < 7; ++r)
                ks.setBit(r, b, rng.bernoulli(0.5f));
        }
        for (Index i = 0; i < 5; ++i) {
            for (Index j = 0; j < 7; ++j) {
                Index expect = 0;
                for (Index b = 0; b < bits; ++b)
                    expect += qs.bit(i, b) != ks.bit(j, b) ? 1 : 0;
                EXPECT_EQ(qs.hamming(i, ks, j), expect)
                    << bits << " bits, rows " << i << "," << j;
            }
        }
        EXPECT_EQ(qs.hamming(1, 3), qs.hamming(1, qs, 3));
    }
}

TEST(EstimateDotTest, CosineTableMatchesEstimateDot)
{
    for (const Index kappa : {1, 7, 64, 128}) {
        const std::vector<Real> table =
            cta::elsa::hammingCosineTable(kappa);
        ASSERT_EQ(table.size(), static_cast<std::size_t>(kappa + 1));
        for (Index h = 0; h <= kappa; ++h) {
            for (const auto &[nq, nk] :
                 {std::pair{1.0f, 1.0f}, std::pair{2.5f, 0.3f},
                  std::pair{1e-3f, 7e4f}}) {
                EXPECT_EQ(nq * nk * table[static_cast<std::size_t>(h)],
                          cta::elsa::estimateDot(h, kappa, nq, nk))
                    << "kappa " << kappa << " h " << h;
            }
        }
    }
}

struct Fixture
{
    Matrix tokens;
    AttentionHeadParams params;

    Fixture()
        : params([] {
              Rng rng(5);
              return AttentionHeadParams::randomInit(32, 16, rng);
          }())
    {
        cta::nn::WorkloadProfile profile;
        profile.seqLen = 128;
        profile.tokenDim = 32;
        profile.coarseClusters = 12;
        profile.fineClusters = 8;
        cta::nn::WorkloadGenerator gen(profile, 6);
        tokens = gen.sampleTokens();
    }
};

TEST(ElsaAttentionTest, OutputShape)
{
    Fixture fx;
    const ElsaResult r = elsaAttention(fx.tokens, fx.tokens,
                                       fx.params, ElsaConfig{});
    EXPECT_EQ(r.output.rows(), 128);
    EXPECT_EQ(r.output.cols(), 16);
    EXPECT_EQ(r.candidates.size(), 128u);
}

TEST(ElsaAttentionTest, ConservativeBeatsAggressiveAccuracy)
{
    Fixture fx;
    const Matrix exact =
        exactAttention(fx.tokens, fx.tokens, fx.params);
    const ElsaResult cons = elsaAttention(
        fx.tokens, fx.tokens, fx.params,
        ElsaConfig::fromPreset(ElsaPreset::Conservative));
    const ElsaResult aggr = elsaAttention(
        fx.tokens, fx.tokens, fx.params,
        ElsaConfig::fromPreset(ElsaPreset::Aggressive));
    const auto err_c = cta::alg::compareOutputs(cons.output, exact);
    const auto err_a = cta::alg::compareOutputs(aggr.output, exact);
    EXPECT_LE(err_c.relativeFrobenius, err_a.relativeFrobenius + 1e-5f);
    EXPECT_LT(aggr.candidateRatio, cons.candidateRatio);
}

TEST(ElsaAttentionTest, ConservativeIsAccurate)
{
    Fixture fx;
    const Matrix exact =
        exactAttention(fx.tokens, fx.tokens, fx.params);
    const ElsaResult r = elsaAttention(
        fx.tokens, fx.tokens, fx.params,
        ElsaConfig::fromPreset(ElsaPreset::Conservative));
    const auto err = cta::alg::compareOutputs(r.output, exact);
    EXPECT_GT(err.meanCosine, 0.99f);
}

TEST(ElsaAttentionTest, CandidatesWithinRange)
{
    Fixture fx;
    const ElsaResult r = elsaAttention(fx.tokens, fx.tokens,
                                       fx.params, ElsaConfig{});
    for (Index c : r.candidates) {
        EXPECT_GE(c, 1);
        EXPECT_LE(c, 128);
    }
    EXPECT_GT(r.candidateRatio, 0.0f);
    EXPECT_LE(r.candidateRatio, 1.0f);
}

TEST(ElsaAttentionTest, AggressivePrunes)
{
    Fixture fx;
    const ElsaResult r = elsaAttention(
        fx.tokens, fx.tokens, fx.params,
        ElsaConfig::fromPreset(ElsaPreset::Aggressive));
    EXPECT_LT(r.candidateRatio, 0.9f)
        << "aggressive preset must actually prune keys";
}

TEST(ElsaAttentionTest, PresetNames)
{
    EXPECT_EQ(elsaPresetName(ElsaPreset::Conservative),
              "ELSA-Conservative");
    EXPECT_EQ(elsaPresetName(ElsaPreset::Aggressive),
              "ELSA-Aggressive");
}

TEST(ElsaAttentionTest, QuadraticApproxOpsLinearAttnOps)
{
    // The structural contrast with CTA: ELSA still touches all m*n
    // pairs in its estimation stage.
    Fixture fx;
    const ElsaResult r = elsaAttention(fx.tokens, fx.tokens,
                                       fx.params, ElsaConfig{});
    EXPECT_GE(r.approxOps.cmps,
              static_cast<std::uint64_t>(128) * 128);
    EXPECT_LT(r.attnOps.macs,
              2ull * 128 * 128 * 16 + 1);
}

// ---------------------------------------------------------------
// Reference: the ELSA query loop as first written — bit-by-bit
// Hamming distances, estimateDot per pair and per-element Matrix
// reads — kept here so the optimized model is held to bit-identical
// outputs, candidates, ratios and OpCounts.
// ---------------------------------------------------------------

ElsaResult
referenceElsa(const Matrix &xq, const Matrix &xkv,
              const AttentionHeadParams &params, const ElsaConfig &config)
{
    using cta::elsa::estimateDot;
    using cta::elsa::signHash;
    ElsaResult result;
    result.m = xq.rows();
    result.n = xkv.rows();
    const Matrix q = params.wq.forward(xq, &result.linearOps);
    const Matrix k = params.wk.forward(xkv, &result.linearOps);
    const Matrix v = params.wv.forward(xkv, &result.linearOps);
    result.d = q.cols();
    const Real inv_sqrt_d =
        1.0f / std::sqrt(static_cast<Real>(result.d));
    Rng rng(config.seed);
    const SignHashParams hash =
        SignHashParams::sample(config.hashBits, result.d, rng);
    const SignatureMatrix key_sigs = signHash(k, hash, &result.approxOps);
    const SignatureMatrix query_sigs =
        signHash(q, hash, &result.approxOps);
    std::vector<Real> key_norms(static_cast<std::size_t>(result.n));
    for (Index j = 0; j < result.n; ++j)
        key_norms[static_cast<std::size_t>(j)] =
            std::sqrt(cta::core::squaredNorm(k.row(j)));
    result.approxOps.macs +=
        static_cast<std::uint64_t>(result.n) * result.d;
    const Real margin = std::log(1.0f / config.epsilon);
    result.output = Matrix(result.m, result.d);
    result.candidates.resize(static_cast<std::size_t>(result.m));

    // The model's query chunks, ratio partials summed in chunk order.
    Wide ratio_sum = 0;
    for (const auto &[begin, end] :
         cta::core::chunkSpans(0, result.m, /*grain=*/8)) {
        Wide chunk_ratio = 0;
        auto &approx_ops = result.approxOps;
        auto &attn_ops = result.attnOps;
        std::vector<Index> kept;
        for (Index i = begin; i < end; ++i) {
            const Real norm_q = std::sqrt(cta::core::squaredNorm(q.row(i)));
            approx_ops.macs += static_cast<std::uint64_t>(result.d);
            Real best = -1e30f;
            std::vector<Real> estimates(static_cast<std::size_t>(result.n));
            for (Index j = 0; j < result.n; ++j) {
                Index ham = 0;
                for (Index b = 0; b < config.hashBits; ++b)
                    ham += query_sigs.bit(i, b) != key_sigs.bit(j, b) ? 1
                                                                      : 0;
                const Real est =
                    estimateDot(ham, config.hashBits, norm_q,
                                key_norms[static_cast<std::size_t>(j)]) *
                    inv_sqrt_d;
                estimates[static_cast<std::size_t>(j)] = est;
                best = std::max(best, est);
            }
            approx_ops.cmps += static_cast<std::uint64_t>(result.n) *
                               static_cast<std::uint64_t>(
                                   (config.hashBits + 63) / 64);
            approx_ops.muls += 2ull * static_cast<std::uint64_t>(result.n);
            approx_ops.exps += static_cast<std::uint64_t>(result.n);
            approx_ops.cmps += static_cast<std::uint64_t>(result.n);
            kept.clear();
            for (Index j = 0; j < result.n; ++j) {
                if (estimates[static_cast<std::size_t>(j)] >= best - margin)
                    kept.push_back(j);
            }
            result.candidates[static_cast<std::size_t>(i)] =
                static_cast<Index>(kept.size());
            chunk_ratio += static_cast<Wide>(kept.size()) / result.n;
            Real score_max = -1e30f;
            std::vector<Real> scores(kept.size());
            for (std::size_t t = 0; t < kept.size(); ++t) {
                const Index j = kept[t];
                Wide dot = 0;
                for (Index c = 0; c < result.d; ++c)
                    dot += static_cast<Wide>(q(i, c)) * k(j, c);
                scores[t] = static_cast<Real>(dot) * inv_sqrt_d;
                score_max = std::max(score_max, scores[t]);
            }
            attn_ops.macs +=
                kept.size() * static_cast<std::uint64_t>(result.d);
            attn_ops.muls += kept.size();
            attn_ops.cmps += kept.size();
            Wide denom = 0;
            for (std::size_t t = 0; t < kept.size(); ++t) {
                scores[t] = std::exp(scores[t] - score_max);
                denom += scores[t];
            }
            attn_ops.exps += kept.size();
            attn_ops.adds += 2 * kept.size();
            const Real inv_denom = static_cast<Real>(1.0 / denom);
            for (std::size_t t = 0; t < kept.size(); ++t) {
                const Index j = kept[t];
                const Real p = scores[t] * inv_denom;
                for (Index c = 0; c < result.d; ++c)
                    result.output(i, c) += p * v(j, c);
            }
            attn_ops.divs += 1;
            attn_ops.muls += kept.size();
            attn_ops.macs +=
                kept.size() * static_cast<std::uint64_t>(result.d);
        }
        ratio_sum += chunk_ratio;
    }
    result.candidateRatio = static_cast<Real>(ratio_sum / result.m);
    return result;
}

TEST(ElsaReferenceTest, BitIdenticalToReferenceUnderEveryBackend)
{
    // 200 tokens: 25 query chunks; kappa 64 (one signature word) and
    // 100 (two words, a partial last word).
    Rng rng(41);
    const auto params = AttentionHeadParams::randomInit(32, 16, rng);
    cta::nn::WorkloadProfile profile;
    profile.seqLen = 200;
    profile.tokenDim = 32;
    profile.coarseClusters = 12;
    profile.fineClusters = 8;
    cta::nn::WorkloadGenerator gen(profile, 42);
    const Matrix tokens = gen.sampleTokens();
    for (const std::string spec : {"naive", "simd:1", "simd:8"}) {
        const auto backend = cta::core::makeBackend(spec);
        Backend *previous = cta::core::setActiveBackend(backend.get());
        for (const ElsaPreset preset :
             {ElsaPreset::Conservative, ElsaPreset::Aggressive}) {
            for (const Index bits : {64, 100}) {
                ElsaConfig config = ElsaConfig::fromPreset(preset, 3);
                config.hashBits = bits;
                const ElsaResult got =
                    elsaAttention(tokens, tokens, params, config);
                const ElsaResult want =
                    referenceElsa(tokens, tokens, params, config);
                const std::string where = spec + " " +
                                          elsaPresetName(preset) + " " +
                                          std::to_string(bits) + " bits";
                EXPECT_EQ(std::memcmp(got.output.data(),
                                      want.output.data(),
                                      static_cast<std::size_t>(
                                          got.output.size()) *
                                          sizeof(Real)),
                          0)
                    << where;
                EXPECT_EQ(got.candidates, want.candidates) << where;
                EXPECT_EQ(got.candidateRatio, want.candidateRatio)
                    << where;
                EXPECT_EQ(got.approxOps, want.approxOps) << where;
                EXPECT_EQ(got.attnOps, want.attnOps) << where;
                EXPECT_EQ(got.linearOps, want.linearOps) << where;
            }
        }
        cta::core::setActiveBackend(previous);
    }
}

} // namespace
