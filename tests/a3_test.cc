/**
 * @file
 * Tests for the A^3 baseline reconstruction: sorted-key
 * preprocessing, greedy candidate search, approximation quality and
 * the accelerator model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <queue>
#include <string>
#include <vector>

#include "a3/a3_accel.h"
#include "a3/a3_attention.h"
#include "core/backend.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/stats.h"
#include "cta/error.h"
#include "nn/workload.h"

namespace {

using cta::a3::A3Accelerator;
using cta::a3::A3Config;
using cta::a3::A3HwConfig;
using cta::a3::A3Result;
using cta::a3::SortedKeys;
using cta::core::Backend;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;
using cta::core::Wide;
using cta::nn::AttentionHeadParams;
using cta::sim::TechParams;

struct Fixture
{
    Matrix tokens;
    AttentionHeadParams params;

    explicit Fixture(Index n = 128)
        : params([] {
              Rng rng(1);
              return AttentionHeadParams::randomInit(32, 16, rng);
          }())
    {
        cta::nn::WorkloadProfile profile;
        profile.seqLen = n;
        profile.tokenDim = 32;
        profile.coarseClusters = 12;
        profile.fineClusters = 8;
        cta::nn::WorkloadGenerator gen(profile, 2);
        tokens = gen.sampleTokens();
    }
};

TEST(SortedKeysTest, ColumnsSortedDescending)
{
    Rng rng(3);
    const Matrix k = Matrix::randomNormal(20, 5, rng);
    const SortedKeys sorted(k);
    for (Index j = 0; j < 5; ++j) {
        for (Index r = 1; r < 20; ++r) {
            EXPECT_GE(sorted.rankToValue(j, r - 1),
                      sorted.rankToValue(j, r));
        }
    }
}

TEST(SortedKeysTest, RanksAreAPermutation)
{
    Rng rng(4);
    const Matrix k = Matrix::randomNormal(16, 3, rng);
    const SortedKeys sorted(k);
    for (Index j = 0; j < 3; ++j) {
        std::vector<int> seen(16, 0);
        for (Index r = 0; r < 16; ++r)
            ++seen[static_cast<std::size_t>(sorted.rankToKey(j, r))];
        for (int count : seen)
            EXPECT_EQ(count, 1);
    }
}

TEST(A3AttentionTest, OutputShape)
{
    Fixture fx;
    const A3Result r =
        a3Attention(fx.tokens, fx.tokens, fx.params, A3Config{});
    EXPECT_EQ(r.output.rows(), 128);
    EXPECT_EQ(r.output.cols(), 16);
    EXPECT_GT(r.candidateRatio, 0.0f);
    EXPECT_LE(r.candidateRatio, 1.0f);
}

TEST(A3AttentionTest, MoreRoundsMoreAccurate)
{
    Fixture fx;
    const Matrix exact =
        exactAttention(fx.tokens, fx.tokens, fx.params);
    A3Config few, many;
    few.searchRounds = 16;
    few.candidates = 8;
    many.searchRounds = 512;
    many.candidates = 64;
    const auto r_few =
        a3Attention(fx.tokens, fx.tokens, fx.params, few);
    const auto r_many =
        a3Attention(fx.tokens, fx.tokens, fx.params, many);
    const auto err_few =
        cta::alg::compareOutputs(r_few.output, exact);
    const auto err_many =
        cta::alg::compareOutputs(r_many.output, exact);
    EXPECT_LT(err_many.relativeFrobenius,
              err_few.relativeFrobenius);
}

TEST(A3AttentionTest, ConservativeConfigIsAccurate)
{
    Fixture fx;
    const Matrix exact =
        exactAttention(fx.tokens, fx.tokens, fx.params);
    A3Config config;
    config.searchRounds = 1024;
    config.candidates = 96;
    const auto r =
        a3Attention(fx.tokens, fx.tokens, fx.params, config);
    const auto err = cta::alg::compareOutputs(r.output, exact);
    EXPECT_GT(err.meanCosine, 0.95f);
}

TEST(A3AttentionTest, CandidateCountRespected)
{
    Fixture fx;
    A3Config config;
    config.searchRounds = 256;
    config.candidates = 8;
    const auto r =
        a3Attention(fx.tokens, fx.tokens, fx.params, config);
    EXPECT_LE(r.candidateRatio, 8.0f / 128.0f + 1e-5f);
}

TEST(A3AttentionTest, GreedySearchRecallsTopKey)
{
    // The greedy component search must recover each query's true
    // highest-scoring key far more often than a random candidate set
    // of the same size would (chance = candidates / n = 12.5 %).
    Fixture fx;
    A3Config config;
    config.searchRounds = 256;
    config.candidates = 16;
    const auto trace = cta::nn::exactAttentionTraced(
        fx.tokens, fx.tokens, fx.params);

    // Recompute the candidate sets the algorithm would select by
    // checking which keys carry softmax mass in the A^3 output: a
    // key outside the candidate set contributes exactly zero, so
    // compare the A^3 output against the exact top-1-only output.
    const auto r =
        a3Attention(fx.tokens, fx.tokens, fx.params, config);
    int recalled = 0;
    for (Index i = 0; i < 128; ++i) {
        Index best = 0;
        for (Index j = 1; j < 128; ++j)
            if (trace.scores(i, j) > trace.scores(i, best))
                best = j;
        // If the top key was selected, the output row correlates
        // strongly with an attention distribution containing it; use
        // the cheap necessary condition that the A^3 row is closer
        // to the exact row than to the uniform value mean.
        const cta::core::Real cos = cta::core::cosineSimilarity(
            r.output.row(i), trace.output.row(i));
        recalled += cos > 0.8f ? 1 : 0;
    }
    // Well above the 12.5 % chance rate.
    EXPECT_GT(recalled, 40);
}

TEST(A3AccelTest, QuerySerialTiming)
{
    const A3Accelerator accel(A3HwConfig::paperDefault(),
                              TechParams::smic40nmClass());
    Fixture small(64);
    cta::nn::WorkloadProfile profile;
    profile.seqLen = 256;
    profile.tokenDim = 32;
    cta::nn::WorkloadGenerator gen(profile, 9);
    Fixture large(256);
    A3Config config;
    const auto r_small = accel.run(small.tokens, small.tokens,
                                   small.params, config, "A3");
    const auto r_large = accel.run(large.tokens, large.tokens,
                                   large.params, config, "A3");
    // Per-query cost is ~constant, so latency scales ~linearly in m
    // (plus the n log n preprocessing).
    const double ratio =
        static_cast<double>(r_large.report.latency.total()) /
        static_cast<double>(r_small.report.latency.total());
    EXPECT_GT(ratio, 2.0);
    EXPECT_LT(ratio, 8.0);
}

TEST(A3AccelTest, EnergyAndTrafficPositive)
{
    const A3Accelerator accel(A3HwConfig::paperDefault(),
                              TechParams::smic40nmClass());
    Fixture fx;
    const auto r = accel.run(fx.tokens, fx.tokens, fx.params,
                             A3Config{}, "A3");
    EXPECT_GT(r.report.energy.total(), 0.0);
    EXPECT_GT(r.report.traffic.reads, 0u);
    EXPECT_GT(r.report.areaMm2, 0.0);
}

// The cycle and SRAM-sizing expressions divide by freqGhz and scale
// with maxSeqLen; degenerate values must die at construction.
TEST(A3AccelTest, RejectsDegenerateHwConfig)
{
    auto zero_freq = A3HwConfig::paperDefault();
    zero_freq.freqGhz = 0;
    EXPECT_DEATH(A3Accelerator(zero_freq,
                               TechParams::smic40nmClass()),
                 "A3 clock frequency must be positive");
    auto zero_mem = A3HwConfig::paperDefault();
    zero_mem.maxSeqLen = 0;
    EXPECT_DEATH(A3Accelerator(zero_mem,
                               TechParams::smic40nmClass()),
                 "A3 memory sizing must be positive");
    auto zero_lanes = A3HwConfig::paperDefault();
    zero_lanes.searchLanes = 0;
    EXPECT_DEATH(A3Accelerator(zero_lanes,
                               TechParams::smic40nmClass()),
                 "invalid A3 configuration");
}

// ---------------------------------------------------------------
// Reference: A^3 as first written — a per-dimension rank order read
// back through the key Matrix, per-element Matrix reads in the
// search and the survivor loop — kept here so the optimized model is
// held to bit-identical outputs, ratios and OpCounts.
// ---------------------------------------------------------------

/** order[j * n + r] = key of rank r in dimension j (descending). */
std::vector<Index>
referenceRankOrder(const Matrix &k)
{
    const Index n = k.rows();
    std::vector<Index> order(static_cast<std::size_t>(n * k.cols()));
    for (Index j = 0; j < k.cols(); ++j) {
        const auto first =
            order.begin() + static_cast<std::ptrdiff_t>(j * n);
        std::iota(first, first + n, Index{0});
        std::sort(first, first + n, [&](Index a, Index b) {
            return k(a, j) > k(b, j);
        });
    }
    return order;
}

A3Result
referenceA3(const Matrix &xq, const Matrix &xkv,
            const AttentionHeadParams &params, const A3Config &config)
{
    A3Result result;
    result.m = xq.rows();
    result.n = xkv.rows();
    const Matrix q = params.wq.forward(xq, &result.linearOps);
    const Matrix k = params.wk.forward(xkv, &result.linearOps);
    const Matrix v = params.wv.forward(xkv, &result.linearOps);
    result.d = q.cols();
    const Real inv_sqrt_d =
        1.0f / std::sqrt(static_cast<Real>(result.d));
    const std::vector<Index> order = referenceRankOrder(k);
    const auto rank_to_key = [&](Index j, Index rank) {
        return order[static_cast<std::size_t>(j * result.n + rank)];
    };
    const auto rank_to_value = [&](Index j, Index rank) {
        return k(rank_to_key(j, rank), j);
    };
    // Preprocessing charge: n log2(n) comparisons per dimension.
    result.approxOps.cmps +=
        static_cast<std::uint64_t>(result.d) *
        static_cast<std::uint64_t>(result.n) *
        static_cast<std::uint64_t>(
            std::ceil(std::log2(std::max<Index>(2, result.n))));
    const auto keep = std::min<Index>(config.candidates, result.n);
    result.output = Matrix(result.m, result.d);

    Wide ratio_sum = 0;
    auto &approx_ops = result.approxOps;
    auto &attn_ops = result.attnOps;
    for (const auto &[begin, end] :
         cta::core::chunkSpans(0, result.m, /*grain=*/8)) {
        Wide chunk_ratio = 0;
        std::vector<Real> partial(static_cast<std::size_t>(result.n));
        std::vector<Index> touched;
        for (Index i = begin; i < end; ++i) {
            std::fill(partial.begin(), partial.end(), 0.0f);
            touched.clear();
            struct Cursor
            {
                Real product;
                Index dim;
                Index rank;
            };
            const auto cmp = [](const Cursor &a, const Cursor &b) {
                return a.product < b.product;
            };
            std::priority_queue<Cursor, std::vector<Cursor>,
                                decltype(cmp)>
                frontier(cmp);
            for (Index j = 0; j < result.d; ++j) {
                const Real qj = q(i, j);
                if (qj == 0)
                    continue;
                const Index rank = qj > 0 ? 0 : result.n - 1;
                frontier.push(Cursor{qj * rank_to_value(j, rank), j, rank});
            }
            approx_ops.muls += static_cast<std::uint64_t>(result.d);
            for (Index round = 0;
                 round < config.searchRounds && !frontier.empty();
                 ++round) {
                const Cursor top = frontier.top();
                frontier.pop();
                const Index key = rank_to_key(top.dim, top.rank);
                if (partial[static_cast<std::size_t>(key)] == 0)
                    touched.push_back(key);
                partial[static_cast<std::size_t>(key)] += top.product;
                approx_ops.adds += 1;
                approx_ops.cmps += 1;
                const Real qj = q(i, top.dim);
                const Index next = qj > 0 ? top.rank + 1 : top.rank - 1;
                if (next >= 0 && next < result.n) {
                    frontier.push(Cursor{qj * rank_to_value(top.dim, next),
                                         top.dim, next});
                    approx_ops.muls += 1;
                }
            }
            std::sort(touched.begin(), touched.end(),
                      [&](Index a, Index b) {
                          return partial[static_cast<std::size_t>(a)] >
                                 partial[static_cast<std::size_t>(b)];
                      });
            if (static_cast<Index>(touched.size()) > keep)
                touched.resize(static_cast<std::size_t>(keep));
            chunk_ratio += static_cast<Wide>(touched.size()) / result.n;
            Real score_max = -1e30f;
            std::vector<Real> scores(touched.size());
            for (std::size_t t = 0; t < touched.size(); ++t) {
                Wide dot = 0;
                for (Index c = 0; c < result.d; ++c)
                    dot += static_cast<Wide>(q(i, c)) * k(touched[t], c);
                scores[t] = static_cast<Real>(dot) * inv_sqrt_d;
                score_max = std::max(score_max, scores[t]);
            }
            attn_ops.macs +=
                touched.size() * static_cast<std::uint64_t>(result.d);
            Wide denom = 0;
            for (auto &sc : scores) {
                sc = std::exp(sc - score_max);
                denom += sc;
            }
            attn_ops.exps += touched.size();
            attn_ops.adds += 2 * touched.size();
            const Real inv_denom = static_cast<Real>(1.0 / denom);
            for (std::size_t t = 0; t < touched.size(); ++t) {
                const Real p = scores[t] * inv_denom;
                for (Index c = 0; c < result.d; ++c)
                    result.output(i, c) += p * v(touched[t], c);
            }
            attn_ops.muls += touched.size();
            attn_ops.macs +=
                touched.size() * static_cast<std::uint64_t>(result.d);
            attn_ops.divs += 1;
        }
        ratio_sum += chunk_ratio;
    }
    result.candidateRatio = static_cast<Real>(ratio_sum / result.m);
    return result;
}

TEST(SortedKeysTest, MatchesReferenceRankOrder)
{
    // Ties included: rounding keys to a coarse grid makes equal
    // components common, and the order must still be the reference
    // sort's, value for value.
    Rng rng(9);
    Matrix k = Matrix::randomNormal(90, 12, rng);
    for (Index e = 0; e < k.size(); e += 3)
        k.data()[e] = std::round(k.data()[e] * 2.0f) / 2.0f;
    const SortedKeys sorted(k);
    const std::vector<Index> order = referenceRankOrder(k);
    for (Index j = 0; j < k.cols(); ++j) {
        for (Index r = 0; r < k.rows(); ++r) {
            const Index key = order[static_cast<std::size_t>(
                j * k.rows() + r)];
            EXPECT_EQ(sorted.rankToKey(j, r), key);
            EXPECT_EQ(sorted.rankToValue(j, r), k(key, j));
        }
    }
}

TEST(A3ReferenceTest, BitIdenticalToReferenceUnderEveryBackend)
{
    Fixture fx(200);
    for (const std::string spec : {"naive", "simd:1", "simd:8"}) {
        const auto backend = cta::core::makeBackend(spec);
        Backend *previous = cta::core::setActiveBackend(backend.get());
        for (const auto &[rounds, candidates] :
             {std::pair<Index, Index>{16, 8}, {64, 32}, {400, 300}}) {
            A3Config config;
            config.searchRounds = rounds;
            config.candidates = candidates;
            const A3Result got =
                a3Attention(fx.tokens, fx.tokens, fx.params, config);
            const A3Result want =
                referenceA3(fx.tokens, fx.tokens, fx.params, config);
            const std::string where = spec + " rounds=" +
                                      std::to_string(rounds);
            EXPECT_EQ(std::memcmp(got.output.data(), want.output.data(),
                                  static_cast<std::size_t>(
                                      got.output.size()) *
                                      sizeof(Real)),
                      0)
                << where;
            EXPECT_EQ(got.candidateRatio, want.candidateRatio) << where;
            EXPECT_EQ(got.approxOps, want.approxOps) << where;
            EXPECT_EQ(got.attnOps, want.attnOps) << where;
            EXPECT_EQ(got.linearOps, want.linearOps) << where;
        }
        cta::core::setActiveBackend(previous);
    }
}

} // namespace
