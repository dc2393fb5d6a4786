#include "elsa/elsa_attention.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/stats.h"
#include "elsa/sign_hash.h"

namespace cta::elsa {

using core::Index;
using core::Matrix;
using core::Real;
using core::Wide;

std::string
elsaPresetName(ElsaPreset preset)
{
    switch (preset) {
      case ElsaPreset::Conservative: return "ELSA-Conservative";
      case ElsaPreset::Moderate: return "ELSA-Moderate";
      case ElsaPreset::Aggressive: return "ELSA-Aggressive";
    }
    CTA_PANIC("unreachable preset");
}

ElsaConfig
ElsaConfig::fromPreset(ElsaPreset preset, std::uint64_t seed)
{
    ElsaConfig config;
    config.seed = seed;
    switch (preset) {
      case ElsaPreset::Conservative:
        config.epsilon = 1e-3f;
        break;
      case ElsaPreset::Moderate:
        config.epsilon = 1e-2f;
        break;
      case ElsaPreset::Aggressive:
        config.epsilon = 5e-2f;
        break;
    }
    return config;
}

ElsaResult
elsaAttention(const Matrix &xq, const Matrix &xkv,
              const nn::AttentionHeadParams &params,
              const ElsaConfig &config)
{
    CTA_REQUIRE(xq.cols() == xkv.cols(), "query/key token dims differ");
    CTA_REQUIRE(config.hashBits > 0 && config.epsilon > 0 &&
                config.epsilon < 1, "invalid ElsaConfig");

    ElsaResult result;
    result.m = xq.rows();
    result.n = xkv.rows();

    // Q/K/V projections (on the GPU in the ELSA system; counted so
    // the system model can price them).
    const Matrix q = params.wq.forward(xq, &result.linearOps);
    const Matrix k = params.wk.forward(xkv, &result.linearOps);
    const Matrix v = params.wv.forward(xkv, &result.linearOps);
    result.d = q.cols();
    const Real inv_sqrt_d =
        1.0f / std::sqrt(static_cast<Real>(result.d));

    // Hash all keys once and each query once.
    core::Rng rng(config.seed);
    const SignHashParams hash =
        SignHashParams::sample(config.hashBits, result.d, rng);
    const SignatureMatrix key_sigs = signHash(k, hash,
                                              &result.approxOps);
    const SignatureMatrix query_sigs = signHash(q, hash,
                                                &result.approxOps);
    std::vector<Real> key_norms(static_cast<std::size_t>(result.n));
    for (Index j = 0; j < result.n; ++j)
        key_norms[static_cast<std::size_t>(j)] =
            std::sqrt(core::squaredNorm(k.row(j)));
    result.approxOps.macs +=
        static_cast<std::uint64_t>(result.n) * result.d; // norms

    const Real margin = std::log(1.0f / config.epsilon);
    result.output = Matrix(result.m, result.d);
    result.candidates.resize(static_cast<std::size_t>(result.m));

    // Queries are independent: fan the loop out over chunks of the
    // query range. Each chunk accumulates its own OpCounts / ratio
    // partial and writes disjoint output rows; partials are reduced
    // in ascending chunk order after the join (determinism contract,
    // core/parallel.h).
    struct QueryChunkPartial
    {
        core::OpCounts approx;
        core::OpCounts attn;
        Wide ratioSum = 0;
    };
    const auto spans = core::chunkSpans(0, result.m, /*grain=*/8);
    std::vector<QueryChunkPartial> partials(spans.size());
    // LUT cosines: norm_q * norm_k * cos_lut[h] == estimateDot(h, ...).
    const std::vector<Real> cos_lut = hammingCosineTable(config.hashBits);
    core::ThreadPool::global().run(
        static_cast<Index>(spans.size()), [&](Index chunk) {
            auto &partial = partials[static_cast<std::size_t>(chunk)];
            auto &approx_ops = partial.approx;
            auto &attn_ops = partial.attn;
            const auto &span = spans[static_cast<std::size_t>(chunk)];
            std::vector<Real> estimates(static_cast<std::size_t>(result.n));
            std::vector<Index> kept;
            std::vector<Real> scores;
            kept.reserve(static_cast<std::size_t>(result.n));
            scores.reserve(static_cast<std::size_t>(result.n));
            for (Index i = span.first; i < span.second; ++i) {
                const Real *qrow = q.row(i).data();
                const Real norm_q =
                    std::sqrt(core::squaredNorm(q.row(i)));
                approx_ops.macs +=
                    static_cast<std::uint64_t>(result.d);
                // Estimate all n scores from Hamming distances.
                Real best = -1e30f;
                for (Index j = 0; j < result.n; ++j) {
                    const Index ham = query_sigs.hamming(i, key_sigs, j);
                    const Real est =
                        norm_q * key_norms[static_cast<std::size_t>(j)] *
                        cos_lut[static_cast<std::size_t>(ham)] *
                        inv_sqrt_d;
                    estimates[static_cast<std::size_t>(j)] = est;
                    best = std::max(best, est);
                }
                // XOR+popcount per signature word + LUT cosine +
                // 2 muls.
                approx_ops.cmps +=
                    static_cast<std::uint64_t>(result.n) *
                    static_cast<std::uint64_t>(
                        (config.hashBits + 63) / 64);
                approx_ops.muls +=
                    2ull * static_cast<std::uint64_t>(result.n);
                approx_ops.exps +=
                    static_cast<std::uint64_t>(result.n); // cos LUT
                approx_ops.cmps +=
                    static_cast<std::uint64_t>(result.n); // thresholds

                kept.clear();
                for (Index j = 0; j < result.n; ++j) {
                    if (estimates[static_cast<std::size_t>(j)] >=
                        best - margin) {
                        kept.push_back(j);
                    }
                }
                // ELSA never drops everything: the filter is anchored
                // at the estimated max, which always passes its own
                // test.
                CTA_ASSERT(!kept.empty(), "empty candidate set");
                result.candidates[static_cast<std::size_t>(i)] =
                    static_cast<Index>(kept.size());
                partial.ratioSum +=
                    static_cast<Wide>(kept.size()) / result.n;

                // Exact attention over survivors.
                Real score_max = -1e30f;
                scores.resize(kept.size());
                for (std::size_t t = 0; t < kept.size(); ++t) {
                    const Real *krow = k.row(kept[t]).data();
                    Wide dot = 0;
                    for (Index c = 0; c < result.d; ++c)
                        dot += static_cast<Wide>(qrow[c]) * krow[c];
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

                const Real inv_denom =
                    static_cast<Real>(1.0 / denom);
                Real *orow = result.output.row(i).data();
                for (std::size_t t = 0; t < kept.size(); ++t) {
                    const Real p = scores[t] * inv_denom;
                    const Real *vrow = v.row(kept[t]).data();
                    for (Index c = 0; c < result.d; ++c)
                        orow[c] += p * vrow[c];
                }
                attn_ops.divs += 1;
                attn_ops.muls += kept.size();
                attn_ops.macs +=
                    kept.size() * static_cast<std::uint64_t>(result.d);
            }
        });

    // Ordered reduction of the per-chunk partials.
    Wide ratio_sum = 0;
    for (const auto &partial : partials) {
        result.approxOps += partial.approx;
        result.attnOps += partial.attn;
        ratio_sum += partial.ratioSum;
    }
    result.candidateRatio =
        static_cast<Real>(ratio_sum / result.m);
    return result;
}

} // namespace cta::elsa
