#include "leopard/leopard_attention.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"
#include "core/parallel.h"

namespace cta::leopard {

using core::Index;
using core::Matrix;
using core::Real;
using core::Wide;

LeopardConfig
calibrateLeopard(const Matrix &sample_tokens,
                 const nn::AttentionHeadParams &params,
                 Real mass_target)
{
    CTA_REQUIRE(mass_target > 0 && mass_target < 1,
                "mass target must be in (0, 1)");
    const auto trace = nn::exactAttentionTraced(
        sample_tokens, sample_tokens, params);
    // For each candidate margin, measure the softmax mass retained;
    // pick the smallest margin meeting the target (the quantity
    // LeOPArd's gradient training converges to).
    const Index m = trace.scores.rows();
    const Index n = trace.scores.cols();
    std::vector<Real> row_max(static_cast<std::size_t>(m));
    for (Index i = 0; i < m; ++i) {
        const Real *srow = trace.scores.row(i).data();
        Real best = srow[0];
        for (Index j = 1; j < n; ++j)
            best = std::max(best, srow[j]);
        row_max[static_cast<std::size_t>(i)] = best;
    }
    LeopardConfig config;
    for (const Real margin :
         {1.0f, 1.5f, 2.0f, 2.5f, 3.0f, 3.5f, 4.0f, 4.6f, 5.5f,
          6.9f}) {
        Wide kept_mass = 0;
        for (Index i = 0; i < m; ++i) {
            const Real *srow = trace.scores.row(i).data();
            const Real *prow = trace.probs.row(i).data();
            const Real threshold =
                row_max[static_cast<std::size_t>(i)] - margin;
            for (Index j = 0; j < n; ++j) {
                if (srow[j] >= threshold)
                    kept_mass += prow[j];
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
leopardAttention(const Matrix &xq, const Matrix &xkv,
                 const nn::AttentionHeadParams &params,
                 const LeopardConfig &config)
{
    CTA_REQUIRE(xq.cols() == xkv.cols(), "query/key token dims differ");
    CTA_REQUIRE(config.margin > 0 && config.scoreBits > 0 &&
                config.earlyTerminationBits <= config.scoreBits,
                "invalid LeopardConfig");

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

    // Bit-serial score pass: every pair is touched; survivors consume
    // all bit-planes, pruned keys terminate early. The functional
    // result is the exact score for survivors — each one Wide chain,
    // cast once, then scaled.
    Matrix scores = core::matmulTransB(q, k);

    // Per-query fan-out over chunks of the query range (see
    // core/parallel.h): per-chunk partials reduce in ascending chunk
    // order after the join, keeping counts thread-count-invariant.
    struct QueryChunkPartial
    {
        core::OpCounts attn;
        Wide keepSum = 0;
        std::uint64_t bitPlanes = 0;
    };
    const auto spans = core::chunkSpans(0, result.m, /*grain=*/8);
    std::vector<QueryChunkPartial> partials(spans.size());
    core::ThreadPool::global().run(
        static_cast<Index>(spans.size()), [&](Index chunk) {
            auto &acc = partials[static_cast<std::size_t>(chunk)];
            auto &attn_ops = acc.attn;
            const auto &span = spans[static_cast<std::size_t>(chunk)];
            // Survivor keys and their exp(s - max), reused per query.
            std::vector<Index> kept;
            std::vector<Real> weights;
            kept.reserve(static_cast<std::size_t>(result.n));
            weights.reserve(static_cast<std::size_t>(result.n));
            for (Index i = span.first; i < span.second; ++i) {
                Real *srow = scores.row(i).data();
                Real row_max = -1e30f;
                for (Index j = 0; j < result.n; ++j) {
                    srow[j] *= inv_sqrt_d;
                    row_max = std::max(row_max, srow[j]);
                }
                // The paper tracks a running max from already-seen
                // keys; the end-of-row max is the steady-state
                // approximation.
                const Real threshold = row_max - config.margin;

                Wide denom = 0;
                kept.clear();
                weights.clear();
                for (Index j = 0; j < result.n; ++j) {
                    const bool survives = srow[j] >= threshold;
                    acc.bitPlanes += survives
                        ? static_cast<std::uint64_t>(config.scoreBits)
                        : static_cast<std::uint64_t>(
                              config.earlyTerminationBits);
                    if (!survives)
                        continue;
                    const Real e = std::exp(srow[j] - row_max);
                    kept.push_back(j);
                    weights.push_back(e);
                    denom += e;
                }
                CTA_ASSERT(!kept.empty(), "threshold pruned every key");
                const auto n_kept =
                    static_cast<std::uint64_t>(kept.size());
                acc.keepSum += static_cast<Wide>(kept.size()) / result.n;
                // The datapath evaluates each survivor's exponential
                // twice (denominator pass, then weighting pass).
                attn_ops.exps += 2ull * n_kept;
                attn_ops.adds += n_kept;

                const Real inv_denom = static_cast<Real>(1.0 / denom);
                Real *orow = result.output.row(i).data();
                for (std::size_t t = 0; t < kept.size(); ++t) {
                    const Real p = weights[t] * inv_denom;
                    const Real *vrow = v.row(kept[t]).data();
                    for (Index c = 0; c < result.d; ++c)
                        orow[c] += p * vrow[c];
                }
                attn_ops.macs +=
                    n_kept * static_cast<std::uint64_t>(result.d);
                attn_ops.muls += n_kept;
                attn_ops.divs += 1;
            }
        });

    // Ordered reduction of the per-chunk partials.
    Wide keep_sum = 0;
    std::uint64_t bit_planes_used = 0;
    for (const auto &partial : partials) {
        result.attnOps += partial.attn;
        keep_sum += partial.keepSum;
        bit_planes_used += partial.bitPlanes;
    }
    // Bit-serial score work: scoreBits-plane MACs; express as
    // fractional full MACs in approxOps.
    result.approxOps.macs = static_cast<std::uint64_t>(
        static_cast<Wide>(bit_planes_used) / config.scoreBits *
        static_cast<Wide>(result.d));
    result.approxOps.cmps =
        static_cast<std::uint64_t>(result.m) *
        static_cast<std::uint64_t>(result.n); // threshold tests
    result.keepRatio = static_cast<Real>(keep_sum / result.m);
    result.bitWorkRatio = static_cast<Real>(
        static_cast<Wide>(bit_planes_used) /
        static_cast<Wide>(full_planes));
    return result;
}

} // namespace cta::leopard
