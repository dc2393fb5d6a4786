#include "a3/a3_attention.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "core/logging.h"
#include "core/parallel.h"

namespace cta::a3 {

using core::Index;
using core::Matrix;
using core::Real;
using core::Wide;

SortedKeys::SortedKeys(const Matrix &k, core::OpCounts *counts)
    : n_(k.rows()), d_(k.cols()),
      order_(static_cast<std::size_t>(k.rows()) *
             static_cast<std::size_t>(k.cols())),
      values_(order_.size())
{
    const Real *kd = k.data();
    for (Index j = 0; j < d_; ++j) {
        const auto base = static_cast<std::size_t>(j * n_);
        const auto first =
            order_.begin() + static_cast<std::ptrdiff_t>(base);
        const auto last = first + static_cast<std::ptrdiff_t>(n_);
        std::iota(first, last, Index{0});
        std::sort(first, last, [&](Index a, Index b) {
            return kd[a * d_ + j] > kd[b * d_ + j];
        });
        for (Index r = 0; r < n_; ++r)
            values_[base + static_cast<std::size_t>(r)] =
                kd[order_[base + static_cast<std::size_t>(r)] * d_ + j];
    }
    if (counts) {
        // n log2(n) comparisons per dimension (sorting network /
        // merge hardware in the A^3 preprocessing unit).
        const auto logn = static_cast<std::uint64_t>(
            std::ceil(std::log2(std::max<Index>(2, n_))));
        counts->cmps += static_cast<std::uint64_t>(d_) *
                        static_cast<std::uint64_t>(n_) * logn;
    }
}

A3Result
a3Attention(const Matrix &xq, const Matrix &xkv,
            const nn::AttentionHeadParams &params,
            const A3Config &config)
{
    CTA_REQUIRE(xq.cols() == xkv.cols(), "query/key token dims differ");
    CTA_REQUIRE(config.searchRounds > 0 && config.candidates > 0,
                "invalid A3Config");

    A3Result result;
    result.m = xq.rows();
    result.n = xkv.rows();

    const Matrix q = params.wq.forward(xq, &result.linearOps);
    const Matrix k = params.wk.forward(xkv, &result.linearOps);
    const Matrix v = params.wv.forward(xkv, &result.linearOps);
    result.d = q.cols();
    const Real inv_sqrt_d =
        1.0f / std::sqrt(static_cast<Real>(result.d));

    const SortedKeys sorted(k, &result.approxOps);
    const auto keep = std::min<Index>(config.candidates, result.n);

    result.output = Matrix(result.m, result.d);

    // Per-query fan-out over chunks of the query range (see
    // core/parallel.h): each chunk owns its scratch buffers and an
    // OpCounts/ratio partial; partials reduce in ascending chunk
    // order after the join so counts are thread-count-invariant.
    struct QueryChunkPartial
    {
        core::OpCounts approx;
        core::OpCounts attn;
        Wide ratioSum = 0;
    };
    const auto spans = core::chunkSpans(0, result.m, /*grain=*/8);
    std::vector<QueryChunkPartial> partials(spans.size());
    core::ThreadPool::global().run(
        static_cast<Index>(spans.size()), [&](Index chunk) {
    auto &acc = partials[static_cast<std::size_t>(chunk)];
    auto &approx_ops = acc.approx;
    auto &attn_ops = acc.attn;
    const auto &span = spans[static_cast<std::size_t>(chunk)];
    std::vector<Real> partial(static_cast<std::size_t>(result.n));
    std::vector<Index> touched;
    std::vector<Real> scores;
    for (Index i = span.first; i < span.second; ++i) {
        const Real *qrow = q.row(i).data();
        std::fill(partial.begin(), partial.end(), 0.0f);
        touched.clear();

        // Greedy threshold search: per dimension, a cursor walks the
        // sorted column from the end matching sign(q_j); each round
        // consumes the globally largest remaining q_j * K component.
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
                            decltype(cmp)> frontier(cmp);
        for (Index j = 0; j < result.d; ++j) {
            const Real qj = qrow[j];
            if (qj == 0)
                continue;
            const Index rank = qj > 0 ? 0 : result.n - 1;
            frontier.push(Cursor{
                qj * sorted.rankToValue(j, rank), j, rank});
        }
        approx_ops.muls +=
            static_cast<std::uint64_t>(result.d);

        for (Index round = 0;
             round < config.searchRounds && !frontier.empty();
             ++round) {
            const Cursor top = frontier.top();
            frontier.pop();
            const Index key = sorted.rankToKey(top.dim, top.rank);
            if (partial[static_cast<std::size_t>(key)] == 0)
                touched.push_back(key);
            partial[static_cast<std::size_t>(key)] += top.product;
            approx_ops.adds += 1;
            approx_ops.cmps += 1; // heap maintenance
            const Real qj = qrow[top.dim];
            const Index next = qj > 0 ? top.rank + 1 : top.rank - 1;
            if (next >= 0 && next < result.n) {
                frontier.push(Cursor{
                    qj * sorted.rankToValue(top.dim, next), top.dim,
                    next});
                approx_ops.muls += 1;
            }
        }

        // Top `keep` touched keys by partial score become candidates.
        std::sort(touched.begin(), touched.end(),
                  [&](Index a, Index b) {
                      return partial[static_cast<std::size_t>(a)] >
                             partial[static_cast<std::size_t>(b)];
                  });
        if (static_cast<Index>(touched.size()) > keep)
            touched.resize(static_cast<std::size_t>(keep));
        CTA_ASSERT(!touched.empty(), "A3 search touched no keys");
        acc.ratioSum +=
            static_cast<Wide>(touched.size()) / result.n;

        // Exact attention over the candidates.
        Real score_max = -1e30f;
        scores.resize(touched.size());
        for (std::size_t t = 0; t < touched.size(); ++t) {
            const Real *krow = k.row(touched[t]).data();
            Wide dot = 0;
            for (Index c = 0; c < result.d; ++c)
                dot += static_cast<Wide>(qrow[c]) * krow[c];
            scores[t] = static_cast<Real>(dot) * inv_sqrt_d;
            score_max = std::max(score_max, scores[t]);
        }
        attn_ops.macs += touched.size() *
            static_cast<std::uint64_t>(result.d);
        Wide denom = 0;
        for (auto &s : scores) {
            s = std::exp(s - score_max);
            denom += s;
        }
        attn_ops.exps += touched.size();
        attn_ops.adds += 2 * touched.size();
        const Real inv_denom = static_cast<Real>(1.0 / denom);
        Real *orow = result.output.row(i).data();
        for (std::size_t t = 0; t < touched.size(); ++t) {
            const Real p = scores[t] * inv_denom;
            const Real *vrow = v.row(touched[t]).data();
            for (Index c = 0; c < result.d; ++c)
                orow[c] += p * vrow[c];
        }
        attn_ops.muls += touched.size();
        attn_ops.macs += touched.size() *
            static_cast<std::uint64_t>(result.d);
        attn_ops.divs += 1;
    }
        });

    // Ordered reduction of the per-chunk partials.
    Wide ratio_sum = 0;
    for (const auto &partial : partials) {
        result.approxOps += partial.approx;
        result.attnOps += partial.attn;
        ratio_sum += partial.ratioSum;
    }
    result.candidateRatio = static_cast<Real>(ratio_sum / result.m);
    return result;
}

} // namespace cta::a3
