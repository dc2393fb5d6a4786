/**
 * @file
 * attn_batch: one-head self-attention through alg::ctaAttention and
 * nn::exactAttention on paper-testcase tokens at two sequence
 * lengths. GEMM, batch compression and probability aggregation do all
 * the work; no serving code runs.
 *
 * Set-up samples `docs` documents of the first paper testcase at each
 * length and calibrates the CTA-0.5 preset on a separate n = 512
 * sample per document (calibrateOnDocuments); the operating point is
 * held fixed at both lengths, as in the paper's sequence-length study.
 * How much CTA compresses depends on the tokens, so a run cycles
 * through several documents: with a single one the cost would depend
 * on the seed as much as on the code. Each measured round calls CTA on
 * the next `docs_per_round` documents and exact attention, whose cost
 * does not depend on the tokens, on one document, at both lengths.
 *
 * Untraced, a CTA call is one ctaAttention() call. Traced, it is the
 * same stages called in ctaAttention's order (LSH sampling, KV
 * compression, query compression, stages 2-5), each as a span, and
 * the round also times hashing, the compressed linears and PAG as
 * separate calls. Both the composition and the separate calls are
 * checked bit-identical to ctaAttention's own results.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "core/rng.h"
#include "cta/compressed_attention.h"
#include "cta/config.h"
#include "cta/error.h"
#include "cta/lsh.h"
#include "nn/attention.h"
#include "nn/model_zoo.h"
#include "nn/workload.h"

namespace perfbench {
namespace {

using cta::core::Index;
using cta::core::Matrix;

/** One document's token set at one length and its references. */
struct Doc
{
    Matrix tokens;
    cta::alg::CtaResult reference; ///< one ctaAttention() call
    Matrix exact;
};

struct Length
{
    Index n = 0;
    std::string tag; ///< "n512", "n2048"
    std::vector<Doc> docs;
};

struct Setup
{
    cta::nn::AttentionHeadParams head;
    cta::alg::CtaConfig config;
    std::vector<Length> lengths;
};

Setup
makeSetup(const RunContext &ctx)
{
    const std::vector<Index> sizes = {
        static_cast<Index>(ctx.params.integer("n_small")),
        static_cast<Index>(ctx.params.integer("n_large"))};
    const long docs = ctx.params.integer("docs");
    const cta::nn::Testcase tc =
        cta::nn::paperTestcases(sizes[0]).at(kTestcase);
    cta::core::Rng head_rng(ctx.seed * 1000 + 1);
    Setup s{cta::nn::AttentionHeadParams::randomInit(
                tc.workload.tokenDim, tc.model.dHead, head_rng),
            {}, {}};
    std::vector<Matrix> calib;
    for (long d = 0; d < docs; ++d) {
        cta::nn::WorkloadGenerator gen(
            tc.workload, ctx.seed * 7919 + static_cast<std::uint64_t>(d));
        calib.push_back(gen.sampleTokens());
    }
    s.config = calibrateOnDocuments(calib, sizes[0]);
    for (const Index n : sizes) {
        Length len;
        len.n = n;
        len.tag = std::to_string(n);
        len.tag.insert(len.tag.begin(), 'n');
        for (long d = 0; d < docs; ++d) {
            cta::nn::WorkloadGenerator gen(
                tc.workload.withSeqLen(n),
                ctx.seed * 7919 + static_cast<std::uint64_t>(n) * 31 +
                    static_cast<std::uint64_t>(d) + 1000);
            len.docs.push_back(Doc{gen.sampleTokens(), {}, {}});
        }
        s.lengths.push_back(std::move(len));
    }
    return s;
}

/** ctaAttention() as its stages, each a span. */
cta::alg::CtaResult
composedCta(Tracer &tracer, const Matrix &x, const std::string &tag,
            const cta::nn::AttentionHeadParams &head,
            const cta::alg::CtaConfig &config)
{
    cta::alg::LshParamSet lsh;
    timedMs(tracer, "cta.sample_lsh", -1, [&] {
        lsh = cta::alg::sampleLshParams(config, x.cols());
    });
    cta::core::OpCounts compression_ops;
    cta::alg::TwoLevelCompression kv;
    timedMs(tracer, ("cta.compress_kv." + tag).c_str(), -1, [&] {
        kv = cta::alg::compressTwoLevel(x, lsh.lsh1, lsh.lsh2,
                                        &compression_ops);
    });
    cta::alg::CompressionLevel q;
    timedMs(tracer, ("cta.compress_q." + tag).c_str(), -1, [&] {
        q = cta::alg::compressTokens(x, lsh.lsh0, &compression_ops);
    });
    cta::alg::CtaResult result;
    timedMs(tracer, ("cta.from_compression." + tag).c_str(), -1,
            [&] {
                result = cta::alg::ctaAttentionFromCompression(
                    q, kv, x.rows(), head, config.subtractRowMax);
            });
    result.overheadOps += compression_ops;
    return result;
}

/** The stages ctaAttentionFromCompression runs internally, called
 *  separately on the reference intermediates. Returns false when a
 *  result differs from the reference's. */
bool
timeInnerStages(Tracer &tracer, const Doc &doc, const std::string &tag,
                const cta::nn::AttentionHeadParams &head,
                const cta::alg::CtaConfig &config, double *linear_ms)
{
    const cta::alg::CtaIntermediates &inter = doc.reference.inter;
    const cta::alg::LshParamSet lsh =
        cta::alg::sampleLshParams(config, doc.tokens.cols());
    timedMs(tracer, ("cta.hash." + tag).c_str(), -1, [&] {
        cta::alg::hashTokens(doc.tokens, lsh.lsh0);
        cta::alg::hashTokens(doc.tokens, lsh.lsh1);
    });
    Matrix c_cat = inter.kvComp.level1.centroids;
    c_cat.appendRows(inter.kvComp.level2.centroids);
    Matrix q_bar, k_bar, v_bar;
    *linear_ms =
        timedMs(tracer, ("cta.linears." + tag).c_str(), -1, [&] {
            q_bar = head.wq.forward(inter.queryComp.centroids);
            k_bar = head.wk.forward(c_cat);
            v_bar = head.wv.forward(c_cat);
        });
    Matrix ap, row_sums;
    timedMs(tracer, ("cta.pag." + tag).c_str(), -1, [&] {
        cta::alg::aggregateProbabilities(
            inter.sBar, inter.kvComp.level1.table,
            inter.kvComp.level2.table, inter.kvComp.level1.numClusters,
            ap, row_sums);
    });
    return bitEqual(q_bar, inter.qBar) && bitEqual(k_bar, inter.kBar) &&
           bitEqual(v_bar, inter.vBar) && bitEqual(ap, inter.ap) &&
           bitEqual(row_sums, inter.apRowSums);
}

double
gflop(const cta::core::OpCounts &ops)
{
    return static_cast<double>(ops.flops()) / 1e9;
}

} // namespace

void
runAttnBatch(RunContext &ctx)
{
    Report &rep = ctx.report;

    Setup s = repeatedSetup(
        ctx, [&] { return makeSetup(ctx); },
        [](const Setup &a, const Setup &b) {
            return a.config.w0 == b.config.w0 &&
                   a.config.w1 == b.config.w1 &&
                   a.config.w2 == b.config.w2 &&
                   bitEqual(a.lengths.back().docs.back().tokens,
                            b.lengths.back().docs.back().tokens);
        });

    // References, counts (means over the documents) and the
    // bit-identity checks, untimed.
    for (Length &len : s.lengths) {
        const auto docs = static_cast<double>(len.docs.size());
        bool composition = true, stages = true, repeat = true;
        double max_kept = 0;
        for (Doc &doc : len.docs) {
            doc.reference = cta::alg::ctaAttention(doc.tokens, doc.tokens,
                                                   s.head, s.config);
            cta::core::OpCounts exact_ops;
            doc.exact = cta::nn::exactAttention(doc.tokens, doc.tokens,
                                                s.head, &exact_ops);
            const auto &st = doc.reference.stats;
            const double kept = st.effectiveRelationRatio();
            const double cosine =
                cta::alg::compareOutputs(doc.reference.output, doc.exact)
                    .meanCosine;
            rep.values["cta.k0." + len.tag] += st.k0 / docs;
            rep.values["cta.k1." + len.tag] += st.k1 / docs;
            rep.values["cta.k2." + len.tag] += st.k2 / docs;
            rep.values["cta.relations_kept." + len.tag] += kept / docs;
            rep.values["cta.gflop." + len.tag] +=
                gflop(doc.reference.totalOps()) / docs;
            rep.values["exact.gflop." + len.tag] = gflop(exact_ops);
            rep.values["cosine_mean." + len.tag] += cosine / docs;
            max_kept = std::max(max_kept, kept);

            Tracer off;
            composition = composition &&
                          bitEqual(composedCta(off, doc.tokens, len.tag,
                                               s.head, s.config)
                                       .output,
                                   doc.reference.output);
            double unused = 0;
            stages = stages &&
                     timeInnerStages(off, doc, len.tag, s.head, s.config,
                                     &unused);
            const cta::alg::CtaResult again = cta::alg::ctaAttention(
                doc.tokens, doc.tokens, s.head, s.config);
            repeat = repeat &&
                     again.stats.effectiveRelationRatio() == kept &&
                     cta::alg::compareOutputs(again.output, doc.exact)
                             .meanCosine == cosine;
        }
        rep.check("composition_bit_identical." + len.tag, composition);
        rep.check("stages_bit_identical." + len.tag, stages);
        rep.check("relations_and_cosine_repeat." + len.tag, repeat);
        // CTA-0.5 keeps about a quarter of the relations at n = 512
        // and fewer beyond; an uncompressed input keeps them all.
        char detail[64];
        std::snprintf(detail, sizeof(detail), "at most %.4f kept",
                      max_kept);
        rep.check("compressed." + len.tag, max_kept < 0.5, detail);
    }

    const Length &small = s.lengths.front();
    const Length &large = s.lengths.back();
    const auto docs = static_cast<std::int64_t>(large.docs.size());
    const auto per_round = static_cast<std::int64_t>(
        ctx.params.integer("docs_per_round"));
    std::int64_t round = 0;
    forEachPhase(ctx, [&](double seconds, const std::string &prefix) {
        double linear_ms = 0, linear_gflop = 0, exact_large_ms = 0;
        std::uint64_t exact_large_calls = 0;
        const Clock::time_point end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        while (Clock::now() < end) {
            ctx.setupIfDue();
            Scope round_span(ctx.tracer, "attn.round", round);
            for (const Length &len : s.lengths) {
                const std::string cta_span = "cta.call." + len.tag;
                for (std::int64_t k = 0; k < per_round; ++k) {
                    const Doc &doc = len.docs[static_cast<std::size_t>(
                        (round * per_round + k) % docs)];
                    cta::alg::CtaResult out;
                    const double ms =
                        timedMs(ctx.tracer, cta_span.c_str(), -1, [&] {
                            if (ctx.tracer.enabled())
                                out = composedCta(ctx.tracer, doc.tokens,
                                                  len.tag, s.head, s.config);
                            else
                                out = cta::alg::ctaAttention(
                                    doc.tokens, doc.tokens, s.head,
                                    s.config);
                        });
                    rep.series[prefix + "cta_ms_" + len.tag].push_back(ms);
                    ++rep.attempted;
                    if (!bitEqual(out.output, doc.reference.output))
                        ++rep.failed;
                    if (&len == &small)
                        rep.series[prefix + "cta_tok_s_" + len.tag].push_back(
                            static_cast<double>(len.n) / (ms / 1e3));
                    if (ctx.tracer.enabled()) {
                        double ms_linear = 0;
                        timeInnerStages(ctx.tracer, doc, len.tag, s.head,
                                        s.config, &ms_linear);
                        if (&len == &large) {
                            const auto &st = doc.reference.stats;
                            linear_ms += ms_linear;
                            linear_gflop += gflop(cta::nn::exactLinearOps(
                                st.k0, st.k1 + st.k2, st.dw, st.d));
                        }
                    }
                }
                // Exact attention costs the same on every document.
                const Doc &doc =
                    len.docs[static_cast<std::size_t>(round % docs)];
                Matrix exact;
                const double ms = timedMs(
                    ctx.tracer, ("exact.call." + len.tag).c_str(), -1, [&] {
                        exact = cta::nn::exactAttention(doc.tokens,
                                                        doc.tokens, s.head);
                    });
                rep.series[prefix + "exact_ms_" + len.tag].push_back(ms);
                ++rep.attempted;
                if (!bitEqual(exact, doc.exact))
                    ++rep.failed;
                if (&len == &large) {
                    exact_large_ms += ms;
                    ++exact_large_calls;
                }
            }
            ++round;
        }
        if (linear_ms > 0) {
            // FLOPs of the compressed projections, from their shapes.
            rep.values["core.linear_gflops"] = linear_gflop / (linear_ms / 1e3);
            rep.values["nn.exact_gflops"] =
                rep.values["exact.gflop." + large.tag] *
                static_cast<double>(exact_large_calls) /
                (exact_large_ms / 1e3);
        }
    });
    rep.check("outputs_repeat_bit_identical", rep.failed == 0);
}

} // namespace perfbench
