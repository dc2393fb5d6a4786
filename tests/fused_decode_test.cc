/**
 * @file
 * Determinism torture tests for the fused online-softmax decode
 * kernel (cta/fused_decode.h): at EVERY prefix length of a decoding
 * session, under every compute backend, thread count and dispatched
 * ISA level, the fused kernel must produce bit-identical outputs —
 * and identical attention operation counts — to the grouped
 * reference pipeline, and the session's step output must be exactly
 * that kernel result, normalized.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/matrix.h"
#include "core/op_counter.h"
#include "core/page_arena.h"
#include "core/rng.h"
#include "core/simd.h"
#include "cta/compressed_attention.h"
#include "cta/fused_decode.h"
#include "nn/workload.h"
#include "serve/decode_session.h"

namespace {

using cta::core::Backend;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::OpCounts;
using cta::core::PagedRows;
using cta::core::Real;
using cta::core::Rng;
using cta::core::SimdLevel;
using cta::serve::DecodeSession;
using cta::serve::ServeConfig;

class ScopedBackend
{
  public:
    explicit ScopedBackend(Backend *backend)
        : previous_(cta::core::setActiveBackend(backend))
    {
    }
    ~ScopedBackend() { cta::core::setActiveBackend(previous_); }

  private:
    Backend *previous_;
};

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

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(Real)) == 0;
}

/** Cluster-structured tokens the LSH compression actually compresses
 *  (pure noise would make every token its own cluster). */
Matrix
sampleTokens(Index n, Index dim, std::uint64_t seed)
{
    cta::nn::WorkloadProfile profile;
    profile.seqLen = n;
    profile.tokenDim = dim;
    profile.coarseClusters = 8;
    profile.fineClusters = 6;
    profile.noiseScale = 0.05f;
    cta::nn::WorkloadGenerator gen(profile, seed);
    return gen.sampleTokens();
}

/** Un-normalized attention output row of one decode step and its
 *  probability mass, before the session's normalization tail. */
struct Attended
{
    Matrix out;
    Real rowSum = 0;
};

/**
 * The grouped reference pipeline over @p session's current state:
 * materialize [K-bar1; K-bar2] and [V-bar1; V-bar2], score through
 * gemmTransposedB, scale, shift the level-2 scores by the level-1
 * row max, aggregate per (c1, c2) pair and multiply by V-bar.
 */
Attended
groupedReference(const Matrix &q_bar, const DecodeSession &session,
                 Real inv_sqrt_d, OpCounts *ops)
{
    const Index k1 = session.kv().level1().numClusters();
    const Index k2 = session.kv().level2().numClusters();
    Matrix k_bar = session.kBar(1);
    k_bar.appendRows(session.kBar(2));
    Matrix v_bar = session.vBar(1);
    v_bar.appendRows(session.vBar(2));

    Matrix s_bar = matmulTransB(q_bar, k_bar, ops);
    s_bar = scale(s_bar, inv_sqrt_d, ops);
    if (session.config().cta.subtractRowMax) {
        Real *row = s_bar.row(0).data();
        Real row_max = row[0];
        for (Index j = 1; j < k1; ++j)
            row_max = std::max(row_max, row[j]);
        for (Index j = k1; j < k1 + k2; ++j)
            row[j] -= row_max;
        ops->cmps += static_cast<std::uint64_t>(k1 - 1);
        ops->adds += static_cast<std::uint64_t>(k2);
    }

    Matrix ap;
    Matrix row_sums;
    cta::alg::aggregateProbabilitiesGrouped(s_bar, session.pairs(), k1,
                                            ap, row_sums, ops);
    return {matmul(ap, v_bar, ops), row_sums(0, 0)};
}

/** Copies a materialized projection table into fresh paged rows. */
PagedRows
pagedCopy(const Matrix &m,
          const std::shared_ptr<cta::core::PageArena> &arena)
{
    PagedRows rows(arena, m.cols());
    for (Index r = 0; r < m.rows(); ++r)
        rows.appendRow(m.row(r));
    return rows;
}

/** The fused kernel over the same session state. */
Attended
fusedAttend(const Matrix &q_bar, const DecodeSession &session,
            Real inv_sqrt_d, OpCounts *ops)
{
    const auto arena = std::make_shared<cta::core::PageArena>();
    const PagedRows k_bar1 = pagedCopy(session.kBar(1), arena);
    const PagedRows k_bar2 = pagedCopy(session.kBar(2), arena);
    const PagedRows v_bar1 = pagedCopy(session.vBar(1), arena);
    const PagedRows v_bar2 = pagedCopy(session.vBar(2), arena);
    cta::alg::FusedDecodeScratch scratch;
    Attended result;
    result.rowSum = cta::alg::fusedDecodeAttend(
        q_bar, k_bar1, k_bar2, v_bar1, v_bar2, session.pairs(),
        inv_sqrt_d, session.config().cta.subtractRowMax,
        cta::core::activeBackend().gemmFmaChains(), scratch, ops);
    result.out = Matrix(1, q_bar.cols());
    std::copy(scratch.out.begin(), scratch.out.end(),
              result.out.row(0).begin());
    return result;
}

/** DecodeSession::step's normalization tail. */
Matrix
normalized(const Attended &attended)
{
    const Real inv = 1.0f / (attended.rowSum * 0.5f);
    Matrix out(1, attended.out.cols());
    for (Index j = 0; j < out.cols(); ++j)
        out(0, j) = attended.out(0, j) * inv;
    return out;
}

/**
 * Decodes a stream through one session and, after every step, runs
 * the fused kernel and the grouped reference over the session's
 * state: their outputs and row sums must be bitwise identical and
 * their attention OpCounts equal, and the step output must be the
 * normalized fused result — so the session serves through the fused
 * kernel at every prefix length.
 */
void
expectFusedMatchesReference(Index prefill, Index steps,
                            std::uint64_t seed, ServeConfig config,
                            const std::string &what)
{
    const Index dim = 32, d = 16;
    const Matrix tokens = sampleTokens(prefill + steps, dim, seed);
    Rng rng(seed + 1);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);
    const Real inv_sqrt_d = 1.0f / std::sqrt(static_cast<Real>(d));

    config.groupedAggregation = true;
    DecodeSession session(params, config, dim);
    session.prefill(tokens.rowSlice(0, prefill));

    for (Index i = prefill; i < prefill + steps; ++i) {
        const Matrix out = session.step(tokens.row(i));
        ASSERT_FALSE(session.fallbackActive());

        Matrix q(1, dim);
        std::copy(tokens.row(i).begin(), tokens.row(i).end(),
                  q.row(0).begin());
        const Matrix q_bar = params.wq.forward(q);
        OpCounts fused_ops, reference_ops;
        const Attended fused =
            fusedAttend(q_bar, session, inv_sqrt_d, &fused_ops);
        const Attended reference = groupedReference(
            q_bar, session, inv_sqrt_d, &reference_ops);

        ASSERT_TRUE(bitIdentical(fused.out, reference.out))
            << what << ": outputs diverge at prefix " << i;
        ASSERT_EQ(std::memcmp(&fused.rowSum, &reference.rowSum,
                              sizeof(Real)),
                  0)
            << what << ": row sums diverge at prefix " << i;
        ASSERT_EQ(fused_ops, reference_ops)
            << what << ": op counts diverge at prefix " << i;
        ASSERT_TRUE(bitIdentical(out, normalized(fused)))
            << what << ": step output is not the fused result at "
            << "prefix " << i;
    }
}

TEST(FusedDecodeTest, BitIdenticalToReferenceAtEveryPrefixLength)
{
    // Long stream under the default backend: every prefix length from
    // the first post-prefill token exercises fresh cluster counts,
    // pair multisets and row-max shifts.
    expectFusedMatchesReference(16, 48, 21, ServeConfig{},
                              "default config");
}

TEST(FusedDecodeTest, BitIdenticalWithoutRowMaxShift)
{
    ServeConfig config;
    config.cta.subtractRowMax = false;
    expectFusedMatchesReference(16, 32, 22, config,
                              "subtractRowMax off");
}

TEST(FusedDecodeTest, BitIdenticalAcrossBackendsAndThreadCounts)
{
    // The decode step's numerics may differ BETWEEN backends (the
    // simd backend runs FMA projection chains), but fused and the
    // reference must agree WITHIN each backend — the kernel dispatches
    // its AV accumulation on Backend::gemmFmaChains to guarantee it.
    for (const char *spec : {"naive", "simd:1", "simd:8"}) {
        const auto backend = cta::core::makeBackend(spec);
        ScopedBackend guard(backend.get());
        expectFusedMatchesReference(16, 24, 23, ServeConfig{},
                                  std::string("backend ") + spec);
    }
}

TEST(FusedDecodeTest, BitIdenticalAtEveryDispatchedIsaLevel)
{
    // CTA_SIMD-forced levels re-dispatch every vector primitive the
    // fused kernel and the cached-projection updates run through.
    const auto simd = cta::core::makeBackend("simd:4");
    ScopedBackend backend_guard(simd.get());
    for (const SimdLevel level :
         {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512,
          SimdLevel::Neon}) {
        if (!cta::core::simdLevelSupported(level))
            continue;
        ScopedSimdLevel level_guard(level);
        expectFusedMatchesReference(
            16, 24, 24, ServeConfig{},
            std::string("level ") + cta::core::simdLevelName(level));
    }
}

TEST(FusedDecodeTest, IsaLevelDoesNotChangeFusedOutputs)
{
    // Stronger than fused==reference per level: the fused outputs
    // themselves must be bitwise level-invariant, because every SIMD
    // primitive preserves the scalar per-element rounding sequence.
    const Index dim = 32, d = 16, prefill = 16, steps = 16;
    const Matrix tokens = sampleTokens(prefill + steps, dim, 25);
    Rng rng(26);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);
    const auto simd = cta::core::makeBackend("simd:4");
    ScopedBackend backend_guard(simd.get());

    std::vector<Matrix> reference;
    bool have_reference = false;
    for (const SimdLevel level :
         {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512,
          SimdLevel::Neon}) {
        if (!cta::core::simdLevelSupported(level))
            continue;
        ScopedSimdLevel level_guard(level);
        DecodeSession session(params, ServeConfig{}, dim);
        session.prefill(tokens.rowSlice(0, prefill));
        std::vector<Matrix> outputs;
        for (Index i = prefill; i < prefill + steps; ++i)
            outputs.push_back(session.step(tokens.row(i)));
        if (!have_reference) {
            reference = std::move(outputs);
            have_reference = true;
            continue;
        }
        for (std::size_t s = 0; s < reference.size(); ++s)
            EXPECT_TRUE(bitIdentical(outputs[s], reference[s]))
                << "level " << cta::core::simdLevelName(level)
                << " diverges at step " << s;
    }
}

TEST(FusedDecodeTest, SteadyStateStepsDoNotRegrowScratch)
{
    // The session-held scratch makes steady-state steps allocation-
    // free: after the first step the buffers only ever resize when
    // the cluster count grows past their capacity. Smoke-check the
    // plumbing by decoding a long stream and confirming health.
    const Index dim = 32, d = 16;
    const Matrix tokens = sampleTokens(160, dim, 29);
    Rng rng(30);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);
    DecodeSession session(params, ServeConfig{}, dim);
    session.prefill(tokens.rowSlice(0, 32));
    for (Index i = 32; i < 160; ++i) {
        const Matrix out = session.step(tokens.row(i));
        ASSERT_EQ(out.rows(), 1);
        ASSERT_EQ(out.cols(), d);
        for (Index j = 0; j < d; ++j)
            ASSERT_TRUE(std::isfinite(out(0, j)))
                << "step " << i << " col " << j;
    }
    EXPECT_FALSE(session.fallbackActive());
}

} // namespace
