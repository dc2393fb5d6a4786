#include "core/simd.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string_view>

#include "core/env.h"
#include "core/logging.h"
#include "core/matrix.h"

#if defined(__x86_64__) || defined(__i386__)
#define CTA_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define CTA_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace cta::core {

namespace {

constexpr Index kW = kSimdPanelWidth;

// ---------------------------------------------------------------
// Scalar reference kernels. Every vector kernel below reproduces
// these per-element operation sequences exactly (see simd.h).
// ---------------------------------------------------------------

Real
rowMaxScalar(const Real *x, Index n)
{
    Real m = x[0];
    for (Index j = 1; j < n; ++j)
        m = std::max(m, x[j]);
    return m;
}

void
scaleRowScalar(Real *x, Index n, Real s)
{
    for (Index j = 0; j < n; ++j)
        x[j] *= s;
}

void
addRowScalar(Real *acc, const Real *x, Index n)
{
    for (Index j = 0; j < n; ++j)
        acc[j] += x[j];
}

void
mulAddRowScalar(Real *acc, const Real *x, Real w, Index n)
{
    for (Index j = 0; j < n; ++j)
        acc[j] += w * x[j];
}

void
fmaRowScalar(Real *acc, const Real *x, Real w, Index n)
{
    for (Index j = 0; j < n; ++j)
        acc[j] = std::fmaf(w, x[j], acc[j]);
}

/** One panel column's FMA chain: c += sum_k a[k] * panel[k*stride +
 *  t], rounded once per step — the element semantics of every packed
 *  GEMM path. @p stride is kW for a simdPackB image and B's row
 *  width when the panel aliases B's row-major storage directly. */
inline Real
fmaChain(const Real *a, const Real *panel, Index stride, Index t,
         Index depth, Real c)
{
    for (Index k = 0; k < depth; ++k)
        c = std::fmaf(a[k], panel[k * stride + t], c);
    return c;
}

// Every packed path below loops panel-OUTER, rows-INNER within its
// [k_begin, k_end) depth slice: one packed panel slice stays
// cache-resident across all rows instead of the full packed B being
// re-streamed once per row block. The loop order and the depth
// slicing only reorder which element is computed when; each element
// keeps its single k-ascending FMA chain (slices continue the chain
// through an exact store/load of the fp32 partial), so neither can
// change a bit of the result.

void
gemmRowsPackedScalar(const Matrix &a, const Real *packed, Index width,
                     Matrix &c, Index row_begin, Index row_end,
                     Index k_begin, Index k_end, Index bstride)
{
    const Index depth = a.cols();
    const Index panels = (width + kW - 1) / kW;
    const Index kd = k_end - k_begin;
    // Panel p starts kW floats into the previous one when the
    // "pack" is B's own row-major storage (bstride == width), and
    // a full depth x kW block later in a simdPackB image.
    const Index panel_step = bstride == kW ? depth * kW : kW;
    for (Index p = 0; p < panels; ++p) {
        const Real *panel =
            packed + p * panel_step + k_begin * bstride;
        const Index j0 = p * kW;
        const Index pw = std::min<Index>(kW, width - j0);
        for (Index i = row_begin; i < row_end; ++i) {
            const Real *arow = a.row(i).data() + k_begin;
            Real *crow = c.row(i).data() + j0;
            for (Index t = 0; t < pw; ++t)
                crow[t] = fmaChain(arow, panel, bstride, t, kd, crow[t]);
        }
    }
}

void
vecMatRowsScalar(const Matrix &a, const Matrix &b, Matrix &c,
                 Index row_begin, Index row_end)
{
    // ikj order — per output element one k-ascending fmaf chain, the
    // same chain class as the packed GEMM kernels.
    const Index width = b.cols();
    for (Index i = row_begin; i < row_end; ++i) {
        const Real *arow = a.row(i).data();
        Real *crow = c.row(i).data();
        for (Index k = 0; k < a.cols(); ++k) {
            const Real aik = arow[k];
            const Real *brow = b.row(k).data();
            for (Index j = 0; j < width; ++j)
                crow[j] = std::fmaf(aik, brow[j], crow[j]);
        }
    }
}

#if CTA_SIMD_X86

// ---------------------------------------------------------------
// AVX2 kernels (8-lane float, FMA).
// ---------------------------------------------------------------

__attribute__((target("avx2,fma"))) Real
rowMaxAvx2(const Real *x, Index n)
{
    if (n < 8)
        return rowMaxScalar(x, n);
    __m256 vm = _mm256_loadu_ps(x);
    Index j = 8;
    for (; j + 8 <= n; j += 8)
        vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + j));
    float lanes[8];
    _mm256_storeu_ps(lanes, vm);
    Real m = lanes[0];
    for (int t = 1; t < 8; ++t)
        m = std::max(m, lanes[t]);
    for (; j < n; ++j)
        m = std::max(m, x[j]);
    return m;
}

__attribute__((target("avx2,fma"))) void
scaleRowAvx2(Real *x, Index n, Real s)
{
    const __m256 vs = _mm256_set1_ps(s);
    Index j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(x + j,
                         _mm256_mul_ps(_mm256_loadu_ps(x + j), vs));
    for (; j < n; ++j)
        x[j] *= s;
}

__attribute__((target("avx2,fma"))) void
addRowAvx2(Real *acc, const Real *x, Index n)
{
    Index j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(acc + j,
                         _mm256_add_ps(_mm256_loadu_ps(acc + j),
                                       _mm256_loadu_ps(x + j)));
    for (; j < n; ++j)
        acc[j] += x[j];
}

__attribute__((target("avx2,fma"))) void
mulAddRowAvx2(Real *acc, const Real *x, Real w, Index n)
{
    const __m256 vw = _mm256_set1_ps(w);
    Index j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 prod = _mm256_mul_ps(vw, _mm256_loadu_ps(x + j));
        _mm256_storeu_ps(
            acc + j, _mm256_add_ps(_mm256_loadu_ps(acc + j), prod));
    }
    for (; j < n; ++j)
        acc[j] += w * x[j];
}

__attribute__((target("avx2,fma"))) void
fmaRowAvx2(Real *acc, const Real *x, Real w, Index n)
{
    const __m256 vw = _mm256_set1_ps(w);
    Index j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(acc + j,
                         _mm256_fmadd_ps(vw, _mm256_loadu_ps(x + j),
                                         _mm256_loadu_ps(acc + j)));
    for (; j < n; ++j)
        acc[j] = std::fmaf(w, x[j], acc[j]);
}

/** 4 x 16 FMA micro-kernel on one packed panel (stride kW): 8 ymm
 *  accumulators live across the whole depth. */
__attribute__((target("avx2,fma"))) void
micro4x16Avx2(const Real *a0, const Real *a1, const Real *a2,
              const Real *a3, const Real *panel, Index bstride,
              Index depth, Real *c0, Real *c1, Real *c2, Real *c3)
{
#define CTA_LOAD2(r)                                                  \
    __m256 acc##r##0 = _mm256_loadu_ps(c##r);                         \
    __m256 acc##r##1 = _mm256_loadu_ps(c##r + 8)
    CTA_LOAD2(0);
    CTA_LOAD2(1);
    CTA_LOAD2(2);
    CTA_LOAD2(3);
#undef CTA_LOAD2
    for (Index k = 0; k < depth; ++k) {
        const Real *bk = panel + k * bstride;
        const __m256 b0 = _mm256_loadu_ps(bk);
        const __m256 b1 = _mm256_loadu_ps(bk + 8);
        __m256 av;
#define CTA_FMA2(r)                                                   \
    av = _mm256_set1_ps(a##r[k]);                                     \
    acc##r##0 = _mm256_fmadd_ps(av, b0, acc##r##0);                   \
    acc##r##1 = _mm256_fmadd_ps(av, b1, acc##r##1)
        CTA_FMA2(0);
        CTA_FMA2(1);
        CTA_FMA2(2);
        CTA_FMA2(3);
#undef CTA_FMA2
    }
#define CTA_STORE2(r)                                                 \
    _mm256_storeu_ps(c##r, acc##r##0);                                \
    _mm256_storeu_ps(c##r + 8, acc##r##1)
    CTA_STORE2(0);
    CTA_STORE2(1);
    CTA_STORE2(2);
    CTA_STORE2(3);
#undef CTA_STORE2
}

/** 6 x 16 variant: 12 ymm accumulators + 2 panel vectors + 1
 *  broadcast — 15 of the 16 ymm registers. Same panel bytes per k
 *  step as the 4-row kernel for 1.5x the FLOPs (see the 6 x 64
 *  AVX-512 note); same one FMA chain per element. */
__attribute__((target("avx2,fma"))) void
micro6x16Avx2(const Real *a0, const Real *a1, const Real *a2,
              const Real *a3, const Real *a4, const Real *a5,
              const Real *panel, Index bstride, Index depth, Real *c0,
              Real *c1, Real *c2, Real *c3, Real *c4, Real *c5)
{
#define CTA_LOAD2(r)                                                  \
    __m256 acc##r##0 = _mm256_loadu_ps(c##r);                         \
    __m256 acc##r##1 = _mm256_loadu_ps(c##r + 8)
    CTA_LOAD2(0);
    CTA_LOAD2(1);
    CTA_LOAD2(2);
    CTA_LOAD2(3);
    CTA_LOAD2(4);
    CTA_LOAD2(5);
#undef CTA_LOAD2
    for (Index k = 0; k < depth; ++k) {
        const Real *bk = panel + k * bstride;
        const __m256 b0 = _mm256_loadu_ps(bk);
        const __m256 b1 = _mm256_loadu_ps(bk + 8);
        __m256 av;
#define CTA_FMA2(r)                                                   \
    av = _mm256_set1_ps(a##r[k]);                                     \
    acc##r##0 = _mm256_fmadd_ps(av, b0, acc##r##0);                   \
    acc##r##1 = _mm256_fmadd_ps(av, b1, acc##r##1)
        CTA_FMA2(0);
        CTA_FMA2(1);
        CTA_FMA2(2);
        CTA_FMA2(3);
        CTA_FMA2(4);
        CTA_FMA2(5);
#undef CTA_FMA2
    }
#define CTA_STORE2(r)                                                 \
    _mm256_storeu_ps(c##r, acc##r##0);                                \
    _mm256_storeu_ps(c##r + 8, acc##r##1)
    CTA_STORE2(0);
    CTA_STORE2(1);
    CTA_STORE2(2);
    CTA_STORE2(3);
    CTA_STORE2(4);
    CTA_STORE2(5);
#undef CTA_STORE2
}

/** 1 x 16 variant for the row tail. */
__attribute__((target("avx2,fma"))) void
micro1x16Avx2(const Real *a0, const Real *panel, Index bstride,
              Index depth, Real *c0)
{
    __m256 acc0 = _mm256_loadu_ps(c0);
    __m256 acc1 = _mm256_loadu_ps(c0 + 8);
    for (Index k = 0; k < depth; ++k) {
        const Real *bk = panel + k * bstride;
        const __m256 av = _mm256_set1_ps(a0[k]);
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk + 8), acc1);
    }
    _mm256_storeu_ps(c0, acc0);
    _mm256_storeu_ps(c0 + 8, acc1);
}

void
gemmRowsPackedAvx2(const Matrix &a, const Real *packed, Index width,
                   Matrix &c, Index row_begin, Index row_end,
                   Index k_begin, Index k_end, Index bstride)
{
    const Index depth = a.cols();
    const Index panels = (width + kW - 1) / kW;
    const Index kd = k_end - k_begin;
    // Panel p starts kW floats into the previous one when the
    // "pack" is B's own row-major storage (bstride == width), and
    // a full depth x kW block later in a simdPackB image.
    const Index panel_step = bstride == kW ? depth * kW : kW;
    for (Index p = 0; p < panels; ++p) {
        const Real *panel =
            packed + p * panel_step + k_begin * bstride;
        const Index j0 = p * kW;
        const Index pw = std::min<Index>(kW, width - j0);
        Index i = row_begin;
        for (; i + 6 <= row_end; i += 6) {
            const Real *a0 = a.row(i).data() + k_begin;
            const Real *a1 = a.row(i + 1).data() + k_begin;
            const Real *a2 = a.row(i + 2).data() + k_begin;
            const Real *a3 = a.row(i + 3).data() + k_begin;
            const Real *a4 = a.row(i + 4).data() + k_begin;
            const Real *a5 = a.row(i + 5).data() + k_begin;
            Real *c0 = c.row(i).data() + j0;
            Real *c1 = c.row(i + 1).data() + j0;
            Real *c2 = c.row(i + 2).data() + j0;
            Real *c3 = c.row(i + 3).data() + j0;
            Real *c4 = c.row(i + 4).data() + j0;
            Real *c5 = c.row(i + 5).data() + j0;
            Index t = 0;
            for (; t + 16 <= pw; t += 16)
                micro6x16Avx2(a0, a1, a2, a3, a4, a5, panel + t, bstride,
                              kd, c0 + t, c1 + t, c2 + t, c3 + t,
                              c4 + t, c5 + t);
            for (; t < pw; ++t) {
                c0[t] = fmaChain(a0, panel, bstride, t, kd, c0[t]);
                c1[t] = fmaChain(a1, panel, bstride, t, kd, c1[t]);
                c2[t] = fmaChain(a2, panel, bstride, t, kd, c2[t]);
                c3[t] = fmaChain(a3, panel, bstride, t, kd, c3[t]);
                c4[t] = fmaChain(a4, panel, bstride, t, kd, c4[t]);
                c5[t] = fmaChain(a5, panel, bstride, t, kd, c5[t]);
            }
        }
        for (; i + 4 <= row_end; i += 4) {
            const Real *a0 = a.row(i).data() + k_begin;
            const Real *a1 = a.row(i + 1).data() + k_begin;
            const Real *a2 = a.row(i + 2).data() + k_begin;
            const Real *a3 = a.row(i + 3).data() + k_begin;
            Real *c0 = c.row(i).data() + j0;
            Real *c1 = c.row(i + 1).data() + j0;
            Real *c2 = c.row(i + 2).data() + j0;
            Real *c3 = c.row(i + 3).data() + j0;
            Index t = 0;
            for (; t + 16 <= pw; t += 16)
                micro4x16Avx2(a0, a1, a2, a3, panel + t, bstride, kd,
                              c0 + t, c1 + t, c2 + t, c3 + t);
            for (; t < pw; ++t) {
                c0[t] = fmaChain(a0, panel, bstride, t, kd, c0[t]);
                c1[t] = fmaChain(a1, panel, bstride, t, kd, c1[t]);
                c2[t] = fmaChain(a2, panel, bstride, t, kd, c2[t]);
                c3[t] = fmaChain(a3, panel, bstride, t, kd, c3[t]);
            }
        }
        for (; i < row_end; ++i) {
            const Real *a0 = a.row(i).data() + k_begin;
            Real *c0 = c.row(i).data() + j0;
            Index t = 0;
            for (; t + 16 <= pw; t += 16)
                micro1x16Avx2(a0, panel + t, bstride, kd, c0 + t);
            for (; t < pw; ++t)
                c0[t] = fmaChain(a0, panel, bstride, t, kd, c0[t]);
        }
    }
}

__attribute__((target("avx2,fma"))) void
vecMatRowsAvx2(const Matrix &a, const Matrix &b, Matrix &c,
               Index row_begin, Index row_end)
{
    const Index width = b.cols();
    const Index depth = a.cols();
    for (Index i = row_begin; i < row_end; ++i) {
        const Real *arow = a.row(i).data();
        Real *crow = c.row(i).data();
        Index j = 0;
        for (; j + 32 <= width; j += 32) {
            __m256 s0 = _mm256_loadu_ps(crow + j);
            __m256 s1 = _mm256_loadu_ps(crow + j + 8);
            __m256 s2 = _mm256_loadu_ps(crow + j + 16);
            __m256 s3 = _mm256_loadu_ps(crow + j + 24);
            for (Index k = 0; k < depth; ++k) {
                const Real *brow = b.row(k).data() + j;
                const __m256 av = _mm256_set1_ps(arow[k]);
                s0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), s0);
                s1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8),
                                     s1);
                s2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 16),
                                     s2);
                s3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 24),
                                     s3);
            }
            _mm256_storeu_ps(crow + j, s0);
            _mm256_storeu_ps(crow + j + 8, s1);
            _mm256_storeu_ps(crow + j + 16, s2);
            _mm256_storeu_ps(crow + j + 24, s3);
        }
        for (; j + 8 <= width; j += 8) {
            __m256 s0 = _mm256_loadu_ps(crow + j);
            for (Index k = 0; k < depth; ++k) {
                const __m256 av = _mm256_set1_ps(arow[k]);
                const __m256 bv = _mm256_loadu_ps(b.row(k).data() + j);
                s0 = _mm256_fmadd_ps(av, bv, s0);
            }
            _mm256_storeu_ps(crow + j, s0);
        }
        for (; j < width; ++j) {
            Real s = crow[j];
            for (Index k = 0; k < depth; ++k)
                s = std::fmaf(arow[k], b.row(k).data()[j], s);
            crow[j] = s;
        }
    }
}

// ---------------------------------------------------------------
// AVX-512F kernels (16-lane float).
// ---------------------------------------------------------------

__attribute__((target("avx512f"))) Real
rowMaxAvx512(const Real *x, Index n)
{
    if (n < 16)
        return rowMaxScalar(x, n);
    __m512 vm = _mm512_loadu_ps(x);
    Index j = 16;
    // The all-lanes masked form is the same vmaxps; gcc 12's plain
    // _mm512_max_ps passes a self-initialized _mm512_undefined_ps()
    // and trips -Wmaybe-uninitialized.
    for (; j + 16 <= n; j += 16)
        vm = _mm512_mask_max_ps(vm, static_cast<__mmask16>(0xFFFF), vm,
                                _mm512_loadu_ps(x + j));
    float lanes[16];
    _mm512_storeu_ps(lanes, vm);
    Real m = lanes[0];
    for (int t = 1; t < 16; ++t)
        m = std::max(m, lanes[t]);
    for (; j < n; ++j)
        m = std::max(m, x[j]);
    return m;
}

__attribute__((target("avx512f"))) void
scaleRowAvx512(Real *x, Index n, Real s)
{
    const __m512 vs = _mm512_set1_ps(s);
    Index j = 0;
    for (; j + 16 <= n; j += 16)
        _mm512_storeu_ps(x + j,
                         _mm512_mul_ps(_mm512_loadu_ps(x + j), vs));
    if (j < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - j)) - 1u);
        const __m512 v = _mm512_maskz_loadu_ps(m, x + j);
        _mm512_mask_storeu_ps(x + j, m, _mm512_mul_ps(v, vs));
    }
}

__attribute__((target("avx512f"))) void
addRowAvx512(Real *acc, const Real *x, Index n)
{
    Index j = 0;
    for (; j + 16 <= n; j += 16)
        _mm512_storeu_ps(acc + j,
                         _mm512_add_ps(_mm512_loadu_ps(acc + j),
                                       _mm512_loadu_ps(x + j)));
    if (j < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - j)) - 1u);
        const __m512 av = _mm512_maskz_loadu_ps(m, acc + j);
        const __m512 xv = _mm512_maskz_loadu_ps(m, x + j);
        _mm512_mask_storeu_ps(acc + j, m, _mm512_add_ps(av, xv));
    }
}

__attribute__((target("avx512f"))) void
mulAddRowAvx512(Real *acc, const Real *x, Real w, Index n)
{
    const __m512 vw = _mm512_set1_ps(w);
    Index j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512 prod = _mm512_mul_ps(vw, _mm512_loadu_ps(x + j));
        _mm512_storeu_ps(
            acc + j, _mm512_add_ps(_mm512_loadu_ps(acc + j), prod));
    }
    if (j < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - j)) - 1u);
        const __m512 av = _mm512_maskz_loadu_ps(m, acc + j);
        const __m512 xv = _mm512_maskz_loadu_ps(m, x + j);
        _mm512_mask_storeu_ps(
            acc + j, m, _mm512_add_ps(av, _mm512_mul_ps(vw, xv)));
    }
}

__attribute__((target("avx512f"))) void
fmaRowAvx512(Real *acc, const Real *x, Real w, Index n)
{
    const __m512 vw = _mm512_set1_ps(w);
    Index j = 0;
    for (; j + 16 <= n; j += 16)
        _mm512_storeu_ps(acc + j,
                         _mm512_fmadd_ps(vw, _mm512_loadu_ps(x + j),
                                         _mm512_loadu_ps(acc + j)));
    if (j < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - j)) - 1u);
        const __m512 av = _mm512_maskz_loadu_ps(m, acc + j);
        const __m512 xv = _mm512_maskz_loadu_ps(m, x + j);
        _mm512_mask_storeu_ps(acc + j, m,
                              _mm512_fmadd_ps(vw, xv, av));
    }
}

/** 4 x 64 FMA micro-kernel on one packed panel: 16 zmm accumulators
 *  live across the whole depth; @p lanes (1..64) masks the stores of
 *  a partial last panel (the panel itself is zero-padded, so the
 *  full-width loads and FMAs are safe and the dead lanes are simply
 *  not stored). */
__attribute__((target("avx512f"))) void
micro4x64Avx512(const Real *a0, const Real *a1, const Real *a2,
                const Real *a3, const Real *panel, Index bstride,
                Index depth, Real *c0, Real *c1, Real *c2, Real *c3,
                Index lanes)
{
    __mmask16 m[4];
    for (int g = 0; g < 4; ++g) {
        const Index rem = lanes - g * 16;
        m[g] = rem >= 16 ? static_cast<__mmask16>(0xFFFF)
               : rem <= 0
                   ? static_cast<__mmask16>(0)
                   : static_cast<__mmask16>((1u << rem) - 1u);
    }
#define CTA_LOAD4(r)                                                  \
    __m512 acc##r##0 = _mm512_maskz_loadu_ps(m[0], c##r);             \
    __m512 acc##r##1 = _mm512_maskz_loadu_ps(m[1], c##r + 16);        \
    __m512 acc##r##2 = _mm512_maskz_loadu_ps(m[2], c##r + 32);        \
    __m512 acc##r##3 = _mm512_maskz_loadu_ps(m[3], c##r + 48)
    CTA_LOAD4(0);
    CTA_LOAD4(1);
    CTA_LOAD4(2);
    CTA_LOAD4(3);
#undef CTA_LOAD4
    for (Index k = 0; k < depth; ++k) {
        const Real *bk = panel + k * bstride;
        const __m512 b0 = _mm512_loadu_ps(bk);
        const __m512 b1 = _mm512_loadu_ps(bk + 16);
        const __m512 b2 = _mm512_loadu_ps(bk + 32);
        const __m512 b3 = _mm512_loadu_ps(bk + 48);
        __m512 av;
#define CTA_FMA4(r)                                                   \
    av = _mm512_set1_ps(a##r[k]);                                     \
    acc##r##0 = _mm512_fmadd_ps(av, b0, acc##r##0);                   \
    acc##r##1 = _mm512_fmadd_ps(av, b1, acc##r##1);                   \
    acc##r##2 = _mm512_fmadd_ps(av, b2, acc##r##2);                   \
    acc##r##3 = _mm512_fmadd_ps(av, b3, acc##r##3)
        CTA_FMA4(0);
        CTA_FMA4(1);
        CTA_FMA4(2);
        CTA_FMA4(3);
#undef CTA_FMA4
    }
#define CTA_STORE4(r)                                                 \
    _mm512_mask_storeu_ps(c##r, m[0], acc##r##0);                     \
    _mm512_mask_storeu_ps(c##r + 16, m[1], acc##r##1);                \
    _mm512_mask_storeu_ps(c##r + 32, m[2], acc##r##2);                \
    _mm512_mask_storeu_ps(c##r + 48, m[3], acc##r##3)
    CTA_STORE4(0);
    CTA_STORE4(1);
    CTA_STORE4(2);
    CTA_STORE4(3);
#undef CTA_STORE4
}

/** 6 x 64 variant: 24 zmm accumulators + 4 panel vectors + 1
 *  broadcast — the ceiling of the 32-register file. A taller row
 *  block reads the same 256 panel bytes per k step for 1.5x the
 *  FLOPs of the 4-row kernel; the panel stream out of L2 is what
 *  bounds the 4-row kernel at sizes whose panels outgrow L1, so the
 *  extra rows translate directly into sustained FMA rate. Same one
 *  FMA chain per output element — grouping rows 6-at-a-time instead
 *  of 4 cannot change a bit. */
__attribute__((target("avx512f"))) void
micro6x64Avx512(const Real *a0, const Real *a1, const Real *a2,
                const Real *a3, const Real *a4, const Real *a5,
                const Real *panel, Index bstride, Index depth,
                Real *c0, Real *c1, Real *c2, Real *c3, Real *c4,
                Real *c5, Index lanes)
{
    __mmask16 m[4];
    for (int g = 0; g < 4; ++g) {
        const Index rem = lanes - g * 16;
        m[g] = rem >= 16 ? static_cast<__mmask16>(0xFFFF)
               : rem <= 0
                   ? static_cast<__mmask16>(0)
                   : static_cast<__mmask16>((1u << rem) - 1u);
    }
#define CTA_LOAD4(r)                                                  \
    __m512 acc##r##0 = _mm512_maskz_loadu_ps(m[0], c##r);             \
    __m512 acc##r##1 = _mm512_maskz_loadu_ps(m[1], c##r + 16);        \
    __m512 acc##r##2 = _mm512_maskz_loadu_ps(m[2], c##r + 32);        \
    __m512 acc##r##3 = _mm512_maskz_loadu_ps(m[3], c##r + 48)
    CTA_LOAD4(0);
    CTA_LOAD4(1);
    CTA_LOAD4(2);
    CTA_LOAD4(3);
    CTA_LOAD4(4);
    CTA_LOAD4(5);
#undef CTA_LOAD4
    for (Index k = 0; k < depth; ++k) {
        const Real *bk = panel + k * bstride;
        const __m512 b0 = _mm512_loadu_ps(bk);
        const __m512 b1 = _mm512_loadu_ps(bk + 16);
        const __m512 b2 = _mm512_loadu_ps(bk + 32);
        const __m512 b3 = _mm512_loadu_ps(bk + 48);
        __m512 av;
#define CTA_FMA4(r)                                                   \
    av = _mm512_set1_ps(a##r[k]);                                     \
    acc##r##0 = _mm512_fmadd_ps(av, b0, acc##r##0);                   \
    acc##r##1 = _mm512_fmadd_ps(av, b1, acc##r##1);                   \
    acc##r##2 = _mm512_fmadd_ps(av, b2, acc##r##2);                   \
    acc##r##3 = _mm512_fmadd_ps(av, b3, acc##r##3)
        CTA_FMA4(0);
        CTA_FMA4(1);
        CTA_FMA4(2);
        CTA_FMA4(3);
        CTA_FMA4(4);
        CTA_FMA4(5);
#undef CTA_FMA4
    }
#define CTA_STORE4(r)                                                 \
    _mm512_mask_storeu_ps(c##r, m[0], acc##r##0);                     \
    _mm512_mask_storeu_ps(c##r + 16, m[1], acc##r##1);                \
    _mm512_mask_storeu_ps(c##r + 32, m[2], acc##r##2);                \
    _mm512_mask_storeu_ps(c##r + 48, m[3], acc##r##3)
    CTA_STORE4(0);
    CTA_STORE4(1);
    CTA_STORE4(2);
    CTA_STORE4(3);
    CTA_STORE4(4);
    CTA_STORE4(5);
#undef CTA_STORE4
}

/** 1 x 64 variant for the row tail. */
__attribute__((target("avx512f"))) void
micro1x64Avx512(const Real *a0, const Real *panel, Index bstride,
                Index depth, Real *c0, Index lanes)
{
    __mmask16 m[4];
    for (int g = 0; g < 4; ++g) {
        const Index rem = lanes - g * 16;
        m[g] = rem >= 16 ? static_cast<__mmask16>(0xFFFF)
               : rem <= 0
                   ? static_cast<__mmask16>(0)
                   : static_cast<__mmask16>((1u << rem) - 1u);
    }
    __m512 acc0 = _mm512_maskz_loadu_ps(m[0], c0);
    __m512 acc1 = _mm512_maskz_loadu_ps(m[1], c0 + 16);
    __m512 acc2 = _mm512_maskz_loadu_ps(m[2], c0 + 32);
    __m512 acc3 = _mm512_maskz_loadu_ps(m[3], c0 + 48);
    for (Index k = 0; k < depth; ++k) {
        const Real *bk = panel + k * bstride;
        const __m512 av = _mm512_set1_ps(a0[k]);
        acc0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bk), acc0);
        acc1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bk + 16), acc1);
        acc2 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bk + 32), acc2);
        acc3 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bk + 48), acc3);
    }
    _mm512_mask_storeu_ps(c0, m[0], acc0);
    _mm512_mask_storeu_ps(c0 + 16, m[1], acc1);
    _mm512_mask_storeu_ps(c0 + 32, m[2], acc2);
    _mm512_mask_storeu_ps(c0 + 48, m[3], acc3);
}

void
gemmRowsPackedAvx512(const Matrix &a, const Real *packed, Index width,
                     Matrix &c, Index row_begin, Index row_end,
                     Index k_begin, Index k_end, Index bstride)
{
    const Index depth = a.cols();
    const Index panels = (width + kW - 1) / kW;
    const Index kd = k_end - k_begin;
    // Panel p starts kW floats into the previous one when the
    // "pack" is B's own row-major storage (bstride == width), and
    // a full depth x kW block later in a simdPackB image.
    const Index panel_step = bstride == kW ? depth * kW : kW;
    for (Index p = 0; p < panels; ++p) {
        const Real *panel =
            packed + p * panel_step + k_begin * bstride;
        const Index j0 = p * kW;
        const Index pw = std::min<Index>(kW, width - j0);
        Index i = row_begin;
        for (; i + 6 <= row_end; i += 6)
            micro6x64Avx512(a.row(i).data() + k_begin,
                            a.row(i + 1).data() + k_begin,
                            a.row(i + 2).data() + k_begin,
                            a.row(i + 3).data() + k_begin,
                            a.row(i + 4).data() + k_begin,
                            a.row(i + 5).data() + k_begin,
                            panel, bstride, kd, c.row(i).data() + j0,
                            c.row(i + 1).data() + j0,
                            c.row(i + 2).data() + j0,
                            c.row(i + 3).data() + j0,
                            c.row(i + 4).data() + j0,
                            c.row(i + 5).data() + j0, pw);
        for (; i + 4 <= row_end; i += 4)
            micro4x64Avx512(a.row(i).data() + k_begin,
                            a.row(i + 1).data() + k_begin,
                            a.row(i + 2).data() + k_begin,
                            a.row(i + 3).data() + k_begin,
                            panel, bstride, kd, c.row(i).data() + j0,
                            c.row(i + 1).data() + j0,
                            c.row(i + 2).data() + j0,
                            c.row(i + 3).data() + j0, pw);
        for (; i < row_end; ++i)
            micro1x64Avx512(a.row(i).data() + k_begin, panel, bstride, kd,
                            c.row(i).data() + j0, pw);
    }
}

__attribute__((target("avx512f"))) void
vecMatRowsAvx512(const Matrix &a, const Matrix &b, Matrix &c,
                 Index row_begin, Index row_end)
{
    const Index width = b.cols();
    const Index depth = a.cols();
    for (Index i = row_begin; i < row_end; ++i) {
        const Real *arow = a.row(i).data();
        Real *crow = c.row(i).data();
        Index j = 0;
        for (; j + 64 <= width; j += 64) {
            __m512 s0 = _mm512_loadu_ps(crow + j);
            __m512 s1 = _mm512_loadu_ps(crow + j + 16);
            __m512 s2 = _mm512_loadu_ps(crow + j + 32);
            __m512 s3 = _mm512_loadu_ps(crow + j + 48);
            for (Index k = 0; k < depth; ++k) {
                const Real *brow = b.row(k).data() + j;
                const __m512 av = _mm512_set1_ps(arow[k]);
                s0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow), s0);
                s1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow + 16),
                                     s1);
                s2 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow + 32),
                                     s2);
                s3 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow + 48),
                                     s3);
            }
            _mm512_storeu_ps(crow + j, s0);
            _mm512_storeu_ps(crow + j + 16, s1);
            _mm512_storeu_ps(crow + j + 32, s2);
            _mm512_storeu_ps(crow + j + 48, s3);
        }
        for (; j + 16 <= width; j += 16) {
            __m512 s0 = _mm512_loadu_ps(crow + j);
            for (Index k = 0; k < depth; ++k) {
                const __m512 av = _mm512_set1_ps(arow[k]);
                const __m512 bv = _mm512_loadu_ps(b.row(k).data() + j);
                s0 = _mm512_fmadd_ps(av, bv, s0);
            }
            _mm512_storeu_ps(crow + j, s0);
        }
        if (j < width) {
            const __mmask16 m =
                static_cast<__mmask16>((1u << (width - j)) - 1u);
            __m512 s0 = _mm512_maskz_loadu_ps(m, crow + j);
            for (Index k = 0; k < depth; ++k) {
                const __m512 av = _mm512_set1_ps(arow[k]);
                const __m512 bv =
                    _mm512_maskz_loadu_ps(m, b.row(k).data() + j);
                s0 = _mm512_fmadd_ps(av, bv, s0);
            }
            _mm512_mask_storeu_ps(crow + j, m, s0);
        }
    }
}

#endif // CTA_SIMD_X86

#if CTA_SIMD_NEON

// ---------------------------------------------------------------
// NEON kernels (4-lane float; baseline on aarch64, no target attr).
// ---------------------------------------------------------------

Real
rowMaxNeon(const Real *x, Index n)
{
    if (n < 4)
        return rowMaxScalar(x, n);
    float32x4_t vm = vld1q_f32(x);
    Index j = 4;
    for (; j + 4 <= n; j += 4)
        vm = vmaxq_f32(vm, vld1q_f32(x + j));
    Real m = vmaxvq_f32(vm);
    for (; j < n; ++j)
        m = std::max(m, x[j]);
    return m;
}

void
scaleRowNeon(Real *x, Index n, Real s)
{
    Index j = 0;
    for (; j + 4 <= n; j += 4)
        vst1q_f32(x + j, vmulq_n_f32(vld1q_f32(x + j), s));
    for (; j < n; ++j)
        x[j] *= s;
}

void
addRowNeon(Real *acc, const Real *x, Index n)
{
    Index j = 0;
    for (; j + 4 <= n; j += 4)
        vst1q_f32(acc + j,
                  vaddq_f32(vld1q_f32(acc + j), vld1q_f32(x + j)));
    for (; j < n; ++j)
        acc[j] += x[j];
}

void
mulAddRowNeon(Real *acc, const Real *x, Real w, Index n)
{
    Index j = 0;
    for (; j + 4 <= n; j += 4)
        vst1q_f32(acc + j,
                  vaddq_f32(vld1q_f32(acc + j),
                            vmulq_n_f32(vld1q_f32(x + j), w)));
    for (; j < n; ++j)
        acc[j] += w * x[j];
}

void
fmaRowNeon(Real *acc, const Real *x, Real w, Index n)
{
    Index j = 0;
    for (; j + 4 <= n; j += 4)
        vst1q_f32(acc + j,
                  vfmaq_n_f32(vld1q_f32(acc + j), vld1q_f32(x + j),
                              w));
    for (; j < n; ++j)
        acc[j] = std::fmaf(w, x[j], acc[j]);
}

void
gemmRowsPackedNeon(const Matrix &a, const Real *packed, Index width,
                   Matrix &c, Index row_begin, Index row_end,
                   Index k_begin, Index k_end, Index bstride)
{
    const Index depth = a.cols();
    const Index panels = (width + kW - 1) / kW;
    const Index kd = k_end - k_begin;
    // Panel p starts kW floats into the previous one when the
    // "pack" is B's own row-major storage (bstride == width), and
    // a full depth x kW block later in a simdPackB image.
    const Index panel_step = bstride == kW ? depth * kW : kW;
    for (Index p = 0; p < panels; ++p) {
        const Real *panel =
            packed + p * panel_step + k_begin * bstride;
        const Index j0 = p * kW;
        const Index pw = std::min<Index>(kW, width - j0);
        for (Index i = row_begin; i < row_end; ++i) {
            const Real *arow = a.row(i).data() + k_begin;
            Real *crow = c.row(i).data() + j0;
            Index t = 0;
            for (; t + 16 <= pw; t += 16) {
                float32x4_t s0 = vld1q_f32(crow + t);
                float32x4_t s1 = vld1q_f32(crow + t + 4);
                float32x4_t s2 = vld1q_f32(crow + t + 8);
                float32x4_t s3 = vld1q_f32(crow + t + 12);
                for (Index k = 0; k < kd; ++k) {
                    const Real *bk = panel + k * bstride + t;
                    const Real av = arow[k];
                    s0 = vfmaq_n_f32(s0, vld1q_f32(bk), av);
                    s1 = vfmaq_n_f32(s1, vld1q_f32(bk + 4), av);
                    s2 = vfmaq_n_f32(s2, vld1q_f32(bk + 8), av);
                    s3 = vfmaq_n_f32(s3, vld1q_f32(bk + 12), av);
                }
                vst1q_f32(crow + t, s0);
                vst1q_f32(crow + t + 4, s1);
                vst1q_f32(crow + t + 8, s2);
                vst1q_f32(crow + t + 12, s3);
            }
            for (; t < pw; ++t)
                crow[t] = fmaChain(arow, panel, bstride, t, kd, crow[t]);
        }
    }
}

void
vecMatRowsNeon(const Matrix &a, const Matrix &b, Matrix &c,
               Index row_begin, Index row_end)
{
    const Index width = b.cols();
    const Index depth = a.cols();
    for (Index i = row_begin; i < row_end; ++i) {
        const Real *arow = a.row(i).data();
        Real *crow = c.row(i).data();
        Index j = 0;
        for (; j + 16 <= width; j += 16) {
            float32x4_t s0 = vld1q_f32(crow + j);
            float32x4_t s1 = vld1q_f32(crow + j + 4);
            float32x4_t s2 = vld1q_f32(crow + j + 8);
            float32x4_t s3 = vld1q_f32(crow + j + 12);
            for (Index k = 0; k < depth; ++k) {
                const Real *brow = b.row(k).data() + j;
                const Real av = arow[k];
                s0 = vfmaq_n_f32(s0, vld1q_f32(brow), av);
                s1 = vfmaq_n_f32(s1, vld1q_f32(brow + 4), av);
                s2 = vfmaq_n_f32(s2, vld1q_f32(brow + 8), av);
                s3 = vfmaq_n_f32(s3, vld1q_f32(brow + 12), av);
            }
            vst1q_f32(crow + j, s0);
            vst1q_f32(crow + j + 4, s1);
            vst1q_f32(crow + j + 8, s2);
            vst1q_f32(crow + j + 12, s3);
        }
        for (; j < width; ++j) {
            Real s = crow[j];
            for (Index k = 0; k < depth; ++k)
                s = std::fmaf(arow[k], b.row(k).data()[j], s);
            crow[j] = s;
        }
    }
}

#endif // CTA_SIMD_NEON

// ---------------------------------------------------------------
// Wide-chain transposed-B kernels: C = A * B^T with one double chain
// per output element, k ascending from +0, cast to Real once — the
// naive reference's numerics. Lanes run across OUTPUT COLUMNS of a
// packed B^T panel, so a vector FMA advances kTP independent chains
// by one k step each. A float x float product is exact in double
// (24 + 24 significand bits < 53), so fma(a, b, acc) rounds exactly
// like acc + a * b: every level below, and the scalar mul-then-add
// fallback, is bit-identical to the reference. There is no NEON
// kernel yet; aarch64 runs the scalar fallback.
// ---------------------------------------------------------------

constexpr Index kTP = kSimdTransBPanel;

/** Computes @p rows output rows of one panel: c[r * ldc + t] for
 *  t < @p lanes from widened A rows a[r * depth ..]. */
using TransBRowsFn = void (*)(const Wide *a, Index rows, Index depth,
                              const Wide *panel, Real *c, Index ldc,
                              Index lanes);

/** Stores @p lanes (1..kTP) Wide accumulators of one output row,
 *  cast to Real. */
inline void
storeWideRow(const Wide *acc, Real *c, Index lanes)
{
    for (Index t = 0; t < lanes; ++t)
        c[t] = static_cast<Real>(acc[t]);
}

void
transBRowsScalar(const Wide *a, Index rows, Index depth,
                 const Wide *panel, Real *c, Index ldc, Index lanes)
{
    for (Index r = 0; r < rows; ++r) {
        const Wide *arow = a + r * depth;
        Wide acc[kTP];
        // Eight chains per depth pass: enough independent adds to
        // hide the add latency, few enough to stay in registers.
        for (Index t0 = 0; t0 < kTP; t0 += 8) {
            Wide part[8] = {};
            for (Index k = 0; k < depth; ++k) {
                const Wide ak = arow[k];
                const Wide *bk = panel + k * kTP + t0;
                for (Index t = 0; t < 8; ++t)
                    part[t] += ak * bk[t];
            }
            std::memcpy(acc + t0, part, sizeof(part));
        }
        storeWideRow(acc, c + r * ldc, lanes);
    }
}

/** The shared loop nest: @p rows_fn over every row of each of the
 *  task's panels. */
void
transBPanels(const SimdTransBPack &pack, Matrix &c, Index panel_begin,
             Index panel_end, TransBRowsFn rows_fn)
{
    for (Index p = panel_begin; p < panel_end; ++p) {
        const Index j0 = p * kTP;
        rows_fn(pack.a.data(), pack.rows, pack.depth,
                pack.panels.data() + p * pack.depth * kTP,
                c.data() + j0, pack.cols, std::min(kTP, pack.cols - j0));
    }
}

#if CTA_SIMD_X86

/** R rows x kTP columns on AVX-512: 2R zmm chains live across the
 *  whole depth, fed by two panel loads and R broadcasts per k. */
template <int R>
__attribute__((target("avx512f"))) void
transBMicroAvx512(const Wide *a, Index depth, const Wide *panel,
                  Real *c, Index ldc, Index lanes)
{
    __m512d acc[R][2];
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r)
        acc[r][0] = acc[r][1] = _mm512_setzero_pd();
    for (Index k = 0; k < depth; ++k) {
        const __m512d b0 = _mm512_loadu_pd(panel + k * kTP);
        const __m512d b1 = _mm512_loadu_pd(panel + k * kTP + 8);
#pragma GCC unroll 16
        for (int r = 0; r < R; ++r) {
            const __m512d av = _mm512_set1_pd(a[r * depth + k]);
            acc[r][0] = _mm512_fmadd_pd(av, b0, acc[r][0]);
            acc[r][1] = _mm512_fmadd_pd(av, b1, acc[r][1]);
        }
    }
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
        // The all-lanes zero-masked form is the same vcvtpd2ps; gcc
        // 12's plain _mm512_cvtpd_ps trips -Wuninitialized (see
        // rowMaxAvx512).
        Real *crow = c + r * ldc;
        const __m256 lo = _mm512_maskz_cvtpd_ps(
            static_cast<__mmask8>(0xFF), acc[r][0]);
        const __m256 hi = _mm512_maskz_cvtpd_ps(
            static_cast<__mmask8>(0xFF), acc[r][1]);
        if (lanes == kTP) {
            _mm256_storeu_ps(crow, lo);
            _mm256_storeu_ps(crow + 8, hi);
        } else {
            Real tmp[kTP];
            _mm256_storeu_ps(tmp, lo);
            _mm256_storeu_ps(tmp + 8, hi);
            std::memcpy(crow, tmp,
                        static_cast<std::size_t>(lanes) * sizeof(Real));
        }
    }
}

void
transBRowsAvx512(const Wide *a, Index rows, Index depth,
                 const Wide *panel, Real *c, Index ldc, Index lanes)
{
    Index r = 0;
    for (; r + 8 <= rows; r += 8)
        transBMicroAvx512<8>(a + r * depth, depth, panel, c + r * ldc,
                             ldc, lanes);
    for (; r + 4 <= rows; r += 4)
        transBMicroAvx512<4>(a + r * depth, depth, panel, c + r * ldc,
                             ldc, lanes);
    for (; r < rows; ++r)
        transBMicroAvx512<1>(a + r * depth, depth, panel, c + r * ldc,
                             ldc, lanes);
}

/** R rows x kTP columns on AVX2: 4R ymm chains (R <= 2 keeps the
 *  four panel vectors and one broadcast in the 16-register file). */
template <int R>
__attribute__((target("avx2,fma"))) void
transBMicroAvx2(const Wide *a, Index depth, const Wide *panel, Real *c,
                Index ldc, Index lanes)
{
    __m256d acc[R][4];
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r)
        acc[r][0] = acc[r][1] = acc[r][2] = acc[r][3] =
            _mm256_setzero_pd();
    for (Index k = 0; k < depth; ++k) {
        const Wide *bk = panel + k * kTP;
        const __m256d b0 = _mm256_loadu_pd(bk);
        const __m256d b1 = _mm256_loadu_pd(bk + 4);
        const __m256d b2 = _mm256_loadu_pd(bk + 8);
        const __m256d b3 = _mm256_loadu_pd(bk + 12);
#pragma GCC unroll 16
        for (int r = 0; r < R; ++r) {
            const __m256d av = _mm256_set1_pd(a[r * depth + k]);
            acc[r][0] = _mm256_fmadd_pd(av, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_pd(av, b1, acc[r][1]);
            acc[r][2] = _mm256_fmadd_pd(av, b2, acc[r][2]);
            acc[r][3] = _mm256_fmadd_pd(av, b3, acc[r][3]);
        }
    }
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
        Real tmp[kTP];
        for (int g = 0; g < 4; ++g)
            _mm_storeu_ps(tmp + 4 * g, _mm256_cvtpd_ps(acc[r][g]));
        std::memcpy(c + r * ldc, tmp,
                    static_cast<std::size_t>(lanes) * sizeof(Real));
    }
}

void
transBRowsAvx2(const Wide *a, Index rows, Index depth, const Wide *panel,
               Real *c, Index ldc, Index lanes)
{
    Index r = 0;
    for (; r + 2 <= rows; r += 2)
        transBMicroAvx2<2>(a + r * depth, depth, panel, c + r * ldc, ldc,
                           lanes);
    for (; r < rows; ++r)
        transBMicroAvx2<1>(a + r * depth, depth, panel, c + r * ldc, ldc,
                           lanes);
}

#endif // CTA_SIMD_X86

// ---------------------------------------------------------------
// Register-resident FMA peak loops (roofline ceiling). 16
// independent chains cover the FMA latency x throughput product on
// every target; the sink return defeats dead-code elimination.
// ---------------------------------------------------------------

#define CTA_PEAK_BODY(VT, SET1, FMA, ADD)                             \
    const VT m = SET1(1.0000001f);                                    \
    const VT d = SET1(1e-7f);                                         \
    VT a0 = SET1(0.1f), a1 = SET1(0.2f), a2 = SET1(0.3f),             \
       a3 = SET1(0.4f), a4 = SET1(0.5f), a5 = SET1(0.6f),             \
       a6 = SET1(0.7f), a7 = SET1(0.8f), a8 = SET1(0.9f),             \
       a9 = SET1(1.0f), a10 = SET1(1.1f), a11 = SET1(1.2f),           \
       a12 = SET1(1.3f), a13 = SET1(1.4f), a14 = SET1(1.5f),          \
       a15 = SET1(1.6f);                                              \
    for (long i = 0; i < iters; ++i) {                                \
        a0 = FMA(a0, m, d);                                           \
        a1 = FMA(a1, m, d);                                           \
        a2 = FMA(a2, m, d);                                           \
        a3 = FMA(a3, m, d);                                           \
        a4 = FMA(a4, m, d);                                           \
        a5 = FMA(a5, m, d);                                           \
        a6 = FMA(a6, m, d);                                           \
        a7 = FMA(a7, m, d);                                           \
        a8 = FMA(a8, m, d);                                           \
        a9 = FMA(a9, m, d);                                           \
        a10 = FMA(a10, m, d);                                         \
        a11 = FMA(a11, m, d);                                         \
        a12 = FMA(a12, m, d);                                         \
        a13 = FMA(a13, m, d);                                         \
        a14 = FMA(a14, m, d);                                         \
        a15 = FMA(a15, m, d);                                         \
    }                                                                 \
    VT r = ADD(a0, a1);                                               \
    r = ADD(r, a2);                                                   \
    r = ADD(r, a3);                                                   \
    r = ADD(r, a4);                                                   \
    r = ADD(r, a5);                                                   \
    r = ADD(r, a6);                                                   \
    r = ADD(r, a7);                                                   \
    r = ADD(r, a8);                                                   \
    r = ADD(r, a9);                                                   \
    r = ADD(r, a10);                                                  \
    r = ADD(r, a11);                                                  \
    r = ADD(r, a12);                                                  \
    r = ADD(r, a13);                                                  \
    r = ADD(r, a14);                                                  \
    r = ADD(r, a15)

float
fmaPeakScalar(long iters)
{
    float m = 1.0000001f, d = 1e-7f;
    float a0 = 0.1f, a1 = 0.2f, a2 = 0.3f, a3 = 0.4f, a4 = 0.5f,
          a5 = 0.6f, a6 = 0.7f, a7 = 0.8f, a8 = 0.9f, a9 = 1.0f,
          a10 = 1.1f, a11 = 1.2f, a12 = 1.3f, a13 = 1.4f, a14 = 1.5f,
          a15 = 1.6f;
    for (long i = 0; i < iters; ++i) {
        a0 = std::fmaf(a0, m, d);
        a1 = std::fmaf(a1, m, d);
        a2 = std::fmaf(a2, m, d);
        a3 = std::fmaf(a3, m, d);
        a4 = std::fmaf(a4, m, d);
        a5 = std::fmaf(a5, m, d);
        a6 = std::fmaf(a6, m, d);
        a7 = std::fmaf(a7, m, d);
        a8 = std::fmaf(a8, m, d);
        a9 = std::fmaf(a9, m, d);
        a10 = std::fmaf(a10, m, d);
        a11 = std::fmaf(a11, m, d);
        a12 = std::fmaf(a12, m, d);
        a13 = std::fmaf(a13, m, d);
        a14 = std::fmaf(a14, m, d);
        a15 = std::fmaf(a15, m, d);
    }
    return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + a10 +
           a11 + a12 + a13 + a14 + a15;
}

#if CTA_SIMD_X86

__attribute__((target("avx2,fma"))) float
fmaPeakAvx2(long iters)
{
    float out[8];
    CTA_PEAK_BODY(__m256, _mm256_set1_ps, _mm256_fmadd_ps,
                  _mm256_add_ps);
    _mm256_storeu_ps(out, r);
    return out[0];
}

__attribute__((target("avx512f"))) float
fmaPeakAvx512(long iters)
{
    float out[16];
    CTA_PEAK_BODY(__m512, _mm512_set1_ps, _mm512_fmadd_ps,
                  _mm512_add_ps);
    _mm512_storeu_ps(out, r);
    return out[0];
}

#endif // CTA_SIMD_X86

#if CTA_SIMD_NEON

float
fmaPeakNeon(long iters)
{
    float out[4];
    CTA_PEAK_BODY(float32x4_t, vdupq_n_f32, vfmaq_f32, vaddq_f32);
    vst1q_f32(out, r);
    return out[0];
}

#endif // CTA_SIMD_NEON

#undef CTA_PEAK_BODY

/** Lanes per vector at each level (peak flops = 16 chains x 2 x
 *  lanes per iteration). */
int
peakLanes(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Avx512:
        return 16;
    case SimdLevel::Avx2:
        return 8;
    case SimdLevel::Neon:
        return 4;
    default:
        return 1;
    }
}

float
fmaPeakIter(SimdLevel level, long iters)
{
    switch (level) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        return fmaPeakAvx512(iters);
    case SimdLevel::Avx2:
        return fmaPeakAvx2(iters);
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        return fmaPeakNeon(iters);
#endif
    default:
        return fmaPeakScalar(iters);
    }
}

/** Test-forced level, or -1 to use the CTA_SIMD/default resolution. */
std::atomic<int> g_forced_level{-1};

SimdLevel
envSimdLevel()
{
    static const SimdLevel level = [] {
        const char *env = envString("CTA_SIMD");
        if (env == nullptr)
            return detectSimdLevel();
        const std::string_view spec(env);
        if (spec == "auto")
            return detectSimdLevel();
        SimdLevel forced;
        if (spec == "off" || spec == "scalar")
            forced = SimdLevel::Scalar;
        else if (spec == "avx2")
            forced = SimdLevel::Avx2;
        else if (spec == "avx512")
            forced = SimdLevel::Avx512;
        else if (spec == "neon")
            forced = SimdLevel::Neon;
        else
            CTA_FATAL("unknown CTA_SIMD '", env,
                      "' (expected auto | off | scalar | avx2 | "
                      "avx512 | neon)");
        if (!simdLevelSupported(forced))
            CTA_FATAL("CTA_SIMD=", env,
                      " is not supported by this host (detected ",
                      simdLevelName(detectSimdLevel()), ")");
        return forced;
    }();
    return level;
}

} // namespace

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return "scalar";
    case SimdLevel::Avx2:
        return "avx2";
    case SimdLevel::Avx512:
        return "avx512";
    case SimdLevel::Neon:
        return "neon";
    }
    return "unknown";
}

SimdLevel
detectSimdLevel()
{
#if CTA_SIMD_X86
    if (__builtin_cpu_supports("avx512f"))
        return SimdLevel::Avx512;
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return SimdLevel::Avx2;
    return SimdLevel::Scalar;
#elif CTA_SIMD_NEON
    return SimdLevel::Neon;
#else
    return SimdLevel::Scalar;
#endif
}

bool
simdLevelSupported(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return true;
#if CTA_SIMD_X86
    case SimdLevel::Avx2:
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
    case SimdLevel::Avx512:
        return __builtin_cpu_supports("avx512f");
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        return true;
#endif
    default:
        return false;
    }
}

SimdLevel
activeSimdLevel()
{
    const int forced = g_forced_level.load(std::memory_order_relaxed);
    return forced >= 0 ? static_cast<SimdLevel>(forced)
                       : envSimdLevel();
}

SimdLevel
setSimdLevel(SimdLevel level)
{
    CTA_REQUIRE(simdLevelSupported(level), "SIMD level ",
                simdLevelName(level), " not supported by this host");
    const SimdLevel previous = activeSimdLevel();
    g_forced_level.store(static_cast<int>(level),
                         std::memory_order_relaxed);
    return previous;
}

double
simdFmaPeakGflops()
{
    const SimdLevel level = activeSimdLevel();
    const double flopsPerIter = 16.0 * 2.0 * peakLanes(level);
    volatile float sink = 0;
    long iters = 1L << 16;
    for (;;) {
        const auto t0 = std::chrono::steady_clock::now();
        sink = sink + fmaPeakIter(level, iters);
        const auto t1 = std::chrono::steady_clock::now();
        const double s =
            std::chrono::duration<double>(t1 - t0).count();
        if (s >= 0.02)
            return flopsPerIter * static_cast<double>(iters) / s /
                   1e9;
        iters *= 4;
    }
}

Real
simdRowMax(const Real *x, Index n)
{
    CTA_ASSERT(n >= 1, "row max over empty row");
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        return rowMaxAvx512(x, n);
    case SimdLevel::Avx2:
        return rowMaxAvx2(x, n);
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        return rowMaxNeon(x, n);
#endif
    default:
        return rowMaxScalar(x, n);
    }
}

void
simdScaleRow(Real *x, Index n, Real s)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        scaleRowAvx512(x, n, s);
        return;
    case SimdLevel::Avx2:
        scaleRowAvx2(x, n, s);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        scaleRowNeon(x, n, s);
        return;
#endif
    default:
        scaleRowScalar(x, n, s);
    }
}

void
simdAddRow(Real *acc, const Real *x, Index n)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        addRowAvx512(acc, x, n);
        return;
    case SimdLevel::Avx2:
        addRowAvx2(acc, x, n);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        addRowNeon(acc, x, n);
        return;
#endif
    default:
        addRowScalar(acc, x, n);
    }
}

void
simdMulAddRow(Real *acc, const Real *x, Real w, Index n)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        mulAddRowAvx512(acc, x, w, n);
        return;
    case SimdLevel::Avx2:
        mulAddRowAvx2(acc, x, w, n);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        mulAddRowNeon(acc, x, w, n);
        return;
#endif
    default:
        mulAddRowScalar(acc, x, w, n);
    }
}

void
simdFmaRow(Real *acc, const Real *x, Real w, Index n)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        fmaRowAvx512(acc, x, w, n);
        return;
    case SimdLevel::Avx2:
        fmaRowAvx2(acc, x, w, n);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        fmaRowNeon(acc, x, w, n);
        return;
#endif
    default:
        fmaRowScalar(acc, x, w, n);
    }
}

void
simdPackB(const Matrix &b, std::vector<Real> &packed)
{
    const Index depth = b.rows();
    const Index width = b.cols();
    const Index panels = (width + kW - 1) / kW;
    packed.assign(static_cast<std::size_t>(panels) *
                      static_cast<std::size_t>(depth) *
                      static_cast<std::size_t>(kW),
                  0.0f);
    for (Index p = 0; p < panels; ++p) {
        Real *panel = packed.data() + p * depth * kW;
        const Index j0 = p * kW;
        const Index pw = std::min<Index>(kW, width - j0);
        for (Index k = 0; k < depth; ++k)
            std::memcpy(panel + k * kW, b.row(k).data() + j0,
                        static_cast<std::size_t>(pw) * sizeof(Real));
    }
}

void
simdGemmRowsPacked(const Matrix &a, const Real *packed, Index width,
                   Matrix &c, Index row_begin, Index row_end,
                   Index k_begin, Index k_end, Index bstride)
{
    if (k_end < 0)
        k_end = a.cols();
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        gemmRowsPackedAvx512(a, packed, width, c, row_begin, row_end,
                             k_begin, k_end, bstride);
        return;
    case SimdLevel::Avx2:
        gemmRowsPackedAvx2(a, packed, width, c, row_begin, row_end,
                           k_begin, k_end, bstride);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        gemmRowsPackedNeon(a, packed, width, c, row_begin, row_end,
                           k_begin, k_end, bstride);
        return;
#endif
    default:
        gemmRowsPackedScalar(a, packed, width, c, row_begin, row_end,
                             k_begin, k_end, bstride);
    }
}

void
simdVecMatRows(const Matrix &a, const Matrix &b, Matrix &c,
               Index row_begin, Index row_end)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        vecMatRowsAvx512(a, b, c, row_begin, row_end);
        return;
    case SimdLevel::Avx2:
        vecMatRowsAvx2(a, b, c, row_begin, row_end);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        vecMatRowsNeon(a, b, c, row_begin, row_end);
        return;
#endif
    default:
        vecMatRowsScalar(a, b, c, row_begin, row_end);
    }
}

void
simdPackTransB(const Matrix &a, const Matrix &b, SimdTransBPack &pack)
{
    CTA_REQUIRE(a.cols() == b.cols(), "simdPackTransB depth mismatch: ",
                a.cols(), " vs ", b.cols());
    pack.rows = a.rows();
    pack.depth = a.cols();
    pack.cols = b.rows();
    pack.a.assign(a.data(), a.data() + a.size());
    pack.panels.assign(static_cast<std::size_t>(pack.panelCount()) *
                           static_cast<std::size_t>(pack.depth) *
                           static_cast<std::size_t>(kTP),
                       0.0);
    for (Index j = 0; j < pack.cols; ++j) {
        Wide *panel = pack.panels.data() + (j / kTP) * pack.depth * kTP;
        const Index t = j % kTP;
        const Real *brow = b.row(j).data();
        for (Index k = 0; k < pack.depth; ++k)
            panel[k * kTP + t] = brow[k];
    }
}

void
simdGemmTransBPanels(const SimdTransBPack &pack, Matrix &c,
                     Index panel_begin, Index panel_end)
{
    TransBRowsFn rows_fn = transBRowsScalar;
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        rows_fn = transBRowsAvx512;
        break;
    case SimdLevel::Avx2:
        rows_fn = transBRowsAvx2;
        break;
#endif
    default:
        break;
    }
    transBPanels(pack, c, panel_begin, panel_end, rows_fn);
}

} // namespace cta::core
