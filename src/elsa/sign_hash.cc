#include "elsa/sign_hash.h"

#include <bit>
#include <cmath>
#include <numbers>

#include "core/logging.h"
#include "core/op_counter.h"
#include "core/rng.h"

namespace cta::elsa {

using core::Index;
using core::Matrix;
using core::Real;
using core::Wide;

SignatureMatrix::SignatureMatrix(Index rows, Index bits)
    : rows_(rows), bits_(bits), wordsPerRow_((bits + 63) / 64),
      words_(static_cast<std::size_t>(rows * wordsPerRow_), 0)
{
}

void
SignatureMatrix::setBit(Index r, Index b, bool value)
{
    CTA_ASSERT(r >= 0 && r < rows_ && b >= 0 && b < bits_,
               "signature bit out of range");
    auto &word = words_[static_cast<std::size_t>(
        r * wordsPerRow_ + b / 64)];
    const std::uint64_t mask = 1ull << (b % 64);
    if (value)
        word |= mask;
    else
        word &= ~mask;
}

bool
SignatureMatrix::bit(Index r, Index b) const
{
    CTA_ASSERT(r >= 0 && r < rows_ && b >= 0 && b < bits_,
               "signature bit out of range");
    return (words_[static_cast<std::size_t>(r * wordsPerRow_ +
                                            b / 64)] >>
            (b % 64)) & 1ull;
}

Index
SignatureMatrix::hamming(Index a, Index b) const
{
    return hamming(a, *this, b);
}

Index
SignatureMatrix::hamming(Index a, const SignatureMatrix &other,
                         Index b) const
{
    CTA_ASSERT(bits_ == other.bits_, "signature widths differ: ", bits_,
               " vs ", other.bits_);
    CTA_ASSERT(a >= 0 && a < rows_ && b >= 0 && b < other.rows_,
               "signature row out of range");
    // Bits past kappa in the last word are never set, so they cancel
    // in the XOR.
    const std::uint64_t *wa =
        words_.data() + static_cast<std::size_t>(a * wordsPerRow_);
    const std::uint64_t *wb = other.words_.data() +
                              static_cast<std::size_t>(b * wordsPerRow_);
    Index distance = 0;
    for (Index w = 0; w < wordsPerRow_; ++w)
        distance += std::popcount(wa[w] ^ wb[w]);
    return distance;
}

SignHashParams
SignHashParams::sample(Index kappa, Index d, core::Rng &rng)
{
    CTA_REQUIRE(kappa > 0 && d > 0, "bad sign-hash shape");
    return SignHashParams{Matrix::randomNormal(kappa, d, rng)};
}

SignatureMatrix
signHash(const Matrix &x, const SignHashParams &params,
         core::OpCounts *counts)
{
    CTA_REQUIRE(x.cols() == params.dim(), "sign-hash dim mismatch");
    SignatureMatrix sig(x.rows(), params.bits());
    for (Index i = 0; i < x.rows(); ++i) {
        const Real *row = x.row(i).data();
        for (Index b = 0; b < params.bits(); ++b) {
            const Real *dir = params.directions.row(b).data();
            Wide dot = 0;
            for (Index k = 0; k < x.cols(); ++k)
                dot += static_cast<Wide>(dir[k]) * row[k];
            sig.setBit(i, b, dot >= 0);
        }
    }
    if (counts) {
        const auto rows = static_cast<std::uint64_t>(x.rows());
        const auto bits = static_cast<std::uint64_t>(params.bits());
        counts->macs += bits * rows * static_cast<std::uint64_t>(
            x.cols());
        counts->cmps += bits * rows;
    }
    return sig;
}

namespace {

/** The estimated angle pi * hamming / kappa. */
Real
hammingAngle(Index hamming_dist, Index kappa)
{
    return std::numbers::pi_v<Real> * static_cast<Real>(hamming_dist) /
           static_cast<Real>(kappa);
}

} // namespace

Real
estimateDot(Index hamming_dist, Index kappa, Real norm_q, Real norm_k)
{
    return norm_q * norm_k * std::cos(hammingAngle(hamming_dist, kappa));
}

std::vector<Real>
hammingCosineTable(Index kappa)
{
    CTA_REQUIRE(kappa > 0, "bad signature width ", kappa);
    std::vector<Real> table(static_cast<std::size_t>(kappa + 1));
    for (Index h = 0; h <= kappa; ++h)
        table[static_cast<std::size_t>(h)] =
            std::cos(hammingAngle(h, kappa));
    return table;
}

} // namespace cta::elsa
