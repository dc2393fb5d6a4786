/**
 * @file
 * Sign-random-projection hashing, the approximate-similarity core of
 * the ELSA baseline (Ham et al., ISCA 2021; reconstructed per
 * DESIGN.md substitution #3).
 *
 * Each vector x gets a kappa-bit signature sig(x) with bit i =
 * [r_i . x >= 0] for random directions r_i. For unit-ish vectors the
 * Hamming distance estimates the angle:
 *
 *   theta(q, k) ~ pi * hamming(sig(q), sig(k)) / kappa
 *   dot(q, k)  ~ ||q|| * ||k|| * cos(theta)
 *
 * which is what ELSA's candidate-selection module evaluates with a
 * LUT instead of a dot product.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/matrix.h"

namespace cta::core {
class Rng;
struct OpCounts;
} // namespace cta::core

namespace cta::elsa {

/** Packed kappa-bit signatures, one per row vector. */
class SignatureMatrix
{
  public:
    SignatureMatrix() = default;

    /** @param rows number of vectors; @param bits kappa. */
    SignatureMatrix(core::Index rows, core::Index bits);

    core::Index rows() const { return rows_; }
    core::Index bits() const { return bits_; }

    /** Sets bit @p b of signature @p r. */
    void setBit(core::Index r, core::Index b, bool value);

    /** Reads bit @p b of signature @p r. */
    bool bit(core::Index r, core::Index b) const;

    /** Hamming distance between signatures @p a and @p b. */
    core::Index hamming(core::Index a, core::Index b) const;

    /** Hamming distance between signature @p a of this matrix and
     *  signature @p b of @p other (same kappa): XOR + popcount per
     *  signature word. */
    core::Index hamming(core::Index a, const SignatureMatrix &other,
                        core::Index b) const;

  private:
    core::Index rows_ = 0;
    core::Index bits_ = 0;
    core::Index wordsPerRow_ = 0;
    std::vector<std::uint64_t> words_;
};

/** The random projection directions of one hash instance. */
struct SignHashParams
{
    core::Matrix directions; ///< kappa x d, rows ~ N(0,1)^d

    core::Index bits() const { return directions.rows(); }
    core::Index dim() const { return directions.cols(); }

    static SignHashParams sample(core::Index kappa, core::Index d,
                                 core::Rng &rng);
};

/**
 * Signs every row of @p x against the directions.
 * Charges kappa*rows*d MACs and kappa*rows sign comparisons.
 */
SignatureMatrix signHash(const core::Matrix &x,
                         const SignHashParams &params,
                         core::OpCounts *counts = nullptr);

/** cos(pi * hamming / kappa) similarity estimate scaled by norms. */
core::Real estimateDot(core::Index hamming_dist, core::Index kappa,
                       core::Real norm_q, core::Real norm_k);

/**
 * The kappa + 1 cosines estimateDot() evaluates: entry h is
 * cos(pi * h / kappa) from the same angle expression, so
 * norm_q * norm_k * table[h] == estimateDot(h, kappa, norm_q, norm_k)
 * bit for bit — the LUT of ELSA's candidate-selection module.
 */
std::vector<core::Real> hammingCosineTable(core::Index kappa);

} // namespace cta::elsa
