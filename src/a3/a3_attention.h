/**
 * @file
 * Reconstruction of the A^3 approximate-attention algorithm (Ham et
 * al., HPCA 2020) — the other query-specific pruning accelerator the
 * CTA paper positions against (reference [42]).
 *
 * A^3 preprocesses the key matrix by sorting each dimension's
 * components. For each query it runs a greedy candidate search (a
 * Fagin/threshold-style iteration): every round takes, over all
 * dimensions, the largest remaining |q_j * K_sorted| component
 * product and credits it to that key's partial score. After M rounds
 * the keys with the largest partial scores become candidates, and
 * exact attention runs over the candidates only.
 *
 * Like ELSA, the defining structural property is query-specific
 * selection: processing is query-serial, and the per-dimension
 * sorted arrays are walked per query — exactly the behaviour CTA's
 * token-level compression removes.
 */

#pragma once

#include <vector>

#include "core/logging.h"
#include "core/matrix.h"
#include "core/op_counter.h"
#include "nn/attention.h"

namespace cta::a3 {

/** Per-dimension sorted view of a key matrix (A^3 preprocessing). */
class SortedKeys
{
  public:
    /** Sorts each column of K (n x d) descending by value. */
    explicit SortedKeys(const core::Matrix &k,
                        core::OpCounts *counts = nullptr);

    /** Key index with the r-th largest component in dim @p j. */
    core::Index rankToKey(core::Index j, core::Index rank) const
    {
        return order_[slot(j, rank)];
    }

    /** The r-th largest component value in dim @p j. */
    core::Real rankToValue(core::Index j, core::Index rank) const
    {
        return values_[slot(j, rank)];
    }

    core::Index numKeys() const { return n_; }
    core::Index dim() const { return d_; }

  private:
    std::size_t slot(core::Index j, core::Index rank) const
    {
        CTA_ASSERT(j >= 0 && j < d_ && rank >= 0 && rank < n_,
                   "sorted-key rank out of range");
        return static_cast<std::size_t>(j) *
                   static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(rank);
    }

    core::Index n_ = 0;
    core::Index d_ = 0;
    /** order_[j * n + r] = key index of rank r in dimension j. */
    std::vector<core::Index> order_;
    /** values_[j * n + r] = K(order_[j * n + r], j). */
    std::vector<core::Real> values_;
};

/** Tunable parameters of one A^3 evaluation. */
struct A3Config
{
    /** Greedy iterations per query (the approximation knob; A^3
     *  sweeps this from aggressive to conservative). */
    core::Index searchRounds = 64;
    /** Candidates kept per query (top partial scores). */
    core::Index candidates = 32;
};

/** Result of one A^3 attention evaluation. */
struct A3Result
{
    core::Matrix output;
    /** Mean kept-key fraction. */
    core::Real candidateRatio = 0;
    /** Preprocessing + greedy-search ops. */
    core::OpCounts approxOps;
    /** Exact attention over candidates. */
    core::OpCounts attnOps;
    /** Q/K/V projections (host side). */
    core::OpCounts linearOps;
    core::Index m = 0, n = 0, d = 0;
};

/** Runs the reconstructed A^3 scheme for one attention head. */
A3Result a3Attention(const core::Matrix &xq, const core::Matrix &xkv,
                     const nn::AttentionHeadParams &params,
                     const A3Config &config);

} // namespace cta::a3
