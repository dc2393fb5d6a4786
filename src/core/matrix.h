/**
 * @file
 * Row-major dense matrix of Real plus the small set of linear-algebra
 * kernels the CTA library needs (GEMM, transpose-B GEMM, row slicing).
 *
 * This is deliberately a compact owned-storage matrix, not an
 * expression-template library: every experiment in the paper operates
 * on dense m x d / n x d matrices, and the op-counting instrumentation
 * (see core/op_counter.h) is easier to keep exact with explicit
 * kernels.
 *
 * The free-function kernels below dispatch through the process-active
 * compute backend (core/backend.h) — naive reference loops or blocked
 * multithreaded kernels — while op accounting stays analytic, so
 * OpCounts are bit-identical for every backend and thread count.
 */

#pragma once

#include <span>
#include <vector>

#include "core/types.h"

namespace cta::core {

class Rng;
struct OpCounts;

/** Dense row-major matrix of Real values. */
class Matrix
{
  public:
    /** Creates an empty 0x0 matrix. */
    Matrix() = default;

    /** Creates a rows x cols matrix filled with @p fill. */
    Matrix(Index rows, Index cols, Real fill = 0);

    /** Number of rows. */
    Index rows() const { return rows_; }

    /** Number of columns. */
    Index cols() const { return cols_; }

    /** Total number of elements. */
    Index size() const { return rows_ * cols_; }

    /** True when the matrix has no elements. */
    bool empty() const { return size() == 0; }

    /** Heap bytes held by the storage (capacity, not just size — what
     *  the allocator actually reserved; the serving layer's memory
     *  accounting sums these). */
    std::size_t memoryBytes() const
    {
        return data_.capacity() * sizeof(Real);
    }

    /** Element access. Out of line and bounds-checked in every
     *  build, so it costs a call per element: hot loops read rows
     *  through row() or data() instead. */
    Real &operator()(Index r, Index c);

    /** Element access (bounds-checked in every build; see above). */
    Real operator()(Index r, Index c) const;

    /** Mutable view of one row. */
    std::span<Real> row(Index r);

    /** Read-only view of one row. */
    std::span<const Real> row(Index r) const;

    /** Raw storage pointer (row-major). */
    Real *data() { return data_.data(); }

    /** Raw storage pointer (row-major). */
    const Real *data() const { return data_.data(); }

    /** Sets every element to @p value. */
    void fill(Real value);

    /** Returns a new matrix holding rows [begin, end). */
    Matrix rowSlice(Index begin, Index end) const;

    /** Appends all rows of @p other (same column count). */
    void appendRows(const Matrix &other);

    /** Matrix with entries drawn i.i.d. from N(mean, stddev^2). */
    static Matrix randomNormal(Index rows, Index cols, Rng &rng,
                               Real mean = 0, Real stddev = 1);

    /** Matrix with entries drawn i.i.d. from U[lo, hi). */
    static Matrix randomUniform(Index rows, Index cols, Rng &rng,
                                Real lo = 0, Real hi = 1);

    /** Identity matrix of the given order. */
    static Matrix identity(Index order);

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    std::vector<Real> data_;
};

/**
 * C = A * B.
 *
 * @param counts when non-null, charged rows(A)*cols(B)*cols(A) MACs.
 */
Matrix matmul(const Matrix &a, const Matrix &b,
              OpCounts *counts = nullptr);

/** C = A * B^T (the natural shape for Q . K^T). */
Matrix matmulTransB(const Matrix &a, const Matrix &b,
                    OpCounts *counts = nullptr);

/** Returns A^T. */
Matrix transpose(const Matrix &a);

/** Element-wise A + B. */
Matrix add(const Matrix &a, const Matrix &b, OpCounts *counts = nullptr);

/** Element-wise A - B. */
Matrix sub(const Matrix &a, const Matrix &b, OpCounts *counts = nullptr);

/** Element-wise s * A. */
Matrix scale(const Matrix &a, Real s, OpCounts *counts = nullptr);

/** Max absolute element difference; matrices must be the same shape. */
Real maxAbsDiff(const Matrix &a, const Matrix &b);

/** Frobenius norm of A. */
Real frobeniusNorm(const Matrix &a);

/** ||A - B||_F / ||B||_F, the relative error of A against reference B. */
Real relativeError(const Matrix &a, const Matrix &ref);

} // namespace cta::core
