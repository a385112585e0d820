"""Exact moments of jointly Gaussian vectors by the Wick (Isserlis) recursion.

These are the ground-truth values every transcribed closed form is measured
against.  One recursion gives the raw moment of X ~ N(m, S): with k the first
coordinate of nonzero exponent,

    E[X^r] = m_k E[X^(r-e_k)] + sum_j S_kj (r-e_k)_j E[X^(r-e_k-e_j)],

memoized per call over the exponent multi-index.  A central moment is the case
m = 0, a shifted moment the case m = deltas, and :func:`shifted_moments` fills
a list of exponent rows for one (S, m) from one memo.  Evaluation is purely
algebraic in the covariance entries: the matrix is never factorized, so
positive definiteness is not required (degenerate covariances, e.g.
duplicated coordinates, are fine).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, OddOrderError, OrderCapError

ORDER_CAP = 12


def count_matchings(order: int) -> int:
    """Number of perfect matchings of ``order`` symbols, (order-1)!!."""
    order = int(order)
    if order < 0 or order > ORDER_CAP:
        raise OrderCapError(f"order {order} outside 0..{ORDER_CAP}")
    if order % 2 != 0:
        raise OddOrderError(f"order {order} is odd; matchings need an even count")
    result = 1
    for k in range(order - 1, 0, -2):
        result *= k
    return result


def _check_spec(cov: np.ndarray, exponents) -> tuple[np.ndarray, list[int]]:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionMismatchError(f"cov must be square, got shape {cov.shape}")
    r = [int(e) for e in exponents]
    if any(e < 0 for e in r):
        raise ValueError(f"exponents must be nonnegative, got {r}")
    if len(r) != cov.shape[0]:
        raise DimensionMismatchError(
            f"{len(r)} exponents for covariance of dimension {cov.shape[0]}"
        )
    if sum(r) > ORDER_CAP:
        raise OrderCapError(f"total order {sum(r)} exceeds cap {ORDER_CAP}")
    return cov, r


def _wick_moment(s: list, m: list, e: tuple, memo: dict) -> float:
    """E[X^e] for X ~ N(m, s), with ``memo`` mapping exponent tuples to values.

    A zero mean term is skipped, so with m = 0 only even orders are visited.
    """
    value = memo.get(e)
    if value is not None:
        return value
    k = next((i for i, n in enumerate(e) if n), None)
    if k is None:
        return 1.0
    rest = list(e)
    rest[k] -= 1
    value = m[k] * _wick_moment(s, m, tuple(rest), memo) if m[k] != 0.0 else 0.0
    row = s[k]
    for j, n in enumerate(rest):
        if n:
            rest[j] -= 1
            value += row[j] * n * _wick_moment(s, m, tuple(rest), memo)
            rest[j] += 1
    memo[e] = value
    return value


def central_moment(cov, exponents) -> float:
    """E[prod_i Y_i^{r_i}] for centered jointly Gaussian Y with covariance ``cov``.

    Odd total order returns exactly 0 without evaluation; even order runs the
    Wick recursion with zero mean.
    """
    cov, r = _check_spec(cov, exponents)
    if sum(r) % 2 != 0:
        return 0.0
    return _wick_moment(cov.tolist(), [0.0] * len(r), tuple(r), {})


def shifted_moments(cov, deltas, exponent_rows) -> list:
    """[E[prod_i (Y_i + delta_i)^{r_i}] for r in ``exponent_rows``]: the Wick
    recursion with mean ``deltas``, one memo shared by every row."""
    checked = [_check_spec(cov, r) for r in exponent_rows]
    if not checked:
        return []
    cov = checked[0][0]
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (cov.shape[0],):
        raise DimensionMismatchError(
            f"deltas shape {deltas.shape} does not match dimension {cov.shape[0]}"
        )
    if not np.all(np.isfinite(deltas)):
        raise ValueError("deltas must be finite")
    s, m, memo = cov.tolist(), deltas.tolist(), {}
    return [_wick_moment(s, m, tuple(r), memo) for _, r in checked]


def shifted_moment(cov, deltas, exponents) -> float:
    """E[prod_i (Y_i + delta_i)^{r_i}]: the one-row case of :func:`shifted_moments`."""
    return shifted_moments(cov, deltas, [exponents])[0]
