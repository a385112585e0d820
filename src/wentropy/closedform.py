"""Closed-form weighted-entropy expressions for trivariate Gaussians.

Everything here exists in two modes.  ``"wick"`` is authoritative: it must
agree with the quadrature oracles, and every wick-mode entropy is an instance
of one kernel, :func:`_weighted_cross_entropy`, whose moments all come from one
Wick recursion.  A :class:`PairConditional` fills that moment table once and
every pair quantity reads it; the pair entropies have one assembly each, and
the mode switch happens only in LambdaBar and Upsilon.  Over an (n,) x3 array,
a batched base or both, the table is one batched table and every pair quantity
an (n,), (*batch) or (*batch, n) array.  Closed forms take conditional means only from
``cond`` and ``delta``.  ``"paper"`` evaluates the transcribed factored
formulas verbatim, including their known defects, through the kernel's assembly
step; the verify command measures each one against wick mode and reports a
CONFIRMED/DISCREPANT verdict instead of trusting it.

The product weight is centered at the marginal means.  Coordinate indices are
0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, DomainError, as_float_array
from .gaussian import (
    Gaussian,
    check_entropy_mode,
    check_example1_rho,
    check_example2_rho,
    condition,
    example1_cov,
    example2_cov,
)
# shifted_moment is unused here; perfbench's tracer test expects to find it rebound
from .moments import central_moment, shifted_moment, shifted_moments  # noqa: F401

FORMULA_MODES = ("paper", "wick")


def check_formula_mode(mode: str) -> str:
    if mode not in FORMULA_MODES:
        raise ValueError(f"mode must be one of {FORMULA_MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True, eq=False)
class PairConditional:
    """A trivariate Gaussian, or a batch of them, together with its leading
    pair, conditioned on the third coordinate at ``x3``: one value, or an (n,)
    array of values.

    Derived fields: ``pair`` is the marginal of coordinates (0, 1), ``cond``
    the conditional of (0, 1) given coordinate 2 equal to ``x3``, and
    ``delta`` the shift between conditional and marginal means, (2, *batch), or
    (2, *batch, n) for an array.  For an array, ``cond`` has a mean per x3,
    (2, *batch, n), and one covariance (2, 2, *batch, 1) with its precision and
    log-det, which do not depend on x3; ``pair`` has an axis of length 1 there
    too, so their entries broadcast against the x3 row.  The wick
    moment table of the conditional pair about the marginal means is filled on
    first use; every pair quantity is a (*batch, *x3 shape) array equal to the
    per-point values bit for bit."""

    base: Gaussian
    x3: float | np.ndarray
    pair: Gaussian = field(init=False)
    cond: Gaussian = field(init=False)
    delta: np.ndarray = field(init=False)

    def __post_init__(self):
        base = self.base
        if base.dim != 3:
            raise ValueError(f"base must be trivariate, got dimension {base.dim}")
        shape = np.shape(self.x3)
        if len(shape) > 1 or 0 in shape:
            raise DimensionMismatchError(
                f"x3 must be one value or a non-empty (n,) array, got shape {shape}"
            )
        x3 = as_float_array(self.x3, "x3", ndim=len(shape))
        row = (...,) + (None,) * x3.ndim  # an axis of length 1 for an x3 row
        pair = Gaussian(base.mean[:2][row], base.cov[:2, :2][row])
        cond = condition(base, (0, 1), (2,), x3[None, ...])
        delta = cond.mean - pair.mean
        delta.setflags(write=False)
        self.__dict__.update(x3=x3 if x3.ndim else float(x3), pair=pair, cond=cond, delta=delta)

    @cached_property
    def _moments(self) -> dict:
        return _phi_moments(self.cond.cov, self.delta)

    @classmethod
    def from_example1(cls, rho: float, x3: float) -> "PairConditional":
        return cls(example1_cov(rho), x3)

    @classmethod
    def from_example2(cls, rho: float, x3: float) -> "PairConditional":
        return cls(example2_cov(rho), x3)


def _cross_entropy(g: Gaussian, bulk: float, inner) -> float:
    """0.5 (d log 2 pi + log|S_g|) bulk + 0.5 sum_ij inv(S_g)_ij inner(i, j)."""
    inv = g.precision
    d = len(inv)
    quad = sum(inv[i, j] * inner(i, j) for i in range(d) for j in range(d))
    return 0.5 * (d * math.log(2.0 * math.pi) + g.log_det) * bulk + 0.5 * quad


def _phi_moments(cov: np.ndarray, shift: np.ndarray) -> dict:
    """E[Z^(2*1 + sum_{k in key} e_k)] for Z ~ N(shift, cov), keyed by the index
    tuples (), (i,) and (i, j) with i <= j: one recursion fills them all.  A
    (d, n) ``shift`` fills (n,) arrays."""
    d = cov.shape[0]
    keys = [()] + [(i,) for i in range(d)] + [(i, j) for i in range(d) for j in range(i, d)]
    rows = [[2 + key.count(k) for k in range(d)] for key in keys]
    return dict(zip(keys, shifted_moments(cov, shift, rows)))


def _phi_inner(table: dict, c: np.ndarray, i: int, j: int) -> float:
    """E[phi (Z + c)_i (Z + c)_j] from a :func:`_phi_moments` table."""
    pair = table[(min(i, j), max(i, j))]
    return pair + c[i] * table[(j,)] + c[j] * table[(i,)] + c[i] * c[j] * table[()]


def _weighted_cross_entropy(f: Gaussian, g: Gaussian, centers: np.ndarray) -> float:
    """H_phi(f, g) = -int phi f log g for phi = prod_k (x_k - a_k)^2, exactly:

        0.5 (d log 2 pi + log|S_g|) E_f[phi]
        + 0.5 sum_ij inv(S_g)_ij E_f[phi (X - m_g)_i (X - m_g)_j].

    With Z = X - a and c = a - m_g, X - m_g = Z + c, so every expectation is
    one of the 1 + d + d(d+1)/2 raw moments of Z ~ N(m_f - a, S_f) in the
    :func:`_phi_moments` table."""
    table = _phi_moments(f.cov, f.mean - centers)
    c = centers - g.mean
    return _cross_entropy(g, table[()], lambda i, j: _phi_inner(table, c, i, j))


def xi(cov) -> float | np.ndarray:
    """Transcribed factored form of the sixth-order product moment E[prod Y_k^2].

    This factorization is a confirmed identity: it equals
    ``central_moment(cov, (2, 2, 2))`` to rounding error, also on a (3, 3, *batch) stack.
    """
    s = np.asarray(cov, dtype=float)
    return (
        s[0, 0] * (s[1, 1] * s[2, 2] + 2.0 * s[1, 2] ** 2)
        + 2.0 * s[0, 1] * (s[0, 1] * s[2, 2] + 2.0 * s[0, 2] * s[1, 2])
        + 2.0 * s[0, 2] * (2.0 * s[0, 1] * s[1, 2] + s[0, 2] * s[1, 1])
    )


def lambda_paper(cov, i: int, j: int) -> float | np.ndarray:
    """Transcribed factored form of E[Y_1^2 Y_2^2 Y_3^2 Y_i Y_j] (0-based i, j).

    The factorization drops pairings and provably disagrees with the full
    eighth-order sum for some (i, j); see :func:`lambda_wick`.  It takes a stack, as :func:`xi`.
    """
    s = np.asarray(cov, dtype=float)
    return (
        (s[0, 0] * s[1, 1] + 2.0 * s[0, 1] ** 2)
        * (s[2, 2] * s[i, j] + 2.0 * s[2, i] * s[2, j])
    )


def lambda_wick(cov, i: int, j: int) -> float:
    """Exact E[Y_1^2 Y_2^2 Y_3^2 Y_i Y_j] by the Wick recursion."""
    r = [2, 2, 2]
    r[i] += 1
    r[j] += 1
    return central_moment(cov, r)


def wde_trivariate(dist: Gaussian, mode: str = "wick") -> float:
    """Weighted entropy of a trivariate Gaussian with the mean-centered product
    weight: 0.5 log((2 pi)^3 |cov|) * Xi + 0.5 sum_ij inv(cov)_ij Lambda_ij."""
    check_formula_mode(mode)
    if dist.dim != 3:
        raise ValueError(f"need a trivariate distribution, got dimension {dist.dim}")
    if mode == "wick":
        return _weighted_cross_entropy(dist, dist, dist.mean)
    cov = dist.cov
    return _cross_entropy(dist, xi(cov), lambda i, j: lambda_paper(cov, i, j))


def relative_de_pair(pc: PairConditional, mode: str = "corrected") -> float:
    """Divergence of the conditional pair from the marginal pair.

    Paper mode evaluates the transcribed representation, which exceeds the
    true Kullback-Leibler divergence by the constant 1; corrected mode
    subtracts it and matches :func:`wentropy.gaussian.gaussian_kl` exactly.
    """
    check_entropy_mode(mode)
    mu, mu_bar, s, inv = pc.pair.mean, pc.cond.mean, pc.cond.cov, pc.pair.precision
    brace = lambda i, j: (
        s[i, j] + mu_bar[i] * mu_bar[j] - mu_bar[i] * mu[j] - mu[i] * mu_bar[j] + mu[i] * mu[j]
    )
    trace = sum(inv[i, j] * brace(i, j) for i in range(2) for j in range(2))
    value = 0.5 * (pc.pair.log_det - pc.cond.log_det) + 0.5 * trace
    if mode == "corrected":
        value -= 1.0
    return value


def theta(pc: PairConditional) -> float:
    """Conditional expectation of the squared-deviation product about the
    marginal means, E[(X_1 - mu_1)^2 (X_2 - mu_2)^2 | X_3 = x3]: the pair's
    moment table entry."""
    return pc._moments[()]


# fourth- and sixth-order helpers used by the transcribed conditional formulas


def _e_sq_sq_pair(s: np.ndarray, i: int, j: int) -> float:
    """E[Y_1^2 Y_2^2 Y_i Y_j] for centered bivariate Y with covariance s."""
    return (
        s[0, 0] * (s[1, 1] * s[i, j] + 2.0 * s[1, i] * s[1, j])
        + 2.0 * s[0, 1] * (s[0, 1] * s[i, j] + s[0, i] * s[1, j] + s[0, j] * s[1, i])
        + s[0, i] * (2.0 * s[0, 1] * s[1, j] + s[1, 1] * s[0, j])
        + s[0, j] * (2.0 * s[0, 1] * s[1, i] + s[1, 1] * s[0, i])
    )


def _e_sq_pair(s: np.ndarray, k: int, i: int, j: int) -> float:
    """E[Y_k^2 Y_i Y_j]."""
    return s[k, k] * s[i, j] + 2.0 * s[k, i] * s[k, j]


def _e_quad(s: np.ndarray, i: int, j: int) -> float:
    """E[Y_1 Y_2 Y_i Y_j]."""
    return s[0, 1] * s[i, j] + s[0, i] * s[1, j] + s[0, j] * s[1, i]


def lambda_bar(pc: PairConditional, i: int, j: int, mode: str = "wick") -> float:
    """Conditional moment E[prod_k (X_k - mu_k)^2 (X_i - mubar_i)(X_j - mubar_j) | X_3].

    Wick mode writes X - mubar = (X - mu) - delta and expands, so it is
    E[(i, j)] - delta_i E[(j)] - delta_j E[(i)] + delta_i delta_j E[()] over the
    raw moments of X - mu that the weighted cross-entropy kernel uses.  Paper
    mode follows the transcribed four-term expansion, whose middle sum pairs
    each squared shift with the same coordinate's moment rather than the
    complementary one, so the two modes disagree when the shifts differ.
    """
    check_formula_mode(mode)
    if mode == "wick":
        return _phi_inner(pc._moments, -pc.delta, i, j)
    s = pc.cond.cov
    d = pc.delta
    return (
        _e_sq_sq_pair(s, i, j)
        + d[0] ** 2 * _e_sq_pair(s, 0, i, j)
        + d[1] ** 2 * _e_sq_pair(s, 1, i, j)
        + d[0] ** 2 * d[1] ** 2 * s[i, j]
        + 4.0 * d[0] * d[1] * _e_quad(s, i, j)
    )


def upsilon(pc: PairConditional, i: int, j: int, mode: str = "wick") -> float:
    """Conditional moment E[prod_k (X_k - mu_k)^2 (X_i - mu_i)(X_j - mu_j) | X_3].

    All factors share the mean-shift, so wick mode is an entry of the pair's
    moment table.  Paper mode follows the transcribed eighteen-term expansion,
    a complete binomial expansion that agrees with wick mode to rounding error.
    """
    check_formula_mode(mode)
    if mode == "wick":
        return pc._moments[(min(i, j), max(i, j))]
    s = pc.cond.cov
    d = pc.delta
    return (
        _e_sq_sq_pair(s, i, j)
        + (s[0, 0] * s[1, 1] + 2.0 * s[0, 1] ** 2) * d[i] * d[j]
        + 2.0 * _e_sq_pair(s, 0, 1, i) * d[1] * d[j]
        + 2.0 * _e_sq_pair(s, 0, 1, j) * d[1] * d[i]
        + _e_sq_pair(s, 0, i, j) * d[1] ** 2
        + s[0, 0] * d[1] ** 2 * d[i] * d[j]
        + 2.0 * _e_sq_pair(s, 1, 0, i) * d[0] * d[j]
        + 2.0 * _e_sq_pair(s, 1, 0, j) * d[0] * d[i]
        + 4.0 * _e_quad(s, i, j) * d[0] * d[1]
        + 4.0 * s[0, 1] * d[0] * d[1] * d[i] * d[j]
        + 2.0 * s[0, i] * d[j] * d[0] * d[1] ** 2
        + 2.0 * s[0, j] * d[i] * d[0] * d[1] ** 2
        + _e_sq_pair(s, 1, i, j) * d[0] ** 2
        + s[1, 1] * d[0] ** 2 * d[i] * d[j]
        + 2.0 * s[1, i] * d[1] * d[0] ** 2 * d[j]
        + 2.0 * s[1, j] * d[1] * d[0] ** 2 * d[i]
        + s[i, j] * d[0] ** 2 * d[1] ** 2
        + d[0] ** 2 * d[1] ** 2 * d[i] * d[j]
    )


def cond_wde_pair(pc: PairConditional, mode: str = "wick") -> float:
    """Weighted entropy of the conditional pair:
    0.5 log((2 pi)^2 |cond cov|) * Theta + 0.5 sum_ij inv(cond cov)_ij LambdaBar_ij.

    One assembly for both modes: Theta is the pair's moment table entry and
    only :func:`lambda_bar` depends on ``mode``; in wick mode this is the
    kernel's H(cond, cond) about the marginal means."""
    check_formula_mode(mode)
    return _cross_entropy(pc.cond, pc._moments[()], lambda i, j: lambda_bar(pc, i, j, mode))


def cross_wde_pair(pc: PairConditional, mode: str = "wick") -> float:
    """Cross weighted entropy -int phi f(.|x3) log f of the pair:
    0.5 log((2 pi)^2 |pair cov|) * Theta + 0.5 sum_ij inv(pair cov)_ij Upsilon_ij.

    One assembly for both modes: only :func:`upsilon` depends on ``mode``; in
    wick mode this is the kernel's H(cond, pair) about the marginal means."""
    check_formula_mode(mode)
    return _cross_entropy(pc.pair, pc._moments[()], lambda i, j: upsilon(pc, i, j, mode))


def relative_we_pair(pc: PairConditional, mode: str = "wick") -> float:
    """Weighted divergence of the conditional pair from the marginal pair.

    Wick mode is the cross weighted entropy minus the conditional one, both
    from the pair's one moment table.  Paper mode evaluates the printed
    log-ratio form, 0.5 log(|pair cov| / |cond cov|) * Theta + the Upsilon and
    LambdaBar sums."""
    check_formula_mode(mode)
    if mode == "wick":
        return cross_wde_pair(pc, mode) - cond_wde_pair(pc, mode)
    inv1, inv_bar = pc.pair.precision, pc.cond.precision
    th = theta(pc)
    ups = sum(
        inv1[i, j] * upsilon(pc, i, j, mode) for i in range(2) for j in range(2)
    )
    lam = sum(
        inv_bar[i, j] * lambda_bar(pc, i, j, mode) for i in range(2) for j in range(2)
    )
    return 0.5 * (pc.pair.log_det - pc.cond.log_det) * th + 0.5 * ups - 0.5 * lam


def gibbs_gap(pc: PairConditional) -> float:
    """Theta(x3) minus the unconditional product moment about the marginal
    means: the sign that decides whether the weighted Gibbs condition holds at
    this x3."""
    return theta(pc) - central_moment(pc.pair.cov, (2, 2))


# ---------------------------------------------------------------------------
# Verbatim transcriptions of the printed per-example formulas.  These exist to
# be measured against wick mode; several are known to deviate.
# ---------------------------------------------------------------------------


def example1_relative_de_paper(rho: float, x3: float | np.ndarray) -> float | np.ndarray:
    """Printed closed form of the pair divergence for the first family
    (carries the transcribed +1 constant).  Takes one x3 or an (n,) x3 row;
    a row gives the (n,) per-point values, bit for bit."""
    r = check_example1_rho(rho, DomainError)
    r2, r4 = r * r, r**4
    return (
        0.5 * math.log((1.0 - r2) / (1.0 - r2 - r4))
        + r4 / (2.0 * (1.0 - r2)) * (x3 * x3 - 1.0)
        + 1.0
    )


def example2_relative_de_paper(rho: float, x3: float | np.ndarray) -> float | np.ndarray:
    """Printed closed form of the pair divergence for the second family
    (its final printed line subtracts 1, i.e. it equals the corrected value).
    Takes one x3 or an (n,) x3 row, as :func:`example1_relative_de_paper`."""
    r = check_example2_rho(rho)
    return 0.5 * (1.0 + r + (1.0 - r) * x3 * x3 - math.log(r)) - 1.0


def example1_theta_paper(rho: float, x3: float) -> float:
    """Printed conditional product moment for the first family (exact)."""
    r = check_example1_rho(rho, DomainError)
    return 1.0 + 2.0 * r * r + r**4 * (x3 * x3 - 1.0)


def example2_theta_paper(rho: float, x3: float | np.ndarray) -> float | np.ndarray:
    """Printed conditional product moment for the second family.

    The constant term carries 4 rho^4 where the exact moment has 2 rho^4; the
    verify report flags the difference.  Takes one x3 or an (n,) x3 row, as
    :func:`example1_relative_de_paper`.
    """
    r = check_example2_rho(rho)
    x2 = x3 * x3
    return (
        r * r * (2.0 - r) ** 2
        + 4.0 * r**4
        + 2.0 * r * (2.0 - r) * (1.0 - r) ** 2 * x2
        - 4.0 * r * r * (1.0 - r) ** 2 * x2
        + (1.0 - r) ** 4 * x2 * x2
    )


def _example1_sigma_bar(r: float) -> np.ndarray:
    return np.array([[1.0 - r**4, r], [r, 1.0]])


def _example1_alpha(r: float, i: int, j: int) -> float:
    s = _example1_sigma_bar(r)
    return (
        (1.0 - r**4) * (s[i, j] + 2.0 * s[1, i] * s[1, j])
        + 2.0 * r * (r * s[i, j] + s[0, i] * s[1, j] + s[0, j] * s[1, i])
        + s[0, i] * (2.0 * r * s[1, j] + s[0, j])
        + s[0, j] * (2.0 * r * s[1, i] + s[0, i])
    )


def example1_lambda_bar_paper(rho: float, x3: float, i: int, j: int) -> float:
    """Printed conditional-moment expansion for the first family (0-based i, j)."""
    r = check_example1_rho(rho, DomainError)
    s = _example1_sigma_bar(r)
    return _example1_alpha(r, i, j) + r**4 * x3 * x3 * (
        (1.0 - r**4) * s[i, j] + 2.0 * s[0, i] * s[0, j]
    )


def example1_upsilon_paper(rho: float, x3: float, i: int, j: int) -> float:
    """Printed shifted-moment expansion for the first family (0-based i, j)."""
    r = check_example1_rho(rho, DomainError)
    s = _example1_sigma_bar(r)
    d = np.array([r * r * x3, 0.0])
    beta = d[i] * d[j]
    theta_val = 1.0 + 2.0 * r * r + r**4 * (x3 * x3 - 1.0)
    return (
        _example1_alpha(r, i, j)
        + beta * theta_val
        + 2.0 * r * r * x3 * d[j] * (s[0, i] + 2.0 * r * s[1, i])
        + 2.0 * r * r * x3 * d[i] * (s[i, j] + 2.0 * r * s[1, j])
        + r**4 * x3 * x3 * (s[i, j] + 2.0 * s[1, i] * s[1, j])
    )


def example1_relative_we_paper(rho: float, x3: float | np.ndarray) -> float | np.ndarray:
    """Printed weighted-divergence closed form for the first family.

    Evaluated verbatim; its middle bracket is internally inconsistent, so it
    is reported against wick mode rather than asserted.  Takes one x3 or an
    (n,) x3 row, as :func:`example1_relative_de_paper`.
    """
    r = check_example1_rho(rho, DomainError)
    r2, r4, r6, r8 = r * r, r**4, r**6, r**8
    x2 = x3 * x3
    term1 = 0.5 * math.log((1.0 - r2) / (1.0 - r2 - r4)) * (
        1.0 + 2.0 * r2 + r4 * (x2 - 1.0)
    )
    term2 = (
        3.0 * (1.0 - r4) ** 2
        + 3.0 * (1.0 - r4)
        + 6.0 * r2
        - 6.0 * r4
        - 6.0 * r6 * x2
        + 9.0 * r4 * x2
        - 6.0 * r8 * x2
        + r8 * x2
    ) / (2.0 * (1.0 - r2))
    term3 = -(
        6.0 * r2 * (1.0 - r4)
        + 6.0 * (1.0 - r4) ** 2
        + 4.0 * r4 * (1.0 - r4) * x2
        - 12.0 * r4
        - 4.0 * r6 * (1.0 - r4) * x2
    ) / (2.0 * (1.0 - r2 - r4))
    return term1 + term2 + term3


def example2_lambda_bar_paper(
    rho: float, x3: float | np.ndarray, i: int, j: int
) -> float | np.ndarray:
    """Printed appendix polynomials for the second family's conditional moments.
    Takes one x3 or an (n,) x3 row, as :func:`example1_relative_de_paper`."""
    r = check_example2_rho(rho)
    x2 = x3 * x3
    x4 = x2 * x2
    if i == j == 0:
        return (
            12.0 * r**5 * (2.0 - r)
            + 3.0 * r**3 * (2.0 - r) ** 3
            + 4.0 * x2 * r * r * (2.0 - r) ** 2 * (1.0 - r) ** 2
            + 2.0 * r**4 * x2 * (1.0 - r) ** 2
            + x4 * r * (2.0 - r) * (1.0 - r) ** 4
            - 12.0 * r**3 * x2 * (2.0 - r) * (1.0 - r) ** 2
        )
    if i == j == 1:
        return (
            3.0 * r**4 * (2.0 - r) ** 3
            + 12.0 * r**5 * (2.0 - r)
            + 4.0 * r * r * x2 * (2.0 - r) ** 2 * (1.0 - r) ** 2
            + 2.0 * r**4 * x2 * (1.0 - r) ** 2
            + x4 * r * (2.0 - r) * (1.0 - r) ** 4
            - 12.0 * x2 * r**3 * (2.0 - r) * (1.0 - r) ** 2
        )
    return (
        -9.0 * r**4 * (2.0 - r) ** 2
        - 6.0 * r**6
        - 6.0 * x2 * (1.0 - r) ** 2 * r**3 * (2.0 - r)
        - r * r * x4 * (1.0 - r) ** 4
        + 8.0 * r**4 * x2 * (1.0 - r) ** 2
        + 4.0 * r * r * x2 * (1.0 - r) ** 2 * (2.0 - r) ** 2
    )


def example2_upsilon_paper(
    rho: float, x3: float | np.ndarray, i: int, j: int
) -> float | np.ndarray:
    """Printed appendix polynomials for the second family's shifted moments.
    Takes one x3 or an (n,) x3 row, as :func:`example1_relative_de_paper`."""
    r = check_example2_rho(rho)
    x2 = x3 * x3
    x4 = x2 * x2
    x6 = x2 * x4
    base = r * r * (2.0 - r) ** 2 + 2.0 * r**4
    if i == j == 0:
        return (
            12.0 * r**5 * (2.0 - r)
            + 3.0 * r**3 * (2.0 - r) ** 3
            + 2.0 * (1.0 - r) ** 2 * x2 * base
            - 24.0 * (1.0 - r) ** 2 * x2 * r**3 * (2.0 - r)
            + 3.0 * (1.0 - r) ** 2 * x2 * r * r * (2.0 - r) ** 2
            + (1.0 - r) ** 6 * x6
            + 4.0 * (1.0 - r) ** 2 * x2 * (r * r * (2.0 - r) ** 2 - 2.0 * r**3 * (2.0 - r))
            - 8.0 * r * r * (1.0 - r) ** 4 * x4
            + 7.0 * r * (2.0 - r) * (1.0 - r) ** 4 * x4
        )
    if i == j == 1:
        return (
            3.0 * r**4 * (2.0 - r) ** 3
            + 12.0 * r**5 * (2.0 - r)
            + 6.0 * (1.0 - r) ** 2 * x2 * base
            - 24.0 * (1.0 - r) ** 2 * x2 * r**3 * (2.0 - r)
            + (1.0 - r) ** 6 * x6
            + 7.0 * r * (2.0 - r) * (1.0 - r) ** 4 * x4
            - 8.0 * r * r * (1.0 - r) ** 4 * x4
            + 3.0 * r * r * (2.0 - r) ** 2 * (1.0 - r) ** 2 * x2
        )
    return (
        -9.0 * r**4 * (2.0 - r) ** 2
        - 6.0 * r**6
        + 9.0 * (1.0 - r) ** 2 * x2 * base
        + (1.0 - r) ** 6 * x6
        - 18.0 * (1.0 - r) ** 2 * x2 * r**3 * (2.0 - r)
        + 6.0 * r * (2.0 - r) * (1.0 - r) ** 4 * x4
        - 6.0 * r * r * (1.0 - r) ** 4 * x4
    )


def example2_relative_we_paper(rho: float, x3: float | np.ndarray) -> float | np.ndarray:
    """Printed weighted-divergence closed form for the second family.

    Evaluated verbatim with its printed coefficients (including the extra
    (2 pi)^2 inside the log and a single off-diagonal shifted-moment term).
    Takes one x3 or an (n,) x3 row, as :func:`example1_relative_de_paper`.
    """
    r = check_example2_rho(rho)
    theta_val = example2_theta_paper(r, x3)
    det_bar = r * r * (2.0 - r) ** 2 - r**4
    log_term = 0.5 * math.log(
        (2.0 * math.pi) ** 2 * (4.0 * r * (1.0 - r) / det_bar)
    ) * theta_val
    ups_term = (
        example2_upsilon_paper(r, x3, 0, 0)
        + example2_upsilon_paper(r, x3, 1, 1)
        + (2.0 * r - 1.0) * example2_upsilon_paper(r, x3, 0, 1)
    ) / (8.0 * r * (1.0 - r))
    lam_term = -(
        r * (2.0 - r)
        * (example2_lambda_bar_paper(r, x3, 0, 0) + example2_lambda_bar_paper(r, x3, 1, 1))
        + 2.0 * r * r * example2_lambda_bar_paper(r, x3, 0, 1)
    ) / (2.0 * det_bar)
    return log_term + ups_term + lam_term
