"""Multivariate Gaussian container: validation, conditioning, entropy and KL closed forms.

Entropy values are in nats.  Every formula with a known constant discrepancy
takes an explicit mode: ``"paper"`` evaluates the transcribed closed form
verbatim, ``"corrected"`` the analytically exact one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularGivenBlockError,
    as_float_array,
)

SYMMETRY_ATOL = 1e-12
# smallest eigenvalue must be at least this fraction of the largest
SPD_EIG_RATIO = 1e-10
MAX_DIM = 6

ENTROPY_MODES = ("paper", "corrected")


def check_entropy_mode(mode: str) -> str:
    if mode not in ENTROPY_MODES:
        raise ValueError(f"mode must be one of {ENTROPY_MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Mean vector and covariance matrix of a multivariate normal.

    Construction is the only validation: it checks shapes and finiteness,
    then runs :func:`validate` (symmetry and positive definiteness), so every
    ``Gaussian`` that exists is a valid one.  It also caches the lower
    Cholesky factor (:meth:`chol`) and the log-determinant ``log_det`` of the
    covariance; ``precision`` and the inverse Cholesky factor are computed on
    first use and cached.  The Gaussians it derives (:meth:`marginal`,
    :func:`condition`) are new ones, built and validated the same way; it keeps
    only the gain of :func:`conditional_mean` per (kept, given).  ``==`` is
    identity, as for the other array-holding containers: arrays compared
    elementwise have no truth value.
    """

    mean: np.ndarray
    cov: np.ndarray
    _lower: np.ndarray = field(init=False, repr=False)
    log_det: float = field(init=False, repr=False)
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        mean = as_float_array(self.mean, "mean", ndim=1)
        cov = as_float_array(self.cov, "cov", ndim=2)
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatchError(
                f"cov shape {cov.shape} does not match mean length {mean.size}"
            )
        if mean.size == 0 or mean.size > MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {mean.size}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        validate(self)
        lower = np.linalg.cholesky(cov)
        lower.setflags(write=False)
        object.__setattr__(self, "_lower", lower)
        object.__setattr__(self, "log_det", 2.0 * float(np.sum(np.log(np.diag(lower)))))

    @property
    def dim(self) -> int:
        return self.mean.size

    @cached_property
    def precision(self) -> np.ndarray:
        """Inverse of the covariance."""
        inv = np.linalg.inv(self.cov)
        inv.setflags(write=False)
        return inv

    @cached_property
    def _inv_lower(self) -> np.ndarray:
        inv = np.linalg.inv(self._lower)
        inv.setflags(write=False)
        return inv

    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the covariance."""
        return self._lower

    def log_pdf(self, points) -> np.ndarray:
        """Log density at ``points``, read by :func:`coordinates`: a tuple of
        ``dim`` coordinate arrays (the quadrature oracles pass an open mesh), or points.

        z = L^{-1} (x - mu) is formed one coordinate at a time: L^{-1} is lower
        triangular, so on an open mesh z_k has the shape of the first k + 1 axes
        only.  Points go down the same path as ``tuple(points.T)``, so every
        layout gives the same bits for the same point.  Every array the sum
        builds is new, so it is squared, accumulated and finished in place:
        ``quad += dim log 2 pi + log_det``, then ``quad *= -0.5``, the same
        operations in the same order as ``-0.5 * (constant + quad)``.
        """
        centred = [x - m for x, m in zip(coordinates(points, self.dim), self.mean)]
        quad = 0.0
        for k, row in enumerate(self._inv_lower):
            z = sum(row[j] * centred[j] for j in range(k + 1))
            z *= z
            z += quad
            quad = z
        quad += self.dim * np.log(2.0 * np.pi) + self.log_det
        quad *= -0.5
        return quad

    def pdf(self, points) -> np.ndarray:
        """Density at ``points``: :meth:`log_pdf`'s new array, exponentiated in
        place (coordinate scalars give a scalar)."""
        log_density = self.log_pdf(points)
        out = log_density if isinstance(log_density, np.ndarray) else None
        return np.exp(log_density, out=out)

    def marginal(self, indices) -> "Gaussian":
        """Marginal on ``indices``, a new validated Gaussian."""
        idx = list(indices)
        return Gaussian(self.mean[idx], self.cov[np.ix_(idx, idx)])

    def sampler(self):
        """Return ``draw(rng, n) -> (n, dim)`` sampling from this distribution."""
        # a C-ordered copy of L^T: the product with the F-ordered view lower.T
        # takes a slower path, several times slower for a 2 x 2 factor
        lower_t = np.ascontiguousarray(self._lower.T)

        def draw(rng: np.random.Generator, n: int) -> np.ndarray:
            out = rng.standard_normal((n, self.dim)) @ lower_t
            # the mean one column at a time, in place: the same additions as
            # mean + product, without broadcasting over a short last axis
            for k, m in enumerate(self.mean):
                out[:, k] += m
            return out

        return draw


@dataclass(frozen=True, eq=False)
class ConditionSpec:
    """Keep coordinates ``kept``, fix coordinates ``given`` to ``value`` (0-based):
    one (len(given),) value, or a (len(given), n) block for :func:`conditional_mean`."""

    kept: tuple
    given: tuple
    value: np.ndarray

    def __post_init__(self):
        kept = tuple(int(i) for i in self.kept)
        given = tuple(int(i) for i in self.given)
        ndim = 2 if np.ndim(self.value) == 2 else 1  # one value or a block
        value = as_float_array(np.atleast_1d(self.value), "value", ndim=ndim)
        if set(kept) & set(given):
            raise ValueError(f"kept {kept} and given {given} overlap")
        if len(set(kept)) != len(kept) or len(set(given)) != len(given):
            raise ValueError("kept/given indices must be distinct")
        if len(value) != len(given):
            raise DimensionMismatchError(
                f"value length {len(value)} does not match given set size {len(given)}"
            )
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "value", value)


def coordinates(points, dim: int) -> tuple:
    """``points`` as a tuple of ``dim`` coordinate arrays.  A tuple is taken as
    coordinate arrays already; anything else is read as points, shape (m, dim)
    or (dim,) for one point, and split into its columns."""
    if not isinstance(points, tuple):
        points = tuple(np.atleast_2d(np.asarray(points, dtype=float)).T)
    if len(points) != dim:
        raise DimensionMismatchError(f"points have dimension {len(points)}, expected {dim}")
    return points


def validate(dist: Gaussian) -> None:
    """Check symmetry and positive definiteness, raising a named error otherwise.

    The check :class:`Gaussian` runs on construction.  One ``eigvalsh`` passes a
    valid matrix; only a refused one computes its leading minors, so a minor
    that is not positive is named before the eigenvalue ratio.
    """
    cov = dist.cov
    asym = np.abs(cov - cov.T)
    if asym.max() > SYMMETRY_ATOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise NotSymmetricError(
            f"cov[{i},{j}]={float(cov[i, j])!r} vs cov[{j},{i}]={float(cov[j, i])!r} "
            f"(difference {asym[i, j]:.3e})"
        )
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] > 0.0 and eigs[0] >= SPD_EIG_RATIO * eigs[-1]:  # the ratio alone passes 0
        return
    for k in range(1, dist.dim + 1):
        minor = float(np.linalg.det(cov[:k, :k]))
        if minor <= 0.0:
            raise NotPositiveDefiniteError(
                f"leading principal minor of order {k} is {minor:.6e} (must be > 0)"
            )
    raise NotPositiveDefiniteError(
        f"smallest eigenvalue {eigs[0]:.6e} below {SPD_EIG_RATIO:g} x largest {eigs[-1]:.6e}"
    )


def conditional_mean(dist: Gaussian, spec: ConditionSpec) -> np.ndarray:
    """Mean of the kept coordinates given the fixed ones, mean_a + gain (value - mean_b).

    A (len(given),) value gives a (len(kept),) mean, a (len(given), n) block a
    (len(kept), n) one whose column k is the mean at ``value[:, k]``, bit for
    bit when one coordinate is given.  The gain cov_ab cov_bb^{-1} is solved
    on first use per (kept, given) and kept by ``dist``.
    """
    a, b = list(spec.kept), list(spec.given)
    key = ("gain", spec.kept, spec.given)
    if key not in dist._derived:
        for i in a + b:
            if not 0 <= i < dist.dim:
                raise ValueError(f"index {i} out of range for dimension {dist.dim}")
        try:
            lower = np.linalg.cholesky(dist.cov[b][:, b])
        except np.linalg.LinAlgError as exc:
            raise SingularGivenBlockError(
                f"covariance block of given coordinates {tuple(b)} is not invertible"
            ) from exc
        # two triangular solves
        cov_ab = dist.cov[a][:, b]
        dist._derived[key] = np.linalg.solve(lower.T, np.linalg.solve(lower, cov_ab.T)).T
    gain, column = dist._derived[key], (-1,) + (1,) * (spec.value.ndim - 1)
    return dist.mean[a].reshape(column) + gain @ (spec.value - dist.mean[b].reshape(column))


def condition(dist: Gaussian, spec: ConditionSpec) -> Gaussian:
    """Conditional distribution of the kept coordinates given one value of the fixed ones.

    A new validated Gaussian; an empty given-set returns the marginal on the
    kept coordinates exactly.  The gain comes from :func:`conditional_mean`,
    which ``dist`` keeps per (kept, given).
    """
    mean = conditional_mean(dist, spec)  # checks the indices
    if not spec.given:
        return dist.marginal(spec.kept)
    a, b = list(spec.kept), list(spec.given)
    gain = dist._derived[("gain", spec.kept, spec.given)]
    cov = dist.cov[a][:, a] - gain @ dist.cov[a][:, b].T
    return Gaussian(mean, 0.5 * (cov + cov.T))


def example1_cov(rho: float) -> Gaussian:
    """First bundled trivariate family: unit variances, couplings (rho, rho^2, 0).

    Positive definite iff 1 - rho^2 - rho^4 > 0.
    """
    r = float(rho)
    if 1.0 - r * r - r**4 <= 0.0:
        raise NotPositiveDefiniteError(f"rho={r!r} violates 1 - rho^2 - rho^4 > 0")
    cov = np.array([[1.0, r, r * r], [r, 1.0, 0.0], [r * r, 0.0, 1.0]])
    return Gaussian(np.zeros(3), cov)


def check_example2_rho(rho: float) -> float:
    """``rho`` as a float, or :class:`DomainError` outside the second family's
    domain 0 < rho < 1/2."""
    r = float(rho)
    if not 0.0 < r < 0.5:
        raise DomainError(f"rho outside (0, 0.5): {r!r}")
    return r


def example2_cov(rho: float) -> Gaussian:
    """Second bundled trivariate family: unit variances, couplings (1-2rho, 1-rho, 1-rho).

    Requires 0 < rho < 1/2.  The quadratic form decomposes as
    (1-rho)(c1+c2+c3)^2 + rho(c1-c2)^2 + rho c3^2, hence positive definite.
    """
    r = check_example2_rho(rho)
    cov = np.array(
        [
            [1.0, 1.0 - 2.0 * r, 1.0 - r],
            [1.0 - 2.0 * r, 1.0, 1.0 - r],
            [1.0 - r, 1.0 - r, 1.0],
        ]
    )
    return Gaussian(np.zeros(3), cov)


def gaussian_de(dist: Gaussian, mode: str = "corrected") -> float:
    """Differential entropy of a Gaussian in nats.

    ``"paper"`` evaluates 0.5 log((2 pi)^n |cov|); ``"corrected"`` adds the n/2
    term, i.e. uses (2 pi e)^n, which is what quadrature of -f log f gives.
    """
    check_entropy_mode(mode)
    value = 0.5 * (dist.dim * np.log(2.0 * np.pi) + dist.log_det)
    if mode == "corrected":
        value += 0.5 * dist.dim
    return float(value)


def gaussian_kl(f: Gaussian, g: Gaussian, means=None) -> float | np.ndarray:
    """Kullback-Leibler divergence KL(f || g) between Gaussians, in nats.

    With ``means``, a finite (f.dim, n) block, it is KL(f_k || g) for the n
    Gaussians f_k of f's covariance and mean ``means[:, k]``, as an (n,) array:
    the trace and log-det terms are computed once, the Mahalanobis term once
    per column.  Each entry is within a few ulps of the one-mean call; the
    block's products need not round as the one-mean path's do.
    """
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dimensions differ: {f.dim} vs {g.dim}")
    # tr(Sg^-1 Sf) = |Lg^-1 Lf|_F^2 and the Mahalanobis term is |Lg^-1 (mg - mf)|^2
    a = g._inv_lower @ f._lower
    trace = float(np.sum(a * a))
    if means is None:
        z = g._inv_lower @ (g.mean - f.mean)
        quad = float(z @ z)
    else:
        means = as_float_array(means, "means", ndim=2)
        if means.shape[0] != f.dim:
            raise DimensionMismatchError(
                f"means block has {means.shape[0]} rows, expected {f.dim}"
            )
        cols = (g._inv_lower @ (g.mean[:, None] - means)).T
        quad = (cols[:, None, :] @ cols[:, :, None]).ravel()  # one dot per column
    return 0.5 * (trace + quad - f.dim + (g.log_det - f.log_det))
