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


def _float_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.array(x, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Mean vector and covariance matrix of a multivariate normal.

    Construction is the only validation: it checks shapes and finiteness,
    then runs :func:`validate` (symmetry and positive definiteness), so every
    ``Gaussian`` that exists is a valid one.  It also caches the lower
    Cholesky factor (:meth:`chol`) and the log-determinant ``log_det`` of the
    covariance; ``precision`` and the inverse Cholesky factor are computed on
    first use and cached.  It remembers the Gaussians it derives
    (:meth:`marginal`, :func:`condition`), so each derived covariance is
    validated and factored once.  ``==`` is identity, as for the other
    array-holding containers: arrays compared elementwise have no truth value.
    """

    mean: np.ndarray
    cov: np.ndarray
    _lower: np.ndarray = field(init=False, repr=False)
    log_det: float = field(init=False, repr=False)
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        mean = _float_array(self.mean, "mean", ndim=1)
        cov = _float_array(self.cov, "cov", ndim=2)
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

    def _with_mean(self, mean) -> "Gaussian":
        """Same covariance and caches, new checked ``mean``: the one path that skips validate."""
        mean = _float_array(mean, "mean", ndim=1)
        if mean.shape != self.mean.shape:
            raise DimensionMismatchError(f"mean shape {mean.shape} is not {self.mean.shape}")
        new = object.__new__(Gaussian)
        new.__dict__.update(self.__dict__, mean=mean, _derived={})
        return new

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

    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Log density at ``points`` of shape (m, dim), or at one point of shape (dim,).

        The standardized points z = L^{-1} (x - mu) are formed as a (dim, m)
        array and the quadratic form |z|^2 is summed over its leading axis,
        so the reduction runs over contiguous rows whatever the layout of
        ``points``: fast both for the coordinate-major blocks of the
        quadrature oracles and for the row-major draws of the Monte Carlo one.
        Every layout, and a lone point, gives the same bits for the same point.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"points have dimension {pts.shape[1]}, distribution has {self.dim}"
            )
        if len(pts) == 1:  # BLAS's matrix-vector kernel rounds unlike a block's
            return self.log_pdf(np.repeat(pts, 2, axis=0))[:1]
        centered = pts - self.mean
        z = self._inv_lower @ centered.T
        quad = np.sum(z * z, axis=0)
        return -0.5 * (self.dim * np.log(2.0 * np.pi) + self.log_det + quad)

    def pdf(self, points: np.ndarray) -> np.ndarray:
        return np.exp(self.log_pdf(points))

    def marginal(self, indices) -> "Gaussian":
        """Marginal on ``indices``; the same object for the same indices."""
        idx = list(indices)
        key = ("marginal", tuple(idx))
        if key not in self._derived:
            self._derived[key] = Gaussian(self.mean[idx], self.cov[np.ix_(idx, idx)])
        return self._derived[key]

    def sampler(self):
        """Return ``draw(rng, n) -> (n, dim)`` sampling from this distribution."""
        lower = self._lower

        def draw(rng: np.random.Generator, n: int) -> np.ndarray:
            z = rng.standard_normal((n, self.dim))
            return self.mean + z @ lower.T

        return draw


@dataclass(frozen=True, eq=False)
class ConditionSpec:
    """Keep coordinates ``kept``, fix coordinates ``given`` to ``value`` (0-based)."""

    kept: tuple
    given: tuple
    value: np.ndarray

    def __post_init__(self):
        kept = tuple(int(i) for i in self.kept)
        given = tuple(int(i) for i in self.given)
        value = _float_array(np.atleast_1d(self.value), "value", ndim=1)
        if set(kept) & set(given):
            raise ValueError(f"kept {kept} and given {given} overlap")
        if len(set(kept)) != len(kept) or len(set(given)) != len(given):
            raise ValueError("kept/given indices must be distinct")
        if value.size != len(given):
            raise DimensionMismatchError(
                f"value length {value.size} does not match given set size {len(given)}"
            )
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "value", value)


def validate(dist: Gaussian) -> None:
    """Check symmetry and positive definiteness, raising a named error otherwise.

    The check :class:`Gaussian` runs on construction.
    """
    cov = dist.cov
    asym = np.abs(cov - cov.T)
    if asym.max() > SYMMETRY_ATOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise NotSymmetricError(
            f"cov[{i},{j}]={cov[i, j]!r} vs cov[{j},{i}]={cov[j, i]!r} "
            f"(difference {asym[i, j]:.3e})"
        )
    for k in range(1, dist.dim + 1):
        minor = float(np.linalg.det(cov[:k, :k]))
        if minor <= 0.0:
            raise NotPositiveDefiniteError(
                f"leading principal minor of order {k} is {minor:.6e} (must be > 0)"
            )
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] < SPD_EIG_RATIO * eigs[-1]:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {eigs[0]:.6e} below {SPD_EIG_RATIO:g} x largest {eigs[-1]:.6e}"
        )


def condition(dist: Gaussian, spec: ConditionSpec) -> Gaussian:
    """Conditional distribution of the kept coordinates given the fixed ones.

    An empty given-set returns the marginal on the kept coordinates exactly
    (pure slicing, no arithmetic).  Per (kept, given), ``dist`` keeps the first
    result and its gain; later values compute only the mean.  A failure keeps nothing.
    """
    n = dist.dim
    for i in spec.kept + spec.given:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for dimension {n}")
    if not spec.given:
        return dist.marginal(spec.kept)
    a = list(spec.kept)
    b = list(spec.given)
    key = ("condition", spec.kept, spec.given)
    if key in dist._derived:
        gain, first = dist._derived[key]
        return first._with_mean(dist.mean[a] + gain @ (spec.value - dist.mean[b]))
    cov_aa = dist.cov[np.ix_(a, a)]
    cov_ab = dist.cov[np.ix_(a, b)]
    cov_bb = dist.cov[np.ix_(b, b)]
    try:
        lower = np.linalg.cholesky(cov_bb)
    except np.linalg.LinAlgError as exc:
        raise SingularGivenBlockError(
            f"covariance block of given coordinates {tuple(b)} is not invertible"
        ) from exc
    # gain = cov_ab @ cov_bb^{-1} via two triangular solves
    gain = np.linalg.solve(lower.T, np.linalg.solve(lower, cov_ab.T)).T
    mean = dist.mean[a] + gain @ (spec.value - dist.mean[b])
    cov = cov_aa - gain @ cov_ab.T
    cov = 0.5 * (cov + cov.T)
    dist._derived[key] = (gain, Gaussian(mean, cov))
    return dist._derived[key][1]


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


def gaussian_kl(f: Gaussian, g: Gaussian) -> float:
    """Kullback-Leibler divergence KL(f || g) between Gaussians, in nats."""
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dimensions differ: {f.dim} vs {g.dim}")
    # tr(Sg^-1 Sf) = |Lg^-1 Lf|_F^2 and the Mahalanobis term is |Lg^-1 (mg - mf)|^2
    a = g._inv_lower @ f._lower
    trace = float(np.sum(a * a))
    z = g._inv_lower @ (g.mean - f.mean)
    quad = float(z @ z)
    return 0.5 * (trace + quad - f.dim + (g.log_det - f.log_det))
