"""Multivariate Gaussian container: validation, conditioning, entropy and KL closed forms.

A batch's means may share one covariance: one :func:`condition` call on a block
of values, and one :func:`gaussian_kl` call against the marginal, then cover a
whole grid.  Entropy values are in nats.  Every formula with a known constant
discrepancy takes an explicit mode: ``"paper"`` evaluates the transcribed
closed form verbatim, ``"corrected"`` the analytically exact one.
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
    WentropyError,
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
    """Mean vector and covariance matrix of a multivariate normal, or of a batch:
    mean (d, *batch) and cov (d, d, *batch), so an entry ``cov[i, j]`` is a batch array.
    A covariance axis of length 1 is shared by every mean along that batch axis.

    Construction is the only validation: it checks shapes and finiteness, then
    runs :func:`validate` (symmetry and positive definiteness), so every
    ``Gaussian`` that exists is a valid one.  A batch is checked, factored and
    inverted by stacked linalg calls on the covariance's own batch, which give
    each member its bits alone; a refused batch raises the error of its first
    member refused alone, in the C order of the mean's batch, with that
    member's index.  It caches the lower Cholesky factor (:meth:`chol`) and
    ``log_det`` (a float, or an array of the covariance's batch); ``precision``
    and the inverse factor are cached on first use.  The Gaussians it derives
    (:meth:`marginal`, :func:`condition`) are new ones, built the same way, and
    none is kept: :func:`condition` checks its split and solves its gain on every
    call.  :meth:`log_pdf` and :meth:`pdf` read a batch's axes as the trailing axes
    of the coordinates, aligned from the right, and give each member the bits of its
    own call; only :meth:`sampler` refuses a batch.  ``==`` is identity.
    """

    mean: np.ndarray
    cov: np.ndarray
    _lower: np.ndarray = field(init=False, repr=False)
    log_det: float | np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            self._build()
        except (ValueError, WentropyError) as refused:
            try:
                mean, cov = np.asarray(self.mean, dtype=float), np.asarray(self.cov, dtype=float)
            except ValueError:  # ragged input, refused as a whole
                raise refused from None
            if mean.ndim > 1 and _fits(mean.shape, cov.shape):  # a refused batch
                cov = np.broadcast_to(cov, mean.shape[:1] + mean.shape)
                for index in np.ndindex(mean.shape[1:]):  # its first refused member names the error
                    try:
                        Gaussian(mean[(slice(None),) + index], cov[(slice(None),) * 2 + index])
                    except (ValueError, WentropyError) as exc:
                        raise type(exc)(f"{exc} (batch member {index})") from None
            raise

    def _build(self) -> None:
        batch = np.shape(self.mean)[1:]
        mean = as_float_array(self.mean, "mean", ndim=1 + len(batch))
        cov = as_float_array(self.cov, "cov", ndim=2 + len(batch))
        if not _fits(mean.shape, cov.shape):
            of = f"shape {mean.shape}" if batch else f"length {mean.size}"
            raise DimensionMismatchError(f"cov shape {cov.shape} does not match mean {of}")
        if not 0 < len(mean) <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {len(mean)}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        validate(self)
        lower = _unstacked(np.linalg.cholesky(_stacked(cov)))
        log_det = 2.0 * np.sum(np.log(np.diagonal(lower)), axis=-1)
        if batch:
            log_det.setflags(write=False)
        object.__setattr__(self, "_lower", lower)
        object.__setattr__(self, "log_det", log_det if batch else float(log_det))

    @property
    def dim(self) -> int:
        return len(self.mean)

    @property
    def batch(self) -> tuple:  # () for one distribution
        return self.mean.shape[1:]

    @cached_property
    def precision(self) -> np.ndarray:
        """Inverse of the covariance."""
        return _unstacked(np.linalg.inv(_stacked(self.cov)))

    @cached_property
    def _inv_lower(self) -> np.ndarray:
        return _unstacked(np.linalg.inv(_stacked(self._lower)))

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
        if self.batch:
            raise ValueError(f"sampler takes one distribution, got a batch of shape {self.batch}")
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


def coordinates(points, dim: int) -> tuple:
    """``points`` as a tuple of ``dim`` coordinate arrays.  A tuple is taken as
    coordinate arrays already; anything else is read as points, shape (m, dim)
    or (dim,) for one point, and split into its columns."""
    if not isinstance(points, tuple):
        points = tuple(np.atleast_2d(np.asarray(points, dtype=float)).T)
    if len(points) != dim:
        raise DimensionMismatchError(f"points have dimension {len(points)}, expected {dim}")
    return points


def _fits(mean: tuple, cov: tuple) -> bool:
    """Whether a cov shape (d, d, *batch) fits a mean shape (d, *batch); an axis 1 is shared."""
    shared = all(c in (1, m) for c, m in zip(cov[2:], mean[1:]))
    return shared and cov[:2] == mean[:1] * 2 and len(cov) == len(mean) + 1


def _stacked(a: np.ndarray) -> np.ndarray:
    """A (p, q, *batch) array as a (*batch, p, q) view: numpy's stacked linalg layout."""
    return np.moveaxis(a, (0, 1), (-2, -1))


def _unstacked(a: np.ndarray) -> np.ndarray:
    """A (*batch, p, q) array as a read-only (p, q, *batch) view."""
    a = np.moveaxis(a, (-2, -1), (0, 1))
    a.setflags(write=False)
    return a


def validate(dist: Gaussian) -> None:
    """Check symmetry and positive definiteness, raising a named error otherwise.

    The check :class:`Gaussian` runs on construction, on a whole batch at once:
    one stacked ``eigvalsh`` passes valid matrices.  Only the first refused
    matrix, in C order, is looked at alone: its largest asymmetry is named,
    else its first leading minor that is not positive, else the eigenvalue ratio.
    """
    cov = _stacked(dist.cov)
    asym = np.abs(cov - np.swapaxes(cov, -1, -2)).max(axis=(-2, -1), initial=0.0)
    eigs = np.linalg.eigvalsh(cov)
    low, high = eigs[..., 0], eigs[..., -1]  # the ratio alone passes 0
    refused = (asym > SYMMETRY_ATOL) | ~((low > 0.0) & (low >= SPD_EIG_RATIO * high))
    if not refused.any():
        return
    index = np.unravel_index(int(np.argmax(refused)), refused.shape)
    cov, eigs = cov[index], eigs[index]
    asym = np.abs(cov - cov.T)
    if asym.max() > SYMMETRY_ATOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise NotSymmetricError(
            f"cov[{i},{j}]={float(cov[i, j])!r} vs cov[{j},{i}]={float(cov[j, i])!r} "
            f"(difference {asym[i, j]:.3e})"
        )
    for k in range(1, dist.dim + 1):
        minor = float(np.linalg.det(cov[:k, :k]))
        if minor <= 0.0:
            raise NotPositiveDefiniteError(
                f"leading principal minor of order {k} is {minor:.6e} (must be > 0)"
            )
    raise NotPositiveDefiniteError(
        f"smallest eigenvalue {eigs[0]:.6e} below {SPD_EIG_RATIO:g} x largest {eigs[-1]:.6e}"
    )


def condition(dist: Gaussian, kept, given, value) -> Gaussian:
    """Conditional distribution of the coordinates ``kept`` (0-based) with the
    coordinates ``given`` fixed to ``value``: mean mean_a + gain (value - mean_b),
    covariance cov_aa - gain cov_ba, gain cov_ab cov_bb^{-1}, a new validated
    Gaussian of ``dist``'s batch.  A (len(given), n) block of values gives a
    mean (len(kept), *batch, n) whose last index k is the mean at ``value[:, k]``,
    bit for bit when one coordinate is given, and one shared covariance
    (len(kept), len(kept), *batch, 1).  An empty given-set returns the marginal
    on the kept coordinates exactly.  Every call checks the value's shape and
    finiteness, then the split (disjoint, distinct indices in range, an
    invertible given block), then the value's length, and solves the gain for
    the whole batch: nothing is kept between calls.
    """
    kept, given = tuple(map(int, kept)), tuple(map(int, given))
    value = as_float_array(np.atleast_1d(value), "value", ndim=2 if np.ndim(value) == 2 else 1)
    a, b = list(kept), list(given)
    if set(kept) & set(given):
        raise ValueError(f"kept {kept} and given {given} overlap")
    if len(set(kept)) != len(kept) or len(set(given)) != len(given):
        raise ValueError("kept/given indices must be distinct")
    for i in a + b:
        if not 0 <= i < dist.dim:
            raise ValueError(f"index {i} out of range for dimension {dist.dim}")
    cov = _stacked(dist.cov)
    try:
        lower = np.linalg.cholesky(cov[..., b, :][..., b])
    except np.linalg.LinAlgError as exc:
        raise SingularGivenBlockError(
            f"covariance block of given coordinates {given} is not invertible"
        ) from exc
    if len(value) != len(given):
        raise DimensionMismatchError(
            f"value length {len(value)} does not match given set size {len(given)}"
        )
    if not given:
        return dist.marginal(kept)
    # two triangular solves per member give the gain as (*batch, kept, given)
    cov_ba = np.swapaxes(cov[..., a, :][..., b], -1, -2)
    gain = np.linalg.solve(np.swapaxes(lower, -1, -2), np.linalg.solve(lower, cov_ba))
    gain = np.swapaxes(gain, -1, -2)
    # one value is one column; each member's block is a new C-ordered array, as alone
    block = value.reshape(value.shape[:1] + (value.shape[1:] or (1,)))
    shift = gain @ (block - np.moveaxis(dist.mean[b], 0, -1)[..., None])
    mean = dist.mean[a][..., None] + np.moveaxis(shift, -2, 0)  # the columns follow the batch
    cov = cov[..., a, :][..., a] - gain @ cov_ba
    cov = np.moveaxis(0.5 * (cov + np.swapaxes(cov, -1, -2)), (-2, -1), (0, 1))
    return Gaussian(mean, cov[..., None]) if value.ndim == 2 else Gaussian(mean[..., 0], cov)


def _family(rho, check, couplings) -> Gaussian:
    """Unit variances and ``couplings(r)`` = (c01, c02, c12) at ``rho``, one value
    or an array of them (a batch), each value passed through ``check`` in C order."""
    r = np.reshape([check(v) for v in np.ravel(rho).tolist()], np.shape(rho))
    (c01, c02, c12), one = couplings(r), np.ones_like(r)
    cov = np.array([[one, c01, c02], [c01, one, c12], [c02, c12, one]])
    return Gaussian(np.zeros((3,) + r.shape), cov)


def check_example1_rho(rho: float, error=NotPositiveDefiniteError) -> float:
    """``rho`` as a float, or ``error`` outside the first family's domain 1 - rho^2 - rho^4 > 0
    (the printed formulas raise :class:`DomainError`, the covariance the default)."""
    r = float(rho)
    if 1.0 - r * r - r**4 <= 0.0:
        raise error(f"rho={r!r} violates 1 - rho^2 - rho^4 > 0")
    return r


def example1_cov(rho) -> Gaussian:
    """First bundled trivariate family: unit variances, couplings (rho, rho^2, 0).

    Positive definite iff 1 - rho^2 - rho^4 > 0.  An array of rhos gives a
    batched Gaussian; the first rho outside the domain, in C order, is refused.
    """
    return _family(rho, check_example1_rho, lambda r: (r, r * r, np.zeros_like(r)))


def check_example2_rho(rho: float) -> float:
    """``rho`` as a float, or :class:`DomainError` outside the second family's
    domain 0 < rho < 1/2."""
    r = float(rho)
    if not 0.0 < r < 0.5:
        raise DomainError(f"rho outside (0, 0.5): {r!r}")
    return r


def example2_cov(rho) -> Gaussian:
    """Second bundled trivariate family: unit variances, couplings (1-2rho, 1-rho, 1-rho).

    Requires 0 < rho < 1/2.  The quadratic form decomposes as
    (1-rho)(c1+c2+c3)^2 + rho(c1-c2)^2 + rho c3^2, hence positive definite.
    An array of rhos gives a batched Gaussian, as for :func:`example1_cov`.
    """
    return _family(rho, check_example2_rho, lambda r: (1.0 - 2.0 * r, 1.0 - r, 1.0 - r))


def gaussian_de(dist: Gaussian, mode: str = "corrected") -> float:
    """Differential entropy of a Gaussian in nats.

    ``"paper"`` evaluates 0.5 log((2 pi)^n |cov|); ``"corrected"`` adds the n/2
    term, i.e. uses (2 pi e)^n, which is what quadrature of -f log f gives.
    """
    check_entropy_mode(mode)
    value = 0.5 * (dist.dim * np.log(2.0 * np.pi) + dist.log_det)
    if mode == "corrected":
        value += 0.5 * dist.dim
    return value if dist.batch else float(value)


def gaussian_kl(f: Gaussian, g: Gaussian) -> float | np.ndarray:
    """Kullback-Leibler divergence KL(f || g) between Gaussians, in nats.

    Batched f and g broadcast axis by axis, each pair of axes of one length or
    one of them 1, and give a batch array; the trace and log-det terms are
    computed on the covariances' batch, the Mahalanobis term per mean.
    """
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dimensions differ: {f.dim} vs {g.dim}")
    pairs = list(zip(f.batch, g.batch))
    if len(f.batch) != len(g.batch) or not all(p == q or 1 in (p, q) for p, q in pairs):
        raise DimensionMismatchError(f"batches differ: {f.batch} vs {g.batch}")
    # per member, tr(Sg^-1 Sf) = |Lg^-1 Lf|_F^2 and the Mahalanobis term is |Lg^-1 (mg - mf)|^2
    inv_lower = _stacked(g._inv_lower)
    a = inv_lower @ _stacked(f._lower)
    trace = np.sum(a * a, axis=(-2, -1))
    z = inv_lower @ np.moveaxis(g.mean - f.mean, 0, -1)[..., None]  # (*batch, dim, 1)
    quad = (np.swapaxes(z, -1, -2) @ z)[..., 0, 0]
    kl = 0.5 * (trace + quad - f.dim + (g.log_det - f.log_det))
    return kl if f.batch else float(kl)
