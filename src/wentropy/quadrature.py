"""Tensor-grid and Monte Carlo oracles for weighted entropy functionals.

Midpoint rule on a uniform grid over [mu - 8 sigma, mu + 8 sigma] per
dimension.  For smooth integrands that decay at the box edges this converges
spectrally, so modest grids already sit far below the comparison tolerances.

Every weighted operation accepts ``weight=None`` for the unit weight, and the
unweighted entry points are thin aliases through the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import SupportMismatchError
from .gaussian import Gaussian

# densities below this are treated as exact zeros (0 log 0 = 0 convention)
TINY = 1e-300

MAX_CELLS = 10**8
MIN_POINTS = 16
HALF_WIDTH = 8.0  # grid half-width in marginal standard deviations
# points evaluated at once; bounds the memory of one block of the integrand
BLOCK_POINTS = 2**16


@dataclass(frozen=True, eq=False)
class CentralWeight:
    """Product weight phi(x) = prod_i (x_i - a_i)^2 around the centers a."""

    centers: np.ndarray

    def __post_init__(self):
        centers = np.atleast_1d(np.asarray(self.centers, dtype=float))
        if centers.ndim != 1 or not np.all(np.isfinite(centers)):
            raise ValueError("centers must be a finite vector")
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)

    @property
    def dim(self) -> int:
        return self.centers.size

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.prod((pts - self.centers) ** 2, axis=1)


def _weight_values(weight, points: np.ndarray) -> np.ndarray:
    if weight is None:
        return np.ones(points.shape[0])
    return weight(points)


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension (lo, hi, points) description of a rectangular midpoint grid."""

    axes: tuple

    def __post_init__(self):
        axes = tuple((float(lo), float(hi), int(n)) for lo, hi, n in self.axes)
        if not axes:
            raise ValueError("grid needs at least one axis")
        total = 1
        for lo, hi, n in axes:
            if not lo < hi:
                raise ValueError(f"axis bounds must satisfy lo < hi, got ({lo}, {hi})")
            if n < MIN_POINTS:
                raise ValueError(f"need at least {MIN_POINTS} points per axis, got {n}")
            total *= n
        if total > MAX_CELLS:
            raise ValueError(f"grid has {total} cells, above the {MAX_CELLS} cap")
        object.__setattr__(self, "axes", axes)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for lo, hi, n in self.axes:
            vol *= (hi - lo) / n
        return vol

    def axis_centers(self, k: int) -> np.ndarray:
        lo, hi, n = self.axes[k]
        step = (hi - lo) / n
        return lo + (np.arange(n) + 0.5) * step

    @classmethod
    def for_gaussians(cls, dists: Sequence[Gaussian], points: int) -> "GridSpec":
        """Axis box covering ``HALF_WIDTH`` marginal deviations of every distribution."""
        dim = dists[0].dim
        axes = []
        for k in range(dim):
            lo = min(d.mean[k] - HALF_WIDTH * math.sqrt(d.cov[k, k]) for d in dists)
            hi = max(d.mean[k] + HALF_WIDTH * math.sqrt(d.cov[k, k]) for d in dists)
            axes.append((lo, hi, points))
        return cls(tuple(axes))

    @classmethod
    def for_gaussian(cls, dist: Gaussian, points: int) -> "GridSpec":
        return cls.for_gaussians([dist], points)


def _chunks(grid: GridSpec):
    """Yield cell-center coordinates, (m, dim) each, in blocks of whole
    first-axis slabs holding at most ``BLOCK_POINTS`` points (or one slab,
    if a slab alone is larger).

    Each block is stored coordinate-major: the (m, dim) array is the
    transpose of a C-contiguous (dim, m) one, so every coordinate column is
    contiguous.  The integrands reduce over coordinates (``CentralWeight``'s
    product, ``Gaussian.log_pdf``'s quadratic form); over a row-major block
    they would walk a short strided axis, several times slower, for the same
    values."""
    axes = [grid.axis_centers(k) for k in range(grid.dim)]
    slab_points = math.prod(axis.size for axis in axes[1:])
    step = max(1, BLOCK_POINTS // slab_points)
    for start in range(0, axes[0].size, step):
        mesh = np.meshgrid(axes[0][start : start + step], *axes[1:], indexing="ij")
        yield np.stack([m.ravel() for m in mesh]).T


def _integrate(grid: GridSpec, term: Callable[[np.ndarray], np.ndarray]) -> float:
    # fsum rounds the total of the block sums once, whatever the block count
    total = math.fsum(float(np.sum(term(pts))) for pts in _chunks(grid))
    return total * grid.cell_volume


def _log_ratio_integral(
    f_pdf,
    refs,
    weight,
    grid: GridSpec,
    require_support: bool = False,
) -> float:
    """int phi f (log f - log ref) by midpoint quadrature.

    The reference density is the product of ``pdf(x[cols])`` over the
    ``(pdf, cols)`` pairs in ``refs`` (no pairs: ref = 1).  Every density is
    evaluated once per block.  A cell where f or a reference factor is at most
    ``TINY`` contributes 0, unless ``require_support`` is set and phi f
    exceeds ``TINY`` there, which raises :class:`SupportMismatchError`.
    """

    def term(pts):
        f = f_pdf(pts)
        ref_values = [pdf(pts[:, cols]) for pdf, cols in refs]
        phi = _weight_values(weight, pts)
        mask = f > TINY
        for r in ref_values:
            covered = r > TINY
            if require_support:
                bad = (phi * f > TINY) & ~covered
                if np.any(bad):
                    where = pts[int(np.argmax(bad))]
                    raise SupportMismatchError(
                        f"reference density vanishes at {where} where phi*f > 0"
                    )
            mask &= covered
        f = f[mask]
        log_ref = sum(np.log(r[mask]) for r in ref_values)
        return phi[mask] * f * (np.log(f) - log_ref)

    return _integrate(grid, term)


def wde_quadrature(pdf, weight, grid: GridSpec) -> float:
    """Weighted differential entropy -int phi f log f by midpoint quadrature."""
    return -_log_ratio_integral(pdf, (), weight, grid)


def de_quadrature(pdf, grid: GridSpec) -> float:
    """Unweighted differential entropy; same code path with the unit weight."""
    return wde_quadrature(pdf, None, grid)


def conditional_wde_quadrature(
    joint_pdf,
    given_pdf,
    weight,
    grid: GridSpec,
    given_dims: int = 1,
) -> float:
    """-int phi f(x, y) log[f(x, y) / f2(y)] with y the trailing ``given_dims`` coordinates."""
    refs = [(given_pdf, slice(-given_dims, None))]
    return -_log_ratio_integral(joint_pdf, refs, weight, grid)


def mutual_wde_quadrature(joint_pdf, marginal_pdfs, weight, grid: GridSpec) -> float:
    """int phi f log[f / prod_i f_i], with the 0 log(0/0) = 0 convention."""
    refs = [(marg, slice(k, k + 1)) for k, marg in enumerate(marginal_pdfs)]
    return _log_ratio_integral(joint_pdf, refs, weight, grid)


def relative_wde_quadrature(f_pdf, g_pdf, weight, grid: GridSpec) -> float:
    """Weighted divergence int phi f log(f/g).

    Raises :class:`SupportMismatchError` if g vanishes on a cell where the
    weighted integrand does not.
    """
    refs = [(g_pdf, slice(None))]
    return _log_ratio_integral(f_pdf, refs, weight, grid, require_support=True)


def gibbs_condition_value(f_pdf, g_pdf, weight, grid: GridSpec) -> float:
    """int phi (f - g): the sign condition of the weighted Gibbs inequality."""

    def term(pts):
        return _weight_values(weight, pts) * (f_pdf(pts) - g_pdf(pts))

    return _integrate(grid, term)


@dataclass(frozen=True)
class McConfig:
    """Sample count and seed for the Monte Carlo divergence estimator."""

    samples: int
    seed: int

    def __post_init__(self):
        if int(self.samples) < 1000:
            raise ValueError(f"need at least 1000 samples, got {self.samples}")
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "seed", int(self.seed))


class McEstimate(NamedTuple):
    estimate: float
    stderr: float


def relative_wde_monte_carlo(sampler, f_pdf, g_pdf, weight, cfg: McConfig) -> McEstimate:
    """Monte Carlo estimate of int phi f log(f/g) from draws of f.

    Deterministic for a fixed seed (counter-based generator); the standard
    error comes from the sample variance.
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    pts = sampler(rng, cfg.samples)
    vals = _weight_values(weight, pts) * (
        np.log(np.maximum(f_pdf(pts), TINY)) - np.log(np.maximum(g_pdf(pts), TINY))
    )
    estimate = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(cfg.samples))
    return McEstimate(estimate, stderr)


def moment_quadrature(dist: Gaussian, exponents, points: int = 64) -> float:
    """E[prod (X_i - mu_i)^{r_i}] by tensor quadrature; oracle for the Wick moments."""
    grid = GridSpec.for_gaussian(dist, points)
    r = [int(e) for e in exponents]

    def term(pts):
        return np.prod((pts - dist.mean) ** r, axis=1) * dist.pdf(pts)

    return _integrate(grid, term)
