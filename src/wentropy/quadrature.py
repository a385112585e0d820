"""Tensor-grid and Monte Carlo oracles for weighted entropy functionals.

Midpoint rule on a uniform grid over [mu - 8 sigma, mu + 8 sigma] per
dimension.  For smooth integrands that decay at the box edges this converges
spectrally, so modest grids already sit far below the comparison tolerances.

Every weighted operation accepts ``weight=None`` for the unit weight, and the
unweighted entry points are thin aliases through the same code path.

Densities and weights see each block of cells as an open mesh (``_chunks``); a
result of lower rank, a scalar included, is broadcast to the block before it is summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import SupportMismatchError
from .gaussian import Gaussian, coordinates

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

    def __call__(self, points) -> np.ndarray:
        """phi at ``points``, read as :func:`gaussian.coordinates` reads them."""
        coords = coordinates(points, self.dim)
        return math.prod((x - a) ** 2 for x, a in zip(coords, self.centers))


def _weight_values(weight, points, shape) -> np.ndarray:
    return np.broadcast_to(1.0 if weight is None else weight(points), shape)


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
    """Yield the cell centres in blocks of whole first-axis slabs holding at
    most ``BLOCK_POINTS`` points (or one slab, if a slab alone is larger).

    Each block is an open mesh: a tuple of ``dim`` views of the axis centres,
    array k shaped to vary along axis k only, which broadcast to the block in
    C order.  No (m, dim) array is built, and the integrands, which reduce over
    coordinates, keep most of their terms at the size of a few axes."""
    mesh = np.ix_(*(grid.axis_centers(k) for k in range(grid.dim)))
    step = max(1, BLOCK_POINTS // math.prod(axis.size for axis in mesh[1:]))
    for start in range(0, mesh[0].size, step):
        yield (mesh[0][start : start + step],) + mesh[1:]


def _integrate(grid: GridSpec, term: Callable) -> float:
    # term(pts, shape) for each block and its shape; fsum rounds the total of
    # the block sums once, whatever the block count
    sums = (term(pts, np.broadcast_shapes(*(x.shape for x in pts))) for pts in _chunks(grid))
    return math.fsum(float(np.sum(s)) for s in sums) * grid.cell_volume


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

    def term(pts, shape):
        f = np.broadcast_to(f_pdf(pts), shape)
        ref_values = [np.asarray(pdf(pts[cols])) for pdf, cols in refs]  # at their own shape
        phi = _weight_values(weight, pts, shape)
        mask = f > TINY
        for r in ref_values:
            covered = r > TINY
            if require_support and not covered.all():
                bad = (phi * f > TINY) & ~covered
                if np.any(bad):
                    cell = np.unravel_index(int(np.argmax(bad)), shape)
                    where = np.array([np.broadcast_to(x, shape)[cell] for x in pts])
                    raise SupportMismatchError(
                        f"reference density vanishes at {where} where phi*f > 0"
                    )
            mask &= covered
        if not mask.all():  # boolean indexing copies: only where a cell drops out
            f, phi = f[mask], phi[mask]
            ref_values = [np.broadcast_to(r, shape)[mask] for r in ref_values]
        log_ratio = np.log(f)  # new, so updated in place: fewer block-sized arrays
        if ref_values:  # no references: ref = 1, and no pass subtracting 0
            log_ratio -= sum(np.log(r) for r in ref_values)
        log_ratio *= f
        log_ratio *= phi
        return log_ratio

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

    def term(pts, shape):
        return _weight_values(weight, pts, shape) * (f_pdf(pts) - g_pdf(pts))

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
    pts = tuple(sampler(rng, cfg.samples).T)
    vals = _weight_values(weight, pts, (cfg.samples,)) * (
        np.log(np.maximum(f_pdf(pts), TINY)) - np.log(np.maximum(g_pdf(pts), TINY))
    )
    estimate = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(cfg.samples))
    return McEstimate(estimate, stderr)


def moment_quadrature(dist: Gaussian, exponents, points: int = 64) -> float:
    """E[prod (X_i - mu_i)^{r_i}] by tensor quadrature; oracle for the Wick moments."""
    grid = GridSpec.for_gaussian(dist, points)
    r = [int(e) for e in exponents]

    def term(pts, shape):  # a factor per coordinate: the block's shape
        factors = ((x - m) ** e for x, m, e in zip(pts, dist.mean, r, strict=True))
        return math.prod(factors) * dist.pdf(pts)

    return _integrate(grid, term)
