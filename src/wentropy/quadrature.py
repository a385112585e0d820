"""Gauss-Hermite, Monte Carlo and midpoint oracles for weighted entropy functionals.

``wde_gauss_hermite`` gives -E_f[phi log ref] exactly, up to rounding, for one Gaussian or a
batch: it calls ``ref.log_pdf`` and the weight at its nodes, with the batch axes last.

The Monte Carlo estimator draws and scores its samples in blocks of
``MC_BLOCK_ROWS`` rows, so it holds one value per sample and one block's arrays.

``relative_wde_quadrature`` is the one midpoint integral: the weighted divergence on
a ``GridSpec``.  ``GridSpec.for_gaussians`` covers [mu - 8 sigma, mu + 8 sigma] per
dimension, where the rule converges spectrally for smooth integrands that decay at
the box edges.  The densities and weight see each block of cells as an open mesh
(``_chunks``); a result of lower rank, a scalar included, is broadcast to the block
before it is summed.

Every weighted operation accepts ``weight=None`` for the unit weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import SupportMismatchError, as_float_array, as_int
from .gaussian import Gaussian, coordinates

# densities below this are treated as exact zeros (0 log 0 = 0 convention)
TINY = 1e-300

MAX_CELLS = 10**8
MIN_POINTS = 16
HALF_WIDTH = 8.0  # grid half-width in marginal standard deviations
# points evaluated at once; bounds the memory of one block of the integrand
BLOCK_POINTS = 2**16
# Monte Carlo rows drawn and scored at once; a row takes several numbers (its
# coordinates and density terms), so a block holds about BLOCK_POINTS of them
MC_BLOCK_ROWS = BLOCK_POINTS // 4


@dataclass(frozen=True, eq=False)
class CentralWeight:
    """Product weight phi(x) = prod_i (x_i - a_i)^2 around the centers a, or a
    batch of them: centers (d, *batch), as a ``Gaussian``'s mean; their batch axes
    are the trailing axes of the coordinates, as in ``Gaussian.log_pdf``."""

    centers: np.ndarray

    def __post_init__(self):
        centers = np.atleast_1d(self.centers)
        object.__setattr__(self, "centers", as_float_array(centers, "centers", ndim=centers.ndim))

    @property
    def dim(self) -> int:
        return len(self.centers)

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
    block_sums = []
    for pts in _chunks(grid):
        # `array` still holds the last block's array while this block's arrays
        # are made.  Freed first, it would leave a free heap top large enough
        # for glibc to hand back to the system, and every block would then
        # page-fault on its new arrays, which about doubled a 96^3 integral.
        array = term(pts, np.broadcast_shapes(*(x.shape for x in pts)))
        block_sums.append(float(np.sum(array)))
    return math.fsum(block_sums) * grid.cell_volume


def _log0(x, keep) -> np.ndarray:
    """log x where ``keep`` holds and 0 elsewhere, so a dropped cell raises no warning."""
    return np.log(x) if keep.all() else np.log(x, out=np.zeros(np.shape(x)), where=keep)


def relative_wde_quadrature(f_pdf, g_pdf, weight, grid: GridSpec) -> float:
    """Weighted divergence int phi f log(f/g) by midpoint quadrature.

    f, g and the weight are each evaluated once per block.  A cell where f or
    g is at most ``TINY`` contributes 0, and a block with such a cell forms
    its product on the whole block, with the dropped cells' logs read as 0,
    and sums only ``product[mask]``.  Raises :class:`SupportMismatchError` if
    g vanishes on a cell where phi f exceeds ``TINY``.
    """

    def term(pts, shape):
        f = np.broadcast_to(f_pdf(pts), shape)
        phi = _weight_values(weight, pts, shape)
        g = np.asarray(g_pdf(pts))  # at its own shape
        kept, covered = f > TINY, g > TINY
        if not covered.all():
            bad = (phi * f > TINY) & ~covered
            if np.any(bad):
                cell = np.unravel_index(int(np.argmax(bad)), shape)
                where = np.array([np.broadcast_to(x, shape)[cell] for x in pts])
                raise SupportMismatchError(
                    f"reference density vanishes at {where} where phi*f > 0"
                )
        mask = kept & covered
        product = _log0(f, kept)  # log f is new, so updated in place
        product -= _log0(g, covered)
        product *= f
        product *= phi
        return product if mask.all() else product[mask]

    return _integrate(grid, term)


@dataclass(frozen=True)
class McConfig:
    """Sample count and seed for the Monte Carlo divergence estimator."""

    samples: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "samples", as_int(self.samples, "samples"))
        object.__setattr__(self, "seed", as_int(self.seed, "seed", nonnegative=True))
        if self.samples < 1000:
            raise ValueError(f"need at least 1000 samples, got {self.samples}")


class McEstimate(NamedTuple):
    estimate: float
    stderr: float


def relative_wde_monte_carlo(sampler, f_pdf, g_pdf, weight, cfg: McConfig) -> McEstimate:
    """Monte Carlo estimate of int phi f log(f/g) from draws of f.

    Deterministic for a fixed seed (counter-based generator); the standard
    error comes from the sample variance.  Rows are drawn and scored in blocks
    of ``MC_BLOCK_ROWS``, in order, into one array of the values: the stream
    and the values are those of one draw of every row.  A short tail block is
    drawn at the full size and only its first rows are scored, since a sampler
    may round a short block differently (a Gaussian sampler's one-row block is
    a BLAS matrix-vector product).
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    vals = np.empty(cfg.samples)
    for start in range(0, cfg.samples, MC_BLOCK_ROWS):
        block = vals[start : start + MC_BLOCK_ROWS]
        pts = tuple(sampler(rng, MC_BLOCK_ROWS)[: block.size].T)
        log_ratio = np.log(np.maximum(f_pdf(pts), TINY)) - np.log(np.maximum(g_pdf(pts), TINY))
        np.multiply(_weight_values(weight, pts, block.shape), log_ratio, out=block)
    del pts, log_ratio  # the last block's draw would outlive it into np.std's temporaries
    estimate = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(cfg.samples))
    return McEstimate(estimate, stderr)


@functools.cache
def _hermite_rule(n: int) -> tuple:
    """The n-node Gauss rule for N(0, 1) by Golub-Welsch: the eigenvalues of the probabilists'
    Jacobi matrix (eigh reads its lower triangle); weights: first eigenvector entries squared.
    Built once per node count; the arrays are read-only, as every caller shares them."""
    nodes, vectors = np.linalg.eigh(np.diag(np.sqrt(np.arange(1.0, n)), -1))
    weights = vectors[0] ** 2 / np.sum(vectors[0] ** 2)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def wde_gauss_hermite(dist: Gaussian, weight, ref: Gaussian | None = None) -> float | np.ndarray:
    """-E_f[phi log ref] for a Gaussian f = ``dist``, a Gaussian ``ref`` (default f: the
    weighted entropy of f) and phi None or a :class:`CentralWeight`, by the tensor Gauss-Hermite
    rule in x = mu + L z with dim + 2 nodes per axis.  log ref is quadratic in z, so phi log ref
    has degree at most 2 dim + 2 in each z_k, and the rule is exact up to rounding.  ``dist``,
    ``ref`` and the centers may be batches that broadcast together from the right, after the
    node axes; the node axes are moved last and made contiguous before the sum, so each
    member's nodes are summed as one run, to its bits alone."""
    ref = dist if ref is None else ref
    ranks = (dist.mean.ndim, ref.mean.ndim, 1 if weight is None else weight.centers.ndim)
    pad = (...,) + (None,) * (max(ranks) - 1)  # an axis of length 1 per batch axis
    nodes, weights = _hermite_rule(dist.dim + 2)
    z = [zk[pad] for zk in np.ix_(*[nodes] * dist.dim)]
    mass = math.prod(np.ix_(*[weights] * dist.dim))[pad]
    pts = tuple(m + sum(c * zk for c, zk in zip(row, z)) for m, row in zip(dist.mean, dist.chol()))
    if weight is not None:
        mass = mass * weight(pts)
    axes = tuple(range(-dist.dim, 0))
    terms = np.moveaxis(mass * ref.log_pdf(pts), range(dist.dim), axes)
    value = -np.sum(np.ascontiguousarray(terms), axis=axes)
    return value if value.ndim else float(value)
