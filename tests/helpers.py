"""Shared helpers for the test suite: seeded SPD matrices and small oracles
implemented independently of the package code paths they check."""

import itertools
import json
import math
import tracemalloc
from functools import reduce
from typing import Callable

import numpy as np

from wentropy.discrete import (
    ChainWdeResult,
    CheckPair,
    DiscreteJoint,
    MutualDecompResult,
    RelativeIdentityResult,
)
from wentropy.errors import (
    NotPositiveDefiniteError,
    NotSymmetricError,
    SupportMismatchError,
    ZeroAcceptanceError,
)
from wentropy.gaussian import SPD_EIG_RATIO, SYMMETRY_ATOL
from wentropy import quadrature
from wentropy.quadrature import TINY, CentralWeight, GridSpec, McEstimate, _chunks
from wentropy.wdic import (
    ModelSpec,
    PosteriorDraws,
    SamplerConfig,
    WeightedDataset,
    _penalty,
    weighted_deviance,
)


def rand_spd(rng: np.random.Generator, n: int = 3, lo: float = 0.3, hi: float = 3.0):
    """Random symmetric positive definite matrix with eigenvalues in [lo, hi]."""
    a = rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    eigs = rng.uniform(lo, hi, size=n)
    return (q * eigs) @ q.T


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak of ``fn(*args)``, in bytes, over what was already
    allocated.  numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gaussian_logpdf(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Straightforward dense-matrix log density, independent of the package."""
    points = np.atleast_2d(points)
    diff = points - mean
    inv = np.linalg.inv(cov)
    _, log_det = np.linalg.slogdet(cov)
    quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
    return -0.5 * (mean.size * np.log(2 * np.pi) + log_det + quad)


def reference_log_pdf(dist, points) -> np.ndarray:
    """``Gaussian.log_pdf`` as it was before it finished in place: the same
    z = L^{-1} (x - mu) one coordinate at a time, then
    ``-0.5 * (dim log 2 pi + log_det + quad)`` as a new array.  The package
    must match it bit for bit."""
    inv_lower = np.linalg.inv(dist.chol())
    if not isinstance(points, tuple):
        points = tuple(np.atleast_2d(np.asarray(points, dtype=float)).T)
    centred = [x - m for x, m in zip(points, dist.mean)]
    quad = 0.0
    for k, row in enumerate(inv_lower):
        z = sum(row[j] * centred[j] for j in range(k + 1))
        z *= z
        z += quad
        quad = z
    return -0.5 * (dist.dim * np.log(2.0 * np.pi) + dist.log_det + quad)


def grid_moment(mean, cov, exponents, points=96, half_width=8.0, centers=None):
    """Independent midpoint-rule oracle for E[prod (X_i - c_i)^{r_i}].

    Written without the package quadrature module: plain meshgrid sum.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if centers is None:
        centers = mean
    centers = np.asarray(centers, dtype=float)
    n = mean.size
    axes = []
    step = 1.0
    for k in range(n):
        sd = np.sqrt(cov[k, k])
        lo, hi = mean[k] - half_width * sd, mean[k] + half_width * sd
        h = (hi - lo) / points
        axes.append(lo + (np.arange(points) + 0.5) * h)
        step *= h
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    pdf = np.exp(gaussian_logpdf(pts, mean, cov))
    mono = np.prod((pts - centers) ** np.asarray(exponents), axis=1)
    return float(np.sum(mono * pdf) * step)


def gauss_hermite_expectation(mean, cov, fn, nodes: int) -> float:
    """E[fn(X)] for X ~ N(mean, cov) by a tensor Gauss-Hermite rule with
    ``nodes`` points per axis: x = mean + L z with L the Cholesky factor of
    ``cov`` and z on the probabilists' Hermite nodes, whose weights sum to
    sqrt(2 pi).  Exact, up to rounding, when fn is a polynomial of degree at
    most 2 * nodes - 1 in each coordinate of z.  Independent of the package."""
    mean = np.asarray(mean, dtype=float)
    lower = np.linalg.cholesky(np.asarray(cov, dtype=float))
    z1, w1 = np.polynomial.hermite_e.hermegauss(nodes)
    w1 = w1 / math.sqrt(2.0 * math.pi)
    d = mean.size
    z = np.stack([m.ravel() for m in np.meshgrid(*([z1] * d), indexing="ij")], axis=-1)
    w = np.prod(np.stack([m.ravel() for m in np.meshgrid(*([w1] * d), indexing="ij")]), axis=0)
    x = mean + z @ lower.T
    return float(np.sum(w * fn(x)))


def pairing_moment(cov, exponents) -> float:
    """Reference E[prod Y_i^{r_i}] for centered Gaussian Y: the sum, over all
    (order-1)!! perfect matchings of the flattened symbol list, of the product
    of paired covariances (Isserlis).  Slow, but independent of the package's
    recursion."""
    cov = np.asarray(cov, dtype=float)
    symbols = [i for i, e in enumerate(exponents) for _ in range(int(e))]
    if len(symbols) % 2:
        return 0.0

    def pairing_sum(symbols):
        # pair the first symbol with each later one, recurse on the rest
        if not symbols:
            return 1.0
        first, rest = symbols[0], symbols[1:]
        total = 0.0
        for k, partner in enumerate(rest):
            total += cov[first, partner] * pairing_sum(rest[:k] + rest[k + 1 :])
        return total

    return pairing_sum(symbols)


def binomial_shifted_moment(cov, deltas, exponents) -> float:
    """Reference E[prod (Y_i + delta_i)^{r_i}] by binomial expansion into
    :func:`pairing_moment` central moments."""
    total = 0.0
    for k in itertools.product(*(range(int(e) + 1) for e in exponents)):
        if sum(k) % 2:
            continue
        coeff = 1.0
        for ri, ki, di in zip(exponents, k, deltas):
            coeff *= math.comb(int(ri), ki) * float(di) ** (int(ri) - ki)
        if coeff:
            total += coeff * pairing_moment(cov, k)
    return total


def per_draw_logliks(model, thetas, data) -> np.ndarray:
    """Reference weighted log-likelihood of each draw, one ``log_density`` call
    per draw with a ``(p,)`` theta: the loop the blocked evaluator replaced,
    with the same dead-density rule (only a log density of -inf is zero
    density; such rows must have weight 0 and then contribute 0)."""
    out = []
    for theta in np.asarray(thetas, dtype=float):
        logs = np.asarray(model.log_density(data.y, theta), dtype=float)
        dead = logs == -np.inf
        assert not np.any(dead & (data.weights > 0))
        with np.errstate(invalid="ignore"):
            out.append(float(np.sum(np.where(dead, 0.0, data.weights * logs))))
    return np.array(out)


def reference_penalty(logliks, dev_at_hat) -> tuple:
    """Reference ``(pwd, pwd_mcse, ess)`` from the weighted log-likelihood of
    every draw: the sorted mean of the deviance differences, and batch means
    over floor(sqrt(n)) batches in draw order."""
    diffs = -2.0 * np.asarray(logliks, dtype=float) - dev_at_hat
    pwd = float(np.mean(np.sort(diffs)))
    n = diffs.size
    batches = math.isqrt(n)
    size = n // batches
    means = np.mean(diffs[: batches * size].reshape(batches, size), axis=1)
    sigma2 = size * float(np.var(means, ddof=1))
    if sigma2 == 0.0:
        return pwd, 0.0, float(n)
    return pwd, math.sqrt(sigma2 / n), n * float(np.var(diffs, ddof=1)) / sigma2


def reference_mode(arr, scores) -> np.ndarray:
    """Reference ``mode`` pick: Python's ``max`` over ``(score, tuple(row))``
    keys, the first maximal draw on a tie (so -0.0 and 0.0 tie)."""
    best = max(range(arr.shape[0]), key=lambda s: (scores[s], tuple(arr[s])))
    return arr[best].copy()


def reference_metropolis(model, log_prior, data, cfg):
    """Reference random-walk Metropolis chain: the array-based loop the
    float-based sampler replaced, returning ``(draws, log_posts,
    acceptance_rate)``.  The package sampler must reproduce it bit for bit."""
    rng = np.random.default_rng(cfg.seed)
    theta = np.array([0.5 * (lo + hi) for lo, hi in model.bounds])

    def log_post(th: np.ndarray) -> float:
        return float(
            np.sum(np.asarray(model.log_density(data.y, th), dtype=float))
        ) + float(log_prior(th))

    current = log_post(theta)
    kept = np.empty((cfg.steps - cfg.burn_in, model.n_params))
    kept_lp = np.empty(cfg.steps - cfg.burn_in)
    accepted_after_burn = 0
    for step in range(cfg.steps):
        proposal = theta + cfg.step_size * rng.standard_normal(model.n_params)
        accept = False
        # out-of-bounds proposals have zero prior mass: reject outright
        if all(lo <= t <= hi for t, (lo, hi) in zip(proposal, model.bounds)):
            candidate = log_post(proposal)
            if math.log(rng.random()) < candidate - current:
                theta, current = proposal, candidate
                accept = True
        if step >= cfg.burn_in:
            kept[step - cfg.burn_in] = theta
            kept_lp[step - cfg.burn_in] = current
            accepted_after_burn += accept
    return kept, kept_lp, accepted_after_burn / (cfg.steps - cfg.burn_in)


def reference_list_metropolis(
    model: ModelSpec,
    log_prior: Callable,
    data: WeightedDataset,
    cfg: SamplerConfig,
) -> PosteriorDraws:
    """Reference sampler kept verbatim: the list-state loop that drew
    ``standard_normal(p)`` per step, gave ``log_prior`` a fresh ``(p,)`` array
    on both paths and wrote the kept rows into preallocated arrays.  The
    package sampler must reproduce its draws, log posteriors and acceptance
    rate bit for bit."""
    rng = np.random.default_rng(cfg.seed)
    bounds = model.bounds
    n_params, step_size, y = model.n_params, cfg.step_size, data.y
    loglik = None if model.summarize is None else model.summarize(y)

    def log_post(th: list) -> float:
        arr = np.array(th)
        if loglik is None:
            lik = float(np.asarray(model.log_density(y, arr), dtype=float).sum())
        else:
            lik = loglik(th)
        return lik + float(log_prior(arr))

    # the state is Python floats: t + step_size * z is the same IEEE operation
    # numpy applies per element, without its dispatch cost on (p,) arrays
    theta = [0.5 * (lo + hi) for lo, hi in bounds]
    current = log_post(theta)
    kept = np.empty((cfg.steps - cfg.burn_in, n_params))
    kept_lp = np.empty(cfg.steps - cfg.burn_in)
    accepted_after_burn = 0
    for step in range(cfg.steps):
        proposal = [
            t + step_size * z
            for t, z in zip(theta, rng.standard_normal(n_params).tolist())
        ]
        accept = False
        # out-of-bounds proposals have zero prior mass: reject outright
        if all(lo <= t <= hi for t, (lo, hi) in zip(proposal, bounds)):
            candidate = log_post(proposal)
            u = rng.random()
            # random() can return 0.0, whose log is -inf: accept
            if (math.log(u) if u > 0.0 else -math.inf) < candidate - current:
                theta, current = proposal, candidate
                accept = True
        if step >= cfg.burn_in:
            kept[step - cfg.burn_in] = theta
            kept_lp[step - cfg.burn_in] = current
            accepted_after_burn += accept
    rate = accepted_after_burn / (cfg.steps - cfg.burn_in)
    if rate < 0.001:
        raise ZeroAcceptanceError(
            f"acceptance rate {rate:.5f} after burn-in; decrease step_size"
        )
    provenance = (
        f"sampler(seed={cfg.seed}, steps={cfg.steps}, burn_in={cfg.burn_in}, "
        f"step_size={cfg.step_size!r})"
    )
    return PosteriorDraws(kept, provenance, log_posts=kept_lp, acceptance_rate=rate)


def penalty_pwd(
    model: ModelSpec, draws: PosteriorDraws, theta_hat, data: WeightedDataset
) -> float:
    """Effective number of parameters: posterior-mean deviance minus the
    deviance at the point estimate.

    Averaged as differences against the point-estimate deviance (sorted for
    draw-order invariance), which avoids cancellation between large deviances
    and makes the all-draws-identical case exactly zero.
    """
    pwd, _, _ = _penalty(model, draws, weighted_deviance(model, theta_hat, data), data)
    return pwd


# Reference discrete identity checkers: the loop-and-mask implementations the
# whole-array checkers in ``wentropy.discrete`` replaced, kept verbatim (with
# their helpers) so the rewrite can be compared against them.


def _xlogy(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p * log(q) with zero contribution wherever p == 0."""
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log(q[mask])
    return out


def _outer(vectors) -> np.ndarray:
    return reduce(np.multiply.outer, vectors)


def pmf_marginal(joint: DiscreteJoint, k: int) -> np.ndarray:
    """The marginal of one pmf's k-th coordinate."""
    return joint.probs.sum(axis=tuple(j for j in range(joint.ndim) if j != k))


def _squared_devs(
    joint: DiscreteJoint, weight: CentralWeight | None, axes=None
) -> list[np.ndarray]:
    """(x_k - a_k)^2 over the labels of each of ``axes`` (all by default);
    ``weight=None`` is the unit weight, so every weighted checker reduces to
    its unweighted identity."""
    axes = tuple(range(joint.ndim)) if axes is None else tuple(axes)
    if weight is None:
        return [np.ones(joint.probs.shape[k]) for k in axes]
    if weight.dim != len(axes):
        raise ValueError(
            f"weight has {weight.dim} centers for a {len(axes)}-coordinate pmf"
        )
    return [(joint.support[k] - weight.centers[i]) ** 2 for i, k in enumerate(axes)]


def reference_chain_rule_wde_check(joint: DiscreteJoint, weight: CentralWeight | None) -> ChainWdeResult:
    """Weighted chain rule with the induced per-stage weights.

    The i-th stage weight multiplies the leading squared deviations by the
    conditional expectation of the trailing ones given the first i
    coordinates; the final stage carries the full product weight.
    """
    p = joint.probs
    n = p.ndim
    sq = _squared_devs(joint, weight)
    full_weight = _outer(sq)
    lhs = -float((full_weight * _xlogy(p, p)).sum())

    rhs = 0.0
    psi: list[np.ndarray] = []
    for i in range(n):
        trailing_axes = tuple(range(i + 1, n))
        front = p.sum(axis=trailing_axes) if trailing_axes else p
        # s[x_1..x_{i+1}] = sum over trailing coords of p * prod of trailing sq
        if trailing_axes:
            tail = _outer(sq[i + 1 :])
            s = (p * tail.reshape((1,) * (i + 1) + tail.shape)).sum(axis=trailing_axes)
        else:
            s = p
        prev = front.sum(axis=i)
        denom = np.where(prev > 0, prev, 1.0)
        cond = front / np.expand_dims(denom, axis=i)
        front_sq = _outer(sq[: i + 1])
        mask = front > 0
        contrib = np.zeros_like(front)
        contrib[mask] = front_sq[mask] * s[mask] * np.log(cond[mask])
        rhs -= float(contrib.sum())
        with np.errstate(invalid="ignore"):
            ratio = np.where(front > 0, s / np.where(front > 0, front, 1.0), 0.0)
        psi.append(front_sq * ratio)
    return ChainWdeResult(lhs, rhs, psi)


def reference_mutual_de_decomposition_check(joint: DiscreteJoint) -> MutualDecompResult:
    """Mutual information vs marginal-minus-conditional entropies.

    ``rhs_expectation`` re-evaluates the conditional entropies pointwise at
    each conditioning value and averages, which must agree as well.
    """
    p = joint.probs
    n = p.ndim
    marginals = [pmf_marginal(joint, k) for k in range(n)]
    product = _outer(marginals)
    mask = p > 0
    lhs = float((_xlogy(p, p)[mask] - _xlogy(p, product)[mask]).sum())

    rhs = 0.0
    rhs_expectation = 0.0
    for i in range(n - 1):
        h_marginal = -float(_xlogy(marginals[i], marginals[i]).sum())
        tail = p.sum(axis=tuple(range(i))) if i else p  # axes (i, i+1, .., n-1)
        tail_next = tail.sum(axis=0)
        denom = np.where(tail_next > 0, tail_next, 1.0)
        cond = tail / denom[None, ...]
        h_cond = -float(_xlogy(tail, cond).sum())
        rhs += h_marginal - h_cond
        # pointwise conditional entropy, averaged over the conditioning values
        h_point = -_xlogy(cond, cond).sum(axis=0)
        rhs_expectation += float((tail_next * (h_marginal - h_point)).sum())
    return MutualDecompResult(lhs, rhs, rhs_expectation)


def reference_mutual_wde_decomposition_check(
    joint: DiscreteJoint, weight: CentralWeight
) -> CheckPair:
    """Weighted mutual information vs per-coordinate weighted entropies minus
    the weighted conditional entropy given the last coordinate.

    The j-th coordinate's weight multiplies its own squared deviation by the
    conditional expectation of all the others' squared deviations given it.
    """
    p = joint.probs
    n = p.ndim
    sq = _squared_devs(joint, weight)
    full_weight = _outer(sq)
    marginals = [pmf_marginal(joint, k) for k in range(n)]
    product = _outer(marginals)
    mask = p > 0
    lhs = float(
        (full_weight[mask] * (_xlogy(p, p)[mask] - _xlogy(p, product)[mask])).sum()
    )

    rhs = 0.0
    for j in range(n - 1):
        others = tuple(k for k in range(n) if k != j)
        # axes of the outer product follow the ascending order of `others`, so
        # inserting the singleton at position j aligns it with the joint tensor
        other_sq = np.expand_dims(_outer([sq[k] for k in others]), axis=j)
        # s[x_j] = sum over the other coordinates of p * prod_{k != j} sq_k;
        # dividing by the marginal would give E[prod sq | x_j], but keeping the
        # product s * log f_j avoids 0/0 at empty slices
        s = (p * other_sq).sum(axis=others)
        m = marginals[j] > 0
        contrib = np.zeros_like(s)
        contrib[m] = sq[j][m] * s[m] * np.log(marginals[j][m])
        rhs -= float(contrib.sum())
    last = marginals[n - 1]
    last_full = np.broadcast_to(last.reshape((1,) * (n - 1) + (last.size,)), p.shape)
    cond_entropy = -float(
        (full_weight[mask] * (_xlogy(p, p)[mask] - _xlogy(p, last_full)[mask])).sum()
    )
    rhs -= cond_entropy
    return CheckPair(lhs, rhs)


def reference_relative_we_identity_check(
    joint: DiscreteJoint,
    weight_x: CentralWeight | None,
    weight_y: CentralWeight | None,
    split: int | None = None,
) -> RelativeIdentityResult:
    """Weighted analogue of :func:`relative_de_identity_check` (a weight of
    ``None`` is the unit weight on its block).

    Per trailing value y, the weighted divergence of the conditional from the
    marginal equals the cross-weighted entropy minus the weighted conditional
    entropy; weighting the average over y by the trailing squared deviations
    recovers the weighted mutual information with the product weight.
    """
    p = joint.probs
    n = p.ndim
    if split is None:
        split = n - 1
    if not 0 < split < n:
        raise ValueError(f"split must be in 1..{n - 1}, got {split}")
    x_axes = tuple(range(split))
    y_axes = tuple(range(split, n))
    f1 = p.sum(axis=y_axes)
    p2 = p.sum(axis=x_axes)
    sq_x = _outer(_squared_devs(joint, weight_x, x_axes))
    sq_y = _outer(_squared_devs(joint, weight_y, y_axes))

    y_shape = tuple(p.shape[k] for k in y_axes)
    lhs = np.zeros(y_shape)
    rhs = np.zeros(y_shape)
    for y_idx in np.ndindex(*y_shape):
        py = p2[y_idx]
        if py <= 0:
            continue
        block = p[(slice(None),) * split + y_idx] / py
        mask = block > 0
        div = float(
            (sq_x[mask] * (_xlogy(block, block)[mask] - _xlogy(block, f1)[mask])).sum()
        )
        cross = -float((sq_x[mask] * _xlogy(block, f1)[mask]).sum())
        cond = -float((sq_x * _xlogy(block, block)).sum())
        lhs[y_idx] = div
        rhs[y_idx] = cross - cond
    product = np.multiply.outer(f1, p2)
    full_weight = np.multiply.outer(sq_x, sq_y)
    mask = p > 0
    mutual = float(
        (full_weight[mask] * (_xlogy(p, p)[mask] - _xlogy(p, product)[mask])).sum()
    )
    expected = float((sq_y * p2 * lhs).sum())
    return RelativeIdentityResult(lhs, rhs, mutual, expected)


# Midpoint oracles that only the tests call.  The entropies are thin callers
# of ``reference_log_ratio_integral`` below; the Gibbs condition and the
# moments integrate their own terms on the package's grid blocks.


def wde_quadrature(pdf, weight, grid: GridSpec) -> float:
    """Weighted differential entropy -int phi f log f by midpoint quadrature."""
    return -reference_log_ratio_integral(pdf, (), weight, grid)


def de_quadrature(pdf, grid: GridSpec) -> float:
    """Unweighted differential entropy; same code path with the unit weight."""
    return wde_quadrature(pdf, None, grid)


def conditional_wde_quadrature(
    joint_pdf, given_pdf, weight, grid: GridSpec, given_dims: int = 1
) -> float:
    """-int phi f(x, y) log[f(x, y) / f2(y)] with y the trailing ``given_dims`` coordinates."""
    refs = [(given_pdf, slice(-given_dims, None))]
    return -reference_log_ratio_integral(joint_pdf, refs, weight, grid)


def mutual_wde_quadrature(joint_pdf, marginal_pdfs, weight, grid: GridSpec) -> float:
    """int phi f log[f / prod_i f_i], with the 0 log(0/0) = 0 convention."""
    refs = [(marg, slice(k, k + 1)) for k, marg in enumerate(marginal_pdfs)]
    return reference_log_ratio_integral(joint_pdf, refs, weight, grid)


def gibbs_condition_value(f_pdf, g_pdf, weight, grid: GridSpec) -> float:
    """int phi (f - g): the sign condition of the weighted Gibbs inequality."""

    def term(pts, shape):
        return quadrature._weight_values(weight, pts, shape) * (f_pdf(pts) - g_pdf(pts))

    return quadrature._integrate(grid, term)


def moment_quadrature(dist, exponents, points: int = 64) -> float:
    """E[prod (X_i - mu_i)^{r_i}] by tensor quadrature; oracle for the Wick moments."""
    grid = GridSpec.for_gaussians([dist], points)
    r = [int(e) for e in exponents]

    def term(pts, shape):  # a factor per coordinate: the block's shape
        factors = ((x - m) ** e for x, m, e in zip(pts, dist.mean, r, strict=True))
        return math.prod(factors) * dist.pdf(pts)

    return quadrature._integrate(grid, term)


# Reference quadrature oracles: the integrator that indexes every factor by
# the mask and the one-draw Monte Carlo estimator that the whole-block and
# blocked versions in ``wentropy.quadrature`` replaced, kept verbatim (with
# their helpers) so the package can be compared against them bit for bit.
# The integrator also computes the entropy oracles above.


def _weight_values(weight, points, shape) -> np.ndarray:
    return np.broadcast_to(1.0 if weight is None else weight(points), shape)


def _integrate(grid: GridSpec, term: Callable) -> float:
    # term(pts, shape) for each block and its shape; fsum rounds the total of
    # the block sums once, whatever the block count
    sums = (term(pts, np.broadcast_shapes(*(x.shape for x in pts))) for pts in _chunks(grid))
    return math.fsum(float(np.sum(s)) for s in sums) * grid.cell_volume


def reference_log_ratio_integral(
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


def reference_relative_wde_monte_carlo(sampler, f_pdf, g_pdf, weight, cfg) -> McEstimate:
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


def reference_validate(dist) -> None:
    """Symmetry, then every leading minor's determinant, then the eigenvalue
    ratio: the first failing check raises, with its message."""
    cov = dist.cov
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
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] < SPD_EIG_RATIO * eigs[-1]:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {eigs[0]:.6e} below {SPD_EIG_RATIO:g} x largest {eigs[-1]:.6e}"
        )


def reference_dump_json(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits, keys in insertion order,
    one ``json.dumps`` per string."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {reference_dump_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = ",\n".join(f"{pad}  {reference_dump_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            return json.dumps(repr(value))
        return f"{value:.17g}"
    if isinstance(obj, np.ndarray):
        return reference_dump_json(list(obj), indent)
    return json.dumps(str(obj))
