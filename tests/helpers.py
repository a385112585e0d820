"""Shared helpers for the test suite: seeded SPD matrices and small oracles
implemented independently of the package code paths they check."""

import itertools
import math

import numpy as np


def rand_spd(rng: np.random.Generator, n: int = 3, lo: float = 0.3, hi: float = 3.0):
    """Random symmetric positive definite matrix with eigenvalues in [lo, hi]."""
    a = rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    eigs = rng.uniform(lo, hi, size=n)
    return (q * eigs) @ q.T


def gaussian_logpdf(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Straightforward dense-matrix log density, independent of the package."""
    points = np.atleast_2d(points)
    diff = points - mean
    inv = np.linalg.inv(cov)
    _, log_det = np.linalg.slogdet(cov)
    quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
    return -0.5 * (mean.size * np.log(2 * np.pi) + log_det + quad)


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
    with the same dead-density rule (a log density at most -745 counts as zero
    density; such rows must have weight 0 and then contribute 0)."""
    out = []
    for theta in np.asarray(thetas, dtype=float):
        logs = np.asarray(model.log_density(data.y, theta), dtype=float)
        dead = logs <= -745.0
        assert not np.any(dead & (data.weights > 0))
        with np.errstate(invalid="ignore"):
            out.append(float(np.sum(np.where(dead, 0.0, data.weights * logs))))
    return np.array(out)


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
        if model.within_bounds(proposal):
            candidate = log_post(proposal)
            if math.log(rng.random()) < candidate - current:
                theta, current = proposal, candidate
                accept = True
        if step >= cfg.burn_in:
            kept[step - cfg.burn_in] = theta
            kept_lp[step - cfg.burn_in] = current
            accepted_after_burn += accept
    return kept, kept_lp, accepted_after_burn / (cfg.steps - cfg.burn_in)
