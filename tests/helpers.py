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
