"""Weighted deviance information criterion for Bayesian model scoring.

The weighted log-likelihood grades each observation's log density by a
nonnegative utility weight.  Posterior draws come from a file or from the
bundled random-walk sampler; the posterior itself is the ordinary (unweighted)
one, weights enter only the deviance scoring.

Reductions over draws happen in sorted order, so results are exactly invariant
under reordering of the draw collection.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDrawsError,
    OutOfSupportError,
    ZeroAcceptanceError,
)

MIN_DRAWS = 100
LOG_TINY = -745.0  # log of the smallest positive double; anything below is "zero density"


@dataclass(frozen=True, eq=False)
class WeightedDataset:
    """Observations (n, d) with one nonnegative finite weight per row."""

    y: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if y.ndim != 2:
            raise ValueError(f"observations must be 2-dimensional, got shape {y.shape}")
        if w.shape != (y.shape[0],):
            raise DimensionMismatchError(
                f"{w.size} weights for {y.shape[0]} observations"
            )
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(w)):
            raise ValueError("observations and weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        y = y.copy()
        w = w.copy()
        y.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @classmethod
    def from_csv(cls, path) -> "WeightedDataset":
        rows, header = _read_csv(path)
        d = len(header) - 1
        if d < 1 or header[-1] != "weight" or header[:d] != [f"y_{k + 1}" for k in range(d)]:
            raise ValueError(
                f"{path}: expected columns y_1..y_d, weight; got {header}"
            )
        data = np.asarray(rows, dtype=float)
        return cls(data[:, :d], data[:, d])

    def with_central_weights(self, centers) -> "WeightedDataset":
        """Replace the weights by the squared-deviation product around ``centers``."""
        centers = np.atleast_1d(np.asarray(centers, dtype=float))
        if centers.shape != (self.y.shape[1],):
            raise DimensionMismatchError(
                f"{centers.size} centers for {self.y.shape[1]}-dimensional data"
            )
        return WeightedDataset(self.y, np.prod((self.y - centers) ** 2, axis=1))


@dataclass(frozen=True)
class ModelSpec:
    """Parametric log density g(y | theta) with box bounds on theta."""

    name: str
    n_params: int
    log_density: Callable
    bounds: tuple

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) != self.n_params:
            raise DimensionMismatchError(
                f"{len(bounds)} bounds for {self.n_params} parameters"
            )
        for lo, hi in bounds:
            if not lo < hi:
                raise ValueError(f"bound ({lo}, {hi}) must satisfy lo < hi")
        object.__setattr__(self, "bounds", bounds)

    def within_bounds(self, theta: np.ndarray) -> bool:
        return all(
            lo <= t <= hi for t, (lo, hi) in zip(np.atleast_1d(theta), self.bounds)
        )

    def check_theta(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.n_params,):
            raise DimensionMismatchError(
                f"theta has shape {theta.shape}, model {self.name} has "
                f"{self.n_params} parameters"
            )
        if not self.within_bounds(theta):
            raise ValueError(f"theta {theta} outside bounds of model {self.name}")
        return theta


@dataclass(frozen=True, eq=False)
class PosteriorDraws:
    """Ordered posterior parameter draws plus where they came from."""

    draws: np.ndarray
    provenance: str
    log_posts: np.ndarray | None = None
    acceptance_rate: float | None = None

    def __post_init__(self):
        draws = np.atleast_2d(np.asarray(self.draws, dtype=float))
        if draws.shape[0] < MIN_DRAWS:
            raise EmptyDrawsError(
                f"need at least {MIN_DRAWS} draws, got {draws.shape[0]}"
            )
        if not np.all(np.isfinite(draws)):
            raise ValueError("draws must be finite")
        draws = draws.copy()
        draws.setflags(write=False)
        object.__setattr__(self, "draws", draws)
        if self.log_posts is not None:
            lp = np.asarray(self.log_posts, dtype=float)
            if lp.shape != (draws.shape[0],):
                raise DimensionMismatchError("one log posterior per draw required")
            lp = lp.copy()
            lp.setflags(write=False)
            object.__setattr__(self, "log_posts", lp)

    @property
    def size(self) -> int:
        return self.draws.shape[0]

    @classmethod
    def from_csv(cls, path) -> "PosteriorDraws":
        rows, header = _read_csv(path)
        p = len(header)
        if p < 1 or header != [f"theta_{k + 1}" for k in range(p)]:
            raise ValueError(f"{path}: expected columns theta_1..theta_p; got {header}")
        return cls(np.asarray(rows, dtype=float), provenance=f"file:{path}")


def _read_csv(path) -> tuple[list, list]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {lineno} has {len(row)} fields, header has {len(header)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path}: row {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows, header


def _validate_draws_for(model: ModelSpec, draws: PosteriorDraws) -> np.ndarray:
    arr = draws.draws
    if arr.shape[1] != model.n_params:
        raise DimensionMismatchError(
            f"draws have {arr.shape[1]} columns, model {model.name} has "
            f"{model.n_params} parameters"
        )
    lo = np.array([b[0] for b in model.bounds])
    hi = np.array([b[1] for b in model.bounds])
    if np.any(arr < lo) or np.any(arr > hi):
        bad = int(np.argmax(np.any((arr < lo) | (arr > hi), axis=1)))
        raise ValueError(f"draw {bad} lies outside the bounds of model {model.name}")
    return arr


def weighted_loglik(model: ModelSpec, theta, data: WeightedDataset) -> float:
    """Sum of weight_i * log g(y_i | theta); the unweighted log-likelihood when
    every weight is 1, and linear in the weight vector."""
    theta = model.check_theta(theta)
    logs = np.asarray(model.log_density(data.y, theta), dtype=float)
    if logs.shape != (data.n,):
        raise DimensionMismatchError(
            f"log_density returned shape {logs.shape} for {data.n} observations"
        )
    dead = logs <= LOG_TINY
    if np.any(dead & (data.weights > 0)):
        idx = int(np.argmax(dead & (data.weights > 0)))
        raise OutOfSupportError(
            f"observation {idx} has zero density under {model.name} but weight "
            f"{data.weights[idx]!r}"
        )
    with np.errstate(invalid="ignore"):
        terms = np.where(dead, 0.0, data.weights * logs)
    return float(np.sum(terms))


def weighted_deviance(model: ModelSpec, theta, data: WeightedDataset) -> float:
    """-2 times the weighted log-likelihood."""
    return -2.0 * weighted_loglik(model, theta, data)


def penalty_pwd(
    model: ModelSpec, draws: PosteriorDraws, theta_hat, data: WeightedDataset
) -> float:
    """Effective number of parameters: posterior-mean deviance minus the
    deviance at the point estimate.

    Averaged as differences against the point-estimate deviance (sorted for
    draw-order invariance), which avoids cancellation between large deviances
    and makes the all-draws-identical case exactly zero.
    """
    arr = _validate_draws_for(model, draws)
    dev_hat = weighted_deviance(model, theta_hat, data)
    diffs = np.sort(
        np.array([weighted_deviance(model, th, data) - dev_hat for th in arr])
    )
    return float(np.mean(diffs))


class WdicResult(NamedTuple):
    wdic: float
    pwd: float
    dev_at_hat: float
    theta_hat: np.ndarray


def posterior_point_estimate(
    model: ModelSpec,
    draws: PosteriorDraws,
    data: WeightedDataset,
    rule: str = "mean",
) -> np.ndarray:
    """Point estimate from the draws: columnwise mean, or the draw with the
    highest log posterior (falling back to the unweighted log-likelihood when
    the draws carry no posterior values)."""
    arr = _validate_draws_for(model, draws)
    if rule == "mean":
        return np.mean(np.sort(arr, axis=0), axis=0)
    if rule == "mode":
        if draws.log_posts is not None:
            scores = draws.log_posts
        else:
            scores = np.array(
                [
                    float(np.sum(np.asarray(model.log_density(data.y, th), dtype=float)))
                    for th in arr
                ]
            )
        # deterministic under reordering: break score ties on the parameter values
        best = max(range(arr.shape[0]), key=lambda s: (scores[s], tuple(arr[s])))
        return arr[best].copy()
    raise ValueError(f"rule must be 'mean' or 'mode', got {rule!r}")


def wdic(
    model: ModelSpec,
    draws: PosteriorDraws,
    data: WeightedDataset,
    theta_hat_rule: str = "mean",
) -> WdicResult:
    """Weighted deviance information criterion: deviance at the point estimate
    plus twice the effective-parameter penalty.  Reduces to the classical DIC
    when every weight is 1."""
    theta_hat = posterior_point_estimate(model, draws, data, theta_hat_rule)
    dev_at_hat = weighted_deviance(model, theta_hat, data)
    pwd = penalty_pwd(model, draws, theta_hat, data)
    return WdicResult(dev_at_hat + 2.0 * pwd, pwd, dev_at_hat, theta_hat)


@dataclass(frozen=True)
class SamplerConfig:
    """Random-walk sampler settings; draws kept are steps - burn_in."""

    steps: int
    burn_in: int
    step_size: float
    seed: int

    def __post_init__(self):
        if not (int(self.steps) > int(self.burn_in) >= 0):
            raise ValueError(
                f"need steps > burn_in >= 0, got steps={self.steps}, burn_in={self.burn_in}"
            )
        if float(self.step_size) <= 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        object.__setattr__(self, "steps", int(self.steps))
        object.__setattr__(self, "burn_in", int(self.burn_in))
        object.__setattr__(self, "step_size", float(self.step_size))
        object.__setattr__(self, "seed", int(self.seed))


def metropolis_sample(
    model: ModelSpec,
    log_prior: Callable,
    data: WeightedDataset,
    cfg: SamplerConfig,
    init=None,
) -> PosteriorDraws:
    """Random-walk Metropolis draws from the (unweighted) posterior.

    Deterministic for a fixed seed.  Proposals outside the model bounds are
    rejected; the post-burn-in acceptance rate is reported on the result and
    must exceed 0.1%.
    """
    rng = np.random.default_rng(cfg.seed)
    if init is None:
        theta = np.array([0.5 * (lo + hi) for lo, hi in model.bounds])
    else:
        theta = model.check_theta(init)

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


# ---------------------------------------------------------------------------
# Built-in models for the command line and the bundled demos (1-D data).
# ---------------------------------------------------------------------------


def normal_mean_model(sd: float = 1.0, bound: float = 50.0) -> ModelSpec:
    """Normal with unknown mean and known standard deviation."""
    sd = float(sd)
    const = -0.5 * math.log(2.0 * math.pi * sd * sd)

    def log_density(y: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return const - (y[:, 0] - theta[0]) ** 2 / (2.0 * sd * sd)

    return ModelSpec(f"normal-mean(sd={sd:g})", 1, log_density, ((-bound, bound),))


def normal_model(bound: float = 50.0, log_sd_bound: float = 5.0) -> ModelSpec:
    """Normal with unknown mean and unknown log standard deviation."""

    def log_density(y: np.ndarray, theta: np.ndarray) -> np.ndarray:
        mu, log_sd = theta
        var = math.exp(2.0 * log_sd)
        return -0.5 * math.log(2.0 * math.pi * var) - (y[:, 0] - mu) ** 2 / (2.0 * var)

    return ModelSpec(
        "normal", 2, log_density, ((-bound, bound), (-log_sd_bound, log_sd_bound))
    )


def builtin_model(name: str) -> ModelSpec:
    """Models addressable by name from the command line."""
    registry = {
        "normal-mean": lambda: normal_mean_model(1.0),
        "normal-mean-sd2": lambda: normal_mean_model(2.0),
        "normal": normal_model,
    }
    if name not in registry:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(registry)}")
    return registry[name]()


def default_log_prior(model: ModelSpec, scale: float = 10.0):
    """Independent normal prior with the given scale on every parameter."""

    def log_prior(theta: np.ndarray) -> float:
        return float(
            np.sum(
                -0.5 * math.log(2.0 * math.pi * scale * scale)
                - np.asarray(theta) ** 2 / (2.0 * scale * scale)
            )
        )

    return log_prior
