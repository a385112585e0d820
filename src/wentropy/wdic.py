"""Weighted deviance information criterion for Bayesian model scoring.

The weighted log-likelihood grades each observation's log density by a
nonnegative utility weight.  Posterior draws come from a file or from the
bundled random-walk sampler; the posterior itself is the ordinary (unweighted)
one, weights enter only the deviance scoring.

Every log-likelihood sum of the scoring, weighted or not, goes through one
evaluator that scores a block of draws per ``log_density`` call: each parameter
is passed as a ``(k, 1)`` column and the result must broadcast to
``(k, n_obs)``.  A random-walk chain repeats its state on every rejection, so
the evaluator scores each run of consecutive equal draws once and copies the
sum to the whole run; every sum has the same bits as when each draw is scored.

The sampler scores one proposal at a time with its own unweighted sum, in
which zero density just means rejection: through ``ModelSpec.summarize`` when
the model supplies it (the built-in normal models work from n, the mean and
the sum of squares of the data), else by summing ``log_density`` over the
rows, so ``log_density`` must also accept a single ``(p,)`` theta, whose
parameters are scalars.  The two agree to rounding, not bit for bit: the kept
log posteriors differ in their last bits, and an accept decision within about
1e-13 of the threshold, or a ``mode`` tie, can go the other way.

Reductions over draws happen in sorted order, so ``wdic`` and ``pwd`` are
exactly invariant under reordering of the draw collection.  The Monte Carlo
error of the penalty (``pwd_mcse``, ``ess``) is a batch-means estimate over
the draws in their given order, so it does depend on that order.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDrawsError,
    OutOfSupportError,
    ZeroAcceptanceError,
    as_float_array,
    as_int,
)
from .quadrature import CentralWeight

MIN_DRAWS = 100
MEAN_BOUND = 50.0  # the built-in models' bound on |mu|
LOG_SD_BOUND = 5.0  # the normal model's bound on |log sd|
# draws x observations per log_density call: large enough to amortize the
# per-call overhead, small enough to leave peak memory where it was
_BLOCK_POINTS = 2**14


@dataclass(frozen=True, eq=False)
class WeightedDataset:
    """Observations (n, d), n and d at least 1, with one nonnegative finite
    weight per row."""

    y: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        y = as_float_array(np.atleast_2d(self.y), "observations", ndim=2)
        if 0 in y.shape:
            raise ValueError(
                f"observations need at least one row and one column, got shape {y.shape}"
            )
        w = np.atleast_1d(self.weights)
        if w.shape != (y.shape[0],):
            raise DimensionMismatchError(
                f"{w.size} weights for {y.shape[0]} observations"
            )
        w = as_float_array(w, "weights", ndim=1)
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
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
        weight = CentralWeight(centers)
        if weight.dim != self.y.shape[1]:
            raise DimensionMismatchError(
                f"{weight.dim} centers for {self.y.shape[1]}-dimensional data"
            )
        return WeightedDataset(self.y, weight(self.y))


@dataclass(frozen=True)
class ModelSpec:
    """Parametric log density g(y | theta) with box bounds on theta: one
    ``(lo, hi)`` per parameter, so ``n_params`` is ``len(bounds)``.

    ``summarize``, when given, maps the observations y to a function of theta
    (a sequence of p floats) that returns sum_i log g(y_i | theta): the
    sampler's shortcut past ``log_density``.
    """

    name: str
    log_density: Callable
    bounds: tuple
    summarize: Callable | None = None

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if not bounds:
            raise ValueError("a model needs at least one parameter")
        for lo, hi in bounds:
            if not lo < hi:
                raise ValueError(f"bound ({lo}, {hi}) must satisfy lo < hi")
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_params(self) -> int:
        return len(self.bounds)

    def check_draws(self, arr) -> np.ndarray:
        """``arr`` as a ``(k, p)`` float array whose every row lies inside the
        bounds, NaN counting as outside; else ``DimensionMismatchError`` for the
        shape or ``ValueError`` naming the first row outside."""
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.n_params:
            raise DimensionMismatchError(
                f"draws have shape {arr.shape}, model {self.name} has "
                f"{self.n_params} parameters"
            )
        lo, hi = np.array(self.bounds).reshape(-1, 2).T
        outside = ~np.all((arr >= lo) & (arr <= hi), axis=1)
        if np.any(outside):
            raise ValueError(
                f"draw {int(np.argmax(outside))} lies outside the bounds of model {self.name}"
            )
        return arr


@dataclass(frozen=True, eq=False)
class PosteriorDraws:
    """Ordered posterior parameter draws plus where they came from.

    Draws must be finite; ``log_posts``, when given, holds one log posterior
    per draw and no NaN, so the ``mode`` rule's ranking is a total order."""

    draws: np.ndarray
    provenance: str
    log_posts: np.ndarray | None = None
    acceptance_rate: float | None = None

    def __post_init__(self, copy: bool = True):
        draws = as_float_array(np.atleast_2d(self.draws), "draws", ndim=2, copy=copy)
        if draws.shape[0] < MIN_DRAWS:
            raise EmptyDrawsError(
                f"need at least {MIN_DRAWS} draws, got {draws.shape[0]}"
            )
        object.__setattr__(self, "draws", draws)
        if self.log_posts is not None:
            lp = np.asarray(self.log_posts, dtype=float)
            if lp.shape != (draws.shape[0],):
                raise DimensionMismatchError("one log posterior per draw required")
            if np.isnan(lp).any():
                raise ValueError("log_posts must not be NaN")
            lp = lp.copy() if copy else lp
            lp.setflags(write=False)
            object.__setattr__(self, "log_posts", lp)

    @classmethod
    def _adopt(cls, *values) -> "PosteriorDraws":
        """The constructor's checks, but fresh arrays are made read-only in place, not copied."""
        self = cls.__new__(cls)
        vars(self).update(zip([f.name for f in fields(cls)], values))
        self.__post_init__(copy=False)
        return self

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


def _weighted_logliks(
    model: ModelSpec, thetas: np.ndarray, data: WeightedDataset
) -> np.ndarray:
    """Sum of weight_i * log g(y_i | theta) for every row of ``thetas`` (k, p),
    evaluated in blocks of at most ``_BLOCK_POINTS`` draw-observation pairs.

    Each run of consecutive equal rows is scored once, at its first row.  Only
    a log density of -inf is zero density: it contributes 0 when its weight is
    0 and raises ``OutOfSupportError`` otherwise; a NaN or +inf log density
    under a positive weight raises ``ValueError``, naming the first such draw.
    """
    n = data.n
    weights = data.weights
    positive = weights > 0
    # equal bits, not ==: a model may tell -0.0 from 0.0
    bits = thetas.view(np.int64)
    new = np.empty(thetas.shape[0], dtype=bool)
    new[:1] = True
    new[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    starts = np.flatnonzero(new)
    distinct = thetas[starts]
    rows = max(1, _BLOCK_POINTS // n)
    out = np.empty(distinct.shape[0])
    for start in range(0, distinct.shape[0], rows):
        block = distinct[start : start + rows]
        k = block.shape[0]
        logs = np.asarray(model.log_density(data.y, block.T[:, :, None]), dtype=float)
        try:
            logs = np.broadcast_to(logs, (k, n))
        except ValueError:
            raise DimensionMismatchError(
                f"log_density returned shape {logs.shape} for {k} draws and "
                f"{n} observations"
            ) from None
        # every log density finite (NaN fails both): no masks needed
        if logs.min() > -np.inf and logs.max() < np.inf:
            out[start : start + k] = np.sum(weights * logs, axis=1)
            continue
        live = np.isfinite(logs)
        bad = ~live & positive
        if np.any(bad):
            draw, idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
            if logs[draw, idx] == -np.inf:
                raise OutOfSupportError(
                    f"observation {idx} has zero density under {model.name} but "
                    f"weight {float(weights[idx])!r}"
                )
            raise ValueError(
                f"draw {starts[start + draw]}: log density {float(logs[draw, idx])!r} at "
                f"observation {idx} under {model.name}"
            )
        with np.errstate(invalid="ignore"):  # 0 * -inf on weight-0 rows
            terms = np.where(live, weights * logs, 0.0)
        out[start : start + k] = np.sum(terms, axis=1)
    return out[np.cumsum(new) - 1]


def weighted_loglik(model: ModelSpec, theta, data: WeightedDataset) -> float:
    """Sum of weight_i * log g(y_i | theta); the unweighted log-likelihood when
    every weight is 1, and linear in the weight vector."""
    # a one-row block: a theta of any shape but (p,) gives the block the wrong shape
    block = model.check_draws(np.atleast_1d(theta)[None])
    return float(_weighted_logliks(model, block, data)[0])


def weighted_deviance(model: ModelSpec, theta, data: WeightedDataset) -> float:
    """-2 times the weighted log-likelihood."""
    return -2.0 * weighted_loglik(model, theta, data)


def _penalty(
    model: ModelSpec, draws: PosteriorDraws, dev_at_hat: float, data: WeightedDataset
) -> tuple[float, float, float]:
    """``(pwd, pwd_mcse, ess)`` from one blocked deviance pass: the effective
    number of parameters, the batch-means Monte Carlo standard error of that
    mean, and the effective sample size of the deviance-difference series.
    The draws are scored as they are: :func:`posterior_point_estimate` has
    checked them in the same :func:`wdic` call."""
    diffs = -2.0 * _weighted_logliks(model, draws.draws, data) - dev_at_hat
    pwd = float(np.mean(np.sort(diffs)))
    # batch means in draw order: b = floor(sqrt(n)) batches of m = n // b draws
    n = diffs.size
    batches = math.isqrt(n)
    size = n // batches
    means = np.mean(diffs[: batches * size].reshape(batches, size), axis=1)
    sigma2 = size * float(np.var(means, ddof=1))
    if sigma2 == 0.0:
        return pwd, 0.0, float(n)
    return pwd, math.sqrt(sigma2 / n), n * float(np.var(diffs, ddof=1)) / sigma2


class WdicResult(NamedTuple):
    wdic: float
    pwd: float
    dev_at_hat: float
    theta_hat: np.ndarray
    pwd_mcse: float
    ess: float


def posterior_point_estimate(
    model: ModelSpec,
    draws: PosteriorDraws,
    data: WeightedDataset,
    rule: str = "mean",
) -> np.ndarray:
    """Point estimate from the draws: columnwise mean, or the draw with the
    highest log posterior (falling back to the unweighted log-likelihood when
    the draws carry no posterior values).  A ``mode`` tie goes to the largest
    parameter values, compared column by column, then to the first such draw."""
    arr = model.check_draws(draws.draws)
    if rule == "mean":
        return np.mean(np.sort(arr, axis=0), axis=0)
    if rule == "mode":
        if draws.log_posts is not None:
            scores = draws.log_posts
        else:
            unit = WeightedDataset(data.y, np.ones(data.n))
            scores = _weighted_logliks(model, arr, unit)
        # deterministic under reordering: the draw Python's max picks over
        # (score, tuple(row)) keys, by narrowing the tied draws column by column
        best = np.flatnonzero(scores == scores.max())
        for column in arr.T:
            values = column[best]
            best = best[values == values.max()]
        return arr[best[0]].copy()
    raise ValueError(f"rule must be 'mean' or 'mode', got {rule!r}")


def wdic(
    model: ModelSpec,
    draws: PosteriorDraws,
    data: WeightedDataset,
    theta_hat_rule: str = "mean",
) -> WdicResult:
    """Weighted deviance information criterion: deviance at the point estimate
    plus twice the effective-parameter penalty.  Reduces to the classical DIC
    when every weight is 1.  Also reports the penalty's batch-means Monte Carlo
    standard error and the effective sample size of the draws."""
    theta_hat = posterior_point_estimate(model, draws, data, theta_hat_rule)
    dev_at_hat = weighted_deviance(model, theta_hat, data)
    pwd, pwd_mcse, ess = _penalty(model, draws, dev_at_hat, data)
    return WdicResult(dev_at_hat + 2.0 * pwd, pwd, dev_at_hat, theta_hat, pwd_mcse, ess)


@dataclass(frozen=True)
class SamplerConfig:
    """Random-walk sampler settings; draws kept are steps - burn_in, at least
    ``MIN_DRAWS``."""

    steps: int
    burn_in: int
    step_size: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "steps", as_int(self.steps, "steps"))
        object.__setattr__(self, "burn_in", as_int(self.burn_in, "burn_in"))
        object.__setattr__(self, "step_size", float(self.step_size))
        object.__setattr__(self, "seed", as_int(self.seed, "seed", nonnegative=True))
        if not (self.steps > self.burn_in >= 0):
            raise ValueError(
                f"need steps > burn_in >= 0, got steps={self.steps}, burn_in={self.burn_in}"
            )
        if not 0.0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        # refused here, not after every step has run
        if self.steps - self.burn_in < MIN_DRAWS:
            raise EmptyDrawsError(
                f"need at least {MIN_DRAWS} draws, got {self.steps - self.burn_in}"
            )


def metropolis_sample(
    model: ModelSpec,
    log_prior: Callable,
    data: WeightedDataset,
    cfg: SamplerConfig,
) -> PosteriorDraws:
    """Random-walk Metropolis draws from the (unweighted) posterior.

    Deterministic for a fixed seed; the chain starts at the midpoint of the
    model bounds, so each bound and its midpoint must be finite.  Each step
    draws p scalar ``standard_normal()`` values (the stream of one
    ``standard_normal(p)``), then ``random()`` only when the
    proposal lies inside the model bounds; proposals outside are rejected.
    When the model supplies ``summarize``, its function of theta scores the
    likelihood and ``log_prior`` sees each scored proposal as a list of p
    Python floats, which it must not modify; otherwise ``log_prior`` and
    ``log_density`` see the same fresh ``(p,)`` float64 array.  The
    post-burn-in acceptance rate is reported on the result and must exceed
    0.1%.
    """
    bounds = model.bounds
    for lo, hi in bounds:  # refused before any step, not as zero acceptance
        if not math.isfinite(0.5 * (lo + hi)):
            raise ValueError(f"the sampler's start, midpoint of bound ({lo}, {hi}), is not finite")
    rng = np.random.default_rng(cfg.seed)
    normal, uniform = rng.standard_normal, rng.random
    step_size, burn_in, y = cfg.step_size, cfg.burn_in, data.y
    if model.summarize is not None:
        loglik = model.summarize(y)

        def log_post(th: list) -> float:
            return loglik(th) + float(log_prior(th))
    else:
        def log_post(th: list) -> float:
            arr = np.array(th)
            lik = float(np.asarray(model.log_density(y, arr), dtype=float).sum())
            return lik + float(log_prior(arr))

    # the state is Python floats: t + step_size * z is the same IEEE operation
    # numpy applies per element, without its dispatch cost on (p,) arrays
    theta = [0.5 * (lo + hi) for lo, hi in bounds]
    current = log_post(theta)
    kept, kept_lp = array("d"), array("d")
    accepted_after_burn = 0
    log, minus_inf = math.log, -math.inf
    for step in range(cfg.steps):
        proposal = [t + step_size * normal() for t in theta]
        # out-of-bounds proposals have zero prior mass: reject outright
        for t, (lo, hi) in zip(proposal, bounds):
            if not lo <= t <= hi:
                break
        else:
            candidate = log_post(proposal)
            u = uniform()
            # random() can return 0.0, whose log is -inf: accept
            if (log(u) if u > 0.0 else minus_inf) < candidate - current:
                theta, current = proposal, candidate
                if step >= burn_in:
                    accepted_after_burn += 1
        if step >= burn_in:
            kept.extend(theta)
            kept_lp.append(current)
    rate = accepted_after_burn / (cfg.steps - cfg.burn_in)
    if rate < 0.001:
        raise ZeroAcceptanceError(
            f"acceptance rate {rate:.5f} after burn-in; decrease step_size"
        )
    provenance = (
        f"sampler(seed={cfg.seed}, steps={cfg.steps}, burn_in={cfg.burn_in}, "
        f"step_size={cfg.step_size!r})"
    )
    draws = np.frombuffer(kept).reshape(-1, model.n_params)
    return PosteriorDraws._adopt(draws, provenance, np.frombuffer(kept_lp), rate)


# ---------------------------------------------------------------------------
# Built-in models for the command line and the bundled demos (1-D data).
# ---------------------------------------------------------------------------


def _normal_summary(scale: Callable) -> Callable:
    """``summarize`` for a normal model of the first data column, whose ``scale(theta)``
    gives (variance, log normalizer) and theta[0] in [-MEAN_BOUND, MEAN_BOUND] the mean:
    sum_i log N(y_i | mu, var) = n norm - (SS + n (ybar - mu)^2) / (2 var).
    Data whose sums or squares leave the float range are refused before any step."""

    def summarize(y: np.ndarray) -> Callable:
        col = y[:, 0].tolist()
        n = len(col)
        try:  # fsum and float ** raise OverflowError; + and * give inf
            ybar = math.fsum(col) / n
            ss = math.fsum((v - ybar) ** 2 for v in col)
            if not math.isfinite(ss + n * (abs(ybar) + MEAN_BOUND) ** 2):  # the largest numerator
                raise OverflowError
        except OverflowError:
            raise ValueError("observations overflow the normal model's sum of squares") from None

        def loglik(theta) -> float:
            var, norm = scale(theta)
            return n * norm - (ss + n * (ybar - theta[0]) ** 2) / (2.0 * var)

        return loglik

    return summarize


def normal_mean_model(sd: float = 1.0) -> ModelSpec:
    """Normal with unknown mean in [-MEAN_BOUND, MEAN_BOUND] and known standard deviation."""
    sd = float(sd)
    const = -0.5 * math.log(2.0 * math.pi * sd * sd)

    def log_density(y: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return const - (y[:, 0] - theta[0]) ** 2 / (2.0 * sd * sd)

    return ModelSpec(
        f"normal-mean(sd={sd:g})", log_density, ((-MEAN_BOUND, MEAN_BOUND),),
        _normal_summary(lambda theta: (sd * sd, const)),
    )


def normal_model() -> ModelSpec:
    """Normal with unknown mean in [-MEAN_BOUND, MEAN_BOUND] and unknown log
    standard deviation in [-LOG_SD_BOUND, LOG_SD_BOUND]."""

    def scale(theta) -> tuple[float, float]:
        var = math.exp(2.0 * theta[1])
        return var, -0.5 * math.log(2.0 * math.pi * var)

    def log_density(y: np.ndarray, theta: np.ndarray) -> np.ndarray:
        mu, log_sd = theta
        # math, not numpy, for both shapes of theta: np.exp differs from
        # math.exp in the last bit on some arguments, and a draw must score
        # the same alone and inside a block as the sampler's scale scores it
        shape = np.shape(log_sd)
        var = np.array([*map(math.exp, np.ravel(2.0 * log_sd).tolist())]).reshape(shape)
        norm = -0.5 * np.array([*map(math.log, np.ravel(2.0 * math.pi * var).tolist())])
        return norm.reshape(shape) - (y[:, 0] - mu) ** 2 / (2.0 * var)

    return ModelSpec(
        "normal", log_density, ((-MEAN_BOUND, MEAN_BOUND), (-LOG_SD_BOUND, LOG_SD_BOUND)),
        _normal_summary(scale),
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
    """Independent normal prior with the given scale on every parameter.

    The returned function takes theta as an array-like, or as a flat list of
    p Python floats, which it reads without a conversion."""
    scale = float(scale)
    if not 0.0 < scale < math.inf:
        raise ValueError(f"prior scale must be positive and finite, got {scale!r}")
    if not 0.0 < 2.0 * math.pi * scale * scale < math.inf:
        raise ValueError(f"prior scale {scale!r} leaves the float range when squared")
    const = -0.5 * math.log(2.0 * math.pi * scale * scale)
    denom = 2.0 * scale * scale
    edge = max(abs(b) for bound in model.bounds for b in bound)
    if not math.isfinite(edge * edge / denom):  # the largest t * t / denom inside the bounds
        raise ValueError(f"prior scale {scale!r} overflows the log prior at the model bound {edge!r}")

    def log_prior(theta) -> float:
        # a list, as the sampler passes, is taken as the p floats it holds
        if not isinstance(theta, list):
            theta = np.asarray(theta, dtype=float).ravel().tolist()
        # the same value as np.sum over the terms: it adds fewer than 8 left
        # to right from 0.0, and 8 or more in its own unrolled order
        if len(theta) >= 8:
            return float(np.sum([const - t * t / denom for t in theta]))
        total = 0.0
        for t in theta:
            total += const - t * t / denom
        return total

    return log_prior
