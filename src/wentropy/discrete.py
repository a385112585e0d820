"""Finite-support surrogates for the entropy identities.

The chain-rule and decomposition identities are algebraic, so they hold
verbatim with sums in place of integrals.  A :class:`DiscreteJoint` carries a
dense probability tensor plus real-valued support labels per coordinate, which
makes the central-moment weights (x - a)^2 meaningful.  A batch is laid out as
for a ``Gaussian``, ``probs`` (*dims, *batch) and centers (n, *batch); the
checkers sum each member's cells contiguously, in the order, and to the bits,
of that member alone, and return arrays over the batch, floats for one pmf.

Each checker computes both sides of an identity independently from the tensor
and returns them; the caller asserts closeness.  Zero-probability cells and
slices follow the 0 log 0 = 0 and 0 log(0/0) = 0 conventions through one
masked log, ``p * _log0(q)`` with ``_log0(q)`` = log q where q > 0 and 0
elsewhere.  That holds because every q here is p itself, a marginal or a
conditional of p, or a product of marginals, so q > 0 wherever p > 0.  So zero
cells add exact zeros: a pmf padded with them only sums in another order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import as_float_array
from .quadrature import CentralWeight

PROB_SUM_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """Dense joint pmf over labelled finite supports, one axis per coordinate, then
    ``batch_ndim`` batch axes (declared, so an axis too many for the labels is
    refused).  A refused batch names its first refused member, in C order."""

    probs: np.ndarray
    support: tuple
    batch_ndim: int = 0

    def __post_init__(self):
        support = tuple(
            as_float_array(s, f"support[{k}]", ndim=1) for k, s in enumerate(self.support)
        )
        coords = tuple(range(len(support)))
        probs = as_float_array(self.probs, "probs", ndim=len(coords) + self.batch_ndim)
        for k, s in enumerate(support):
            if s.size != probs.shape[k]:
                raise ValueError(f"support[{k}] must have length {probs.shape[k]}")
        negative, sums = (probs < 0).any(axis=coords), probs.sum(axis=coords)
        refused = negative | (abs(sums - 1.0) > PROB_SUM_ATOL)
        if refused.any():
            index = tuple(np.argwhere(refused)[0].tolist())
            text = f"probabilities sum to {float(sums[index])!r}, not 1"
            text = "probabilities must be nonnegative" if negative[index] else text
            raise ValueError(f"{text} (batch member {index})" if index else text)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "support", support)

    @property
    def ndim(self) -> int:  # coordinates, the batch not counted
        return len(self.support)


def random_joint(rng: np.random.Generator, dims) -> DiscreteJoint:
    """Seeded random pmf with labels 0..k-1 per axis."""
    raw = rng.random(tuple(dims)) ** 2
    probs = raw / raw.sum()
    return DiscreteJoint(probs, tuple(np.arange(k, dtype=float) for k in dims))


def _cells(joint: DiscreteJoint) -> tuple[np.ndarray, int]:
    """The probabilities as a C-contiguous (*batch, *n coordinates) array, coordinate k
    at axis k - n, and n: the checkers' layout."""
    n = joint.ndim
    return np.ascontiguousarray(np.moveaxis(joint.probs, range(n), range(-n, 0))), n


def _sum(a: np.ndarray, n: int, coords=None) -> np.ndarray:
    """``a`` summed over the listed coordinates (all by default), keeping their axes."""
    coords = range(n) if coords is None else coords
    return a.sum(axis=tuple(k - n for k in coords), keepdims=True)


def _marginal(a: np.ndarray, n: int, k: int) -> np.ndarray:
    return _sum(a, n, [j for j in range(n) if j != k])


def _public(a: np.ndarray, n: int, kept=()):
    """A (*batch, *n coordinates) array as (*kept coordinates, *batch): the
    others are summed out and dropped; a float for one pmf's scalar."""
    batch = a.ndim - n
    a = a.squeeze(axis=tuple(k - n for k in range(n) if k not in kept))
    a = np.moveaxis(a, range(batch), range(-batch, 0))
    return a if a.ndim else float(a)


def _log0(q: np.ndarray) -> np.ndarray:
    """log q where q > 0 and 0 elsewhere (see the module docstring)."""
    return np.log(np.where(q > 0, q, 1.0))


def _weighted_mutual(wp: np.ndarray, p: np.ndarray, product: np.ndarray, n: int) -> np.ndarray:
    """sum of wp log(p / product), for wp the weight times p."""
    return _sum(wp * (_log0(p) - _log0(product)), n)


def _weight(joint: DiscreteJoint, weight: CentralWeight | None, axes) -> np.ndarray | float:
    """The product of (x_k - a_k)^2 over the labels of each of ``axes``, on the
    checkers' axes; ``weight=None`` is the unit weight 1.0, so every weighted
    checker reduces to its unweighted identity."""
    if weight is None:
        return 1.0
    if weight.dim != len(axes):
        raise ValueError(
            f"weight has {weight.dim} centers for a {len(axes)}-coordinate pmf"
        )
    n, devs = joint.ndim, []
    for i, k in enumerate(axes):
        dev = (joint.support[k] - weight.centers[i][..., None]) ** 2  # (*batch, dims_k)
        devs.append(dev.reshape(dev.shape[:-1] + (1,) * k + (-1,) + (1,) * (n - 1 - k)))
    return reduce(np.multiply, devs)


class CheckPair(NamedTuple):
    lhs: float
    rhs: float


class ChainWdeResult(NamedTuple):
    lhs: float
    rhs: float
    psi: list


class MutualDecompResult(NamedTuple):
    lhs: float
    rhs: float
    rhs_expectation: float


class RelativeIdentityResult(NamedTuple):
    lhs: np.ndarray
    rhs: np.ndarray
    mutual: float
    expected: float


def chain_rule_de_check(joint: DiscreteJoint) -> CheckPair:
    """Joint entropy vs the sum of successive conditional entropies: the
    unit-weight case of :func:`chain_rule_wde_check`."""
    return CheckPair(*chain_rule_wde_check(joint, None)[:2])


def chain_rule_wde_check(joint: DiscreteJoint, weight: CentralWeight | None) -> ChainWdeResult:
    """Weighted chain rule with the induced per-stage weights.

    The i-th stage weight multiplies the leading squared deviations by the
    conditional expectation of the trailing ones given the first i
    coordinates; the final stage carries the full product weight.
    """
    p, n = _cells(joint)
    wp = _weight(joint, weight, range(n)) * p
    lhs = -_sum(wp * _log0(p), n)
    rhs = 0.0
    psi: list[np.ndarray] = []
    for i in range(n):
        # the marginal of the first i + 1 coordinates, and the stage weight times it
        front, wfront = _sum(p, n, range(i + 1, n)), _sum(wp, n, range(i + 1, n))
        prev = _sum(front, n, [i])
        cond = front / np.where(prev > 0, prev, 1.0)
        rhs -= _sum(wfront * _log0(cond), n)
        # wfront is 0 where front is
        psi.append(_public(wfront / np.where(front > 0, front, 1.0), n, range(i + 1)))
    return ChainWdeResult(_public(lhs, n), _public(rhs, n), psi)


def mutual_de_decomposition_check(joint: DiscreteJoint) -> MutualDecompResult:
    """Mutual information vs marginal-minus-conditional entropies.

    ``rhs_expectation`` re-evaluates the conditional entropies pointwise at
    each conditioning value and averages, which must agree as well.
    """
    p, n = _cells(joint)
    marginals = [_marginal(p, n, k) for k in range(n)]
    lhs = _weighted_mutual(p, p, reduce(np.multiply, marginals), n)
    rhs = rhs_expectation = 0.0
    for i in range(n - 1):
        h_marginal = -_sum(marginals[i] * _log0(marginals[i]), n)
        tail = _sum(p, n, range(i))  # over coordinates i..n-1
        tail_next = _sum(tail, n, [i])
        cond = tail / np.where(tail_next > 0, tail_next, 1.0)
        h_cond = -_sum(tail * _log0(cond), n)
        rhs += h_marginal - h_cond
        # pointwise conditional entropy, averaged over the conditioning values
        h_point = -_sum(cond * _log0(cond), n, [i])
        rhs_expectation += _sum(tail_next * (h_marginal - h_point), n)
    return MutualDecompResult(*(_public(v, n) for v in (lhs, rhs, rhs_expectation)))


def mutual_wde_decomposition_check(joint: DiscreteJoint, weight: CentralWeight) -> CheckPair:
    """Weighted mutual information vs per-coordinate weighted entropies minus
    the weighted conditional entropy given the last coordinate.

    The j-th coordinate's weight multiplies its own squared deviation by the
    conditional expectation of all the others' squared deviations given it.
    """
    p, n = _cells(joint)
    wp = _weight(joint, weight, range(n)) * p
    marginals = [_marginal(p, n, k) for k in range(n)]
    lhs = _weighted_mutual(wp, p, reduce(np.multiply, marginals), n)
    rhs = 0.0
    for j in range(n - 1):
        # the j-th weight times the j-th marginal: no 0/0 at empty slices
        rhs -= _sum(_marginal(wp, n, j) * _log0(marginals[j]), n)
    # minus the weighted conditional entropy given the last coordinate
    rhs += _weighted_mutual(wp, p, marginals[n - 1], n)
    return CheckPair(_public(lhs, n), _public(rhs, n))


def relative_de_identity_check(joint: DiscreteJoint, split: int) -> RelativeIdentityResult:
    """Divergence of a conditional from its marginal, per conditioning value.

    Coordinates split into a leading block (first ``split`` axes) and a
    trailing block.  For every trailing value y the divergence
    D(f(.|y) || f1) must equal the likelihood-ratio-weighted entropy of the
    marginal minus the conditional entropy at y; averaging over y recovers the
    mutual information between the blocks.  This is the unit-weight case of
    :func:`relative_we_identity_check`.
    """
    return relative_we_identity_check(joint, None, None, split)


def relative_we_identity_check(
    joint: DiscreteJoint,
    weight_x: CentralWeight | None,
    weight_y: CentralWeight | None,
    split: int,
) -> RelativeIdentityResult:
    """Weighted analogue of :func:`relative_de_identity_check` (a weight of
    ``None`` is the unit weight on its block).

    Per trailing value y, the weighted divergence of the conditional from the
    marginal equals the cross-weighted entropy minus the weighted conditional
    entropy; weighting the average over y by the trailing squared deviations
    recovers the weighted mutual information with the product weight.
    """
    p, n = _cells(joint)
    if not 0 < split < n:
        raise ValueError(f"split must be in 1..{n - 1}, got {split}")
    x_axes, y_axes = range(split), range(split, n)
    f1, p2 = _sum(p, n, y_axes), _sum(p, n, x_axes)
    sq_x, sq_y = _weight(joint, weight_x, x_axes), _weight(joint, weight_y, y_axes)

    # the conditional at every trailing value at once, 0 on an empty slice
    cond = p / np.where(p2 > 0, p2, 1.0)
    wcond = sq_x * cond
    log_cond, log_f1 = _log0(cond), _log0(f1)
    lhs = _sum(wcond * (log_cond - log_f1), n, x_axes)
    cross = -_sum(wcond * log_f1, n, x_axes)
    rhs = cross + _sum(wcond * log_cond, n, x_axes)  # minus the conditional entropy
    mutual = _weighted_mutual(sq_x * sq_y * p, p, f1 * p2, n)
    expected = _sum(sq_y * p2 * lhs, n)
    return RelativeIdentityResult(
        _public(lhs, n, y_axes), _public(rhs, n, y_axes), _public(mutual, n), _public(expected, n)
    )
