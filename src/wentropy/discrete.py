"""Finite-support surrogates for the entropy identities.

The chain-rule and decomposition identities are algebraic, so they hold
verbatim with sums in place of integrals.  A :class:`DiscreteJoint` carries a
dense probability tensor plus real-valued support labels per coordinate, which
makes the central-moment weights (x - a)^2 meaningful.

Each checker computes both sides of an identity independently from the tensor
and returns them; the caller asserts closeness.  Zero-probability cells and
slices follow the 0 log 0 = 0 and 0 log(0/0) = 0 conventions through one
masked log, ``p * _log0(q)`` with ``_log0(q)`` = log q where q > 0 and 0
elsewhere.  That holds because every q here is p itself, a marginal or a
conditional of p, or a product of marginals, so q > 0 wherever p > 0.
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
    """Dense joint pmf over labelled finite supports, one axis per coordinate."""

    probs: np.ndarray
    support: tuple

    def __post_init__(self):
        support = tuple(
            as_float_array(s, f"support[{k}]", ndim=1) for k, s in enumerate(self.support)
        )
        probs = as_float_array(self.probs, "probs", ndim=len(support))
        for k, s in enumerate(support):
            if s.size != probs.shape[k]:
                raise ValueError(f"support[{k}] must have length {probs.shape[k]}")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > PROB_SUM_ATOL:
            raise ValueError(f"probabilities sum to {float(probs.sum())!r}, not 1")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "support", support)

    @property
    def ndim(self) -> int:
        return self.probs.ndim

    def marginal(self, axes) -> np.ndarray:
        """Marginal tensor over the listed axes (in their original order)."""
        keep = sorted(axes)
        drop = tuple(k for k in range(self.ndim) if k not in keep)
        return self.probs.sum(axis=drop) if drop else self.probs


def random_joint(rng: np.random.Generator, dims) -> DiscreteJoint:
    """Seeded random pmf with labels 0..k-1 per axis."""
    raw = rng.random(tuple(dims)) ** 2
    probs = raw / raw.sum()
    return DiscreteJoint(probs, tuple(np.arange(k, dtype=float) for k in dims))


def _log0(q: np.ndarray) -> np.ndarray:
    """log q where q > 0 and 0 elsewhere (see the module docstring)."""
    return np.log(np.where(q > 0, q, 1.0))


def _weighted_mutual(wp: np.ndarray, p: np.ndarray, product: np.ndarray) -> float:
    """sum of wp log(p / product), for wp the weight times p."""
    return float((wp * (_log0(p) - _log0(product))).sum())


def _outer(vectors) -> np.ndarray:
    return reduce(np.multiply.outer, vectors)


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
    p = joint.probs
    n = p.ndim
    wp = _outer(_squared_devs(joint, weight)) * p
    lhs = -float((wp * _log0(p)).sum())
    rhs = 0.0
    psi: list[np.ndarray] = []
    for i in range(n):
        trailing_axes = tuple(range(i + 1, n))
        # the marginal of the first i + 1 coordinates, and the stage weight times it
        front, wfront = p.sum(axis=trailing_axes), wp.sum(axis=trailing_axes)
        prev = front.sum(axis=i, keepdims=True)
        cond = front / np.where(prev > 0, prev, 1.0)
        rhs -= float((wfront * _log0(cond)).sum())
        psi.append(wfront / np.where(front > 0, front, 1.0))  # wfront is 0 where front is
    return ChainWdeResult(lhs, rhs, psi)


def mutual_de_decomposition_check(joint: DiscreteJoint) -> MutualDecompResult:
    """Mutual information vs marginal-minus-conditional entropies.

    ``rhs_expectation`` re-evaluates the conditional entropies pointwise at
    each conditioning value and averages, which must agree as well.
    """
    p = joint.probs
    n = p.ndim
    marginals = [joint.marginal([k]) for k in range(n)]
    lhs = _weighted_mutual(p, p, _outer(marginals))
    rhs = rhs_expectation = 0.0
    for i in range(n - 1):
        h_marginal = -float((marginals[i] * _log0(marginals[i])).sum())
        tail = p.sum(axis=tuple(range(i)))  # axes (i, i+1, .., n-1)
        tail_next = tail.sum(axis=0)
        cond = tail / np.where(tail_next > 0, tail_next, 1.0)
        h_cond = -float((tail * _log0(cond)).sum())
        rhs += h_marginal - h_cond
        # pointwise conditional entropy, averaged over the conditioning values
        h_point = -(cond * _log0(cond)).sum(axis=0)
        rhs_expectation += float((tail_next * (h_marginal - h_point)).sum())
    return MutualDecompResult(lhs, rhs, rhs_expectation)


def mutual_wde_decomposition_check(joint: DiscreteJoint, weight: CentralWeight) -> CheckPair:
    """Weighted mutual information vs per-coordinate weighted entropies minus
    the weighted conditional entropy given the last coordinate.

    The j-th coordinate's weight multiplies its own squared deviation by the
    conditional expectation of all the others' squared deviations given it.
    """
    p = joint.probs
    n = p.ndim
    wp = _outer(_squared_devs(joint, weight)) * p
    marginals = [joint.marginal([k]) for k in range(n)]
    lhs = _weighted_mutual(wp, p, _outer(marginals))
    rhs = 0.0
    for j in range(n - 1):
        others = tuple(k for k in range(n) if k != j)
        # the j-th weight times the j-th marginal: no 0/0 at empty slices
        rhs -= float((wp.sum(axis=others) * _log0(marginals[j])).sum())
    # minus the weighted conditional entropy given the last coordinate
    rhs += _weighted_mutual(wp, p, marginals[n - 1])
    return CheckPair(lhs, rhs)


def relative_de_identity_check(joint: DiscreteJoint, split: int | None = None) -> RelativeIdentityResult:
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
    split = n - 1 if split is None else split
    if not 0 < split < n:
        raise ValueError(f"split must be in 1..{n - 1}, got {split}")
    x_axes = tuple(range(split))
    y_axes = tuple(range(split, n))
    f1 = p.sum(axis=y_axes)
    p2 = p.sum(axis=x_axes)
    sq_x = _outer(_squared_devs(joint, weight_x, x_axes))
    sq_y = _outer(_squared_devs(joint, weight_y, y_axes))

    # the conditional at every trailing value at once, 0 on an empty slice
    cond = p / np.where(p2 > 0, p2, 1.0)
    column = f1.shape + (1,) * len(y_axes)  # leading-block arrays as columns
    wcond = sq_x.reshape(column) * cond
    log_cond, log_f1 = _log0(cond), _log0(f1).reshape(column)
    lhs = (wcond * (log_cond - log_f1)).sum(axis=x_axes)
    cross = -(wcond * log_f1).sum(axis=x_axes)
    rhs = cross + (wcond * log_cond).sum(axis=x_axes)  # minus the conditional entropy
    wp = np.multiply.outer(sq_x, sq_y) * p
    mutual = _weighted_mutual(wp, p, np.multiply.outer(f1, p2))
    expected = float((sq_y * p2 * lhs).sum())
    return RelativeIdentityResult(lhs, rhs, mutual, expected)
