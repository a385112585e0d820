"""Finite-support surrogates for the entropy identities.

The chain-rule and decomposition identities are algebraic, so they hold
verbatim with sums in place of integrals.  A :class:`DiscreteJoint` carries a
dense probability tensor plus real-valued support labels per coordinate, which
makes the central-moment weights (x - a)^2 meaningful.

Each checker computes both sides of an identity independently from the tensor
and returns them; the caller asserts closeness.  Zero-probability cells and
slices follow the 0 log 0 = 0 and 0 log(0/0) = 0 conventions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .quadrature import CentralWeight

PROB_SUM_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """Dense joint pmf over labelled finite supports, one axis per coordinate."""

    probs: np.ndarray
    support: tuple

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        support = tuple(np.asarray(s, dtype=float) for s in self.support)
        if probs.ndim != len(support):
            raise ValueError(
                f"{probs.ndim}-axis tensor with {len(support)} support vectors"
            )
        for k, s in enumerate(support):
            if s.ndim != 1 or s.size != probs.shape[k]:
                raise ValueError(f"support[{k}] must have length {probs.shape[k]}")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > PROB_SUM_ATOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        probs = probs.copy()
        probs.setflags(write=False)
        for s in support:
            s.setflags(write=False)
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "dims": list(self.probs.shape),
                "support": [list(map(float, s)) for s in self.support],
                "probs": [float(v) for v in self.probs.ravel(order="C")],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "DiscreteJoint":
        data = json.loads(text)
        dims = [int(d) for d in data["dims"]]
        probs = np.asarray(data["probs"], dtype=float).reshape(dims, order="C")
        return cls(probs, tuple(np.asarray(s, dtype=float) for s in data["support"]))


def random_joint(rng: np.random.Generator, dims) -> DiscreteJoint:
    """Seeded random pmf with labels 0..k-1 per axis."""
    raw = rng.random(tuple(dims)) ** 2
    probs = raw / raw.sum()
    return DiscreteJoint(probs, tuple(np.arange(k, dtype=float) for k in dims))


def _xlogy(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p * log(q) with zero contribution wherever p == 0."""
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log(q[mask])
    return out


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


def mutual_de_decomposition_check(joint: DiscreteJoint) -> MutualDecompResult:
    """Mutual information vs marginal-minus-conditional entropies.

    ``rhs_expectation`` re-evaluates the conditional entropies pointwise at
    each conditioning value and averages, which must agree as well.
    """
    p = joint.probs
    n = p.ndim
    marginals = [joint.marginal([k]) for k in range(n)]
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


def mutual_wde_decomposition_check(
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
    marginals = [joint.marginal([k]) for k in range(n)]
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
