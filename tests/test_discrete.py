import json
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    pmf_marginal,
    reference_chain_rule_wde_check,
    reference_mutual_de_decomposition_check,
    reference_mutual_wde_decomposition_check,
    reference_relative_we_identity_check,
)
from wentropy.discrete import (
    DiscreteJoint,
    chain_rule_de_check,
    chain_rule_wde_check,
    mutual_de_decomposition_check,
    mutual_wde_decomposition_check,
    random_joint,
    relative_de_identity_check,
    relative_we_identity_check,
)
from wentropy.quadrature import CentralWeight

TOL = 1e-10
DATA_DIR = Path(__file__).parent / "data"


def product_joint(rng, dims):
    factors = [rng.random(k) + 0.1 for k in dims]
    factors = [f / f.sum() for f in factors]
    probs = factors[0]
    for f in factors[1:]:
        probs = np.multiply.outer(probs, f)
    return DiscreteJoint(probs, tuple(np.arange(k, dtype=float) for k in dims))


def entropy(p):
    mask = p > 0
    return -float(np.sum(p[mask] * np.log(p[mask])))


def test_validation_rejects_bad_pmfs():
    with pytest.raises(ValueError):
        DiscreteJoint(np.array([[0.6, 0.5], [0.0, 0.0]]), (np.arange(2.0), np.arange(2.0)))
    with pytest.raises(ValueError):
        DiscreteJoint(np.array([[0.7, -0.2], [0.3, 0.2]]), (np.arange(2.0), np.arange(2.0)))


def test_chain_rule_de_product_pmf():
    rng = np.random.default_rng(1)
    joint = product_joint(rng, (3, 4, 2))
    lhs, rhs = chain_rule_de_check(joint)
    independent_sum = sum(entropy(pmf_marginal(joint, k)) for k in range(3))
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert rhs == pytest.approx(independent_sum, abs=1e-12)


def test_chain_rule_de_random_and_degenerate():
    rng = np.random.default_rng(2)
    joint = random_joint(rng, (3, 3, 3))
    lhs, rhs = chain_rule_de_check(joint)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    atom = np.zeros((2, 2))
    atom[1, 0] = 1.0
    single = DiscreteJoint(atom, (np.arange(2.0), np.arange(2.0)))
    lhs, rhs = chain_rule_de_check(single)
    assert lhs == 0.0 and rhs == 0.0


def test_chain_rule_wde_pair_matches_hand_evaluation():
    # two coordinates: the induced first-stage weight is
    # (x1-a1)^2 E[(X2-a2)^2 | X1 = x1]
    rng = np.random.default_rng(3)
    joint = random_joint(rng, (3, 4))
    a = np.array([0.5, -0.25])
    lhs, rhs, psi = chain_rule_wde_check(joint, CentralWeight(a))
    p = joint.probs
    s0 = (joint.support[0] - a[0]) ** 2
    s1 = (joint.support[1] - a[1]) ** 2
    p1 = p.sum(axis=1)
    cond = p / p1[:, None]
    lhs_hand = -float(np.sum(np.outer(s0, s1) * p * np.log(p)))
    cond_term = -float(np.sum(np.outer(s0, s1) * p * np.log(cond)))
    psi1 = s0 * (cond * s1[None, :]).sum(axis=1)
    first_term = -float(np.sum(psi1 * p1 * np.log(p1)))
    assert lhs == pytest.approx(lhs_hand, abs=1e-12)
    assert rhs == pytest.approx(cond_term + first_term, abs=1e-12)
    assert lhs == pytest.approx(rhs, abs=TOL)
    assert psi[0] == pytest.approx(psi1, abs=1e-12)


def test_chain_rule_wde_random_pmfs():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 5)) for _ in range(n))
        joint = random_joint(rng, dims)
        weight = CentralWeight(rng.uniform(-1, 1, size=n))
        lhs, rhs, _ = chain_rule_wde_check(joint, weight)
        assert lhs == pytest.approx(rhs, abs=TOL)


def test_chain_rule_wde_far_centers_relative_agreement():
    rng = np.random.default_rng(5)
    joint = random_joint(rng, (3, 3, 3))
    weight = CentralWeight(np.array([1e3, -1e3, 1e3]))
    lhs, rhs, _ = chain_rule_wde_check(joint, weight)
    assert rhs == pytest.approx(lhs, rel=1e-10)


def test_chain_rule_wde_degenerate_at_centers():
    # pmf concentrated exactly on the weight centers kills both sides
    probs = np.zeros((2, 2))
    probs[1, 1] = 1.0
    joint = DiscreteJoint(probs, (np.arange(2.0), np.arange(2.0)))
    lhs, rhs, _ = chain_rule_wde_check(joint, CentralWeight([1.0, 1.0]))
    assert lhs == 0.0 and rhs == 0.0


def test_mutual_de_decomposition():
    rng = np.random.default_rng(6)
    res = mutual_de_decomposition_check(product_joint(rng, (3, 3, 2)))
    assert res.lhs == pytest.approx(0.0, abs=1e-12)
    assert res.rhs == pytest.approx(0.0, abs=1e-12)
    for _ in range(10):
        joint = random_joint(rng, (3, 3, 3))
        res = mutual_de_decomposition_check(joint)
        assert res.lhs == pytest.approx(res.rhs, abs=TOL)
        assert res.lhs == pytest.approx(res.rhs_expectation, abs=TOL)


def test_mutual_de_decomposition_markov_chain():
    rng = np.random.default_rng(7)
    p1 = rng.random(3)
    p1 /= p1.sum()
    t12 = rng.random((3, 3))
    t12 /= t12.sum(axis=1, keepdims=True)
    t23 = rng.random((3, 3))
    t23 /= t23.sum(axis=1, keepdims=True)
    probs = p1[:, None, None] * t12[:, :, None] * t23[None, :, :]
    joint = DiscreteJoint(probs, tuple(np.arange(3.0) for _ in range(3)))
    res = mutual_de_decomposition_check(joint)
    assert res.lhs == pytest.approx(res.rhs, abs=TOL)


def test_mutual_wde_decomposition():
    rng = np.random.default_rng(8)
    weight = CentralWeight([0.3, -0.7, 1.1])
    lhs, rhs = mutual_wde_decomposition_check(product_joint(rng, (3, 2, 4)), weight)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)
    for _ in range(10):
        joint = random_joint(rng, (4, 3, 3))
        lhs, rhs = mutual_wde_decomposition_check(joint, weight)
        assert lhs == pytest.approx(rhs, abs=TOL)


def test_mutual_wde_decomposition_two_coordinates():
    # n = 2 reduces to one weighted marginal entropy minus the weighted
    # conditional entropy given the second coordinate
    rng = np.random.default_rng(9)
    joint = random_joint(rng, (4, 3))
    a = np.array([0.25, 0.75])
    lhs, rhs = mutual_wde_decomposition_check(joint, CentralWeight(a))
    p = joint.probs
    s0 = (joint.support[0] - a[0]) ** 2
    s1 = (joint.support[1] - a[1]) ** 2
    p0 = p.sum(axis=1)
    p1 = p.sum(axis=0)
    psi1 = s0 * np.where(p0 > 0, (p * s1[None, :]).sum(axis=1) / np.where(p0 > 0, p0, 1), 0.0)
    h_psi = -float(np.sum(psi1 * p0 * np.log(np.where(p0 > 0, p0, 1.0))))
    w = np.outer(s0, s1)
    cond = p / p1[None, :]
    mask = p > 0
    h_cond = -float(np.sum(w[mask] * p[mask] * np.log(cond[mask])))
    assert rhs == pytest.approx(h_psi - h_cond, abs=1e-12)
    assert lhs == pytest.approx(rhs, abs=TOL)


def test_relative_de_identity_independent_groups():
    rng = np.random.default_rng(10)
    res = relative_de_identity_check(product_joint(rng, (3, 3, 2)), split=2)
    assert np.allclose(res.lhs, 0.0, atol=1e-12)
    assert np.allclose(res.rhs, 0.0, atol=1e-12)
    assert res.mutual == pytest.approx(0.0, abs=1e-12)


def test_relative_de_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        joint = random_joint(rng, (3, 4, 3))
        split = int(rng.integers(1, 3))
        res = relative_de_identity_check(joint, split)
        assert np.max(np.abs(res.lhs - res.rhs)) < TOL
        assert res.mutual == pytest.approx(res.expected, abs=TOL)


def test_relative_we_identity_random():
    rng = np.random.default_rng(12)
    for _ in range(10):
        joint = random_joint(rng, (3, 3, 4))
        split = int(rng.integers(1, 3))
        wx = CentralWeight(rng.uniform(-1, 1, size=split))
        wy = CentralWeight(rng.uniform(-1, 1, size=3 - split))
        res = relative_we_identity_check(joint, wx, wy, split)
        assert np.max(np.abs(res.lhs - res.rhs)) < TOL
        assert res.mutual == pytest.approx(res.expected, abs=TOL)


def test_identity_checks_tolerate_zero_slices():
    probs = np.array(
        [[[0.2, 0.0], [0.1, 0.1]], [[0.0, 0.0], [0.3, 0.3]]]
    )
    joint = DiscreteJoint(probs, tuple(np.arange(2.0) for _ in range(3)))
    weight = CentralWeight([0.5, 0.5, 0.5])
    lhs, rhs = chain_rule_de_check(joint)
    assert lhs == pytest.approx(rhs, abs=TOL)
    lhs, rhs, _ = chain_rule_wde_check(joint, weight)
    assert lhs == pytest.approx(rhs, abs=TOL)
    # the pointwise conditional entropy meets the empty (x2, x3) = (0, 1) slice
    res = mutual_de_decomposition_check(joint)
    assert res.lhs == pytest.approx(res.rhs, abs=TOL)
    assert res.lhs == pytest.approx(res.rhs_expectation, abs=TOL)
    lhs, rhs = mutual_wde_decomposition_check(joint, weight)
    assert lhs == pytest.approx(rhs, abs=TOL)
    res = relative_de_identity_check(joint, 1)
    assert np.max(np.abs(res.lhs - res.rhs)) < TOL
    # at split=1 the trailing marginal p2 is 0 at (0, 1): that conditional is
    # empty, with non-unit weights on both blocks too
    weighted = relative_we_identity_check(
        joint, CentralWeight([0.5]), CentralWeight([-0.5, 1.5]), 1
    )
    assert np.max(np.abs(weighted.lhs - weighted.rhs)) < TOL
    assert weighted.lhs[0, 1] == 0.0 and weighted.rhs[0, 1] == 0.0
    assert weighted.mutual == pytest.approx(weighted.expected, abs=TOL)
    # weight=None is the unit weight: the weighted checkers reduce exactly to
    # the unweighted ones
    lhs, rhs, _ = chain_rule_wde_check(joint, None)
    assert (lhs, rhs) == tuple(chain_rule_de_check(joint))
    unit = relative_we_identity_check(joint, None, None, 1)
    assert np.array_equal(unit.lhs, res.lhs) and np.array_equal(unit.rhs, res.rhs)
    assert (unit.mutual, unit.expected) == (res.mutual, res.expected)
    with pytest.raises(ValueError):
        chain_rule_wde_check(joint, CentralWeight([0.5, 0.5]))
    with pytest.raises(ValueError):
        relative_we_identity_check(joint, None, CentralWeight([0.5]), 1)
    for split in (0, 3):
        with pytest.raises(ValueError, match=f"split must be in 1..2, got {split}"):
            relative_de_identity_check(joint, split)


def zeroed_joint(rng, dims):
    """A seeded pmf with about 30% of its cells and one whole slice set to 0."""
    raw = rng.random(dims) ** 2
    raw[rng.random(dims) < 0.3] = 0.0
    axis = int(rng.integers(len(dims)))
    raw[(slice(None),) * axis + (0,)] = 0.0
    raw[(1,) * len(dims)] += 0.5  # outside the empty slice, so some mass is left
    return DiscreteJoint(raw / raw.sum(), tuple(np.arange(k, dtype=float) for k in dims))


def arrays(result):
    """Every output of a checker result as an array, ``psi`` flattened in."""
    out = []
    for value in result:
        out += [np.asarray(v) for v in value] if isinstance(value, list) else [np.asarray(value)]
    return out


def test_checkers_match_the_loop_reference():
    # every output of the whole-array checkers equals the loop-and-mask
    # reference to rounding; weighted values reach about 1e4, so the bound is
    # relative to max(1, |reference|)
    rng = np.random.default_rng(16)
    for case in range(120):
        n = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 5)) for _ in range(n))
        joint = zeroed_joint(rng, dims) if case % 2 else random_joint(rng, dims)
        centers = rng.uniform(-1.0, 1.0, size=n)
        split = int(rng.integers(1, n))
        pairs = [
            (mutual_de_decomposition_check(joint), reference_mutual_de_decomposition_check(joint))
        ]
        for w, wx, wy in (
            (CentralWeight(centers), CentralWeight(centers[:split]), CentralWeight(centers[split:])),
            (None, None, None),
        ):
            pairs += [
                (chain_rule_wde_check(joint, w), reference_chain_rule_wde_check(joint, w)),
                (mutual_wde_decomposition_check(joint, w), reference_mutual_wde_decomposition_check(joint, w)),
                (
                    relative_we_identity_check(joint, wx, wy, split),
                    reference_relative_we_identity_check(joint, wx, wy, split),
                ),
            ]
        for new, ref in pairs:
            assert type(new) is type(ref)
            for a, b in zip(arrays(new), arrays(ref), strict=True):
                assert a.shape == b.shape
                assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b)))


def checker_results(joint, centers, split):
    """Every checker on ``joint``, weighted around ``centers`` ((n,) or (n, *batch)),
    the relative ones at ``split``."""
    weight = CentralWeight(centers)
    wx, wy = CentralWeight(centers[:split]), CentralWeight(centers[split:])
    return [
        chain_rule_de_check(joint),
        chain_rule_wde_check(joint, weight),
        mutual_de_decomposition_check(joint),
        mutual_wde_decomposition_check(joint, weight),
        relative_de_identity_check(joint, split),
        relative_we_identity_check(joint, wx, wy, split),
    ]


def one_atom(shape):
    probs = np.zeros(shape)
    probs[(1,) * len(shape)] = 1.0
    return DiscreteJoint(probs, tuple(np.arange(k, dtype=float) for k in shape))


def recorded_outputs():
    """Every output of every checker, as float.hex strings, on seeded pmfs with
    n = 2..4 at every split: random, zeroed and one-atom pmfs, one at a time."""
    rng = np.random.default_rng(37)
    outputs = []
    for case in range(9):
        n = 2 + case % 3
        dims = tuple(int(rng.integers(2, 5)) for _ in range(n))
        joint = (random_joint, zeroed_joint, lambda _, d: one_atom(d))[case // 3](rng, dims)
        centers = rng.uniform(-1.0, 1.0, size=n)
        for split in range(1, n):
            for result in checker_results(joint, centers, split):
                outputs.append([float(v).hex() for a in arrays(result) for v in a.ravel()])
    return outputs


def test_one_pmf_keeps_the_bits_recorded_before_batches():
    # recorded from the per-pmf checkers before they took batches: one pmf, the
    # batch of shape (), must still get exactly those bits
    recorded = json.loads((DATA_DIR / "discrete_checker_bits.json").read_text())
    assert recorded_outputs() == recorded


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_batch_member_equals_the_pmf_checked_alone(n):
    # members of the batch's own shape get their bits alone; smaller members,
    # padded with zero cells, differ only by the order of their sums: at most
    # 1e-14 * max(1, |alone|), fixed before the test was first run
    rng = np.random.default_rng(40 + n)
    shape = tuple(int(rng.integers(2, 5)) for _ in range(n))
    members = [random_joint(rng, shape), zeroed_joint(rng, shape), one_atom(shape)]
    members += [random_joint(rng, [int(rng.integers(1, k + 1)) for k in shape]) for _ in range(3)]
    members += [zeroed_joint(rng, [max(2, k - 1) for k in shape]), one_atom((2,) * n)]
    padded = np.zeros(shape + (len(members),))
    for b, member in enumerate(members):
        padded[(*map(slice, member.probs.shape), b)] = member.probs
    batch = DiscreteJoint(padded, [np.arange(k, dtype=float) for k in shape], 1)
    centers = rng.uniform(-1.0, 1.0, size=(n, len(members)))
    for split in range(1, n):
        together = checker_results(batch, centers, split)
        for b, member in enumerate(members):
            alone = checker_results(member, centers[:, b], split)
            for got, want in zip(together, alone, strict=True):
                assert type(got) is type(want)
                for a, r in zip(arrays(got), arrays(want), strict=True):
                    a = a[..., b][tuple(map(slice, r.shape))]
                    if member.probs.shape == shape:
                        assert np.array_equal(a, r)
                    else:
                        assert np.all(np.abs(a - r) <= 1e-14 * np.maximum(1.0, np.abs(r)))


def test_a_refused_batch_names_its_first_refused_member():
    labels = (np.arange(2.0),)
    even = [0.5, 0.5]
    with pytest.raises(ValueError, match=r"^probabilities sum to 1\.25, not 1 \(batch member \(1,\)\)$"):
        DiscreteJoint(np.array([even, [0.75, 0.5], [1.5, -0.5]]).T, labels, 1)
    with pytest.raises(ValueError, match=r"^probabilities must be nonnegative \(batch member \(2,\)\)$"):
        DiscreteJoint(np.array([even, even, [1.5, -0.5]]).T, labels, 1)
    # two batch axes: the first refused member in C order
    probs = np.full((2, 2, 3), 0.5)
    probs[:, 1, 0], probs[:, 0, 2] = 0.25, 0.75
    with pytest.raises(ValueError, match=r"sum to 1\.5, not 1 \(batch member \(0, 2\)\)$"):
        DiscreteJoint(probs, labels, 2)
    # a declared batch axis is the one a single pmf refuses as an axis too many
    assert DiscreteJoint(np.full((2, 2), 0.5), labels, 1).probs.shape == (2, 2)
