import numpy as np
import pytest

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
    independent_sum = sum(entropy(joint.marginal([k])) for k in range(3))
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
    res = mutual_de_decomposition_check(joint)
    assert res.lhs == pytest.approx(res.rhs, abs=TOL)
    lhs, rhs = mutual_wde_decomposition_check(joint, weight)
    assert lhs == pytest.approx(rhs, abs=TOL)
    res = relative_de_identity_check(joint, 1)
    assert np.max(np.abs(res.lhs - res.rhs)) < TOL
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
