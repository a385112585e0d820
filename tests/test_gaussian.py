import math

import numpy as np
import pytest

from helpers import gaussian_logpdf, rand_spd
from wentropy import gaussian
from wentropy.closedform import PairConditional
from wentropy.errors import (
    DimensionMismatchError,
    DomainError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)
from wentropy.gaussian import (
    MAX_DIM,
    ConditionSpec,
    Gaussian,
    condition,
    example1_cov,
    example2_cov,
    gaussian_de,
    gaussian_kl,
    validate,
)
from wentropy.quadrature import (
    BLOCK_POINTS,
    GridSpec,
    de_quadrature,
    relative_wde_quadrature,
)


def test_validate_identity_ok():
    validate(Gaussian(np.zeros(3), np.eye(3)))


def test_validate_example2_spd():
    validate(example2_cov(0.3))


def test_validate_example1_rho_one_not_pd():
    cov = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError) as err:
        validate(Gaussian(np.zeros(3), cov))
    assert "minor" in str(err.value) or "eigenvalue" in str(err.value)


def test_validate_not_symmetric_names_entry():
    cov = np.eye(3)
    cov[0, 2] = 0.5
    with pytest.raises(NotSymmetricError) as err:
        validate(Gaussian(np.zeros(3), cov))
    assert "0" in str(err.value) and "2" in str(err.value)


def test_construction_validates():
    asym = np.eye(3)
    asym[0, 2] = 0.5
    with pytest.raises(NotSymmetricError):
        Gaussian(np.zeros(3), asym)
    with pytest.raises(NotPositiveDefiniteError) as err:
        Gaussian(np.zeros(2), [[1.0, 2.0], [2.0, 1.0]])
    assert "minor of order 2" in str(err.value)
    with pytest.raises(NotPositiveDefiniteError) as err:
        Gaussian(np.zeros(2), np.diag([1.0, 1e-12]))
    assert "smallest eigenvalue" in str(err.value)


def test_log_pdf_matches_dense_reference():
    rng = np.random.default_rng(29)
    for n in range(1, MAX_DIM + 1):
        mean = rng.normal(size=n)
        cov = rand_spd(rng, n)
        pts = mean + 2.0 * rng.normal(size=(64, n))
        got = Gaussian(mean, cov).log_pdf(pts)
        assert np.max(np.abs(got - gaussian_logpdf(pts, mean, cov))) <= 1e-12


def test_log_pdf_is_bit_identical_for_every_point_layout():
    # quadrature blocks are coordinate-major, Monte Carlo draws row-major
    rng = np.random.default_rng(31)
    for n in range(1, MAX_DIM + 1):
        dist = Gaussian(rng.normal(size=n), rand_spd(rng, n))
        pts = dist.mean + 2.0 * rng.normal(size=(64, n))
        ref = dist.log_pdf(pts)
        np.testing.assert_array_equal(dist.log_pdf(np.asfortranarray(pts)), ref)
        np.testing.assert_array_equal(dist.log_pdf(pts[::2]), ref[::2])
        for k in (0, 17, 63):
            np.testing.assert_array_equal(dist.log_pdf(pts[k]), ref[k : k + 1])


def test_array_containers_compare_by_identity():
    # generated == would compare array fields elementwise and raise
    from wentropy.closedform import PairConditional
    from wentropy.discrete import DiscreteJoint
    from wentropy.quadrature import CentralWeight
    from wentropy.wdic import PosteriorDraws, WeightedDataset

    def build():
        return [
            Gaussian([0.0, 0.0], np.eye(2)),
            ConditionSpec((0, 1), (2,), [0.5]),
            PairConditional(example1_cov(0.5), 1.0),
            DiscreteJoint(np.full((2, 2), 0.25), ([0.0, 1.0], [0.0, 1.0])),
            CentralWeight([0.0, 0.0]),
            WeightedDataset(np.zeros((3, 2)), np.ones(3)),
            PosteriorDraws(np.zeros((100, 2)), "test"),
        ]

    for a, b in zip(build(), build()):
        assert a == a
        assert (a == b) is False
        assert a != b
        assert len({a, a, b}) == 2


def test_condition_example1_matches_printed_form():
    rho, x3 = 0.5, 2.0
    out = condition(example1_cov(rho), ConditionSpec((0, 1), (2,), [x3]))
    assert out.mean == pytest.approx([rho**2 * x3, 0.0], abs=1e-14)
    expected = np.array([[1 - rho**4, rho], [rho, 1.0]])
    assert np.allclose(out.cov, expected, atol=1e-14)


def test_condition_example2_matches_printed_form():
    rho, x3 = 0.25, -1.5
    out = condition(example2_cov(rho), ConditionSpec((0, 1), (2,), [x3]))
    assert out.mean == pytest.approx([(1 - rho) * x3, (1 - rho) * x3], abs=1e-14)
    expected = np.array(
        [[rho * (2 - rho), -(rho**2)], [-(rho**2), rho * (2 - rho)]]
    )
    assert np.allclose(out.cov, expected, atol=1e-14)


def test_condition_rho_zero_equals_marginal():
    dist = example1_cov(0.0)
    out = condition(dist, ConditionSpec((0, 1), (2,), [1.7]))
    marg = dist.marginal([0, 1])
    assert np.allclose(out.mean, marg.mean, atol=1e-15)
    assert np.allclose(out.cov, marg.cov, atol=1e-15)


def test_condition_empty_given_is_exact_slice():
    rng = np.random.default_rng(3)
    dist = Gaussian(rng.normal(size=4), rand_spd(rng, 4))
    out = condition(dist, ConditionSpec((1, 3), (), []))
    assert np.array_equal(out.mean, dist.mean[[1, 3]])
    assert np.array_equal(out.cov, dist.cov[np.ix_([1, 3], [1, 3])])


def test_condition_schur_determinant_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dist = Gaussian(rng.normal(size=3), rand_spd(rng, 3))
        out = condition(dist, ConditionSpec((0, 1), (2,), [rng.normal()]))
        lhs = np.linalg.det(dist.cov)
        rhs = dist.cov[2, 2] * np.linalg.det(out.cov)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_one_rho_row_validates_each_derived_covariance_once(monkeypatch):
    base = example2_cov(0.3)
    calls = []
    check = gaussian.validate

    def counted(dist):
        calls.append(dist)
        check(dist)

    monkeypatch.setattr(gaussian, "validate", counted)
    rows = [PairConditional(base, x3) for x3 in np.linspace(-3.0, 3.0, 31)]
    assert len(calls) == 2  # the pair marginal and the conditional covariance
    assert all(pc.pair is rows[0].pair and pc.cond.cov is rows[0].cond.cov for pc in rows)
    assert base.marginal([0, 1]) is base.marginal([0, 1])


def test_failed_condition_keeps_nothing(monkeypatch):
    base = example1_cov(0.5)
    spec = ConditionSpec((0, 1), (2,), [1.0])

    def refuse(dist):
        raise NotPositiveDefiniteError("refused")

    monkeypatch.setattr(gaussian, "validate", refuse)
    for _ in range(2):
        with pytest.raises(NotPositiveDefiniteError):
            condition(base, spec)
    monkeypatch.undo()
    assert condition(base, spec).mean == pytest.approx([0.25, 0.0], abs=1e-15)


def test_cached_conditional_still_checks_its_mean():
    # gain 9.9: a finite value can push the conditional mean past the float range
    dist = Gaussian(np.zeros(2), [[100.0, 9.9], [9.9, 1.0]])
    condition(dist, ConditionSpec((0,), (1,), [1.0]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        condition(dist, ConditionSpec((0,), (1,), [1e308]))


def test_condition_spec_validation():
    with pytest.raises(ValueError):
        ConditionSpec((0, 1), (1,), [0.0])
    with pytest.raises(DimensionMismatchError):
        ConditionSpec((0,), (1, 2), [0.0])


def test_example1_cov_values_and_domain():
    assert np.array_equal(example1_cov(0.0).cov, np.eye(3))
    dist = example1_cov(0.5)
    assert np.linalg.det(dist.cov[:2, :2]) == pytest.approx(0.75, abs=1e-15)
    assert np.linalg.det(dist.cov) == pytest.approx(0.6875, abs=1e-15)
    with pytest.raises(NotPositiveDefiniteError):
        example1_cov(0.9)


def test_example2_cov_entries_and_domain():
    dist = example2_cov(0.25)
    assert dist.cov[0, 1] == pytest.approx(0.5)
    assert dist.cov[0, 2] == pytest.approx(0.75)
    assert dist.cov[1, 2] == pytest.approx(0.75)
    for bad in (0.0, 0.5, 0.6, -0.1):
        with pytest.raises(DomainError):
            example2_cov(bad)


def test_example2_quadratic_form_identity():
    # C' S C = (1-rho)(c1+c2+c3)^2 + rho(c1-c2)^2 + rho c3^2; the probe
    # C = (1, -1, 0) gives 2 - 2*S12 = 4 rho on both sides
    rng = np.random.default_rng(42)
    for rho in (0.1, 0.25, 0.4):
        cov = example2_cov(rho).cov
        for _ in range(100):
            c = rng.normal(size=3)
            lhs = c @ cov @ c
            rhs = (
                (1 - rho) * c.sum() ** 2
                + rho * (c[0] - c[1]) ** 2
                + rho * c[2] ** 2
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)
    c = np.array([1.0, -1.0, 0.0])
    cov = example2_cov(0.25).cov
    assert c @ cov @ c == pytest.approx(1.0, abs=1e-15)
    zero = np.zeros(3)
    assert zero @ cov @ zero == 0.0


def test_gaussian_de_univariate_values():
    dist = Gaussian([0.0], [[1.0]])
    assert gaussian_de(dist, "corrected") == pytest.approx(
        0.5 * math.log(2 * math.pi * math.e), abs=1e-14
    )
    assert gaussian_de(dist, "paper") == pytest.approx(
        0.5 * math.log(2 * math.pi), abs=1e-14
    )


def test_gaussian_de_mode_offset_is_half_dim():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        dist = Gaussian(rng.normal(size=n), rand_spd(rng, n))
        diff = gaussian_de(dist, "corrected") - gaussian_de(dist, "paper")
        assert diff == pytest.approx(n / 2, abs=1e-14)


def test_gaussian_de_matches_quadrature_50_seeds():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        dist = Gaussian(rng.normal(size=3), rand_spd(rng, 3))
        grid = GridSpec.for_gaussian(dist, 48)
        assert gaussian_de(dist, "corrected") == pytest.approx(
            de_quadrature(dist.pdf, grid), abs=1e-5
        )
    # a first axis that splits into several blocks of whole slabs plus a
    # shorter remainder block
    dist = Gaussian(rng.normal(size=3), rand_spd(rng, 3))
    box = GridSpec.for_gaussian(dist, 64)
    lo, hi, _ = box.axes[0]
    grid = GridSpec(((lo, hi, 72),) + box.axes[1:])
    per_block = BLOCK_POINTS // 64**2
    assert 1 < per_block < 72 and 72 % per_block != 0
    assert gaussian_de(dist, "corrected") == pytest.approx(
        de_quadrature(dist.pdf, grid), abs=1e-5
    )


def test_gaussian_kl_zero_iff_equal_and_nonnegative():
    rng = np.random.default_rng(5)
    dist = Gaussian(rng.normal(size=3), rand_spd(rng, 3))
    assert gaussian_kl(dist, dist) == 0.0
    for _ in range(20):
        f = Gaussian(rng.normal(size=3), rand_spd(rng, 3))
        g = Gaussian(rng.normal(size=3), rand_spd(rng, 3))
        assert gaussian_kl(f, g) >= 0.0


@pytest.mark.parametrize("dim", range(1, 7))
def test_gaussian_kl_matches_dense_inverse_formula(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(10):
        f = Gaussian(rng.normal(size=dim), rand_spd(rng, dim))
        g = Gaussian(rng.normal(size=dim), rand_spd(rng, dim))
        inv = np.linalg.inv(g.cov)
        diff = g.mean - f.mean
        dense = 0.5 * (
            np.trace(inv @ f.cov) + diff @ inv @ diff - dim
            + np.linalg.slogdet(g.cov)[1] - np.linalg.slogdet(f.cov)[1]
        )
        assert gaussian_kl(f, g) == pytest.approx(dense, rel=1e-12)


def test_gaussian_kl_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        gaussian_kl(Gaussian([0.0], [[1.0]]), Gaussian([0.0, 0.0], np.eye(2)))


def test_gaussian_kl_matches_quadrature():
    f = Gaussian([0.3], [[1.2]])
    g = Gaussian([-0.5], [[0.8]])
    grid = GridSpec.for_gaussians([f, g], 4096)
    quad = relative_wde_quadrature(f.pdf, g.pdf, None, grid)
    assert gaussian_kl(f, g) == pytest.approx(quad, abs=1e-6)


def test_gaussian_kl_conditional_vs_marginal():
    # independent third coordinate: conditioning changes nothing
    dist = example1_cov(0.0)
    cond = condition(dist, ConditionSpec((0, 1), (2,), [1.0]))
    assert gaussian_kl(cond, dist.marginal([0, 1])) == pytest.approx(0.0, abs=1e-15)
    # coupled case: the divergence equals the transcribed closed form minus 1
    rho, x3 = 0.4, 1.0
    dist = example1_cov(rho)
    cond = condition(dist, ConditionSpec((0, 1), (2,), [x3]))
    printed = (
        0.5 * math.log((1 - rho**2) / (1 - rho**2 - rho**4))
        + rho**4 / (2 * (1 - rho**2)) * (x3**2 - 1)
        + 1.0
    )
    assert gaussian_kl(cond, dist.marginal([0, 1])) == pytest.approx(
        printed - 1.0, abs=1e-12
    )
