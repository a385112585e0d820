import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    de_quadrature,
    gaussian_logpdf,
    rand_spd,
    reference_log_pdf,
    reference_validate,
)
from wentropy import gaussian
from wentropy.closedform import PairConditional
from wentropy.errors import (
    DimensionMismatchError,
    DomainError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    WentropyError,
)
from wentropy.gaussian import (
    MAX_DIM,
    SPD_EIG_RATIO,
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


def _verdict(check, cov):
    """None when ``check`` passes ``cov``, else its error type and message."""
    try:
        check(SimpleNamespace(cov=cov, dim=cov.shape[0]))
    except WentropyError as exc:
        return type(exc), str(exc)
    return None


def _parity_cases(rng, d):
    """Symmetric d x d matrices on both sides of every positive-definiteness verdict."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))

    def spectrum(eigs):
        cov = (q * np.asarray(eigs, dtype=float)) @ q.T
        return (cov + cov.T) / 2

    ones = np.ones(d - 1)
    spd = rand_spd(rng, d)
    return {
        "spd": spd,
        "ratio-above": spectrum([SPD_EIG_RATIO * 1.01, *ones]),
        "ratio-below": spectrum([SPD_EIG_RATIO * 0.99, *ones]),
        "singular-psd": spectrum([0.0, *rng.uniform(0.5, 2.0, d - 1)]),
        "indefinite": spectrum([-0.5, *rng.uniform(0.5, 2.0, d - 1)]),
        "negative-definite": -spd,
        "zero": np.zeros((d, d)),
    }


def test_validate_matches_the_minor_then_eigenvalue_reference():
    # same pass, or same error type and message, as the check that runs every
    # leading minor before the eigenvalue ratio; the zero matrix passes the
    # ratio alone (0 >= SPD_EIG_RATIO * 0), so it pins the positivity test
    rng = np.random.default_rng(2027)
    seen = set()
    for d in range(1, MAX_DIM + 1):
        for _ in range(4):
            for name, cov in _parity_cases(rng, d).items():
                got = _verdict(validate, cov)
                assert got == _verdict(reference_validate, cov), (d, name)
                seen.add("pass" if got is None else got[1].split(" ")[0])
    # the cases reach the pass and both refusals
    assert seen == {"pass", "leading", "smallest"}


def test_validate_passes_a_tiny_identity_whose_minors_underflow():
    # the one verdict that differs from the reference: 1e-200 I is positive
    # definite with condition number 1, but its 2 x 2 determinant underflows to 0
    cov = 1e-200 * np.eye(2)
    assert _verdict(validate, cov) is None
    assert _verdict(reference_validate, cov) == (
        NotPositiveDefiniteError,
        "leading principal minor of order 2 is 0.000000e+00 (must be > 0)",
    )
    assert Gaussian(np.zeros(2), cov).log_det == pytest.approx(2 * math.log(1e-200), rel=1e-15)


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
            np.testing.assert_array_equal(dist.log_pdf(pts[k].tolist()), ref[k : k + 1])
        # a tuple is read as coordinate arrays, a list as points
        np.testing.assert_array_equal(dist.log_pdf(tuple(pts.T)), ref)
        np.testing.assert_array_equal(dist.log_pdf(pts.tolist()), ref)


def test_log_pdf_on_an_open_mesh_is_bit_identical_to_the_points():
    rng = np.random.default_rng(37)
    for n in range(1, MAX_DIM + 1):
        dist = Gaussian(rng.normal(size=n), rand_spd(rng, n))
        axes = [dist.mean[k] + 2.0 * rng.normal(size=5 - (k % 3)) for k in range(n)]
        mesh = np.ix_(*axes)
        got = dist.log_pdf(mesh)
        assert got.shape == tuple(a.size for a in axes)
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grid], axis=-1)
        np.testing.assert_array_equal(got.ravel(), dist.log_pdf(pts))
        np.testing.assert_array_equal(dist.pdf(mesh).ravel(), dist.pdf(pts))
    with pytest.raises(DimensionMismatchError, match="points have dimension 2, expected 3"):
        example1_cov(0.4).log_pdf(np.ix_([0.0], [1.0]))


def test_log_pdf_and_pdf_finish_in_place_with_the_reference_bits():
    # a 96^3 open mesh in the quadrature's blocks of whole first-axis slabs
    dist = example1_cov(0.5)
    grid = GridSpec.for_gaussians([dist], 96)
    mesh = np.ix_(*(grid.axis_centers(k) for k in range(3)))
    saved = [x.copy() for x in mesh]
    step = BLOCK_POINTS // (96 * 96)
    assert 96 // step > 2  # several blocks
    for start in range(0, 96, step):
        block = (mesh[0][start : start + step],) + mesh[1:]
        want = reference_log_pdf(dist, block)
        np.testing.assert_array_equal(dist.log_pdf(block), want)
        np.testing.assert_array_equal(dist.pdf(block), np.exp(want))
    for x, before in zip(mesh, saved):
        np.testing.assert_array_equal(x, before)
    # (m, d) points and one point, for every dimension
    rng = np.random.default_rng(41)
    for n in range(1, MAX_DIM + 1):
        dist = Gaussian(rng.normal(size=n), rand_spd(rng, n))
        pts = dist.mean + 2.0 * rng.normal(size=(50, n))
        for arg in (pts, pts[7], tuple(pts.T)):
            saved = [np.array(x, copy=True) for x in arg]
            want = reference_log_pdf(dist, arg)
            np.testing.assert_array_equal(dist.log_pdf(arg), want)
            np.testing.assert_array_equal(dist.pdf(arg), np.exp(want))
            for x, before in zip(arg, saved):
                np.testing.assert_array_equal(x, before)


def test_pdf_at_coordinate_scalars_is_a_scalar():
    dist = example1_cov(0.3)
    point = [0.2, -0.1, 0.4]
    assert dist.pdf(tuple(point)) == dist.pdf(point)[0]


def test_central_weight_reads_coordinates_and_points_alike():
    from wentropy.quadrature import CentralWeight

    rng = np.random.default_rng(41)
    weight = CentralWeight([0.3, -0.7, 1.1])
    pts = rng.normal(size=(50, 3))
    ref = weight(pts)
    np.testing.assert_array_equal(weight(tuple(pts.T)), ref)
    np.testing.assert_array_equal(weight(pts.tolist()), ref)
    np.testing.assert_array_equal(weight(pts[7]), ref[7:8])
    mesh = np.ix_(pts[:4, 0], pts[:5, 1], pts[:6, 2])
    grid = np.stack([g.ravel() for g in np.meshgrid(*mesh, indexing="ij")], axis=-1)
    np.testing.assert_array_equal(weight(mesh).ravel(), weight(grid))


@pytest.mark.parametrize("dim", range(1, 7))
def test_sampler_draws_mean_plus_normals_times_the_transposed_factor(dim):
    # the sampler multiplies by a C-ordered copy of L^T and adds the mean one
    # column at a time; from the same stream, its draws keep the bits of mean
    # plus the product with the transposed view, except that one lone draw
    # goes through another BLAS kernel and may differ in its last bits
    rng = np.random.default_rng(40 + dim)
    g = Gaussian(rng.normal(size=dim), rand_spd(rng, dim))
    lower = np.linalg.cholesky(g.cov)
    draw = g.sampler()
    for n in (1, 2, 17, 1001):
        draws = draw(np.random.default_rng(dim), n)
        z = np.random.default_rng(dim).standard_normal((n, dim))
        expected = g.mean + z @ lower.T
        assert draws.shape == (n, dim)
        if n == 1:
            np.testing.assert_allclose(draws, expected, rtol=0, atol=1e-14)
        else:
            assert np.array_equal(draws, expected)


def test_array_containers_compare_by_identity():
    # generated == would compare array fields elementwise and raise
    from wentropy.closedform import PairConditional
    from wentropy.discrete import DiscreteJoint
    from wentropy.quadrature import CentralWeight
    from wentropy.wdic import PosteriorDraws, WeightedDataset

    def build():
        return [
            Gaussian([0.0, 0.0], np.eye(2)),
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
    out = condition(example1_cov(rho), (0, 1), (2,), [x3])
    assert out.mean == pytest.approx([rho**2 * x3, 0.0], abs=1e-14)
    expected = np.array([[1 - rho**4, rho], [rho, 1.0]])
    assert np.allclose(out.cov, expected, atol=1e-14)


def test_condition_example2_matches_printed_form():
    rho, x3 = 0.25, -1.5
    out = condition(example2_cov(rho), (0, 1), (2,), [x3])
    assert out.mean == pytest.approx([(1 - rho) * x3, (1 - rho) * x3], abs=1e-14)
    expected = np.array(
        [[rho * (2 - rho), -(rho**2)], [-(rho**2), rho * (2 - rho)]]
    )
    assert np.allclose(out.cov, expected, atol=1e-14)


def test_condition_rho_zero_equals_marginal():
    dist = example1_cov(0.0)
    out = condition(dist, (0, 1), (2,), [1.7])
    marg = dist.marginal([0, 1])
    assert np.allclose(out.mean, marg.mean, atol=1e-15)
    assert np.allclose(out.cov, marg.cov, atol=1e-15)


def test_condition_empty_given_is_exact_slice():
    rng = np.random.default_rng(3)
    dist = Gaussian(rng.normal(size=4), rand_spd(rng, 4))
    out = condition(dist, (1, 3), (), [])
    assert np.array_equal(out.mean, dist.mean[[1, 3]])
    assert np.array_equal(out.cov, dist.cov[np.ix_([1, 3], [1, 3])])


def test_a_block_of_values_on_a_fresh_base_matches_each_value():
    # a block and each of its values, each on its own fresh base: one shared
    # covariance, the bits of every value's own, and a mean per value
    rng = np.random.default_rng(12)
    for given in ((2,), (0, 3)):
        kept = tuple(i for i in range(4) if i not in given)
        for _ in range(10):
            mean, cov = rng.normal(size=4), rand_spd(rng, 4)
            block = rng.normal(size=(len(given), 6))
            got = condition(Gaussian(mean, cov), kept, given, block)
            assert got.mean.shape == (len(kept), 6) and got.cov.shape == (len(kept),) * 2 + (1,)
            for k in range(6):
                one = condition(Gaussian(mean, cov), kept, given, block[:, k])
                _same_bytes(got.cov[..., 0], one.cov)
                if len(given) == 1:
                    assert got.mean[:, k].tobytes() == one.mean.tobytes()
                else:
                    assert got.mean[:, k] == pytest.approx(one.mean, rel=1e-14, abs=1e-14)
    for given in ((3,), (-1,)):
        with pytest.raises(ValueError, match=f"index {given[0]} out of range"):
            condition(example1_cov(0.5), (0,), given, [0.0])


def test_condition_schur_determinant_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dist = Gaussian(rng.normal(size=3), rand_spd(rng, 3))
        out = condition(dist, (0, 1), (2,), [rng.normal()])
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
    row = PairConditional(base, np.linspace(-3.0, 3.0, 31))
    assert calls == [row.pair, row.cond]  # the pair marginal and the conditional
    assert base.marginal([0, 1]) is not base.marginal([0, 1])  # each one a new Gaussian


def _batch(rng, dim, shape):
    """Random means and covariances of a batch: member arrays, and the batch layout."""
    means = rng.normal(size=shape + (dim,))
    covs = np.stack([rand_spd(rng, dim) for _ in range(math.prod(shape))]).reshape(shape + (dim, dim))
    covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    return means, covs, np.moveaxis(means, -1, 0), np.moveaxis(covs, (-2, -1), (0, 1))


def _same_bytes(got, want):
    assert np.ascontiguousarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_a_batch_holds_each_members_bits(dim):
    # every cached field, the marginal and the conditional given one coordinate
    # (every product of inner dimension 1) against the member built alone, bit
    # for bit.  A longer inner dimension may round differently in a stacked
    # BLAS product (its kernels depend on alignment), so those are within ulps
    rng = np.random.default_rng(dim)
    means, covs, mean, cov = _batch(rng, dim, (2, 3))
    batch = Gaussian(mean, cov)
    kept, given, wide = tuple(range(dim - 1)), (dim - 1,), tuple(range(1, dim))
    block, columns = rng.normal(size=(1, 4)), rng.normal(size=(dim, 2, 3, 5))
    peers = np.roll(mean, 1, axis=-1), np.roll(cov, 1, axis=-1)
    exact = batch.marginal(kept), condition(batch, kept, given, [0.7])
    shared = Gaussian(columns, cov[..., None]), Gaussian(peers[0][..., None], peers[1][..., None])
    close = (  # batch axes first
        np.moveaxis(condition(batch, (0,), wide, np.ones(dim - 1)).mean, 0, -1),
        gaussian_kl(batch, Gaussian(*peers)), gaussian_kl(*shared),
    )
    assert batch.batch == (2, 3) and np.shape(batch.log_det) == (2, 3)
    for index in np.ndindex(2, 3):
        alone, at = Gaussian(means[index], covs[index]), (...,) + index
        for field in ("mean", "cov", "log_det", "precision", "_inv_lower"):
            _same_bytes(np.asarray(getattr(batch, field))[at], getattr(alone, field))
        _same_bytes(batch.chol()[at], alone.chol())
        for got, want in zip(exact, (alone.marginal(kept), condition(alone, kept, given, [0.7]))):
            for field in ("mean", "cov", "log_det", "precision"):
                _same_bytes(np.asarray(getattr(got, field))[at], getattr(want, field))
            _same_bytes(got.chol()[at], want.chol())
        for field in ("mean", "cov"):
            _same_bytes(getattr(condition(batch, kept, given, block), field)[at + (slice(None),)],
                        getattr(condition(alone, kept, given, block), field))
        peer = Gaussian(peers[0][at], peers[1][at])
        want = (
            condition(alone, (0,), wide, np.ones(dim - 1)).mean,
            gaussian_kl(alone, peer),
            gaussian_kl(Gaussian(columns[(slice(None),) + index], alone.cov[..., None]),
                        Gaussian(peer.mean[:, None], peer.cov[..., None])),
        )
        assert condition(alone, (0,), wide, np.ones(dim - 1)).cov.tobytes() == (
            np.ascontiguousarray(condition(batch, (0,), wide, np.ones(dim - 1)).cov[at]).tobytes()
        )
        for got, value in zip(close, want):
            np.testing.assert_allclose(got[index], value, rtol=1e-14, atol=1e-15)


def test_a_block_of_values_conditions_each_member_at_each_value():
    rng = np.random.default_rng(8)
    means, covs, mean, cov = _batch(rng, 3, (4,))
    batch, values = Gaussian(mean, cov), np.array([[-1.0, 0.0, 2.5]])
    cond = condition(batch, (0, 1), (2,), values)
    assert cond.batch == (4, 3) and cond.cov.shape == (2, 2, 4, 1)  # one covariance per member
    for b, k in np.ndindex(4, 3):
        alone = condition(Gaussian(means[b], covs[b]), (0, 1), (2,), values[:, k])
        _same_bytes(cond.mean[:, b, k], alone.mean)
        _same_bytes(cond.cov[:, :, b, 0], alone.cov)


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_a_shared_covariance_gives_each_member_its_bits_alone(dim):
    # a (2, 1) batch of covariances under a (2, 4) batch of means: validated,
    # factored and inverted once per covariance, each member as if built alone
    rng = np.random.default_rng(40 + dim)
    means, covs, _, cov = _batch(rng, dim, (2, 1))
    mean = rng.normal(size=(dim, 2, 4))
    shared = Gaussian(mean, cov)
    assert shared.batch == (2, 4) and shared.cov.shape == (dim, dim, 2, 1)
    assert np.shape(shared.log_det) == (2, 1) and shared.precision.shape == (dim, dim, 2, 1)
    for b, k in np.ndindex(2, 4):
        alone = Gaussian(mean[:, b, k], covs[b, 0])
        _same_bytes(shared.mean[:, b, k], alone.mean)
        for field in ("cov", "log_det", "precision"):
            _same_bytes(np.asarray(getattr(shared, field))[..., b, 0], getattr(alone, field))
        _same_bytes(shared.chol()[..., b, 0], alone.chol())


def _refusal(mean, cov):
    with pytest.raises((ValueError, WentropyError)) as refused:
        Gaussian(mean, cov)
    return type(refused.value), str(refused.value)


ASYMMETRIC = np.array([[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]])
BAD_MEMBERS = {
    "non-finite mean": (np.array([0.0, np.nan, 0.0]), np.eye(3)),
    "non-finite cov": (np.zeros(3), np.diag([1.0, np.inf, 1.0])),
    "not symmetric": (np.zeros(3), ASYMMETRIC),
    "minor not positive": (np.zeros(3), np.diag([1.0, -1.0, 1.0])),
    "eigenvalue ratio": (np.zeros(3), np.diag([1.0, 1e-12, 1.0])),
}


@pytest.mark.parametrize("kind", sorted(BAD_MEMBERS))
def test_a_refused_batch_names_its_first_refused_member(kind):
    # the error the member raises alone, with its batch index; a later member
    # refused for another reason does not take its place, in C order
    bad_mean, bad_cov = BAD_MEMBERS[kind]
    error, message = _refusal(bad_mean, bad_cov)
    for other in sorted(set(BAD_MEMBERS) - {kind}):
        mean, cov = np.zeros((3, 2, 4)), np.repeat(np.eye(3)[..., None, None], 2, -2).repeat(4, -1)
        mean[:, 1, 2], cov[:, :, 1, 2] = bad_mean, bad_cov
        mean[:, 1, 3], cov[:, :, 1, 3] = BAD_MEMBERS[other]
        assert _refusal(mean, cov) == (error, f"{message} (batch member (1, 2))"), other


@pytest.mark.parametrize("kind", sorted(BAD_MEMBERS))
def test_a_refused_shared_covariance_names_its_first_member(kind):
    # a bad covariance (1, 0) shared by the means (1, 0..3) is named as member
    # (1, 0), the first of them in C order; a bad mean as its own member
    bad_mean, bad_cov = BAD_MEMBERS[kind]
    error, message = _refusal(bad_mean, bad_cov)
    mean, cov = np.zeros((3, 2, 4)), np.repeat(np.eye(3)[..., None, None], 2, -2)
    cov[:, :, 1, 0] = bad_cov
    mean[:, 1, 2] = bad_mean
    member = (1, 2) if kind == "non-finite mean" else (1, 0)
    assert _refusal(mean, cov) == (error, f"{message} (batch member {member})")


def test_a_batch_keeps_the_unbatched_shape_refusals():
    with pytest.raises(DimensionMismatchError, match=r"^cov shape \(3, 3\) does not match mean length 2$"):
        Gaussian(np.zeros(2), np.eye(3))
    with pytest.raises(DimensionMismatchError,
                       match=r"^cov shape \(3, 3, 4\) does not match mean shape \(3, 5\)$"):
        Gaussian(np.zeros((3, 5)), np.zeros((3, 3, 4)))
    # a shared covariance axis has length 1, never another length nor a longer one
    eye = np.eye(3)[..., None, None]
    for mean_shape, cov_shape in (((3, 2, 4), (3, 3, 2, 3)), ((3, 1, 4), (3, 3, 2, 4))):
        with pytest.raises(DimensionMismatchError) as refused:
            Gaussian(np.zeros(mean_shape), np.broadcast_to(eye, cov_shape))
        assert str(refused.value) == f"cov shape {cov_shape} does not match mean shape {mean_shape}"
    with pytest.raises(ValueError, match=r"^cov must be 3-dimensional, got shape \(3, 3\)$"):
        Gaussian(np.zeros((3, 5)), np.eye(3))


def test_single_distribution_methods_refuse_a_batch():
    batch = example2_cov(np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match=r"^sampler takes one distribution, got a batch "
                                         r"of shape \(2,\)$"):
        batch.sampler()
    with pytest.raises(DimensionMismatchError, match=r"^batches differ: \(2,\) vs \(\)$"):
        gaussian_kl(batch, example2_cov(0.1))
    with pytest.raises(DimensionMismatchError, match=r"^batches differ: \(2,\) vs \(3,\)$"):
        gaussian_kl(batch, example2_cov(np.array([0.1, 0.2, 0.3])))


@pytest.mark.parametrize("make, rhos, bad, message", [
    (example1_cov, [-0.7, 0.0, 0.5], 0.9, "rho=0.9 violates 1 - rho^2 - rho^4 > 0"),
    (example2_cov, [0.01, 0.25, 0.49], 0.5, "rho outside (0, 0.5): 0.5"),
])
def test_a_family_of_rhos_is_one_batch_of_its_members(make, rhos, bad, message):
    batch = make(np.array(rhos))
    assert batch.batch == (3,)
    for b, rho in enumerate(rhos):
        _same_bytes(batch.cov[:, :, b], make(rho).cov)
        _same_bytes(batch.mean[:, b], make(rho).mean)
    with pytest.raises(WentropyError) as refused:  # the first bad rho, as a single rho
        make(np.array([rhos[0], bad, 2.0]))
    assert str(refused.value) == message


def test_failed_condition_keeps_nothing(monkeypatch):
    base = example1_cov(0.5)

    def refuse(dist):
        raise NotPositiveDefiniteError("refused")

    monkeypatch.setattr(gaussian, "validate", refuse)
    for _ in range(2):
        with pytest.raises(NotPositiveDefiniteError):
            condition(base, (0, 1), (2,), [1.0])
    monkeypatch.undo()
    assert condition(base, (0, 1), (2,), [1.0]).mean == pytest.approx([0.25, 0.0], abs=1e-15)


def test_condition_refuses_a_mean_that_leaves_the_float_range():
    # gain 9.9: a finite value can push the conditional mean past the float range
    dist = Gaussian(np.zeros(2), [[100.0, 9.9], [9.9, 1.0]])
    condition(dist, (0,), (1,), [1.0])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        condition(dist, (0,), (1,), [1e308])


BAD_SPLITS = [
    ((0, 1), (1,), [0.0], ValueError, r"^kept \(0, 1\) and given \(1,\) overlap$"),
    ((0, 0), (2,), [0.0], ValueError, r"^kept/given indices must be distinct$"),
    ((0,), (2, 2), [0.0, 0.0], ValueError, r"^kept/given indices must be distinct$"),
    ((0,), (3,), [0.0], ValueError, r"^index 3 out of range for dimension 3$"),
    ((0,), (1, 2), [0.0], DimensionMismatchError,
     r"^value length 1 does not match given set size 2$"),
    ((0,), (1,), np.zeros((1, 2, 2)), ValueError,
     r"^value must be 1-dimensional, got shape \(1, 2, 2\)$"),
    ((0,), (1,), [np.nan], ValueError, r"^value contains non-finite entries$"),
    ((0,), (1,), [[0.0, np.inf]], ValueError, r"^value contains non-finite entries$"),
]


def test_condition_refuses_a_bad_split_or_value():
    for kept, given, value, error, message in BAD_SPLITS:
        with pytest.raises(error, match=message):
            condition(example1_cov(0.5), kept, given, value)


def test_a_bad_split_is_refused_after_a_good_call():
    base = example1_cov(0.5)
    condition(base, (0, 1), (2,), [1.0])
    for kept, given, value, error, message in BAD_SPLITS:
        with pytest.raises(error, match=message):
            condition(base, kept, given, value)
    # a known split still checks its value on every call
    with pytest.raises(DimensionMismatchError, match="value length 2 does not match"):
        condition(base, (0, 1), (2,), [1.0, 2.0])
    with pytest.raises(ValueError, match="value contains non-finite entries"):
        condition(base, (0, 1), (2,), [np.nan])


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
        grid = GridSpec.for_gaussians([dist], 48)
        assert gaussian_de(dist, "corrected") == pytest.approx(
            de_quadrature(dist.pdf, grid), abs=1e-5
        )
    # a first axis that splits into several blocks of whole slabs plus a
    # shorter remainder block
    dist = Gaussian(rng.normal(size=3), rand_spd(rng, 3))
    box = GridSpec.for_gaussians([dist], 64)
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


def _one_mean_kl(f, g) -> float:
    """The one-mean expression of ``gaussian_kl``, from the public factors."""
    inv_lower = np.linalg.inv(g.chol())
    a = inv_lower @ f.chol()
    z = inv_lower @ (g.mean - f.mean)
    return 0.5 * (float(np.sum(a * a)) + float(z @ z) - f.dim + (g.log_det - f.log_det))


@pytest.mark.parametrize("dim", range(1, 7))
def test_gaussian_kl_block_of_means_matches_the_one_mean_calls(dim):
    rng = np.random.default_rng(200 + dim)
    for _ in range(10):
        f = Gaussian(rng.normal(size=dim), rand_spd(rng, dim))
        g = Gaussian(rng.normal(size=dim), rand_spd(rng, dim))
        means = rng.normal(size=(dim, 9))  # nine means on f's covariance, against g
        shared = Gaussian(means, f.cov[..., None])
        block = gaussian_kl(shared, Gaussian(g.mean[:, None], g.cov[..., None]))
        assert block.shape == (9,)
        for k in range(9):
            one = gaussian_kl(Gaussian(means[:, k], f.cov), g)
            assert one == _one_mean_kl(Gaussian(means[:, k], f.cov), g)  # its bits kept
            assert block[k] == pytest.approx(one, rel=1e-15, abs=0.0)
        assert gaussian_kl(f, g) == _one_mean_kl(f, g)


def test_gaussian_kl_block_on_the_relative_de_points():
    # verify's 29 x 31 (rho, x3) scan, one call as verify makes it, against 899 one-mean calls
    rhos, x3s = np.linspace(-0.7, 0.7, 29), np.linspace(-3.0, 3.0, 31)
    grid = PairConditional(example1_cov(rhos), x3s)
    block = gaussian_kl(grid.cond, grid.pair)
    assert block.shape == (29, 31)
    for b, rho in enumerate(rhos):
        base = example1_cov(rho)
        pair = base.marginal([0, 1])
        for k, x3 in enumerate(x3s):
            one = gaussian_kl(condition(base, (0, 1), (2,), [x3]), pair)
            assert block[b, k] == pytest.approx(one, rel=1e-15, abs=0.0)


def test_gaussian_kl_matches_quadrature():
    f = Gaussian([0.3], [[1.2]])
    g = Gaussian([-0.5], [[0.8]])
    grid = GridSpec.for_gaussians([f, g], 4096)
    quad = relative_wde_quadrature(f.pdf, g.pdf, None, grid)
    assert gaussian_kl(f, g) == pytest.approx(quad, abs=1e-6)


def test_gaussian_kl_conditional_vs_marginal():
    # independent third coordinate: conditioning changes nothing
    dist = example1_cov(0.0)
    cond = condition(dist, (0, 1), (2,), [1.0])
    assert gaussian_kl(cond, dist.marginal([0, 1])) == pytest.approx(0.0, abs=1e-15)
    # coupled case: the divergence equals the transcribed closed form minus 1
    rho, x3 = 0.4, 1.0
    dist = example1_cov(rho)
    cond = condition(dist, (0, 1), (2,), [x3])
    printed = (
        0.5 * math.log((1 - rho**2) / (1 - rho**2 - rho**4))
        + rho**4 / (2 * (1 - rho**2)) * (x3**2 - 1)
        + 1.0
    )
    assert gaussian_kl(cond, dist.marginal([0, 1])) == pytest.approx(
        printed - 1.0, abs=1e-12
    )
