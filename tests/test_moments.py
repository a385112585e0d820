import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binomial_shifted_moment, grid_moment, pairing_moment, rand_spd
from wentropy.errors import DimensionMismatchError, OddOrderError, OrderCapError
from wentropy.moments import central_moment, count_matchings, shifted_moment, shifted_moments


def test_pair_squares_formula():
    rng = np.random.default_rng(0)
    cov = rand_spd(rng, 2)
    expected = cov[0, 0] * cov[1, 1] + 2 * cov[0, 1] ** 2
    assert central_moment(cov, (2, 2)) == pytest.approx(expected, rel=1e-14)


def test_triple_squares_formula():
    rng = np.random.default_rng(1)
    s = rand_spd(rng, 3)
    expected = (
        s[0, 0] * (s[1, 1] * s[2, 2] + 2 * s[1, 2] ** 2)
        + 2 * s[0, 1] * (s[0, 1] * s[2, 2] + 2 * s[0, 2] * s[1, 2])
        + 2 * s[0, 2] * (2 * s[0, 1] * s[1, 2] + s[0, 2] * s[1, 1])
    )
    assert central_moment(s, (2, 2, 2)) == pytest.approx(expected, rel=1e-14)


def test_cubic_linear_moment():
    # E[Y1^3 Y2] = 3 S11 S12: zero at the identity, not by the odd-order rule
    assert central_moment(np.eye(2), (3, 1)) == 0.0
    rng = np.random.default_rng(2)
    cov = rand_spd(rng, 2)
    assert central_moment(cov, (3, 1)) == pytest.approx(
        3 * cov[0, 0] * cov[0, 1], rel=1e-14
    )


def test_odd_total_order_is_exact_zero():
    rng = np.random.default_rng(3)
    cov = rand_spd(rng, 3)
    assert central_moment(cov, (1, 1, 1)) == 0.0
    assert central_moment(cov, (3, 1, 1)) == 0.0
    assert central_moment(cov, (0, 0, 1)) == 0.0


def test_count_matchings_values():
    assert count_matchings(0) == 1
    assert count_matchings(2) == 1
    assert count_matchings(6) == 15
    assert count_matchings(8) == 105
    assert count_matchings(12) == 10395
    with pytest.raises(OddOrderError):
        count_matchings(5)
    with pytest.raises(OrderCapError):
        count_matchings(14)


def test_order_cap_and_dimension_checks():
    cov = np.eye(2)
    with pytest.raises(OrderCapError):
        central_moment(cov, (7, 6))
    with pytest.raises(DimensionMismatchError):
        central_moment(cov, (2, 2, 2))
    with pytest.raises(DimensionMismatchError):
        shifted_moment(cov, [0.0], (2, 2))


def test_shifted_moments_rows_equal_single_calls():
    rng = np.random.default_rng(22)
    cov = rand_spd(rng, 3)
    deltas = rng.normal(size=3)
    rows = [(2, 2, 2), (3, 2, 2), (2, 3, 3), (0, 0, 0), (4, 0, 1), (2, 2, 2)]
    assert shifted_moments(cov, deltas, rows) == [
        shifted_moment(cov, deltas, r) for r in rows
    ]
    assert shifted_moments(cov, deltas, []) == []
    for bad, error in (((7, 6, 0), OrderCapError), ((2, 2), DimensionMismatchError),
                       ((2, -1, 0), ValueError)):
        with pytest.raises(error) as single:
            shifted_moment(cov, deltas, bad)
        with pytest.raises(error) as batch:
            shifted_moments(cov, deltas, [(2, 2, 2), bad])
        assert str(batch.value) == str(single.value)
    with pytest.raises(DimensionMismatchError):
        shifted_moments(cov, deltas[:2], rows)
    with pytest.raises(ValueError):
        shifted_moments(cov, [0.0, np.nan, 0.0], rows)


def test_shifted_moments_batch_equals_per_column_calls_bit_for_bit():
    rng = np.random.default_rng(23)
    cov = rand_spd(rng, 3)
    deltas = rng.normal(size=(3, 7))
    deltas[:, 0] = 0.0
    deltas[:, 1] = -0.0
    deltas[0, 2], deltas[1, 3], deltas[2, 4] = 0.0, -0.0, 0.0
    deltas[1, 5:] = [-0.0, 0.0]
    # odd and low orders too: E[Y_k + delta_k] is where a zero shift's sign shows
    rows = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 2, 2),
            (3, 2, 2), (2, 3, 3), (4, 0, 1), (0, 5, 0), (2, 2, 2)]
    batch = shifted_moments(cov, deltas, rows)
    for r, values in zip(rows, batch):
        single = [shifted_moment(cov, deltas[:, k], r) for k in range(deltas.shape[1])]
        assert values.shape == (deltas.shape[1],)
        assert values.tobytes() == np.array(single).tobytes(), r
    # a mean row that is zero in every column, as the first family's second coordinate
    deltas[1] = 0.0
    for r, values in zip(rows, shifted_moments(cov, deltas, rows)):
        single = [shifted_moment(cov, deltas[:, k], r) for k in range(deltas.shape[1])]
        assert values.tobytes() == np.array(single).tobytes(), r


def test_shifted_moments_batch_errors_match_single_calls():
    cov = np.eye(3)
    rows = [(2, 2, 2)]
    with pytest.raises(DimensionMismatchError, match="does not match dimension 3"):
        shifted_moments(cov, np.zeros(4), rows)
    for shape in ((4, 5), (3, 5, 1)):
        with pytest.raises(DimensionMismatchError, match="does not match dimension 3"):
            shifted_moments(cov, np.zeros(shape), rows)
    batch = np.zeros((3, 5))
    batch[2, 3] = np.nan
    with pytest.raises(ValueError) as single:
        shifted_moments(cov, [0.0, 0.0, np.nan], rows)
    with pytest.raises(ValueError) as batched:
        shifted_moments(cov, batch, rows)
    assert str(batched.value) == str(single.value)


def test_matches_pair_partition_reference_200_specs():
    # the recursion against the enumeration it replaced: d <= 4, order <= 12,
    # every odd-numbered spec shifted
    rng = np.random.default_rng(20)
    for n in range(200):
        d = int(rng.integers(1, 5))
        order = int(rng.integers(0, 13))
        spec = tuple(int(e) for e in rng.multinomial(order, np.full(d, 1.0 / d)))
        cov = rand_spd(rng, d)
        if n % 2:
            deltas = rng.normal(scale=1.5, size=d)
            got = shifted_moment(cov, deltas, spec)
            ref = binomial_shifted_moment(cov, deltas, spec)
        else:
            got = central_moment(cov, spec)
            ref = pairing_moment(cov, spec)
        assert got == pytest.approx(ref, rel=1e-12), (n, spec)


def test_singular_duplicated_coordinates_match_reference():
    # a covariance that repeats coordinates is singular
    rng = np.random.default_rng(21)
    s = rand_spd(rng, 2)
    dup = [0, 1, 1, 0]
    cov4 = s[np.ix_(dup, dup)]
    assert abs(np.linalg.det(cov4)) < 1e-12
    deltas = np.array([0.7, -1.3, 0.0, 0.0])
    spec = (2, 2, 1, 1)
    assert central_moment(cov4, spec) == pytest.approx(
        pairing_moment(cov4, spec), rel=1e-12
    )
    assert shifted_moment(cov4, deltas, spec) == pytest.approx(
        binomial_shifted_moment(cov4, deltas, spec), rel=1e-12
    )
    # duplicated coordinates are the same variable: E[Y_0^3 Y_1^3]
    assert central_moment(cov4, spec) == pytest.approx(
        central_moment(s, (3, 3)), rel=1e-12
    )


def test_shifted_zero_delta_equals_central():
    rng = np.random.default_rng(4)
    cov = rand_spd(rng, 3)
    for spec in ((2, 2, 2), (4, 0, 2), (1, 1, 2)):
        assert shifted_moment(cov, np.zeros(3), spec) == central_moment(cov, spec)


def test_shifted_matches_example1_conditional_product():
    # conditional pair of the first family: cov [[1-r^4, r],[r, 1]], shift (r^2 x3, 0)
    for rho, x3 in ((0.5, 2.0), (0.3, -1.0), (0.6, 0.25)):
        cov = np.array([[1 - rho**4, rho], [rho, 1.0]])
        delta = np.array([rho**2 * x3, 0.0])
        expected = 1 + 2 * rho**2 + rho**4 * (x3**2 - 1)
        assert shifted_moment(cov, delta, (2, 2)) == pytest.approx(expected, rel=1e-13)


def test_shifted_matches_independent_quadrature():
    # second family's conditional: the quadrature oracle arbitrates the value
    rho, x3 = 0.25, 1.0
    cov = np.array(
        [[rho * (2 - rho), -(rho**2)], [-(rho**2), rho * (2 - rho)]]
    )
    delta = np.array([(1 - rho) * x3, (1 - rho) * x3])
    oracle = grid_moment(delta, cov, (2, 2), points=256, centers=np.zeros(2))
    assert shifted_moment(cov, delta, (2, 2)) == pytest.approx(oracle, rel=1e-8)


def test_block_diagonal_factorization_exact():
    rng = np.random.default_rng(5)
    a = rand_spd(rng, 2)
    b = rand_spd(rng, 1)
    cov = np.zeros((3, 3))
    cov[:2, :2] = a
    cov[2:, 2:] = b
    for spec in ((2, 2, 2), (2, 0, 4), (1, 1, 2)):
        whole = central_moment(cov, spec)
        parts = central_moment(a, spec[:2]) * central_moment(b, spec[2:])
        assert whole == parts


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(3))),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_permutation_equivariance(spec, seed):
    rng = np.random.default_rng(seed)
    cov = rand_spd(rng, 3)
    base = central_moment(cov, spec)
    for perm in itertools.permutations(range(3)):
        p = list(perm)
        permuted = central_moment(cov[np.ix_(p, p)], [spec[i] for i in p])
        assert permuted == pytest.approx(base, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(3))),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_covariance_scaling(spec, seed):
    rng = np.random.default_rng(seed)
    cov = rand_spd(rng, 3)
    order = sum(spec)
    scaled = central_moment(4.0 * cov, spec)
    expected = 4.0 ** (order / 2) * central_moment(cov, spec)
    assert scaled == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_matches_quadrature_up_to_order_four():
    rng = np.random.default_rng(6)
    from wentropy.gaussian import Gaussian
    from wentropy.quadrature import moment_quadrature

    for _ in range(3):
        cov = rand_spd(rng, 3)
        dist = Gaussian(np.zeros(3), cov)
        for spec in itertools.product(range(5), repeat=3):
            if sum(spec) > 4 or sum(spec) % 2 == 1:
                continue
            quad = moment_quadrature(dist, spec, points=64)
            exact = central_moment(cov, spec)
            assert exact == pytest.approx(quad, rel=1e-5, abs=1e-9)
