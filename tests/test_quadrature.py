import math

import numpy as np
import pytest

from wentropy.errors import SupportMismatchError
from wentropy.gaussian import ConditionSpec, Gaussian, condition, example1_cov, gaussian_kl
from wentropy.quadrature import (
    CentralWeight,
    GridSpec,
    McConfig,
    conditional_wde_quadrature,
    de_quadrature,
    gibbs_condition_value,
    moment_quadrature,
    mutual_wde_quadrature,
    relative_wde_monte_carlo,
    relative_wde_quadrature,
    _chunks,
    wde_quadrature,
)

STD_NORMAL = Gaussian([0.0], [[1.0]])
GRID_1D = GridSpec.for_gaussian(STD_NORMAL, 2048)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(((0.0, 1.0, 8),))  # too few points
    with pytest.raises(ValueError):
        GridSpec(((1.0, 0.0, 64),))  # inverted bounds
    with pytest.raises(ValueError):
        GridSpec(((0.0, 1.0, 10**5), (0.0, 1.0, 10**4)))  # cell cap


@pytest.mark.parametrize("axes", [
    ((-1.0, 1.0, 600), (0.0, 2.0, 300)),
    ((-1.0, 1.0, 64), (0.0, 1.0, 48), (2.0, 3.0, 64)),
])
def test_chunks_cover_the_grid_in_order_coordinate_major(axes):
    grid = GridSpec(axes)
    blocks = list(_chunks(grid))
    assert len(blocks) > 2  # the first axis spans several blocks
    mesh = np.meshgrid(*(grid.axis_centers(k) for k in range(grid.dim)), indexing="ij")
    centres = np.stack([m.ravel() for m in mesh], axis=-1)
    np.testing.assert_array_equal(np.concatenate(blocks), centres)
    for block in blocks:
        assert all(block[:, k].flags.c_contiguous for k in range(grid.dim))


def test_wde_standard_normal_unit_weight():
    value = wde_quadrature(STD_NORMAL.pdf, None, GRID_1D)
    assert value == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-9)


def test_wde_standard_normal_square_weight():
    value = wde_quadrature(STD_NORMAL.pdf, CentralWeight([0.0]), GRID_1D)
    assert value == pytest.approx(0.5 * math.log(2 * math.pi) + 1.5, abs=1e-9)


def test_wde_uniform_density_is_zero():
    grid = GridSpec(((0.0, 1.0, 64),))
    pdf = lambda pts: np.ones(pts.shape[0])
    assert wde_quadrature(pdf, None, grid) == 0.0


def test_de_quadrature_is_unit_weight_path():
    assert de_quadrature(STD_NORMAL.pdf, GRID_1D) == wde_quadrature(
        STD_NORMAL.pdf, None, GRID_1D
    )


def test_conditional_independent_factors():
    joint = Gaussian([0.0, 0.0], np.eye(2))
    given = Gaussian([0.0], [[1.0]])
    grid = GridSpec.for_gaussian(joint, 256)
    value = conditional_wde_quadrature(joint.pdf, given.pdf, None, grid)
    assert value == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-8)


def test_conditional_zero_weight():
    joint = Gaussian([0.0, 0.0], np.eye(2))
    given = Gaussian([0.0], [[1.0]])
    grid = GridSpec.for_gaussian(joint, 64)
    zero = lambda pts: np.zeros(pts.shape[0])
    assert conditional_wde_quadrature(joint.pdf, given.pdf, zero, grid) == 0.0


def test_conditional_chain_rule_over_trivariate():
    # averaging the conditional entropy over the third coordinate equals the
    # joint entropy minus the marginal entropy
    dist = example1_cov(0.4)
    grid3 = GridSpec.for_gaussian(dist, 80)
    third = dist.marginal([2])
    lhs = conditional_wde_quadrature(dist.pdf, third.pdf, None, grid3, given_dims=1)
    rhs = de_quadrature(dist.pdf, grid3) - de_quadrature(
        third.pdf, GridSpec.for_gaussian(third, 2048)
    )
    assert lhs == pytest.approx(rhs, abs=1e-4)


def test_mutual_independent_is_zero():
    joint = Gaussian([0.0, 0.0], np.eye(2))
    margs = [joint.marginal([0]).pdf, joint.marginal([1]).pdf]
    grid = GridSpec.for_gaussian(joint, 256)
    value = mutual_wde_quadrature(joint.pdf, margs, CentralWeight([0.0, 0.0]), grid)
    assert value == pytest.approx(0.0, abs=1e-10)


def test_mutual_bivariate_gaussian():
    rho = 0.6
    joint = Gaussian([0.0, 0.0], [[1.0, rho], [rho, 1.0]])
    margs = [joint.marginal([0]).pdf, joint.marginal([1]).pdf]
    grid = GridSpec.for_gaussian(joint, 256)
    value = mutual_wde_quadrature(joint.pdf, margs, None, grid)
    assert value == pytest.approx(-0.5 * math.log(1 - rho**2), abs=1e-4)


def test_mutual_trivariate_decomposition():
    # marginal-minus-conditional decomposition, both sides by quadrature
    dist = example1_cov(0.4)
    grid3 = GridSpec.for_gaussian(dist, 80)
    margs = [dist.marginal([k]).pdf for k in range(3)]
    lhs = mutual_wde_quadrature(dist.pdf, margs, None, grid3)
    h1 = de_quadrature(margs[0], GridSpec.for_gaussian(dist.marginal([0]), 2048))
    h2 = de_quadrature(margs[1], GridSpec.for_gaussian(dist.marginal([1]), 2048))
    tail12 = dist.marginal([1, 2])
    h1_cond = conditional_wde_quadrature(dist.pdf, tail12.pdf, None, grid3, given_dims=2)
    grid2 = GridSpec.for_gaussian(tail12, 256)
    h2_cond = conditional_wde_quadrature(
        tail12.pdf, dist.marginal([2]).pdf, None, grid2, given_dims=1
    )
    rhs = (h1 - h1_cond) + (h2 - h2_cond)
    assert lhs == pytest.approx(rhs, abs=1e-4)


def test_relative_same_density_zero():
    assert relative_wde_quadrature(STD_NORMAL.pdf, STD_NORMAL.pdf, None, GRID_1D) == 0.0


def test_relative_matches_closed_form_kl():
    f = Gaussian([0.4], [[1.5]])
    g = Gaussian([-0.2], [[0.9]])
    grid = GridSpec.for_gaussians([f, g], 4096)
    value = relative_wde_quadrature(f.pdf, g.pdf, None, grid)
    assert value == pytest.approx(gaussian_kl(f, g), abs=1e-6)


def test_relative_support_mismatch_raises():
    f = STD_NORMAL
    def g(pts):
        inside = (pts[:, 0] >= 0.0) & (pts[:, 0] <= 1.0)
        return np.where(inside, 1.0, 0.0)
    with pytest.raises(SupportMismatchError):
        relative_wde_quadrature(f.pdf, g, None, GRID_1D)


def test_gibbs_condition_value_cases():
    assert gibbs_condition_value(STD_NORMAL.pdf, STD_NORMAL.pdf, None, GRID_1D) == 0.0
    dist = example1_cov(0.5)
    pair = dist.marginal([0, 1])
    weight = CentralWeight([0.0, 0.0])
    for x3, sign in ((0.5, -1.0), (2.0, 1.0)):
        cond = condition(dist, ConditionSpec((0, 1), (2,), [x3]))
        grid = GridSpec.for_gaussians([cond, pair], 256)
        value = gibbs_condition_value(cond.pdf, pair.pdf, weight, grid)
        expected = 0.5**4 * (x3**2 - 1)
        assert value == pytest.approx(expected, abs=1e-6)
        assert math.copysign(1.0, value) == sign
        if value >= 0:
            dw = relative_wde_quadrature(cond.pdf, pair.pdf, weight, grid)
            assert dw >= -1e-8


def test_weighted_gibbs_implication_random_basket():
    # whenever the condition value is nonnegative the weighted divergence is
    from helpers import rand_spd

    rng = np.random.default_rng(77)
    holds = 0
    for _ in range(40):
        f = Gaussian(rng.normal(scale=0.5, size=2), rand_spd(rng, 2, 0.5, 2.0))
        g = Gaussian(rng.normal(scale=0.5, size=2), rand_spd(rng, 2, 0.5, 2.0))
        weight = CentralWeight(rng.normal(scale=0.5, size=2))
        grid = GridSpec.for_gaussians([f, g], 192)
        if gibbs_condition_value(f.pdf, g.pdf, weight, grid) >= 0:
            holds += 1
            assert relative_wde_quadrature(f.pdf, g.pdf, weight, grid) >= -1e-8
    assert holds > 5  # the basket must actually exercise the implication


def test_monte_carlo_same_density():
    est, stderr = relative_wde_monte_carlo(
        STD_NORMAL.sampler(), STD_NORMAL.pdf, STD_NORMAL.pdf,
        CentralWeight([0.0]), McConfig(5000, 99),
    )
    assert est == 0.0 and stderr == 0.0


def test_monte_carlo_matches_quadrature():
    dist = example1_cov(0.4)
    cond = condition(dist, ConditionSpec((0, 1), (2,), [1.0]))
    pair = dist.marginal([0, 1])
    weight = CentralWeight([0.0, 0.0])
    grid = GridSpec.for_gaussians([cond, pair], 256)
    quad = relative_wde_quadrature(cond.pdf, pair.pdf, weight, grid)
    est, stderr = relative_wde_monte_carlo(
        cond.sampler(), cond.pdf, pair.pdf, weight, McConfig(200_000, 123)
    )
    assert abs(est - quad) <= 4 * stderr


def test_monte_carlo_stderr_scaling_and_determinism():
    dist = example1_cov(0.4)
    cond = condition(dist, ConditionSpec((0, 1), (2,), [1.0]))
    pair = dist.marginal([0, 1])
    weight = CentralWeight([0.0, 0.0])
    args = (cond.sampler(), cond.pdf, pair.pdf, weight)
    small = relative_wde_monte_carlo(*args, McConfig(50_000, 7))
    big = relative_wde_monte_carlo(*args, McConfig(100_000, 7))
    ratio = small.stderr / big.stderr
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.2)
    again = relative_wde_monte_carlo(*args, McConfig(50_000, 7))
    assert again == small


def test_grid_refinement_convergence():
    base = GridSpec.for_gaussian(STD_NORMAL, 64)
    coarse = wde_quadrature(STD_NORMAL.pdf, CentralWeight([0.0]), base)
    doubled = GridSpec(tuple((lo, hi, 2 * n) for lo, hi, n in base.axes))
    fine = wde_quadrature(STD_NORMAL.pdf, CentralWeight([0.0]), doubled)
    assert abs(fine - coarse) < 1e-4


def test_moment_quadrature_fourth_moment():
    value = moment_quadrature(STD_NORMAL, (4,), points=256)
    assert value == pytest.approx(3.0, rel=1e-8)
