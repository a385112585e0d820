import math

import numpy as np
import pytest

from helpers import (
    conditional_wde_quadrature,
    de_quadrature,
    gibbs_condition_value,
    moment_quadrature,
    mutual_wde_quadrature,
    rand_spd,
    reference_log_ratio_integral,
    reference_relative_wde_monte_carlo,
    traced_peak,
    wde_quadrature,
)
from wentropy import closedform as cf
from wentropy import verify
from wentropy.errors import SupportMismatchError
from wentropy.moments import central_moment, shifted_moment
from wentropy.gaussian import (
    Gaussian,
    condition,
    example1_cov,
    example2_cov,
    gaussian_de,
    gaussian_kl,
)
from wentropy.quadrature import (
    CentralWeight,
    GridSpec,
    McConfig,
    relative_wde_monte_carlo,
    relative_wde_quadrature,
    BLOCK_POINTS,
    MC_BLOCK_ROWS,
    TINY,
    _chunks,
    _hermite_rule,
    wde_gauss_hermite,
)

STD_NORMAL = Gaussian([0.0], [[1.0]])
GRID_1D = GridSpec.for_gaussians([STD_NORMAL], 2048)


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
    # each block is an open mesh; broadcast, its cells in C order are the rows
    flat = [np.stack([x.ravel() for x in np.broadcast_arrays(*block)], axis=-1) for block in blocks]
    np.testing.assert_array_equal(np.concatenate(flat), centres)
    for block in blocks:
        assert isinstance(block, tuple) and len(block) == grid.dim
        for k, x in enumerate(block):  # varies along axis k only
            assert x.ndim == grid.dim and all(n == 1 for j, n in enumerate(x.shape) if j != k)
            assert x.shape[k] == grid.axes[k][2] or k == 0
        assert block[0].size * math.prod(x.size for x in block[1:]) <= BLOCK_POINTS


def _is_open_mesh(pts, dim, axes):
    # a tuple of arrays on a dim-axis block, array i varying along axes[i] only
    return isinstance(pts, tuple) and len(pts) == len(axes) and all(
        x.ndim == dim and all(n == 1 for j, n in enumerate(x.shape) if j != k)
        for x, k in zip(pts, axes)
    )


def test_densities_and_weights_see_open_mesh_blocks():
    dist = example1_cov(0.4)
    grid = GridSpec.for_gaussians([dist], 48)
    seen = {}

    def recording(name, fn):
        def call(pts):
            seen.setdefault(name, []).append(pts)
            return fn(pts)
        return call

    f = recording("f", dist.pdf)
    weight = recording("weight", CentralWeight([0.1, -0.2, 0.3]))
    wde_quadrature(f, weight, grid)
    relative_wde_quadrature(f, recording("g", dist.pdf), weight, grid)
    gibbs_condition_value(f, recording("g", dist.pdf), weight, grid)
    conditional_wde_quadrature(f, recording("given", dist.marginal([1, 2]).pdf), weight,
                               grid, given_dims=2)
    margs = [recording(f"marginal-{k}", dist.marginal([k]).pdf) for k in range(3)]
    mutual_wde_quadrature(f, margs, weight, grid)
    expected_axes = {"f": (0, 1, 2), "weight": (0, 1, 2), "g": (0, 1, 2), "given": (1, 2),
                     **{f"marginal-{k}": (k,) for k in range(3)}}
    assert set(seen) == set(expected_axes)
    for name, calls in seen.items():
        assert all(_is_open_mesh(pts, grid.dim, expected_axes[name]) for pts in calls), name


def _full_shape(fn):
    # the same values as fn, broadcast to the block by the callable itself
    def call(pts):
        return np.array(np.broadcast_to(fn(pts), np.broadcast_shapes(*(x.shape for x in pts))))
    return call


def test_short_results_are_broadcast_to_the_block():
    # a density or weight may return a lower-rank or scalar result; every
    # cell of the block must still count
    from types import SimpleNamespace

    grid = GridSpec(((-2.0, 2.0, 40), (-1.0, 3.0, 24)))
    box = Gaussian([0.0, 1.0], [[1.0 / 16.0, 0.0], [0.0, 1.0 / 16.0]])  # the same box
    first = Gaussian([0.3], [[0.8]])
    f = lambda pts: 0.25 * first.pdf(pts[:1])  # varies along the first axis only
    g = lambda pts: 1.0 / 16.0  # uniform on the box
    phi = lambda pts: (pts[0] - 0.1) ** 2
    cases = {
        "wde": lambda f, g, phi: wde_quadrature(f, phi, grid),
        "wde-unit": lambda f, g, phi: wde_quadrature(g, None, grid),
        "relative": lambda f, g, phi: relative_wde_quadrature(f, g, phi, grid),
        "conditional": lambda f, g, phi: conditional_wde_quadrature(f, g, phi, grid),
        "mutual": lambda f, g, phi: mutual_wde_quadrature(f, [g, g], phi, grid),
        "gibbs": lambda f, g, phi: gibbs_condition_value(f, g, phi, grid),
        "gibbs-unit": lambda f, g, phi: gibbs_condition_value(g, lambda pts: 0.0, None, grid),
        "moment": lambda f, g, phi: moment_quadrature(
            SimpleNamespace(dim=2, mean=box.mean, cov=box.cov, pdf=g), (0, 0), points=32
        ),
    }
    for name, case in cases.items():
        full = case(_full_shape(f), _full_shape(g), _full_shape(phi))
        assert full != 0.0, name
        assert case(f, g, phi) == full, name
    assert cases["gibbs-unit"](f, g, phi) == pytest.approx(1.0, abs=1e-14)
    assert cases["wde-unit"](f, g, phi) == pytest.approx(math.log(16.0), abs=1e-13)
    assert cases["moment"](f, g, phi) == pytest.approx(1.0, abs=1e-14)


def test_wde_standard_normal_unit_weight():
    value = wde_quadrature(STD_NORMAL.pdf, None, GRID_1D)
    assert value == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-9)


def test_wde_standard_normal_square_weight():
    value = wde_quadrature(STD_NORMAL.pdf, CentralWeight([0.0]), GRID_1D)
    assert value == pytest.approx(0.5 * math.log(2 * math.pi) + 1.5, abs=1e-9)


def test_wde_uniform_density_is_zero():
    grid = GridSpec(((0.0, 1.0, 64),))
    pdf = lambda pts: np.ones_like(pts[0])
    assert wde_quadrature(pdf, None, grid) == 0.0


def test_de_quadrature_is_unit_weight_path():
    assert de_quadrature(STD_NORMAL.pdf, GRID_1D) == wde_quadrature(
        STD_NORMAL.pdf, None, GRID_1D
    )


def test_conditional_independent_factors():
    joint = Gaussian([0.0, 0.0], np.eye(2))
    given = Gaussian([0.0], [[1.0]])
    grid = GridSpec.for_gaussians([joint], 256)
    value = conditional_wde_quadrature(joint.pdf, given.pdf, None, grid)
    assert value == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-8)


def test_conditional_zero_weight():
    joint = Gaussian([0.0, 0.0], np.eye(2))
    given = Gaussian([0.0], [[1.0]])
    grid = GridSpec.for_gaussians([joint], 64)
    zero = lambda pts: np.zeros_like(pts[0] * pts[1])
    assert conditional_wde_quadrature(joint.pdf, given.pdf, zero, grid) == 0.0


def test_conditional_chain_rule_over_trivariate():
    # averaging the conditional entropy over the third coordinate equals the
    # joint entropy minus the marginal entropy
    dist = example1_cov(0.4)
    grid3 = GridSpec.for_gaussians([dist], 80)
    third = dist.marginal([2])
    lhs = conditional_wde_quadrature(dist.pdf, third.pdf, None, grid3, given_dims=1)
    rhs = de_quadrature(dist.pdf, grid3) - de_quadrature(
        third.pdf, GridSpec.for_gaussians([third], 2048)
    )
    assert lhs == pytest.approx(rhs, abs=1e-4)


def test_mutual_independent_is_zero():
    joint = Gaussian([0.0, 0.0], np.eye(2))
    margs = [joint.marginal([0]).pdf, joint.marginal([1]).pdf]
    grid = GridSpec.for_gaussians([joint], 256)
    value = mutual_wde_quadrature(joint.pdf, margs, CentralWeight([0.0, 0.0]), grid)
    assert value == pytest.approx(0.0, abs=1e-10)


def test_mutual_bivariate_gaussian():
    rho = 0.6
    joint = Gaussian([0.0, 0.0], [[1.0, rho], [rho, 1.0]])
    margs = [joint.marginal([0]).pdf, joint.marginal([1]).pdf]
    grid = GridSpec.for_gaussians([joint], 256)
    value = mutual_wde_quadrature(joint.pdf, margs, None, grid)
    assert value == pytest.approx(-0.5 * math.log(1 - rho**2), abs=1e-4)


def test_mutual_trivariate_decomposition():
    # marginal-minus-conditional decomposition, both sides by quadrature
    dist = example1_cov(0.4)
    grid3 = GridSpec.for_gaussians([dist], 80)
    margs = [dist.marginal([k]).pdf for k in range(3)]
    lhs = mutual_wde_quadrature(dist.pdf, margs, None, grid3)
    h1 = de_quadrature(margs[0], GridSpec.for_gaussians([dist.marginal([0])], 2048))
    h2 = de_quadrature(margs[1], GridSpec.for_gaussians([dist.marginal([1])], 2048))
    tail12 = dist.marginal([1, 2])
    h1_cond = conditional_wde_quadrature(dist.pdf, tail12.pdf, None, grid3, given_dims=2)
    grid2 = GridSpec.for_gaussians([tail12], 256)
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
        (x,) = pts
        return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)
    with pytest.raises(SupportMismatchError, match=r"vanishes at \[-7\.99"):
        relative_wde_quadrature(f.pdf, g, None, GRID_1D)
    # a reference of lower rank than the block names the whole offending point
    grid = GridSpec(((-1.0, 1.0, 16), (-2.0, 2.0, 16)))
    left = lambda pts: np.where(pts[0] <= 0.5, 0.5, 0.0)
    upper = lambda pts: np.where(pts[1] > 0.0, 1.0, 0.0)
    with pytest.raises(SupportMismatchError, match=r"vanishes at \[0\.5625 +0\.125 *\]"):
        relative_wde_quadrature(lambda pts: 0.25, left, upper, grid)


def test_blocks_with_dropped_cells_keep_the_bits_of_boolean_indexing():
    def dropped_cells(pdf, grid):
        return np.count_nonzero(pdf(np.ix_(*map(grid.axis_centers, range(3)))) <= TINY)

    # the second family at rho 0.1 underflows to 0 in the corners of its box.
    # The weight vanishes on one grid plane, so g may vanish there where f does
    # not; a last-axis plane drops one cell per row, so keeping those cells
    # would regroup numpy's pairwise sum and change the bits
    for dist, dropped in ((example1_cov(0.4), False), (example2_cov(0.1), True)):
        grid = GridSpec.for_gaussians([dist], 48)
        assert (dropped_cells(dist.pdf, grid) > 0) == dropped
        weight = CentralWeight([0.1, -0.2, grid.axis_centers(2)[20]])
        wide = Gaussian(dist.mean, 2.0 * dist.cov)
        g = lambda pts: np.where(weight(pts) * dist.pdf(pts) > TINY, wide.pdf(pts), 0.0)
        assert dropped_cells(g, grid) > dropped_cells(dist.pdf, grid)
        assert relative_wde_quadrature(dist.pdf, g, weight, grid) == reference_log_ratio_integral(
            dist.pdf, [(g, slice(None))], weight, grid, require_support=True
        )


def test_support_mismatch_message_matches_the_reference():
    # the first offending cell lies in a later block than the first
    grid = GridSpec(((-1.0, 1.0, 600), (-2.0, 2.0, 300)))
    assert len(list(_chunks(grid))) > 2
    f = lambda pts: 0.25
    g = lambda pts: np.where(pts[0] <= 0.5, 0.5, 0.0) * np.where(pts[1] > 0.0, 1.0, 0.5)
    weight = CentralWeight([0.0, 1.0])
    with pytest.raises(SupportMismatchError) as expected:
        reference_log_ratio_integral(f, [(g, slice(None))], weight, grid, require_support=True)
    assert "vanishes at [ 0.5016" in str(expected.value)
    with pytest.raises(SupportMismatchError) as raised:
        relative_wde_quadrature(f, g, weight, grid)
    assert str(raised.value) == str(expected.value)


def test_gibbs_condition_value_cases():
    assert gibbs_condition_value(STD_NORMAL.pdf, STD_NORMAL.pdf, None, GRID_1D) == 0.0
    dist = example1_cov(0.5)
    pair = dist.marginal([0, 1])
    weight = CentralWeight([0.0, 0.0])
    for x3, sign in ((0.5, -1.0), (2.0, 1.0)):
        cond = condition(dist, (0, 1), (2,), [x3])
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
    cond = condition(dist, (0, 1), (2,), [1.0])
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
    cond = condition(dist, (0, 1), (2,), [1.0])
    pair = dist.marginal([0, 1])
    weight = CentralWeight([0.0, 0.0])
    args = (cond.sampler(), cond.pdf, pair.pdf, weight)
    small = relative_wde_monte_carlo(*args, McConfig(50_000, 7))
    big = relative_wde_monte_carlo(*args, McConfig(100_000, 7))
    ratio = small.stderr / big.stderr
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.2)
    again = relative_wde_monte_carlo(*args, McConfig(50_000, 7))
    assert again == small


@pytest.mark.parametrize("samples", [
    MC_BLOCK_ROWS - 1, MC_BLOCK_ROWS, MC_BLOCK_ROWS + 1, 2 * MC_BLOCK_ROWS + 1, 200_000,
])
def test_blocked_monte_carlo_keeps_the_bits_of_one_draw(samples):
    pc = cf.PairConditional.from_example1(0.4, 1.0)
    args = (pc.cond.sampler(), pc.cond.pdf, pc.pair.pdf, CentralWeight(pc.pair.mean))
    cfg = McConfig(samples, 11)
    assert relative_wde_monte_carlo(*args, cfg) == reference_relative_wde_monte_carlo(*args, cfg)


def test_blocked_monte_carlo_keeps_a_5d_tail_row():
    # a one-row tail block drawn alone goes through BLAS's matrix-vector
    # product, which from 4 dimensions can round a draw differently
    rng = np.random.default_rng(0)
    f = Gaussian(rng.normal(size=5), rand_spd(rng, 5))
    g = Gaussian(rng.normal(size=5), rand_spd(rng, 5))
    scored = []

    def f_pdf(pts):
        scored.append(np.stack(pts, axis=1))
        return f.pdf(pts)

    args = (f.sampler(), f_pdf, g.pdf, CentralWeight(f.mean))
    cfg = McConfig(2 * MC_BLOCK_ROWS + 1, 3)
    got = relative_wde_monte_carlo(*args, cfg)
    one_draw = f.sampler()(np.random.Generator(np.random.Philox(cfg.seed)), cfg.samples)
    assert np.array_equal(np.concatenate(scored), one_draw)
    assert got == reference_relative_wde_monte_carlo(*args, cfg)


def test_verify_monte_carlo_call_stays_under_4_mib():
    # drawing and scoring all 200k rows at once peaked near 14 MiB
    cfg = verify.VerifyConfig()
    pc = cf.PairConditional.from_example1(0.4, 1.0)
    args = (pc.cond.sampler(), pc.cond.pdf, pc.pair.pdf, CentralWeight(pc.pair.mean))
    mc = McConfig(cfg.mc_samples, cfg.seed + 3)
    assert traced_peak(relative_wde_monte_carlo, *args, mc) < 4 * 2**20


def test_grid_refinement_convergence():
    base = GridSpec.for_gaussians([STD_NORMAL], 64)
    coarse = wde_quadrature(STD_NORMAL.pdf, CentralWeight([0.0]), base)
    doubled = GridSpec(tuple((lo, hi, 2 * n) for lo, hi, n in base.axes))
    fine = wde_quadrature(STD_NORMAL.pdf, CentralWeight([0.0]), doubled)
    assert abs(fine - coarse) < 1e-4


def test_moment_quadrature_fourth_moment():
    value = moment_quadrature(STD_NORMAL, (4,), points=256)
    assert value == pytest.approx(3.0, rel=1e-8)


@pytest.mark.parametrize(
    "samples, seed, message",
    [
        (1500.7, 2, "samples 1500.7 is not an integer"),
        (1500, 2.9, "seed 2.9 is not an integer"),
        (math.nan, 2, "samples nan is not an integer"),
    ],
    ids=["samples", "seed", "samples-nan"],
)
def test_mc_config_refuses_a_non_integral_count(samples, seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        McConfig(samples, seed)


def test_mc_config_takes_integral_floats_as_ints():
    cfg = McConfig(1500.0, np.float64(2.0))
    assert (cfg.samples, cfg.seed) == (1500, 2)
    assert type(cfg.samples) is int and type(cfg.seed) is int


def test_hermite_rule_is_built_once_per_node_count_and_read_only():
    nodes, weights = _hermite_rule(5)
    assert _hermite_rule(5)[0] is nodes and _hermite_rule(4)[0] is not nodes
    for arr in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.parametrize("n", range(1, 9))
def test_hermite_rule_matches_numpy_hermegauss(n):
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = _hermite_rule(n)
    ref_nodes, ref_weights = hermegauss(n)
    assert np.max(np.abs(nodes - ref_nodes)) < 1e-14
    assert np.max(np.abs(weights - ref_weights / math.sqrt(2.0 * math.pi))) < 1e-14


@pytest.mark.parametrize("n", range(1, 7))  # 2n within the moment engine's order cap
def test_hermite_rule_is_exact_below_degree_2n(n):
    nodes, weights = _hermite_rule(n)
    sd, shift = 1.3, 0.7
    for k in range(2 * n):
        rule = float(np.sum(weights * (sd * nodes + shift) ** k))
        assert rule == pytest.approx(shifted_moment([[sd**2]], [shift], (k,)), rel=1e-12), k
    # the rule's error on Z^(2n) is n!, at least 2% of E[Z^(2n)] = (2n - 1)!!
    exact = central_moment([[sd**2]], (2 * n,))
    assert abs(float(np.sum(weights * (sd * nodes) ** (2 * n))) - exact) > 1e-2 * exact


@pytest.mark.parametrize("n", range(1, 6))
def test_tensor_hermite_rule_is_exact_on_bivariate_moments(n):
    # with x = L z + shift, x_1^r1 x_2^r2 has degree r1 + r2 in z_1 and r2 in
    # z_2, so every total degree up to 2n - 1 is exact
    rng = np.random.default_rng(60 + n)
    dist = Gaussian(np.zeros(2), rand_spd(rng, 2))
    shift = rng.normal(size=2)
    nodes, weights = _hermite_rule(n)
    z1, z2 = np.meshgrid(nodes, nodes, indexing="ij")
    lower = dist.chol()
    x1 = lower[0, 0] * z1 + shift[0]
    x2 = lower[1, 0] * z1 + lower[1, 1] * z2 + shift[1]
    mass = np.outer(weights, weights)
    for r1 in range(2 * n):
        for r2 in range(2 * n - r1):
            rule = float(np.sum(mass * x1**r1 * x2**r2))
            exact = shifted_moment(dist.cov, shift, (r1, r2))
            assert rule == pytest.approx(exact, rel=1e-12, abs=1e-12), (r1, r2)


def test_wde_gauss_hermite_matches_the_wick_kernel():
    rng = np.random.default_rng(61)
    for dim in range(1, 6):
        for _ in range(4):
            dist = Gaussian(rng.normal(size=dim), rand_spd(rng, dim))
            centers = dist.mean + rng.normal(scale=0.8, size=dim)
            wick = cf._weighted_cross_entropy(dist, dist, centers)
            rule = wde_gauss_hermite(dist, CentralWeight(centers))
            assert rule == pytest.approx(wick, rel=1e-12), dim
            assert wde_gauss_hermite(dist, None) == pytest.approx(gaussian_de(dist), rel=1e-12)
            # the reference defaults to f itself, with the same bits
            assert wde_gauss_hermite(dist, CentralWeight(centers), None) == rule
            assert wde_gauss_hermite(dist, CentralWeight(centers), dist) == rule
            # a cross entropy: log g is still quadratic in the rule's z
            ref = Gaussian(rng.normal(size=dim), rand_spd(rng, dim))
            centers = rng.normal(size=dim)
            wick = cf._weighted_cross_entropy(dist, ref, centers)
            rule = wde_gauss_hermite(dist, CentralWeight(centers), ref)
            assert rule == pytest.approx(wick, rel=1e-12), dim


@pytest.mark.parametrize("dim", range(1, 5))
def test_wde_gauss_hermite_gives_each_batch_member_its_bits_alone(dim):
    rng = np.random.default_rng(70 + dim)
    batch = (3, 2)

    def covs():  # one covariance per row, shared along the second batch axis
        return np.stack([rand_spd(rng, dim) for _ in range(3)], -1)[..., None]

    def at(a, lead, index):  # a's member at ``index``; an axis of length 1 is shared
        shared = tuple(i if n > 1 else 0 for i, n in zip(index, a.shape[lead:]))
        return a[(slice(None),) * lead + shared]

    def member(g, index):
        return None if g is None else Gaussian(at(g.mean, 1, index), at(g.cov, 2, index))

    dist = Gaussian(rng.normal(size=(dim, *batch)), covs())
    ref = Gaussian(rng.normal(size=(dim, 3, 1)), covs())
    one = CentralWeight(rng.normal(size=dim))
    centers = CentralWeight(rng.normal(size=(dim, *batch)))
    # one dist against a batch of refs: batches of different rank align from the right
    lone = Gaussian(rng.normal(size=dim), rand_spd(rng, dim))
    refs = Gaussian(rng.normal(size=(dim, *batch)), covs())
    cases = {
        "shared-cov": (dist, one, None),
        "batched-ref": (dist, one, ref),
        "batched-centers": (dist, centers, ref),
        "unit-weight": (dist, None, ref),
        "one-dist": (lone, one, refs),
    }
    for name, (f, weight, g) in cases.items():
        batched = wde_gauss_hermite(f, weight, g)
        assert batched.shape == batch, name
        for index in np.ndindex(batch):
            w = weight if weight is not centers else CentralWeight(at(centers.centers, 1, index))
            alone = wde_gauss_hermite(member(f, index), w, member(g, index))
            assert type(alone) is float
            assert batched[index] == alone, (name, index)


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_batched_densities_and_weights_give_each_member_its_bits_alone(dim):
    # the batch axes are the trailing axes of the coordinates, aligned from the right
    rng = np.random.default_rng(90 + dim)
    mesh = tuple(x[..., None, None] for x in np.ix_(*(rng.normal(size=4 + k) for k in range(dim))))
    points = rng.normal(size=(5, dim))
    full = np.stack([rand_spd(rng, dim) for _ in range(6)], -1).reshape(dim, dim, 3, 2)
    bare = tuple(x[..., 0, 0] for x in mesh)  # every member's own open mesh
    layouts = {  # mean, cov, coordinates or points, and a member's own at its index
        "open-mesh": (rng.normal(size=(dim, 3, 2)), full, mesh, lambda index: bare),
        "shared-cov": (rng.normal(size=(dim, 3, 2)), full[..., :1], mesh, lambda index: bare),
        "one-point-each": (rng.normal(size=(dim, 5)), full.reshape(dim, dim, 6)[..., :5], points,
                           lambda index: points[index]),
    }
    for name, (mean, cov, pts, own) in layouts.items():
        dist, weight = Gaussian(mean, cov), CentralWeight(mean)
        batched = (dist.log_pdf(pts), dist.pdf(pts), weight(pts))
        for index in np.ndindex(mean.shape[1:]):
            shared = tuple(i if n > 1 else 0 for i, n in zip(index, cov.shape[2:]))
            member = Gaussian(mean[(slice(None), *index)], cov[(slice(None), slice(None), *shared)])
            x = own(index)
            alone = (member.log_pdf(x), member.pdf(x), CentralWeight(member.mean)(x))
            for method, values, value in zip(("log_pdf", "pdf", "weight"), batched, alone):
                got = values[(..., *index)]
                assert np.array_equal(got, np.reshape(value, np.shape(got))), (name, method, index)


def test_family_bases_midpoint_integrals_match_the_exact_rule():
    # the 96^3 midpoint integrals verify checked wick against before the rule
    for example, (rhos, _) in verify._family_bases().items():
        for rho in rhos:
            dist = (example1_cov if example == 1 else example2_cov)(rho)
            weight = CentralWeight(dist.mean)
            midpoint = wde_quadrature(dist.pdf, weight, GridSpec.for_gaussians([dist], 96))
            assert abs(midpoint - wde_gauss_hermite(dist, weight)) < 1e-4, (example, rho)


def test_central_weight_holds_a_batch_of_centers():
    weight = CentralWeight(np.zeros((2, 3)))
    assert weight.dim == 2 and weight.centers.shape == (2, 3)
    assert CentralWeight(0.5).centers.shape == (1,)
