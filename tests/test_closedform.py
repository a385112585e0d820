import math

import numpy as np
import pytest

from helpers import (
    gauss_hermite_expectation,
    gaussian_logpdf,
    grid_moment,
    rand_spd,
    wde_quadrature,
)
from wentropy import closedform as cf
from wentropy.errors import DimensionMismatchError, DomainError
from wentropy.gaussian import Gaussian, gaussian_kl
from wentropy.moments import central_moment, shifted_moment
from wentropy.quadrature import CentralWeight, GridSpec, relative_wde_quadrature

PAIR_KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))


def pair_cases():
    for rho, x3 in ((0.3, 1.5), (0.5, 1.0), (0.2, -0.5), (0.6, 2.0)):
        yield cf.PairConditional.from_example1(rho, x3)
    for rho, x3 in ((0.1, -2.0), (0.25, 1.0), (0.4, 0.5), (0.45, 0.0)):
        yield cf.PairConditional.from_example2(rho, x3)


def test_pair_conditional_derived_fields():
    pc = cf.PairConditional.from_example1(0.5, 2.0)
    assert pc.pair.cov == pytest.approx(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert pc.cond.mean == pytest.approx([0.5, 0.0], abs=1e-14)
    assert pc.delta == pytest.approx([0.5, 0.0], abs=1e-14)
    with pytest.raises(ValueError):
        cf.PairConditional(Gaussian([0.0, 0.0], np.eye(2)), 0.0)


def test_pair_conditional_derived_fields_are_not_arguments():
    base = cf.example1_cov(0.5)
    other = Gaussian([0.0, 0.0], np.eye(2))
    for name, value in (("pair", other), ("cond", other), ("mu_bar", np.zeros(2)),
                        ("delta", np.zeros(2))):
        with pytest.raises(TypeError):
            cf.PairConditional(base, 1.0, **{name: value})


def test_pair_conditional_fills_one_moment_table(monkeypatch):
    calls = []
    fill = cf.shifted_moments

    def counted(*args):
        calls.append(args)
        return fill(*args)

    monkeypatch.setattr(cf, "shifted_moments", counted)
    for pc in pair_cases():
        calls.clear()
        cf.relative_we_pair(pc, "wick")
        for mode in cf.FORMULA_MODES:
            cf.cond_wde_pair(pc, mode)
            cf.cross_wde_pair(pc, mode)
        for i in range(2):
            for j in range(2):
                cf.lambda_bar(pc, i, j, "wick")
                cf.upsilon(pc, i, j, "wick")
        assert len(calls) == 1


def test_wick_upsilon_is_the_shifted_moment():
    for pc in pair_cases():
        for i in range(2):
            for j in range(2):
                r = [2, 2]
                r[i] += 1
                r[j] += 1
                assert cf.upsilon(pc, i, j, "wick") == shifted_moment(pc.cond.cov, pc.delta, r)


def test_xi_examples_and_identity():
    assert cf.xi(np.eye(3)) == 1.0
    rho = 0.5
    assert cf.xi(cf.example1_cov(rho).cov) == pytest.approx(
        1 + 2 * rho**2 + 2 * rho**4, abs=1e-15
    )
    rng = np.random.default_rng(42)
    for _ in range(100):
        cov = rand_spd(rng, 3)
        assert cf.xi(cov) == pytest.approx(
            central_moment(cov, (2, 2, 2)), rel=1e-12
        )


def test_lambda_identity_matrix_table():
    eye = np.eye(3)
    assert cf.lambda_paper(eye, 2, 2) == 3.0
    assert cf.lambda_wick(eye, 2, 2) == 3.0
    assert cf.lambda_paper(eye, 0, 0) == 1.0
    assert cf.lambda_wick(eye, 0, 0) == 3.0  # the factorization drops pairings here


def test_lambda_diagonal_cross_terms_vanish():
    cov = np.diag([1.0, 2.0, 3.0])
    assert cf.lambda_paper(cov, 0, 1) == 0.0
    assert cf.lambda_wick(cov, 0, 1) == 0.0


def test_lambda_wick_is_the_order_eight_moment():
    rng = np.random.default_rng(1)
    cov = rand_spd(rng, 3)
    assert cf.lambda_wick(cov, 0, 1) == central_moment(cov, (3, 3, 2))
    assert cf.lambda_wick(cov, 2, 2) == central_moment(cov, (2, 2, 4))


def test_wde_trivariate_identity_values():
    dist = Gaussian(np.zeros(3), np.eye(3))
    wick = cf.wde_trivariate(dist, "wick")
    paper = cf.wde_trivariate(dist, "paper")
    assert wick == pytest.approx(3 * (0.5 * math.log(2 * math.pi) + 1.5), abs=1e-12)
    assert paper == pytest.approx(1.5 * math.log(2 * math.pi) + 2.5, abs=1e-12)


def test_wde_trivariate_wick_matches_quadrature():
    dist = cf.example1_cov(0.3)
    grid = GridSpec.for_gaussians([dist], 96)
    quad = wde_quadrature(dist.pdf, CentralWeight(dist.mean), grid)
    assert cf.wde_trivariate(dist, "wick") == pytest.approx(quad, abs=1e-4)
    # mean translation leaves the mean-centered weighted entropy unchanged
    shifted = Gaussian(np.array([1.0, -2.0, 0.5]), dist.cov)
    assert cf.wde_trivariate(shifted, "wick") == cf.wde_trivariate(dist, "wick")


def test_relative_de_pair_decoupled_constants():
    pc = cf.PairConditional.from_example1(0.0, 1.23)
    assert cf.relative_de_pair(pc, "paper") == pytest.approx(1.0, abs=1e-14)
    assert cf.relative_de_pair(pc, "corrected") == pytest.approx(0.0, abs=1e-14)


def test_relative_de_pair_example1_printed_value():
    rho, x3 = 0.4, 1.0
    pc = cf.PairConditional.from_example1(rho, x3)
    expected = 0.5 * math.log(0.84 / 0.8144) + 1.0
    assert cf.relative_de_pair(pc, "paper") == pytest.approx(expected, abs=1e-12)
    assert cf.example1_relative_de_paper(rho, x3) == pytest.approx(expected, abs=1e-15)


EXAMPLE1_EDGE = math.sqrt((math.sqrt(5.0) - 1.0) / 2.0)  # 1 - rho^2 - rho^4 = 0
PRINTED_ON_A_ROW = {
    "example1_relative_de_paper": (cf.example1_relative_de_paper, 1),
    "example1_relative_we_paper": (cf.example1_relative_we_paper, 1),
    "example2_relative_de_paper": (cf.example2_relative_de_paper, 2),
    "example2_relative_we_paper": (cf.example2_relative_we_paper, 2),
    "example2_theta_paper": (cf.example2_theta_paper, 2),
    **{f"example2_lambda_bar_paper[{i}{j}]":
       (lambda rho, x3, i=i, j=j: cf.example2_lambda_bar_paper(rho, x3, i, j), 2)
       for i, j in PAIR_KEYS},
    **{f"example2_upsilon_paper[{i}{j}]":
       (lambda rho, x3, i=i, j=j: cf.example2_upsilon_paper(rho, x3, i, j), 2)
       for i, j in PAIR_KEYS},
}


@pytest.mark.parametrize("name", sorted(PRINTED_ON_A_ROW))
def test_printed_evaluators_on_an_x3_row_are_the_per_point_floats(name):
    # scan calls these once per rho row: every x3 term is + - * / on x3 * x3
    printed, example = PRINTED_ON_A_ROW[name]
    edge = EXAMPLE1_EDGE * (1.0 - 1e-12)
    rhos = [-edge, -0.7, -0.3, 0.0, 0.45, edge] if example == 1 else [1e-12, 0.2, 0.4, 0.5 - 1e-12]
    rng = np.random.default_rng(25)
    rows = [np.linspace(-3.0, 3.0, 31) + rng.uniform(-0.05, 0.05, 31) for _ in range(2)]
    rows[0][[7, 15]] = -0.0, 0.0
    rows.append(np.array([-5e199, -1e150, -0.0, 1e-160, 5e199]))  # x3 * x3 overflows
    for rho in rhos:
        for x3s in rows:
            with np.errstate(all="ignore"):
                row = printed(rho, x3s)
            points = np.array([printed(float(rho), x3) for x3 in x3s.tolist()])
            assert row.shape == x3s.shape
            assert np.array_equal(row, points, equal_nan=True), (rho, x3s)
            assert np.array_equal(np.signbit(row), np.signbit(points)), (rho, x3s)


def test_relative_de_pair_example2_printed_value():
    rho = 0.25
    pc = cf.PairConditional.from_example2(rho, 0.0)
    printed = 0.5 * (1 + rho - math.log(rho)) - 1.0
    assert cf.example2_relative_de_paper(rho, 0.0) == pytest.approx(printed, abs=1e-15)
    assert cf.relative_de_pair(pc, "corrected") == pytest.approx(printed, abs=1e-12)
    assert cf.relative_de_pair(pc, "paper") == pytest.approx(printed + 1.0, abs=1e-12)


def test_relative_de_pair_corrected_equals_kl():
    for pc in pair_cases():
        assert cf.relative_de_pair(pc, "corrected") == pytest.approx(
            gaussian_kl(pc.cond, pc.pair), abs=1e-10
        )
        assert cf.relative_de_pair(pc, "corrected") >= 0.0


def test_theta_example1_printed_polynomial():
    for rho in (0.1, 0.3, 0.5, 0.7):
        for x3 in (-2.0, -0.5, 0.0, 1.0, 2.5):
            pc = cf.PairConditional.from_example1(rho, x3)
            assert cf.theta(pc) == pytest.approx(
                cf.example1_theta_paper(rho, x3), abs=1e-12
            )


def test_theta_diagonal_at_mean_is_variance_product():
    dist = Gaussian(np.zeros(3), np.diag([1.0, 2.0, 3.0]))
    pc = cf.PairConditional(dist, 0.0)
    assert cf.theta(pc) == pytest.approx(2.0, abs=1e-14)


def test_theta_example2_against_quadrature_oracle():
    # the printed second-family polynomial overstates the constant term by
    # exactly 2 rho^4; the quadrature oracle sides with the shifted moment
    for rho, x3 in ((0.25, 1.0), (0.1, 2.0), (0.4, 0.5)):
        pc = cf.PairConditional.from_example2(rho, x3)
        oracle = grid_moment(
            pc.cond.mean, pc.cond.cov, (2, 2), points=256, centers=np.zeros(2)
        )
        assert cf.theta(pc) == pytest.approx(oracle, rel=1e-7)
        printed = cf.example2_theta_paper(rho, x3)
        assert printed - cf.theta(pc) == pytest.approx(2 * rho**4, abs=1e-12)


def test_lambda_bar_upsilon_zero_shift_reduction():
    # x3 at the third-coordinate mean kills the shift: both reduce to the
    # same centered moment
    dist = cf.example1_cov(0.4)
    pc = cf.PairConditional(dist, 0.0)
    for i, j in PAIR_KEYS:
        spec = [2, 2]
        spec[i] += 1
        spec[j] += 1
        expected = central_moment(pc.cond.cov, spec)
        assert cf.lambda_bar(pc, i, j, "wick") == pytest.approx(expected, abs=1e-13)
        assert cf.upsilon(pc, i, j, "wick") == pytest.approx(expected, abs=1e-13)


def test_lambda_bar_diagonal_cross_terms_vanish():
    dist = Gaussian(np.zeros(3), np.diag([1.0, 2.0, 3.0]))
    pc = cf.PairConditional(dist, 1.0)
    assert cf.lambda_bar(pc, 0, 1, "wick") == 0.0


def test_lambda_bar_wick_against_quadrature():
    pc = cf.PairConditional.from_example1(0.5, 1.5)
    mu = pc.pair.mean
    mu_bar = pc.cond.mean
    for i, j in ((0, 0), (0, 1), (1, 1)):
        def integrand_moment():
            # independent 2-D quadrature of the conditional integrand
            n = 256
            axes, step = [], 1.0
            for k in range(2):
                sd = math.sqrt(pc.cond.cov[k, k])
                lo, hi = mu_bar[k] - 10 * sd, mu_bar[k] + 10 * sd
                h = (hi - lo) / n
                axes.append(lo + (np.arange(n) + 0.5) * h)
                step *= h
            xx, yy = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
            pdf = pc.cond.pdf(pts)
            vals = (
                (pts[:, 0] - mu[0]) ** 2
                * (pts[:, 1] - mu[1]) ** 2
                * (pts[:, i] - mu_bar[i])
                * (pts[:, j] - mu_bar[j])
            )
            return float(np.sum(vals * pdf) * step)

        assert cf.lambda_bar(pc, i, j, "wick") == pytest.approx(
            integrand_moment(), rel=1e-6, abs=1e-9
        )


def test_upsilon_paper_expansion_matches_wick():
    for pc in pair_cases():
        for i, j in PAIR_KEYS:
            assert cf.upsilon(pc, i, j, "paper") == pytest.approx(
                cf.upsilon(pc, i, j, "wick"), rel=1e-12, abs=1e-12
            )


def test_lambda_bar_paper_alignment_defect():
    # equal shifts make the transcribed sum coincide with the exact one;
    # the first family's unequal shifts expose the index misalignment
    pc2 = cf.PairConditional.from_example2(0.25, 1.5)
    for i, j in PAIR_KEYS:
        assert cf.lambda_bar(pc2, i, j, "paper") == pytest.approx(
            cf.lambda_bar(pc2, i, j, "wick"), rel=1e-12, abs=1e-12
        )
    pc1 = cf.PairConditional.from_example1(0.5, 1.0)
    dev = abs(
        cf.lambda_bar(pc1, 0, 0, "paper") - cf.lambda_bar(pc1, 0, 0, "wick")
    )
    s = pc1.cond.cov
    d1sq = pc1.delta[0] ** 2
    expected_gap = abs(
        d1sq * ((s[0, 0] - s[1, 1]) * s[0, 0] + 2 * (s[0, 0] ** 2 - s[1, 0] ** 2))
    )
    assert dev == pytest.approx(expected_gap, rel=1e-10)


def test_pair_entropies_match_quadrature():
    for pc in pair_cases():
        weight = CentralWeight(pc.pair.mean)
        grid = GridSpec.for_gaussians([pc.cond, pc.pair], 192)
        cond_q = wde_quadrature(pc.cond.pdf, weight, grid)
        rel_q = relative_wde_quadrature(pc.cond.pdf, pc.pair.pdf, weight, grid)
        assert cf.cond_wde_pair(pc, "wick") == pytest.approx(cond_q, abs=1e-4)
        assert cf.cross_wde_pair(pc, "wick") == pytest.approx(cond_q + rel_q, abs=1e-4)
        assert cf.relative_we_pair(pc, "wick") == pytest.approx(rel_q, abs=1e-4)


def test_pair_entropies_decoupled_reduction():
    pc = cf.PairConditional.from_example1(0.0, 0.7)
    two_dim_value = 2 * (0.5 * math.log(2 * math.pi) + 1.5)
    assert cf.cond_wde_pair(pc, "wick") == pytest.approx(two_dim_value, abs=1e-12)
    assert cf.cross_wde_pair(pc, "wick") == pytest.approx(two_dim_value, abs=1e-12)
    assert cf.relative_we_pair(pc, "wick") == pytest.approx(0.0, abs=1e-14)


def test_mode_consistency_exact():
    for pc in pair_cases():
        for mode in ("paper", "wick"):
            lhs = cf.relative_we_pair(pc, mode)
            rhs = cf.cross_wde_pair(pc, mode) - cf.cond_wde_pair(pc, mode)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_gibbs_gap_example1():
    for rho in (0.3, 0.5):
        for x3 in (-1.0, 1.0):
            pc = cf.PairConditional.from_example1(rho, x3)
            assert cf.gibbs_gap(pc) == pytest.approx(0.0, abs=1e-12)
    pc = cf.PairConditional.from_example1(0.5, 0.0)
    assert cf.gibbs_gap(pc) == pytest.approx(-0.0625, abs=1e-12)


def test_gibbs_gap_example2_true_value():
    # exact gap: Theta - (1 + 2 (1-2 rho)^2); the printed condition drops the
    # factor 2 and uses the overstated Theta polynomial
    rho, x3 = 0.25, 0.0
    pc = cf.PairConditional.from_example2(rho, x3)
    expected = cf.theta(pc) - (1 + 2 * (1 - 2 * rho) ** 2)
    assert cf.gibbs_gap(pc) == pytest.approx(expected, abs=1e-12)
    unconditional = grid_moment(
        np.zeros(2), pc.pair.cov, (2, 2), points=256, centers=np.zeros(2)
    )
    assert 1 + 2 * (1 - 2 * rho) ** 2 == pytest.approx(unconditional, rel=1e-8)


def test_printed_example1_we_collapses_at_zero_coupling():
    assert cf.example1_relative_we_paper(0.0, 1.7) == pytest.approx(0.0, abs=1e-14)
    pc = cf.PairConditional.from_example1(0.0, 1.7)
    assert cf.relative_we_pair(pc, "wick") == pytest.approx(0.0, abs=1e-14)


def test_printed_evaluators_are_even_in_rho_and_x3():
    for rho, x3 in ((0.3, 1.2), (0.55, 2.0)):
        base = cf.example1_relative_we_paper(rho, x3)
        for sr, sx in ((-1, 1), (1, -1), (-1, -1)):
            assert cf.example1_relative_we_paper(sr * rho, sx * x3) == base
        pc = cf.PairConditional.from_example1(rho, x3)
        wick = cf.relative_we_pair(pc, "wick")
        for sr, sx in ((-1, 1), (1, -1), (-1, -1)):
            other = cf.PairConditional.from_example1(sr * rho, sx * x3)
            assert cf.relative_we_pair(other, "wick") == pytest.approx(wick, abs=1e-12)


def test_printed_evaluator_domain_errors():
    with pytest.raises(DomainError):
        cf.example1_relative_we_paper(0.9, 0.0)
    with pytest.raises(DomainError):
        cf.example2_relative_we_paper(0.6, 0.0)
    with pytest.raises(DomainError):
        cf.example2_relative_de_paper(0.0, 0.0)


def test_example1_paper_divergence_monotonicity():
    # nondecreasing in |x3| at fixed rho and in |rho| at fixed x3
    rhos = np.linspace(-0.7, 0.7, 29)
    x3s = np.linspace(-3.0, 3.0, 31)
    for rho in rhos:
        pos = [cf.example1_relative_de_paper(rho, x) for x in x3s if x >= 0]
        assert all(b - a >= -1e-12 for a, b in zip(pos, pos[1:]))
        neg = [cf.example1_relative_de_paper(rho, x) for x in x3s if x <= 0]
        assert all(a - b >= -1e-12 for a, b in zip(neg, neg[1:]))
    for x3 in x3s:
        pos = [cf.example1_relative_de_paper(r, x3) for r in rhos if r >= 0]
        assert all(b - a >= -1e-12 for a, b in zip(pos, pos[1:]))


def test_example2_paper_divergence_decreases_in_rho():
    for x3 in (0.0, 1.0, 2.5):
        values = [cf.example2_relative_de_paper(r, x3) for r in np.linspace(0.05, 0.45, 17)]
        assert all(b - a < 0 for a, b in zip(values, values[1:]))


def _gauss_hermite_cross_entropy(f, g, centers, nodes):
    # -E_f[prod_k (X_k - a_k)^2 log g(X)]
    def integrand(x):
        return -np.prod((x - centers) ** 2, axis=1) * gaussian_logpdf(x, g.mean, g.cov)

    return gauss_hermite_expectation(f.mean, f.cov, integrand, nodes)


def test_weighted_cross_entropy_matches_gauss_hermite():
    # the integrand has degree 2d + 2 in each coordinate of z, so d + 2 nodes
    # per axis are exact and d + 1 are not
    rng = np.random.default_rng(60)
    worst_short = {}
    for d in range(1, 6):
        for _ in range(10):
            f = Gaussian(rng.normal(size=d), rand_spd(rng, d))
            g = Gaussian(rng.normal(size=d), rand_spd(rng, d))
            centers = rng.normal(size=d)
            got = cf._weighted_cross_entropy(f, g, centers)
            exact = _gauss_hermite_cross_entropy(f, g, centers, d + 2)
            short = _gauss_hermite_cross_entropy(f, g, centers, d + 1)
            assert got == pytest.approx(exact, rel=1e-12), d
            worst_short[d] = max(worst_short.get(d, 0.0), abs(got - short) / abs(exact))
    assert min(worst_short.values()) > 1e-12


def test_wick_modes_are_kernel_instances():
    for pc in pair_cases():
        a = pc.pair.mean
        cond = cf._weighted_cross_entropy(pc.cond, pc.cond, a)
        cross = cf._weighted_cross_entropy(pc.cond, pc.pair, a)
        assert cf.cond_wde_pair(pc, "wick") == cond
        assert cf.cross_wde_pair(pc, "wick") == cross
        assert cf.relative_we_pair(pc, "wick") == cross - cond
    dist = cf.example2_cov(0.25)
    assert cf.wde_trivariate(dist, "wick") == cf._weighted_cross_entropy(dist, dist, dist.mean)


@pytest.mark.parametrize("example", [1, 2])
def test_shared_row_base_is_bit_identical_to_a_fresh_base_per_point(example):
    # PairConditional.from_example* builds a new base, so nothing is shared
    fresh = cf.PairConditional.from_example1 if example == 1 else cf.PairConditional.from_example2
    make_base = cf.example1_cov if example == 1 else cf.example2_cov
    rhos = np.linspace(-0.7, 0.7, 29) if example == 1 else np.linspace(0.01, 0.49, 29)

    def fields(pc):
        out = [pc.delta]
        for g in (pc.pair, pc.cond):
            out += [g.mean, g.cov, g.chol(), g.log_det, g.precision]
        out += [cf.relative_we_pair(pc, mode) for mode in cf.FORMULA_MODES]
        out += [cf.relative_de_pair(pc, mode) for mode in ("paper", "corrected")]
        return out + [cf.theta(pc), cf.gibbs_gap(pc)]

    for rho in rhos:
        base = make_base(rho)
        for x3 in np.linspace(-3.0, 3.0, 31):
            shared, alone = fields(cf.PairConditional(base, x3)), fields(fresh(rho, x3))
            for a, b in zip(shared, alone):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (rho, x3)


def _pair_quantities(pc):
    """Every pair quantity of ``pc``, by name, in both formula modes."""
    out = {"mu_bar": pc.mu_bar.T, "delta": pc.delta.T, "theta": cf.theta(pc),
           "gibbs_gap": cf.gibbs_gap(pc)}
    for mode in ("paper", "corrected"):
        out[f"relative_de_pair[{mode}]"] = cf.relative_de_pair(pc, mode)
    for mode in cf.FORMULA_MODES:
        for f in (cf.cond_wde_pair, cf.cross_wde_pair, cf.relative_we_pair):
            out[f"{f.__name__}[{mode}]"] = f(pc, mode)
        for f in (cf.lambda_bar, cf.upsilon):
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                out[f"{f.__name__}[{i}{j},{mode}]"] = f(pc, i, j, mode)
    return out


@pytest.mark.parametrize("example", [1, 2])
def test_pair_row_is_bit_identical_to_per_point_values(example):
    fresh = cf.PairConditional.from_example1 if example == 1 else cf.PairConditional.from_example2
    make_base = cf.example1_cov if example == 1 else cf.example2_cov
    rhos = (-0.7, -0.25, 0.0, 0.4, 0.78) if example == 1 else (0.01, 0.2, 0.3333, 0.49)
    x3s = np.array([-3.0, -1.7, -0.2, -0.0, 0.0, 0.3, 1.1, 2.9])
    for rho in rhos:
        row = cf.PairConditional(make_base(rho), x3s)
        rows = _pair_quantities(row)
        first = fresh(rho, x3s[0]).cond  # a row's cond is the conditional at its first x3
        assert row.cond.mean.tobytes() == first.mean.tobytes()
        assert row.cond.cov.tobytes() == first.cov.tobytes()
        for k, x3 in enumerate(x3s):
            for name, value in _pair_quantities(fresh(rho, x3)).items():
                assert np.shape(rows[name]) == (x3s.size,) + np.shape(value), name
                got = np.asarray(rows[name][k]).tobytes()
                assert got == np.asarray(value, dtype=float).tobytes(), (name, rho, x3)


def test_pair_row_rejects_non_finite_x3_like_a_point():
    base = cf.example2_cov(0.25)
    with pytest.raises(ValueError, match="x3") as point:
        cf.PairConditional(base, np.inf)
    for x3s in ([0.0, 1.0, np.nan], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="x3") as row:
            cf.PairConditional(base, np.array(x3s))
        assert str(row.value) == str(point.value)


@pytest.mark.parametrize("x3", [np.zeros((2, 3)), np.zeros((1, 1)), np.array([]), []])
def test_pair_conditional_refuses_a_2d_or_empty_x3(x3):
    with pytest.raises(DimensionMismatchError, match="x3 must be one value or a non-empty"):
        cf.PairConditional(cf.example1_cov(0.5), x3)
