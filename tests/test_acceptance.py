"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import itertools
import math

import numpy as np

from helpers import grid_moment, rand_spd, wde_quadrature
from wentropy import closedform as cf
from wentropy.cli import main
from wentropy.discrete import (
    chain_rule_de_check,
    chain_rule_wde_check,
    mutual_de_decomposition_check,
    mutual_wde_decomposition_check,
    random_joint,
    relative_de_identity_check,
)
from wentropy.gaussian import Gaussian, gaussian_kl
from wentropy.moments import central_moment, count_matchings
from wentropy.quadrature import CentralWeight, GridSpec, relative_wde_quadrature
from wentropy.verify import VerifyConfig, _check_lambda_table
from wentropy.wdic import (
    PosteriorDraws,
    SamplerConfig,
    WeightedDataset,
    builtin_model,
    default_log_prior,
    metropolis_sample,
    wdic,
)


def _report(num: int, description: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d}: {description}{suffix}")
    return ok


def test_c01_xi_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        cov = rand_spd(rng, 3)
        wick = central_moment(cov, (2, 2, 2))
        worst = max(worst, abs(cf.xi(cov) - wick) / abs(wick))
    ok = worst <= 1e-12
    assert _report(1, "sixth-order product-moment identity on 100 seeded SPD matrices",
                   ok, f"worst rel dev {worst:.2e}")


def test_c02_wick_oracle_soundness():
    rng = np.random.default_rng(102)
    specs = [
        spec for spec in itertools.product(range(7), repeat=3) if sum(spec) <= 6
    ]
    worst = 0.0
    for _ in range(20):
        cov = rand_spd(rng, 3)
        dist = Gaussian(np.zeros(3), cov)
        # one pdf tensor per matrix; every moment is then a tensor contraction
        points, half = 64, 8.0
        axes, step = [], 1.0
        for k in range(3):
            sd = math.sqrt(cov[k, k])
            h = 2 * half * sd / points
            axes.append(-half * sd + (np.arange(points) + 0.5) * h)
            step *= h
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        pdf = dist.pdf(pts).reshape((points,) * 3)
        powers = [
            np.stack([ax**r for r in range(7)], axis=0) for ax in axes
        ]
        table = np.einsum("ai,bj,ck,ijk->abc", *powers, pdf, optimize=True) * step
        for spec in specs:
            quad = float(table[spec])
            exact = central_moment(cov, spec)
            worst = max(worst, abs(exact - quad) / max(1e-4, abs(exact)))
    counts_ok = all(
        central_moment(np.ones((3, 3)), spec) == count_matchings(sum(spec))
        for spec in specs
        if sum(spec) % 2 == 0
    )
    ok = worst <= 1e-5 and counts_ok
    assert _report(2, "pair-partition moments match tensor quadrature (M <= 6, 20 matrices)",
                   ok, f"worst rel dev {worst:.2e}, counts {'ok' if counts_ok else 'bad'}")


def test_c03_lambda_discrepancy_documented():
    checks_a, checks_b = [], []
    _check_lambda_table(checks_a, VerifyConfig())
    _check_lambda_table(checks_b, VerifyConfig())
    by_key = {(c["formula"], c["point"]): c for c in checks_a}
    lam11 = by_key[("Lambda_11", "Sigma=I")]
    lam33 = by_key[("Lambda_33", "Sigma=I")]
    ok = (
        lam11["paper_value"] == 1.0
        and lam11["wick_value"] == 3.0
        and lam11["verdict"] == "DISCREPANT"
        and lam33["paper_value"] == 3.0
        and lam33["wick_value"] == 3.0
        and lam33["verdict"] == "CONFIRMED"
        and checks_a == checks_b
    )
    assert _report(3, "factored eighth-moment table: _11 DISCREPANT (1 vs 3), _33 CONFIRMED", ok)


def test_c04_weighted_entropy_trivariate_vs_quadrature():
    worst = 0.0
    for example, rhos in ((1, (0.0, 0.3, 0.5)), (2, (0.1, 0.25, 0.4))):
        for rho in rhos:
            dist = cf.example1_cov(rho) if example == 1 else cf.example2_cov(rho)
            grid = GridSpec.for_gaussians([dist], 96)
            quad = wde_quadrature(dist.pdf, CentralWeight(dist.mean), grid)
            worst = max(worst, abs(cf.wde_trivariate(dist, "wick") - quad))
    ok = worst <= 1e-4
    assert _report(4, "trivariate weighted entropy (wick) vs quadrature on both families",
                   ok, f"worst abs dev {worst:.2e}")


def test_c05_relative_de_closed_form_family1():
    worst_paper = worst_kl = 0.0
    min_corrected = math.inf
    zero_at_rho0 = True
    for rho in np.linspace(-0.7, 0.7, 29):
        for x3 in np.linspace(-3.0, 3.0, 31):
            pc = cf.PairConditional.from_example1(float(rho), float(x3))
            printed = cf.example1_relative_de_paper(float(rho), float(x3))
            worst_paper = max(
                worst_paper, abs(printed - cf.relative_de_pair(pc, "paper"))
            )
            corrected = cf.relative_de_pair(pc, "corrected")
            worst_kl = max(worst_kl, abs(corrected - gaussian_kl(pc.cond, pc.pair)))
            min_corrected = min(min_corrected, corrected)
            if rho == 0.0 and abs(corrected) > 1e-12:
                zero_at_rho0 = False
    ok = worst_paper <= 1e-12 and worst_kl <= 1e-10 and min_corrected >= 0.0 and zero_at_rho0
    assert _report(
        5, "printed pair-divergence reproduced on the 29x31 grid; corrected mode is the KL",
        ok, f"paper dev {worst_paper:.2e}, kl dev {worst_kl:.2e}, min {min_corrected:.2e}",
    )


def test_c06_relative_de_closed_form_family2():
    worst = 0.0
    monotone = True
    for x3 in np.linspace(-2.0, 2.0, 9):
        previous = None
        for rho in np.linspace(0.02, 0.48, 24):
            pc = cf.PairConditional.from_example2(float(rho), float(x3))
            printed = cf.example2_relative_de_paper(float(rho), float(x3))
            formula = 0.5 * (1 + rho + (1 - rho) * x3**2 - math.log(rho)) - 1.0
            worst = max(
                worst,
                abs(printed - formula),
                abs(printed - cf.relative_de_pair(pc, "corrected")),
            )
            if previous is not None and printed >= previous:
                monotone = False
            previous = printed
    ok = worst <= 1e-12 and monotone
    assert _report(
        6, "second family's printed divergence matches the corrected value and decreases in rho",
        ok, f"worst dev {worst:.2e}, monotone {monotone}",
    )


def _example2_theta_exact(rho: float, x3: float) -> float:
    """Hand-derived E[X_1^2 X_2^2 | X_3 = x3] for the second family.

    Given X_3 = x3 the pair has variance s = rho(2-rho), covariance c = -rho^2
    and equal means d = (1-rho) x3, so by Isserlis
    E = s^2 + 2c^2 + (2s + 4c) d^2 + d^4.
    """
    s, c, d = rho * (2.0 - rho), -rho * rho, (1.0 - rho) * x3
    return s * s + 2.0 * c * c + (2.0 * s + 4.0 * c) * d * d + d**4


def test_c07_theta_formulas():
    # (a) the first family's printed polynomial is exact
    worst1 = 0.0
    for rho in (0.1, 0.3, 0.5, 0.7):
        for x3 in np.linspace(-3.0, 3.0, 13):
            pc = cf.PairConditional.from_example1(rho, float(x3))
            worst1 = max(worst1, abs(cf.theta(pc) - cf.example1_theta_paper(rho, float(x3))))
    # (b) the shifted moment matches the hand derivation, and (d) the printed
    # second-family polynomial exceeds it by exactly 2 rho^4 in the constant term
    worst_exact = worst_defect = 0.0
    for rho in (0.05, 0.1, 0.25, 0.4, 0.45):
        for x3 in np.linspace(-3.0, 3.0, 13):
            pc = cf.PairConditional.from_example2(rho, float(x3))
            exact = cf.theta(pc)
            worst_exact = max(worst_exact, abs(exact - _example2_theta_exact(rho, float(x3))))
            defect = cf.example2_theta_paper(rho, float(x3)) - exact
            worst_defect = max(worst_defect, abs(defect - 2.0 * rho**4))
    # (c) a midpoint-rule oracle at the grid's corners and centre
    worst_quad = 0.0
    for rho, x3 in ((0.05, -3.0), (0.45, 3.0), (0.25, 0.0)):
        pc = cf.PairConditional.from_example2(rho, x3)
        oracle = grid_moment(pc.cond.mean, pc.cond.cov, (2, 2), points=256, centers=np.zeros(2))
        worst_quad = max(worst_quad, abs(cf.theta(pc) - oracle) / abs(oracle))
    ok = worst1 <= 1e-12 and worst_exact <= 1e-12 and worst_quad <= 1e-7 and worst_defect <= 1e-12
    assert _report(
        7, "first family's printed polynomial is exact; second family's printed "
           "constant is off by exactly +2 rho^4",
        ok,
        f"family-1 printed dev {worst1:.2e}; family-2 exact vs hand derivation "
        f"{worst_exact:.2e}, vs quadrature rel {worst_quad:.2e}; "
        f"printed - exact - 2 rho^4 {worst_defect:.2e}",
    ), (
        f"family-1 printed vs exact {worst1:.3e} (limit 1e-12); family-2 exact "
        f"vs hand derivation {worst_exact:.3e} (limit 1e-12), vs quadrature rel "
        f"{worst_quad:.3e} (limit 1e-7); printed minus exact departs from the "
        f"documented 2 rho^4 by {worst_defect:.3e} (limit 1e-12)"
    )


def test_c08_gibbs_gap_and_implication():
    worst = 0.0
    for rho in (0.2, 0.4, 0.6):
        for x3 in np.linspace(-3.0, 3.0, 13):
            pc = cf.PairConditional.from_example1(rho, float(x3))
            worst = max(worst, abs(cf.gibbs_gap(pc) - rho**4 * (x3**2 - 1)))
    basket = [
        cf.PairConditional.from_example1(0.5, 0.9),
        cf.PairConditional.from_example1(0.7, 0.5),
        cf.PairConditional.from_example1(0.3, 1.5),
        cf.PairConditional.from_example1(0.5, 2.0),
        cf.PairConditional.from_example2(0.05, 0.0),
        cf.PairConditional.from_example2(0.1, 0.5),
        cf.PairConditional.from_example2(0.25, 1.0),
        cf.PairConditional.from_example2(0.25, 3.0),
        cf.PairConditional.from_example2(0.4, 2.0),
    ]
    min_dw = math.inf
    negative_gaps = 0
    for pc in basket:
        gap = cf.gibbs_gap(pc)
        negative_gaps += gap < 0
        min_dw = min(min_dw, cf.relative_we_pair(pc, "wick"))
    ok = worst <= 1e-12 and min_dw >= -1e-8 and negative_gaps >= 3
    assert _report(
        8, "condition gap matches rho^4(x3^2-1); divergence stays nonnegative on the basket",
        ok, f"gap dev {worst:.2e}, min divergence {min_dw:.2e}, "
            f"{negative_gaps} negative-gap points",
    )


def test_c09_discrete_identity_suites():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 5)) for _ in range(n))
        joint = random_joint(rng, dims)
        weight = CentralWeight(rng.uniform(-1.0, 1.0, size=n))
        lhs, rhs = chain_rule_de_check(joint)
        worst = max(worst, abs(lhs - rhs))
        lhs, rhs, _ = chain_rule_wde_check(joint, weight)
        worst = max(worst, abs(lhs - rhs))
        res = mutual_de_decomposition_check(joint)
        worst = max(worst, abs(res.lhs - res.rhs), abs(res.lhs - res.rhs_expectation))
        lhs, rhs = mutual_wde_decomposition_check(joint, weight)
        worst = max(worst, abs(lhs - rhs))
        res = relative_de_identity_check(joint, int(rng.integers(1, n)))
        worst = max(
            worst, float(np.max(np.abs(res.lhs - res.rhs))), abs(res.mutual - res.expected)
        )
    ok = worst <= 1e-10
    assert _report(9, "five discrete identity checkers over 200 seeded pmfs each",
                   ok, f"worst |lhs - rhs| {worst:.2e}")


def test_c10_pair_formula_coherence():
    worst_mode = worst_quad = 0.0
    for example in (1, 2):
        rhos = (0.2, 0.35, 0.5, 0.65, 0.7) if example == 1 else (0.05, 0.15, 0.25, 0.35, 0.45)
        make = (
            cf.PairConditional.from_example1 if example == 1 else cf.PairConditional.from_example2
        )
        for rho in rhos:
            for x3 in (-1.5, 0.0, 0.75, 2.0):
                pc = make(rho, x3)
                for mode in ("paper", "wick"):
                    lhs = cf.relative_we_pair(pc, mode)
                    rhs = cf.cross_wde_pair(pc, mode) - cf.cond_wde_pair(pc, mode)
                    worst_mode = max(worst_mode, abs(lhs - rhs))
                weight = CentralWeight(pc.pair.mean)
                grid = GridSpec.for_gaussians([pc.cond, pc.pair], 192)
                quad = relative_wde_quadrature(pc.cond.pdf, pc.pair.pdf, weight, grid)
                worst_quad = max(worst_quad, abs(cf.relative_we_pair(pc, "wick") - quad))
    ok = worst_mode <= 1e-12 and worst_quad <= 1e-4
    assert _report(
        10, "divergence = cross - conditional per mode; wick matches quadrature on the basket",
        ok, f"mode dev {worst_mode:.2e}, quad dev {worst_quad:.2e}",
    )


def test_c11_wdic_reduction_penalty_and_recovery():
    # exact classical-DIC reduction on the conjugate toy
    rng = np.random.default_rng(111)
    y = rng.normal(0.6, 1.0, size=(40, 1))
    data = WeightedDataset(y, np.ones(40))
    model = builtin_model("normal-mean")
    post_var = 1.0 / (40 + 0.01)
    post_mean = post_var * y.sum()
    draws = PosteriorDraws(
        rng.normal(post_mean, math.sqrt(post_var), size=(6000, 1)), provenance="conjugate"
    )
    result = wdic(model, draws, data)

    def dev(theta):
        return -2.0 * float(
            np.sum(-0.5 * math.log(2 * math.pi) - (y[:, 0] - theta) ** 2 / 2.0)
        )

    theta_bar = float(np.mean(np.sort(draws.draws[:, 0])))
    dev_hat = dev(theta_bar)
    pd_classic = float(np.mean(np.sort(np.array([dev(t[0]) - dev_hat for t in draws.draws]))))
    reduction_exact = (
        result.dev_at_hat == dev_hat
        and result.pwd == pd_classic
        and result.wdic == dev_hat + 2 * pd_classic
    )
    # one free parameter: the penalty sits near 1 within Monte Carlo error
    devs = np.array([dev(t[0]) - dev_hat for t in draws.draws])
    se = float(np.std(devs, ddof=1) / math.sqrt(draws.draws.shape[0]))
    penalty_ok = abs(result.pwd - 1.0) <= 3 * se

    # model recovery: data from the sd-2 model; tail-emphasizing weights make
    # the scale mismatch of the sd-1 candidate expensive exactly where it hurts
    model_true = builtin_model("normal-mean-sd2")
    model_wrong = builtin_model("normal-mean")
    wins = 0
    for rep in range(100):
        rep_rng = np.random.default_rng(5000 + rep)
        data_rep = WeightedDataset(
            rep_rng.normal(0.8, 2.0, size=(40, 1)), np.ones(40)
        ).with_central_weights([0.8])
        cfg = SamplerConfig(steps=1200, burn_in=200, step_size=0.4, seed=6000 + rep)
        scores = {}
        for name, m in (("a", model_true), ("b", model_wrong)):
            d = metropolis_sample(m, default_log_prior(m), data_rep, cfg)
            scores[name] = wdic(m, d, data_rep).wdic
        wins += scores["a"] < scores["b"]
    ok = reduction_exact and penalty_ok and wins >= 95
    assert _report(
        11, "unit weights give the classical DIC; penalty near 1; generating model selected",
        ok, f"reduction {'exact' if reduction_exact else 'OFF'}, "
            f"pwd {result.pwd:.4f} (se {se:.4f}), recovery {wins}/100",
    )


def test_c12_end_to_end_determinism(tmp_path, capsys):
    pairs = []
    for tag in ("a", "b"):
        scan_out = tmp_path / f"scan_{tag}.csv"
        wdic_out = tmp_path / f"wdic_{tag}.json"
        assert main(
            ["scan", "--example", "1", "--rho=-0.6:0.6:11", "--x3=-2:2:9",
             "--out", str(scan_out)]
        ) == 0
        data = tmp_path / "data.csv"
        if tag == "a":
            rng = np.random.default_rng(112)
            rows = "\n".join(f"{v:.17g},1" for v in rng.normal(0.3, 1.0, size=30))
            data.write_text("y_1,weight\n" + rows + "\n")
        assert main(
            ["wdic", "--data", str(data), "--sample", "2000,500,0.4,31",
             "--out", str(wdic_out)]
        ) == 0
        pairs.append((scan_out.read_bytes(), wdic_out.read_bytes()))
    capsys.readouterr()
    ok = pairs[0] == pairs[1]
    assert _report(12, "scan and wdic commands emit byte-identical output under a fixed seed", ok)
