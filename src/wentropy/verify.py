"""Verification basket: measure every transcribed formula against the oracles.

Two kinds of checks run here.  Oracle checks (wick mode against quadrature or
Monte Carlo, exact algebraic identities, the discrete identity suite) must pass
their tolerances or the run fails.  Transcription checks compare the verbatim
formulas against wick mode and only report a CONFIRMED/DISCREPANT verdict; a
deviation there is a finding, not a failure.

Each check record carries {formula, mode, point, paper_value, wick_value,
quadrature_value, abs_dev, verdict}.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import closedform as cf
from .discrete import (
    chain_rule_de_check,
    chain_rule_wde_check,
    mutual_de_decomposition_check,
    mutual_wde_decomposition_check,
    random_joint,
    relative_de_identity_check,
    relative_we_identity_check,
)
from .gaussian import ConditionSpec, condition, gaussian_kl
from .moments import central_moment
from .quadrature import (
    MIN_POINTS,
    CentralWeight,
    GridSpec,
    McConfig,
    relative_wde_monte_carlo,
    relative_wde_quadrature,
    wde_quadrature,
)

FORMULA_RTOL = 1e-10  # transcription agreement threshold (relative, floored)
IDENTITY_TOL = 1e-10
KL_TOL = 1e-10
GIBBS_FLOOR = -1e-8
# A check that scans several points reports the first one whose deviation is
# within rounding of the largest, not the first strict maximum: many
# deviations are the same at every point up to the last bits (a constant
# printed defect), and a last-bit change in a moment must not move the point.
WORST_RTOL = 1e-9
WORST_FLOOR = 1e-12

EXAMPLE1_RHOS = (0.0, 0.3, 0.5)
EXAMPLE2_RHOS = (0.1, 0.25, 0.4)
PAIR_X3S = (-2.0, 0.0, 0.5, 1.5)


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 20250801
    tol_quad: float = 1e-4
    tri_points: int = 96
    pair_points: int = 192
    mc_samples: int = 200_000
    discrete_cases: int = 50

    def __post_init__(self):
        if not (np.isfinite(self.tol_quad) and self.tol_quad > 0):
            raise ValueError(f"tol_quad must be positive and finite, got {self.tol_quad}")
        if self.discrete_cases < 1:
            raise ValueError(f"discrete_cases must be at least 1, got {self.discrete_cases}")
        McConfig(self.mc_samples, self.seed)  # its minimum and message, before any check runs
        for n in (self.tri_points, self.pair_points):
            if n < MIN_POINTS:  # GridSpec's minimum and message
                raise ValueError(f"need at least {MIN_POINTS} points per axis, got {n}")


def _record(formula, mode, point, paper=None, wick=None, quad=None, dev=None, verdict=None):
    return {
        "formula": formula,
        "mode": mode,
        "point": point,
        "paper_value": paper,
        "wick_value": wick,
        "quadrature_value": quad,
        "abs_dev": dev,
        "verdict": verdict,
    }


def _transcription(formula, point, paper, wick):
    dev = abs(paper - wick)
    verdict = "CONFIRMED" if dev <= max(FORMULA_RTOL, FORMULA_RTOL * abs(wick)) else "DISCREPANT"
    return _record(formula, "paper-vs-wick", point, paper=paper, wick=wick, dev=dev, verdict=verdict)


def _oracle(formula, mode, point, wick, quad, tol):
    dev = abs(wick - quad)
    return _record(
        formula, mode, point, wick=wick, quad=quad, dev=dev,
        verdict="OK" if dev <= tol else "FAIL",
    )


def _worst(candidates):
    """The first ``(dev, ...)`` candidate whose dev is within rounding of the
    largest: dev >= max - max(WORST_RTOL * max, WORST_FLOOR)."""
    top = max(c[0] for c in candidates)
    cut = top - max(WORST_RTOL * top, WORST_FLOOR)
    return next(c for c in candidates if c[0] >= cut)


def _worst_transcription(formula, rows):
    """The transcription record of the worst ``(paper, wick, point)`` row."""
    _, paper, wick, point = _worst([(abs(p - w), p, w, pt) for p, w, pt in rows])
    return _transcription(formula, point, paper, wick)


def _random_spd(rng: np.random.Generator, n: int = 3) -> np.ndarray:
    a = rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    eigs = rng.uniform(0.3, 3.0, size=n)
    return (q * eigs) @ q.T


def _family_bases() -> dict:
    """One base Gaussian per verified (example, rho)."""
    bases = {(1, rho): cf.example1_cov(rho) for rho in EXAMPLE1_RHOS}
    bases.update({(2, rho): cf.example2_cov(rho) for rho in EXAMPLE2_RHOS})
    return bases


def _pair_cases(bases: dict) -> dict:
    """Per example, the ``(point, PairConditional)`` cases over ``PAIR_X3S``."""
    cases = {1: [], 2: []}
    for (example, rho), base in bases.items():
        if example == 1 and rho == 0.0:
            continue  # conditional equals marginal; covered by the trivial tests
        for x3 in PAIR_X3S:
            point = {"example": example, "rho": rho, "x3": x3}
            cases[example].append((point, cf.PairConditional(base, x3)))
    return cases


def _check_xi(checks, cfg):
    rng = np.random.default_rng(cfg.seed)
    candidates = []
    for _ in range(100):
        cov = _random_spd(rng)
        paper = cf.xi(cov)
        wick = central_moment(cov, (2, 2, 2))
        candidates.append((abs(paper - wick) / abs(wick), paper, wick))
    rel, paper, wick = _worst(candidates)
    checks.append(
        _record(
            "Xi-identity", "paper-vs-wick", {"matrices": 100, "worst_rel_dev": rel},
            paper=paper, wick=wick, dev=abs(paper - wick),
            verdict="CONFIRMED" if rel <= 1e-12 else "DISCREPANT",
        )
    )


def _check_lambda_table(checks, cfg):
    rng = np.random.default_rng(cfg.seed + 1)
    cases = [("Sigma=I", np.eye(3)), ("Sigma=random-spd", _random_spd(rng))]
    for label, cov in cases:
        for i in range(3):
            for j in range(3):
                paper = cf.lambda_paper(cov, i, j)
                wick = cf.lambda_wick(cov, i, j)
                checks.append(
                    _transcription(f"Lambda_{i + 1}{j + 1}", label, paper, wick)
                )


def _check_weightednormal(checks, cfg, bases):
    for (example, rho), dist in bases.items():
        point = {"example": example, "rho": rho}
        wick = cf.wde_trivariate(dist, "wick")
        paper = cf.wde_trivariate(dist, "paper")
        grid = GridSpec.for_gaussian(dist, cfg.tri_points)
        quad = wde_quadrature(dist.pdf, CentralWeight(dist.mean), grid)
        checks.append(_transcription("weighted-entropy-trivariate", point, paper, wick))
        checks.append(
            _oracle(
                "weighted-entropy-trivariate", "wick-vs-quadrature", point,
                wick, quad, cfg.tol_quad,
            )
        )


def _check_theta(checks, pairs):
    for example, cases in pairs.items():
        printed = cf.example1_theta_paper if example == 1 else cf.example2_theta_paper
        rows = [(printed(p["rho"], p["x3"]), cf.theta(pc), p) for p, pc in cases]
        checks.append(_worst_transcription(f"Theta-example{example}", rows))


def _check_conditional_moments(checks, pairs):
    printed = {
        1: (cf.example1_lambda_bar_paper, cf.example1_upsilon_paper),
        2: (cf.example2_lambda_bar_paper, cf.example2_upsilon_paper),
    }
    # generic paper mode first, then the printed per-example polynomials
    for suffix in ("", "-printed"):
        for example, cases in pairs.items():
            lam_printed, ups_printed = printed[example]
            for (i, j) in ((0, 0), (0, 1), (1, 1)):
                lams, upss = [], []
                for p, pc in cases:
                    if suffix:
                        lam_p = lam_printed(p["rho"], p["x3"], i, j)
                        ups_p = ups_printed(p["rho"], p["x3"], i, j)
                    else:
                        lam_p = cf.lambda_bar(pc, i, j, "paper")
                        ups_p = cf.upsilon(pc, i, j, "paper")
                    lams.append((lam_p, cf.lambda_bar(pc, i, j, "wick"), p))
                    upss.append((ups_p, cf.upsilon(pc, i, j, "wick"), p))
                name = f"{i + 1}{j + 1}-example{example}{suffix}"
                checks.append(_worst_transcription(f"LambdaBar_{name}", lams))
                checks.append(_worst_transcription(f"Upsilon_{name}", upss))


def _pair_quadratures(pc: cf.PairConditional, points: int):
    weight = CentralWeight(pc.pair.mean)
    grid = GridSpec.for_gaussians([pc.cond, pc.pair], points)
    cond_q = wde_quadrature(pc.cond.pdf, weight, grid)
    rel_q = relative_wde_quadrature(pc.cond.pdf, pc.pair.pdf, weight, grid)
    # -int phi f(.|x3) log f_pair = weighted entropy of the conditional plus
    # the weighted divergence from the marginal
    cross_q = cond_q + rel_q
    return cond_q, cross_q, rel_q


def _check_pair_formulas(checks, cfg, pairs):
    for example, cases in pairs.items():
        printed_dw = (
            cf.example1_relative_we_paper if example == 1 else cf.example2_relative_we_paper
        )
        for point, pc in cases:
            cond_q, cross_q, rel_q = _pair_quadratures(pc, cfg.pair_points)
            cond_w = cf.cond_wde_pair(pc, "wick")
            cross_w = cf.cross_wde_pair(pc, "wick")
            rel_w = cf.relative_we_pair(pc, "wick")
            checks.append(
                _oracle("cond-wde-pair", "wick-vs-quadrature", point, cond_w, cond_q, cfg.tol_quad)
            )
            checks.append(
                _oracle("cross-wde-pair", "wick-vs-quadrature", point, cross_w, cross_q, cfg.tol_quad)
            )
            checks.append(
                _oracle("relative-we-pair", "wick-vs-quadrature", point, rel_w, rel_q, cfg.tol_quad)
            )
            rel_p = cf.relative_we_pair(pc, "paper")
            for mode, lhs in (("paper", rel_p), ("wick", rel_w)):
                rhs = cf.cross_wde_pair(pc, mode) - cf.cond_wde_pair(pc, mode)
                checks.append(
                    _record(
                        "relative-we-mode-consistency", f"{mode}-mode", point,
                        wick=lhs, quad=rhs, dev=abs(lhs - rhs),
                        verdict="OK" if abs(lhs - rhs) <= 1e-12 else "FAIL",
                    )
                )
            checks.append(_transcription("relative-we-pair", point, rel_p, rel_w))
            checks.append(
                _transcription(
                    f"relative-we-example{example}-printed", point,
                    printed_dw(point["rho"], point["x3"]), rel_w,
                )
            )
            # weighted Gibbs: a nonnegative condition gap must force a
            # nonnegative divergence; a negative gap forces nothing (the
            # divergence can and does dip below zero at small |x3|)
            gap = cf.gibbs_gap(pc)
            ok = gap < 0.0 or min(rel_q, rel_w) >= GIBBS_FLOOR
            checks.append(
                _record(
                    "gibbs-implication", "oracle", {**point, "condition_gap": gap},
                    wick=rel_w, quad=rel_q, dev=max(0.0, -min(rel_q, rel_w)),
                    verdict="OK" if ok else "FAIL",
                )
            )


def _check_relative_de(checks, cfg):
    # first family: transcribed form against the generic paper-mode formula
    # both modes from one row per rho; the KL oracle conditions on its own
    printed_devs, kl_devs = [], []
    x3s = np.linspace(-3.0, 3.0, 31)
    for rho in np.linspace(-0.7, 0.7, 29):
        base = cf.example1_cov(rho)
        row = cf._PairRow(base, x3s)
        generics = cf.relative_de_pair(row, "paper")
        correcteds = cf.relative_de_pair(row, "corrected")
        for x3, generic, corrected in zip(x3s, generics, correcteds):
            point = {"example": 1, "rho": float(rho), "x3": float(x3)}
            printed = cf.example1_relative_de_paper(rho, x3)
            kl = gaussian_kl(condition(base, ConditionSpec((0, 1), (2,), [x3])), row.pair)
            printed_devs.append((abs(printed - generic), printed, generic, point))
            kl_devs.append((abs(corrected - kl), corrected, kl, point))
    dev_p, printed, generic, point = _worst(printed_devs)
    checks.append(
        _record(
            "relative-de-example1-printed", "paper-vs-paper-mode", point,
            paper=printed, wick=generic, dev=dev_p,
            verdict="CONFIRMED" if dev_p <= 1e-12 else "DISCREPANT",
        )
    )
    dev_k, corrected, kl, point = _worst(kl_devs)
    checks.append(
        _record(
            "relative-de-corrected-vs-kl", "oracle", point,
            wick=corrected, quad=kl, dev=dev_k,
            verdict="OK" if dev_k <= KL_TOL else "FAIL",
        )
    )
    # second family: its printed closed form equals the corrected value, and
    # sits exactly 1 below the generic paper-mode representation
    pc = cf.PairConditional.from_example2(0.25, 1.0)
    printed = cf.example2_relative_de_paper(0.25, 1.0)
    corrected = cf.relative_de_pair(pc, "corrected")
    point = {"example": 2, "rho": 0.25, "x3": 1.0}
    dev = abs(printed - corrected)
    checks.append(
        _record(
            "relative-de-example2-printed-vs-corrected", "transcription", point,
            paper=printed, wick=corrected, dev=dev,
            verdict="CONFIRMED" if dev <= 1e-12 else "DISCREPANT",
        )
    )
    checks.append(
        _transcription(
            "relative-de-example2-printed-vs-paper-mode", point,
            printed, cf.relative_de_pair(pc, "paper"),
        )
    )


def _discrete_deviations(joint, centers, split) -> tuple:
    """The six identity deviations of one pmf, in :func:`_check_discrete`'s order."""
    weight = CentralWeight(centers)
    chain = chain_rule_de_check(joint)
    chain_w = chain_rule_wde_check(joint, weight)
    mutual = mutual_de_decomposition_check(joint)
    mutual_w = mutual_wde_decomposition_check(joint, weight)
    rel = relative_de_identity_check(joint, split)
    rel_w = relative_we_identity_check(
        joint, CentralWeight(centers[:split]), CentralWeight(centers[split:]), split
    )
    return (
        abs(chain.lhs - chain.rhs),
        abs(chain_w.lhs - chain_w.rhs),
        max(abs(mutual.lhs - mutual.rhs), abs(mutual.lhs - mutual.rhs_expectation)),
        abs(mutual_w.lhs - mutual_w.rhs),
        max(float(np.max(np.abs(rel.lhs - rel.rhs))), abs(rel.mutual - rel.expected)),
        max(float(np.max(np.abs(rel_w.lhs - rel_w.rhs))), abs(rel_w.mutual - rel_w.expected)),
    )


def _check_discrete(checks, cfg):
    rng = np.random.default_rng(cfg.seed + 2)
    names = (
        "chain-rule-de", "chain-rule-wde", "mutual-de-decomposition",
        "mutual-wde-decomposition", "relative-de-identity", "relative-we-identity",
    )
    worst = [0.0] * len(names)
    for _ in range(cfg.discrete_cases):
        n = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 5)) for _ in range(n))
        joint = random_joint(rng, dims)
        centers = rng.uniform(-1.0, 1.0, size=n)
        split = int(rng.integers(1, n))
        worst = list(map(max, worst, _discrete_deviations(joint, centers, split)))
    for name, dev in zip(names, worst):
        checks.append(
            _record(
                name, "discrete-identity", {"cases": cfg.discrete_cases},
                dev=dev, verdict="OK" if dev <= IDENTITY_TOL else "FAIL",
            )
        )


def _check_monte_carlo(checks, cfg):
    pc = cf.PairConditional.from_example1(0.4, 1.0)
    weight = CentralWeight(pc.pair.mean)
    grid = GridSpec.for_gaussians([pc.cond, pc.pair], cfg.pair_points)
    quad = relative_wde_quadrature(pc.cond.pdf, pc.pair.pdf, weight, grid)
    est, stderr = relative_wde_monte_carlo(
        pc.cond.sampler(), pc.cond.pdf, pc.pair.pdf, weight,
        McConfig(cfg.mc_samples, cfg.seed + 3),
    )
    dev = abs(est - quad)
    checks.append(
        _record(
            "mc-vs-quadrature", "oracle", {"example": 1, "rho": 0.4, "x3": 1.0,
                                           "stderr": stderr},
            wick=est, quad=quad, dev=dev,
            verdict="OK" if dev <= 4.0 * stderr else "FAIL",
        )
    )


def run_verify(cfg: VerifyConfig | None = None) -> dict:
    """Run the whole basket and return the report dictionary."""
    cfg = cfg or VerifyConfig()
    checks: list[dict] = []
    _check_xi(checks, cfg)
    _check_lambda_table(checks, cfg)
    bases = _family_bases()
    pairs = _pair_cases(bases)
    _check_weightednormal(checks, cfg, bases)
    _check_theta(checks, pairs)
    _check_conditional_moments(checks, pairs)
    _check_pair_formulas(checks, cfg, pairs)
    _check_relative_de(checks, cfg)
    _check_discrete(checks, cfg)
    _check_monte_carlo(checks, cfg)
    failures = sum(1 for c in checks if c["verdict"] == "FAIL")
    discrepant = sum(1 for c in checks if c["verdict"] == "DISCREPANT")
    return {
        "config": asdict(cfg),
        "checks": checks,
        "n_checks": len(checks),
        "n_failed": failures,
        "n_discrepant": discrepant,
        "ok": failures == 0,
    }
