"""Verification basket: measure every transcribed formula against the oracles.

Two kinds of checks run here.  Oracle checks (wick mode against quadrature or
Monte Carlo, exact algebraic identities, the discrete identity suite) must pass
their tolerances or the run fails.  Transcription checks compare the verbatim
formulas against wick mode and only report a CONFIRMED/DISCREPANT verdict; a
deviation there is a finding, not a failure.

Each check record carries {formula, mode, point, paper_value, wick_value,
quadrature_value, abs_dev, verdict}, and passes when ``abs_dev`` is at most its
limit: every limit is one of the named constants below, scaled by a value or
a Monte Carlo standard error where the check needs it.
"""

from __future__ import annotations

import math
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
from .gaussian import gaussian_kl
from .moments import central_moment
from .quadrature import CentralWeight, McConfig, relative_wde_monte_carlo, wde_gauss_hermite

FORMULA_RTOL = 1e-10  # transcription agreement threshold (relative, floored)
IDENTITY_TOL = 1e-10
KL_TOL = 1e-10
EXACT_RTOL = 1e-12  # wick against the exact Gauss-Hermite rule, relative, floored
XI_RTOL = 1e-12  # Xi against the sixth moment, relative to the moment
MODE_TOL = 1e-12  # a pair divergence against cross minus conditional, one mode
RELATIVE_DE_TOL = 1e-12  # a printed relative entropy against its generic form
MC_STDERRS = 4.0  # Monte Carlo against the exact rule, in standard errors
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
    mc_samples: int = 200_000
    discrete_cases: int = 50

    def __post_init__(self):
        if self.discrete_cases < 1:
            raise ValueError(f"discrete_cases must be at least 1, got {self.discrete_cases}")
        McConfig(self.mc_samples, self.seed)  # its minimum and message, before any check runs


def _record(formula, mode, point, dev, limit, paper=None, wick=None, quad=None, finding=False):
    """One check record; it passes when ``dev <= limit``.  A finding about a
    transcription is CONFIRMED or DISCREPANT, an oracle check OK or FAIL."""
    passed, failed = ("CONFIRMED", "DISCREPANT") if finding else ("OK", "FAIL")
    return {
        "formula": formula,
        "mode": mode,
        "point": point,
        "paper_value": paper,
        "wick_value": wick,
        "quadrature_value": quad,
        "abs_dev": dev,
        "verdict": passed if dev <= limit else failed,
    }


def _transcription(formula, point, paper, wick, mode="paper-vs-wick", limit=None):
    """``paper`` against ``wick``, by default within FORMULA_RTOL * max(1, |wick|)."""
    if limit is None:
        limit = max(FORMULA_RTOL, FORMULA_RTOL * abs(wick))
    return _record(formula, mode, point, abs(paper - wick), limit, paper, wick, finding=True)


def _oracle(formula, mode, point, wick, quad, limit):
    return _record(formula, mode, point, abs(wick - quad), limit, wick=wick, quad=quad)


def _gibbs(point, gap, rel_w, rel_q):
    """Weighted Gibbs: a nonnegative condition gap must force a nonnegative
    divergence, down to GIBBS_FLOOR; a negative gap forces nothing (the
    divergence can and does dip below zero at small |x3|).  A divergence that
    is not finite fails at any gap."""
    dev = max(0.0, -min(rel_q, rel_w)) if math.isfinite(rel_q + rel_w) else math.nan
    limit = math.inf if gap < 0.0 else -GIBBS_FLOOR
    return _record(
        "gibbs-implication", "oracle", {**point, "condition_gap": gap}, dev, limit,
        wick=rel_w, quad=rel_q,
    )


def _worst(candidates):
    """The first ``(dev, ...)`` candidate whose dev is within rounding of the
    largest: dev >= max - max(WORST_RTOL * max, WORST_FLOOR)."""
    top = max(c[0] for c in candidates)
    cut = top - max(WORST_RTOL * top, WORST_FLOOR)
    return next(c for c in candidates if c[0] >= cut)


def _worst_transcription(formula, rows, mode="paper-vs-wick", limit=None):
    """The transcription record of the worst ``(paper, wick, point)`` row."""
    _, paper, wick, point = _worst([(abs(p - w), p, w, pt) for p, w, pt in rows])
    return _transcription(formula, point, paper, wick, mode, limit)


def _random_spd(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(a)
    eigs = rng.uniform(0.3, 3.0, size=3)
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
    point = {"matrices": 100, "worst_rel_dev": rel}
    checks.append(_transcription("Xi-identity", point, paper, wick, limit=XI_RTOL * abs(wick)))


def _check_lambda_table(checks, cfg):
    rng = np.random.default_rng(cfg.seed + 1)
    cases = [("Sigma=I", np.eye(3)), ("Sigma=random-spd", _random_spd(rng))]
    for label, cov in cases:
        for i, j in np.ndindex(3, 3):
            paper, wick = cf.lambda_paper(cov, i, j), cf.lambda_wick(cov, i, j)
            checks.append(_transcription(f"Lambda_{i + 1}{j + 1}", label, paper, wick))


def _exact(formula, point, wick, quad):
    """``wick`` against the exact rule, within EXACT_RTOL * max(1, |quad|)."""
    limit = max(EXACT_RTOL, EXACT_RTOL * abs(quad))
    return _oracle(formula, "wick-vs-quadrature", point, wick, quad, limit)


def _check_weightednormal(checks, bases):
    formula = "weighted-entropy-trivariate"
    for (example, rho), dist in bases.items():
        point = {"example": example, "rho": rho}
        paper, wick = (cf.wde_trivariate(dist, m) for m in ("paper", "wick"))
        quad = wde_gauss_hermite(dist, CentralWeight(dist.mean))
        checks.append(_transcription(formula, point, paper, wick))
        checks.append(_exact(formula, point, wick, quad))


def _check_printed_theta(checks, pairs):
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


def _pair_quadratures(pc: cf.PairConditional):
    """The conditional's weighted entropy, its weighted cross entropy with the
    pair marginal and their difference, the weighted divergence, by the exact rule."""
    weight = CentralWeight(pc.pair.mean)
    cond_q = wde_gauss_hermite(pc.cond, weight)
    cross_q = wde_gauss_hermite(pc.cond, weight, pc.pair)
    return cond_q, cross_q, cross_q - cond_q


def _check_pair_formulas(checks, pairs):
    for example, cases in pairs.items():
        printed_dw = (
            cf.example1_relative_we_paper if example == 1 else cf.example2_relative_we_paper
        )
        for point, pc in cases:
            cond_q, cross_q, rel_q = _pair_quadratures(pc)
            cond_w = cf.cond_wde_pair(pc, "wick")
            cross_w = cf.cross_wde_pair(pc, "wick")
            rel_w = cf.relative_we_pair(pc, "wick")
            rel_p = cf.relative_we_pair(pc, "paper")
            # each divergence against cross minus conditional of its own mode
            rhs_p = cf.cross_wde_pair(pc, "paper") - cf.cond_wde_pair(pc, "paper")
            rhs_w = cross_w - cond_w
            for formula, wick, quad in (
                ("cond-wde-pair", cond_w, cond_q),
                ("cross-wde-pair", cross_w, cross_q),
                ("relative-we-pair", rel_w, rel_q),
            ):
                checks.append(_exact(formula, point, wick, quad))
            for mode, lhs, rhs in (("paper-mode", rel_p, rhs_p), ("wick-mode", rel_w, rhs_w)):
                checks.append(
                    _oracle("relative-we-mode-consistency", mode, point, lhs, rhs, MODE_TOL)
                )
            checks.append(_transcription("relative-we-pair", point, rel_p, rel_w))
            checks.append(
                _transcription(
                    f"relative-we-example{example}-printed", point,
                    printed_dw(point["rho"], point["x3"]), rel_w,
                )
            )
            checks.append(_gibbs(point, cf.gibbs_gap(pc), rel_w, rel_q))


def _check_relative_de(checks, cfg):
    # first family, one x3 row per rho: printed form against the generic
    # paper-mode formula, corrected mode against the KL oracle on the row's
    # conditional covariance and block of conditional means
    printed_rows, kl_rows = [], []
    x3s = np.linspace(-3.0, 3.0, 31)
    for rho in np.linspace(-0.7, 0.7, 29):
        row = cf.PairConditional(cf.example1_cov(rho), x3s)
        kls = gaussian_kl(row.cond, row.pair, row.mu_bar)
        printeds = cf.example1_relative_de_paper(rho, x3s)
        generics = cf.relative_de_pair(row, "paper")
        correcteds = cf.relative_de_pair(row, "corrected")
        for x3, printed, generic, corrected, kl in zip(x3s, printeds, generics, correcteds, kls):
            point = {"example": 1, "rho": float(rho), "x3": float(x3)}
            printed_rows.append((printed, generic, point))
            kl_rows.append((abs(corrected - kl), corrected, kl, point))
    checks.append(
        _worst_transcription(
            "relative-de-example1-printed", printed_rows, "paper-vs-paper-mode", RELATIVE_DE_TOL
        )
    )
    _, corrected, kl, point = _worst(kl_rows)
    checks.append(_oracle("relative-de-corrected-vs-kl", "oracle", point, corrected, kl, KL_TOL))
    # second family: its printed closed form equals the corrected value, and
    # sits exactly 1 below the generic paper-mode representation
    pc = cf.PairConditional.from_example2(0.25, 1.0)
    printed = cf.example2_relative_de_paper(0.25, 1.0)
    corrected = cf.relative_de_pair(pc, "corrected")
    point = {"example": 2, "rho": 0.25, "x3": 1.0}
    checks.append(
        _transcription(
            "relative-de-example2-printed-vs-corrected", point, printed, corrected,
            "transcription", RELATIVE_DE_TOL,
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
            _record(name, "discrete-identity", {"cases": cfg.discrete_cases}, dev, IDENTITY_TOL)
        )


def _check_monte_carlo(checks, cfg):
    pc = cf.PairConditional.from_example1(0.4, 1.0)
    weight = CentralWeight(pc.pair.mean)
    quad = _pair_quadratures(pc)[2]
    est, stderr = relative_wde_monte_carlo(
        pc.cond.sampler(), pc.cond.pdf, pc.pair.pdf, weight,
        McConfig(cfg.mc_samples, cfg.seed + 3),
    )
    point = {"example": 1, "rho": 0.4, "x3": 1.0, "stderr": stderr}
    checks.append(_oracle("mc-vs-quadrature", "oracle", point, est, quad, MC_STDERRS * stderr))


def run_verify(cfg: VerifyConfig | None = None) -> dict:
    """Run the whole basket and return the report dictionary."""
    cfg = cfg or VerifyConfig()
    checks: list[dict] = []
    _check_xi(checks, cfg)
    _check_lambda_table(checks, cfg)
    bases = _family_bases()
    pairs = _pair_cases(bases)
    _check_weightednormal(checks, bases)
    _check_printed_theta(checks, pairs)
    _check_conditional_moments(checks, pairs)
    _check_pair_formulas(checks, pairs)
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
