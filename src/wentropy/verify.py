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
    DiscreteJoint,
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


def _worst(devs) -> int:
    """Index of the first deviation within rounding of the largest, dev >= max -
    max(WORST_RTOL * max, WORST_FLOOR), or of the first NaN: a NaN is never passed over."""
    devs = np.asarray(devs, dtype=float)
    top = float(devs.max())  # NaN if any deviation is NaN
    cut = top - max(WORST_RTOL * top, WORST_FLOOR)
    return int(np.argmax(np.isnan(devs) | (devs == top) | (devs >= cut)))


def _worst_transcription(formula, points, papers, wicks, mode="paper-vs-wick", limit=None):
    """The transcription record at the worst of ``points``, ``papers`` and ``wicks`` alike."""
    papers, wicks = _flat(papers), _flat(wicks)
    i = _worst(np.abs(np.subtract(papers, wicks)))
    return _transcription(formula, points[i], papers[i], wicks[i], mode, limit)


def _random_spd(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` SPD matrices q diag(eigs) q^T, (count, 3, 3), by one stacked QR and product."""
    draws = [(rng.normal(size=(3, 3)), rng.uniform(0.3, 3.0, size=3)) for _ in range(count)]
    q, _ = np.linalg.qr(np.stack([a for a, _ in draws]))
    return (q * np.stack([eigs for _, eigs in draws])[:, None, :]) @ np.swapaxes(q, -1, -2)


def _family_bases() -> dict:
    """Per example, its verified rhos and one batched base Gaussian of them."""
    families = ((1, EXAMPLE1_RHOS, cf.example1_cov), (2, EXAMPLE2_RHOS, cf.example2_cov))
    return {example: (rhos, make(np.array(rhos))) for example, rhos, make in families}


def _pair_cases(bases: dict) -> dict:
    """Per example, ``(points, grid)``: one grid PairConditional of its pair-case
    rhos, one batched base, over ``PAIR_X3S``, and the points in the C order of
    its (rho, x3) arrays, which :func:`_flat` lists."""
    cases = {}
    for example, make in ((1, cf.example1_cov), (2, cf.example2_cov)):
        # the first family's rho = 0: conditional equals marginal; covered by the trivial tests
        rhos = [rho for rho in bases[example][0] if (example, rho) != (1, 0.0)]
        points = [{"example": example, "rho": rho, "x3": x3} for rho in rhos for x3 in PAIR_X3S]
        cases[example] = (points, cf.PairConditional(make(np.array(rhos)), np.array(PAIR_X3S)))
    return cases


def _flat(values) -> list:
    return np.ravel(values).tolist()


def _check_xi(checks, cfg):
    covs = np.moveaxis(_random_spd(np.random.default_rng(cfg.seed), 100), 0, -1)
    wicks, papers = central_moment(covs, (2, 2, 2)), cf.xi(covs)
    rels = np.abs(papers - wicks) / np.abs(wicks)
    i = _worst(rels)
    paper, wick = float(papers[i]), float(wicks[i])
    point = {"matrices": 100, "worst_rel_dev": float(rels[i])}
    checks.append(_transcription("Xi-identity", point, paper, wick, limit=XI_RTOL * abs(wick)))


def _check_lambda_table(checks, cfg):
    rng = np.random.default_rng(cfg.seed + 1)
    cases = [("Sigma=I", np.eye(3)), ("Sigma=random-spd", _random_spd(rng, 1)[0])]
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
    for example, (rhos, dist) in bases.items():
        papers, wicks = (_flat(cf.wde_trivariate(dist, m)) for m in ("paper", "wick"))
        quads = _flat(wde_gauss_hermite(dist, CentralWeight(dist.mean)))
        for rho, paper, wick, quad in zip(rhos, papers, wicks, quads):
            point = {"example": example, "rho": rho}
            checks.append(_transcription(formula, point, paper, wick))
            checks.append(_exact(formula, point, wick, quad))


def _check_printed_theta(checks, pairs):
    for example, (points, grid) in pairs.items():
        printed = cf.example1_theta_paper if example == 1 else cf.example2_theta_paper
        papers = [printed(p["rho"], p["x3"]) for p in points]
        formula = f"Theta-example{example}"
        checks.append(_worst_transcription(formula, points, papers, cf.theta(grid)))


def _check_conditional_moments(checks, pairs):
    printed = {
        1: (cf.example1_lambda_bar_paper, cf.example1_upsilon_paper),
        2: (cf.example2_lambda_bar_paper, cf.example2_upsilon_paper),
    }
    # generic paper mode first, then the printed per-example polynomials
    for suffix in ("", "-printed"):
        for example, (points, grid) in pairs.items():
            lam_printed, ups_printed = printed[example]
            for (i, j) in ((0, 0), (0, 1), (1, 1)):
                if suffix:
                    lam_p = [lam_printed(p["rho"], p["x3"], i, j) for p in points]
                    ups_p = [ups_printed(p["rho"], p["x3"], i, j) for p in points]
                else:
                    lam_p = cf.lambda_bar(grid, i, j, "paper")
                    ups_p = cf.upsilon(grid, i, j, "paper")
                lam_w, ups_w = cf.lambda_bar(grid, i, j, "wick"), cf.upsilon(grid, i, j, "wick")
                name = f"{i + 1}{j + 1}-example{example}{suffix}"
                checks.append(_worst_transcription(f"LambdaBar_{name}", points, lam_p, lam_w))
                checks.append(_worst_transcription(f"Upsilon_{name}", points, ups_p, ups_w))


def _pair_quadratures(cond, pair):
    """The conditional's weighted entropy, its weighted cross entropy with the pair
    marginal and their difference, the weighted divergence, by the exact rule: per member."""
    weight = CentralWeight(pair.mean)
    cond_q, cross_q = wde_gauss_hermite(cond, weight), wde_gauss_hermite(cond, weight, pair)
    return cond_q, cross_q, cross_q - cond_q


def _check_pair_formulas(checks, pairs):
    for example, (points, grid) in pairs.items():
        printed_dw = (
            cf.example1_relative_we_paper if example == 1 else cf.example2_relative_we_paper
        )
        cond, cross = cf.cond_wde_pair(grid, "wick"), cf.cross_wde_pair(grid, "wick")
        # each divergence against cross minus conditional of its own mode
        paper = cf.cross_wde_pair(grid, "paper") - cf.cond_wde_pair(grid, "paper")
        # and the exact rule on the grid's conditionals and pair marginals, one batch
        columns = (
            cond, cross, cf.relative_we_pair(grid, "wick"), cf.relative_we_pair(grid, "paper"),
            paper, cross - cond, cf.gibbs_gap(grid), *_pair_quadratures(grid.cond, grid.pair),
        )
        rows = zip(points, *map(_flat, columns))
        for point, cond_w, cross_w, rel_w, rel_p, rhs_p, rhs_w, gap, cond_q, cross_q, rel_q in rows:
            rho, x3 = point["rho"], point["x3"]
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
            formula = f"relative-we-example{example}-printed"
            checks.append(_transcription(formula, point, printed_dw(rho, x3), rel_w))
            checks.append(_gibbs(point, gap, rel_w, rel_q))


def _check_relative_de(checks, cfg):
    # first family, one (rho, x3) grid: printed form against the generic
    # paper-mode formula, corrected mode against the KL oracle of each point's
    # conditional from its pair marginal, all read at one flat (rho, x3) index
    rhos, x3s = np.linspace(-0.7, 0.7, 29), np.linspace(-3.0, 3.0, 31)
    grid = cf.PairConditional(cf.example1_cov(rhos), x3s)
    printed = np.ravel([cf.example1_relative_de_paper(rho, x3s) for rho in rhos])
    generic, corrected = (cf.relative_de_pair(grid, m).ravel() for m in ("paper", "corrected"))
    # grid.cond: (29, 31) means on (29, 1) covariances, grid.pair (29, 1): they broadcast
    kl = gaussian_kl(grid.cond, grid.pair).ravel()

    def at(i):
        return {"example": 1, "rho": float(rhos[i // len(x3s)]), "x3": float(x3s[i % len(x3s)])}

    formula, mode = "relative-de-example1-printed", "paper-vs-paper-mode"
    i = _worst(np.abs(printed - generic))
    checks.append(_transcription(formula, at(i), printed[i], generic[i], mode, RELATIVE_DE_TOL))
    formula, i = "relative-de-corrected-vs-kl", _worst(np.abs(corrected - kl))
    checks.append(_oracle(formula, "oracle", at(i), corrected[i], kl[i], KL_TOL))
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


def _check_discrete(checks, cfg):
    """The six identities as one batch per coordinate count n (the relative ones per
    (n, split)), each pmf padded with zero cells, labelled on, to its batch's shape."""
    rng = np.random.default_rng(cfg.seed + 2)
    groups = {}  # n -> [(probs, centers, split)], in draw order
    for _ in range(cfg.discrete_cases):
        n = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 5)) for _ in range(n))
        probs = random_joint(rng, dims).probs
        centers = rng.uniform(-1.0, 1.0, size=n)
        groups.setdefault(n, []).append((probs, centers, int(rng.integers(1, n))))
    devs = {}  # name -> the largest |lhs - rhs| of each checker call
    for group in groups.values():
        shape = np.max([probs.shape for probs, _, _ in group], axis=0)
        padded = np.zeros((*shape, len(group)))
        for b, (probs, _, _) in enumerate(group):
            padded[(*map(slice, probs.shape), b)] = probs
        joint = DiscreteJoint(padded, [np.arange(k, dtype=float) for k in shape], 1)
        centers = np.stack([c for _, c, _ in group], axis=-1)
        splits = np.array([s for _, _, s in group])
        weight = CentralWeight(centers)
        chain, chain_w = chain_rule_de_check(joint), chain_rule_wde_check(joint, weight)
        mutual = mutual_de_decomposition_check(joint)
        mutual_w = mutual_wde_decomposition_check(joint, weight)
        found = [
            ("chain-rule-de", chain.lhs - chain.rhs),
            ("chain-rule-wde", chain_w.lhs - chain_w.rhs),
            ("mutual-de-decomposition", mutual.lhs - mutual.rhs),
            ("mutual-de-decomposition", mutual.lhs - mutual.rhs_expectation),
            ("mutual-wde-decomposition", mutual_w.lhs - mutual_w.rhs),
        ]
        for split in dict.fromkeys(splits.tolist()):
            part = splits == split
            sub = DiscreteJoint(padded[..., part], joint.support, 1)
            wx, wy = CentralWeight(centers[:split, part]), CentralWeight(centers[split:, part])
            for name, res in (
                ("relative-de-identity", relative_de_identity_check(sub, split)),
                ("relative-we-identity", relative_we_identity_check(sub, wx, wy, split)),
            ):
                found += [(name, res.lhs - res.rhs), (name, res.mutual - res.expected)]
        for name, dev in found:
            devs.setdefault(name, []).append(np.max(np.abs(dev)))
    for name, dev in devs.items():
        point = {"cases": cfg.discrete_cases}
        checks.append(_record(name, "discrete-identity", point, float(np.max(dev)), IDENTITY_TOL))


def _check_monte_carlo(checks, cfg):
    pc = cf.PairConditional.from_example1(0.4, 1.0)
    weight = CentralWeight(pc.pair.mean)
    quad = _pair_quadratures(pc.cond, pc.pair)[2]
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
