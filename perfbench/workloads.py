"""The benchmark's workloads: seeded inputs, the CLI calls of one sample, and
the correctness gate each sample's outputs must pass.

A workload's ``plan(seed, workdir)`` writes its generated input files into
``workdir`` and returns a :class:`Plan`.  The program sees only those files and
the flags in ``Plan.calls``; every path in them is relative to ``workdir``,
which is the working directory of each sample process.  Lists whose first
entry may be negative are passed as ``--flag=value``: argparse reads
``--shift -1.0,2.0`` as an unknown option followed by a missing value.

Gates run after the timed loop.  They take the outputs of one sample (file
name -> text, plus the captured stdout of each call) and return a list of
failure messages, empty when every check holds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
VERIFY_SIGNATURE = HERE / "data" / "verify_signature.json"
TOY_DATA = REPO / "tests" / "data"

# oracle settings of the scan gate: the verify basket's defaults, fixed here so
# that a change to the program's defaults cannot loosen the gate
PAIR_POINTS = 192
TOL_QUAD = 1e-4
KL_TOL = 1e-10
SCAN_CHECK_POINTS = 4  # quadrature-checked rows per family
# the largest wick-vs-quadrature deviation in the verify report may grow by
# this share over the recorded parent value before the gate fails
ORACLE_DEV_SLACK = 0.25
MOMENT_RTOL = 1e-10


@dataclass
class Plan:
    """Everything one run needs: the calls of a sample and the gate's context."""

    calls: list
    units: int
    outputs: list  # files the calls write, relative to the workdir
    context: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


# ---------------------------------------------------------------------------
# scan-grid
# ---------------------------------------------------------------------------

SCAN_ROWS = 29
SCAN_COLS = 31
SCAN_COLUMNS = "rho,x3,D_paper,D_corrected,Dw_wick,Dw_printed,gibbs_gap"


def plan_scan_grid(seed: int, workdir: Path) -> Plan:
    """The paper's figure grid, ``scan`` for both families with all modes.

    Why: about 65% of its time is in ``moments`` and 15% in ``gaussian``
    validation and conditioning; it uses no ``quadrature`` and no ``wdic``.
    The seed jitters the grid ends inside each family's valid domain
    (family 1 needs 1 - rho^2 - rho^4 > 0, i.e. |rho| < 0.786; family 2 needs
    0 < rho < 0.5) and picks the rows the quadrature oracle checks.
    """
    rng = _rng("scan-grid", seed)
    calls, scans = [], {}
    for example, (lo, hi), jitter in ((1, (-0.7, 0.7), 0.04), (2, (0.05, 0.45), 0.03)):
        rho_lo, rho_hi = lo + rng.uniform(-jitter, jitter), hi + rng.uniform(-jitter, jitter)
        x3_lo, x3_hi = -3.0 + rng.uniform(-0.25, 0.25), 3.0 + rng.uniform(-0.25, 0.25)
        rho_text = f"{rho_lo:.6f}:{rho_hi:.6f}:{SCAN_ROWS}"
        x3_text = f"{x3_lo:.6f}:{x3_hi:.6f}:{SCAN_COLS}"
        out = f"scan{example}.csv"
        calls.append(["scan", "--example", str(example), f"--rho={rho_text}", f"--x3={x3_text}", "--out", out])
        order = [int(i) for i in rng.permutation(SCAN_ROWS * SCAN_COLS)]
        scans[out] = {"example": example, "rho": rho_text, "x3": x3_text, "check_order": order}
    return Plan(calls, 2 * SCAN_ROWS * SCAN_COLS, list(scans), {"scans": scans})


def _grid(text: str) -> np.ndarray:
    lo, hi, n = text.split(":")
    return np.linspace(float(lo), float(hi), int(n))


def gate_scan_grid(plan: Plan, files: dict, stdouts: list) -> list:
    from wentropy import closedform as cf
    from wentropy.errors import SupportMismatchError
    from wentropy.gaussian import gaussian_kl
    from wentropy.quadrature import CentralWeight, GridSpec, relative_wde_quadrature

    errors = []
    for out, spec in plan.context["scans"].items():
        example = spec["example"]
        lines = files[out].splitlines()
        if lines[:1] != ["# wentropy scan schema v1"] or lines[2:3] != [SCAN_COLUMNS]:
            errors.append(f"{out}: schema or column line missing")
            continue
        rows = [line.split(",") for line in lines[3:]]
        expected = [(_fmt(r), _fmt(x)) for r in _grid(spec["rho"]) for x in _grid(spec["x3"])]
        if len(rows) != SCAN_ROWS * SCAN_COLS or [tuple(r[:2]) for r in rows] != expected:
            errors.append(f"{out}: expected the {SCAN_ROWS}x{SCAN_COLS} grid rows in order")
            continue
        make = cf.PairConditional.from_example1 if example == 1 else cf.PairConditional.from_example2
        printed_de = cf.example1_relative_de_paper if example == 1 else cf.example2_relative_de_paper
        printed_we = cf.example1_relative_we_paper if example == 1 else cf.example2_relative_we_paper
        for index, row in enumerate(rows):
            rho, x3 = float(row[0]), float(row[1])
            pc = make(rho, x3)
            if abs(float(row[3]) - gaussian_kl(pc.cond, pc.pair)) > KL_TOL:
                errors.append(f"{out} row {index}: D_corrected differs from gaussian_kl")
            if row[2] != _fmt(printed_de(rho, x3)) or row[5] != _fmt(printed_we(rho, x3)):
                errors.append(f"{out} row {index}: a paper column differs from its printed formula")
            if not all(math.isfinite(float(v)) for v in row):
                errors.append(f"{out} row {index}: non-finite value")
        checked = 0
        for index in spec["check_order"]:
            if checked == SCAN_CHECK_POINTS:
                break
            pc = make(float(rows[index][0]), float(rows[index][1]))
            grid = GridSpec.for_gaussians([pc.cond, pc.pair], PAIR_POINTS)
            try:
                quad = relative_wde_quadrature(pc.cond.pdf, pc.pair.pdf, CentralWeight(pc.pair.mean), grid)
            except SupportMismatchError:
                # the oracle takes the log of the marginal density, which
                # underflows to 0 in far corners of the box at extreme rho and
                # x3; it cannot check those rows, so the next seeded row is used
                continue
            checked += 1
            dw_wick = float(rows[index][4])
            if not abs(dw_wick - quad) <= TOL_QUAD:
                errors.append(f"{out} row {index}: Dw_wick {dw_wick!r} vs quadrature {quad!r}")
        if checked < SCAN_CHECK_POINTS:
            errors.append(f"{out}: the quadrature oracle applied to only {checked} rows")
    return errors


# ---------------------------------------------------------------------------
# verify-basket
# ---------------------------------------------------------------------------


def plan_verify_basket(seed: int, workdir: Path) -> Plan:
    """The default verification basket at the benchmark seed.

    Why: ``quadrature`` plus ``Gaussian.log_pdf`` take about 70% of its time
    and ``moments`` at most 6%, so a moments change should leave it unchanged
    while validation and integrator changes show.
    """
    return Plan([["verify", "--seed", str(seed), "--out", "verify.json"]], 228, ["verify.json"])


def load_verify_signature() -> dict:
    return json.loads(VERIFY_SIGNATURE.read_text())


def verify_signature(report: dict) -> list:
    """The checks a report holds, in order, with their verdicts."""
    return [[c["formula"], c["mode"], c["verdict"]] for c in report["checks"]]


def oracle_max_dev(report: dict) -> float:
    """Largest wick-vs-quadrature deviation in a verify report."""
    return max(c["abs_dev"] for c in report["checks"] if c["mode"] == "wick-vs-quadrature")


def verify_oracle_dev(files: dict) -> float:
    """``oracle_max_dev`` of a sample's verify report; 0 for other workloads."""
    return oracle_max_dev(json.loads(files["verify.json"])) if "verify.json" in files else 0.0


def gate_verify_basket(plan: Plan, files: dict, stdouts: list) -> list:
    report = json.loads(files["verify.json"])
    recorded = load_verify_signature()
    errors = []
    if report["n_failed"] != 0 or not report["ok"]:
        errors.append(f"verify reported {report['n_failed']} failed checks")
    if report["n_checks"] != len(report["checks"]) or verify_signature(report) != recorded["checks"]:
        errors.append("checks or verdicts differ from the recorded parent-commit signature")
    limit = recorded["oracle_max_dev"] * (1.0 + ORACLE_DEV_SLACK)
    if not oracle_max_dev(report) <= limit:
        errors.append(f"oracle_max_dev {oracle_max_dev(report):.3e} above {limit:.3e}")
    return errors


# ---------------------------------------------------------------------------
# wdic-sample
# ---------------------------------------------------------------------------

WDIC_ROWS = 200
WDIC_STEPS = 20000
WDIC_BURN_IN = 2000
WDIC_KEYS = ("wdic", "pwd", "dev_at_hat", "theta_hat", "acceptance_rate")


def plan_wdic_sample(seed: int, workdir: Path) -> Plan:
    """``wdic`` with the bundled random-walk sampler on a seeded 1-D dataset.

    Why: only ``wdic`` works here, split about evenly between the sampler and
    the ``penalty_pwd`` loop over ``weighted_deviance``, so batching the
    penalty and speeding the sampler each show on their own.  The weights are
    the paper's central weight, (y - a)^2 around the sample mean.
    """
    rng = _rng("wdic-sample", seed)
    y = rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.8, 1.5), size=WDIC_ROWS)
    (workdir / "wdic_data.csv").write_text(
        "y_1,weight\n" + "".join(f"{float(v)!r},1\n" for v in y)
    )
    step = rng.uniform(0.06, 0.10)
    sampler_seed = int(rng.integers(0, 2**31))
    calls = [[
        "wdic", "--data", "wdic_data.csv", "--model", "normal",
        "--sample", f"{WDIC_STEPS},{WDIC_BURN_IN},{step:.6f},{sampler_seed}",
        f"--weights-center={float(np.mean(y))!r}", "--out", "wdic.json",
    ]]
    return Plan(calls, WDIC_STEPS, ["wdic.json"])


def toy_golden_errors() -> list:
    """Run ``wdic`` on the bundled toy data and draws; the golden must match exactly."""
    import contextlib
    import io

    from wentropy.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["wdic", "--data", str(TOY_DATA / "toy_data.csv"), "--draws", str(TOY_DATA / "toy_draws.csv")])
    golden = json.loads((TOY_DATA / "toy_golden.json").read_text())
    got = json.loads(buf.getvalue()) if code == 0 else None
    if got is None or any(got.get(k) != v for k, v in golden.items()):
        return ["toy golden not reproduced bit-exactly"]
    return []


def gate_wdic_sample(plan: Plan, files: dict, stdouts: list) -> list:
    payload = json.loads(files["wdic.json"])
    errors = []
    for key in WDIC_KEYS:
        values = payload.get(key)
        values = values if isinstance(values, list) else [values]
        if not values or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            errors.append(f"wdic.json: {key} missing or not finite")
    if len(payload.get("theta_hat", [])) != 2:
        errors.append("wdic.json: theta_hat needs 2 entries for the normal model")
    return errors + toy_golden_errors()


# ---------------------------------------------------------------------------
# moment-sweep
# ---------------------------------------------------------------------------

# Exponent patterns, total orders 10 to 12 in dimensions 2 to 6.  The seed draws
# the covariance, the shifts and the coordinate order, not the pattern, so
# every seed does the same amount of enumeration work.
MOMENT_PATTERNS = (
    (6, 6), (8, 4), (4, 4, 4), (6, 4, 2), (3, 3, 3, 3), (4, 4, 2, 2),
    (4, 2, 2, 2, 2), (3, 3, 2, 2, 2), (2, 2, 2, 2, 2, 2), (3, 3, 2, 2, 1, 1),
    (10, 2), (5, 4, 3), (4, 3, 3, 2), (3, 3, 3, 2, 1), (4, 2, 2, 2, 1, 1), (12, 0),
    (6, 5), (9, 2), (5, 4, 2), (7, 3, 1), (3, 3, 3, 2), (5, 3, 2, 1),
    (3, 3, 2, 2, 1), (4, 3, 2, 1, 1), (3, 2, 2, 2, 1, 1), (2, 2, 2, 2, 2, 1),
    (8, 3), (4, 4, 3), (4, 3, 2, 2), (3, 2, 2, 2, 2), (3, 3, 2, 1, 1, 1), (5, 2, 2, 1, 1),
    (5, 5), (8, 2), (4, 4, 2), (6, 3, 1), (3, 3, 2, 2), (4, 2, 2, 2),
    (2, 2, 2, 2, 2), (3, 3, 2, 1, 1), (2, 2, 2, 2, 1, 1), (3, 2, 2, 1, 1, 1),
    (7, 3), (5, 3, 2), (4, 3, 2, 1), (3, 3, 3, 1), (4, 2, 2, 1, 1), (6, 2, 2),
)


def plan_moment_sweep(seed: int, workdir: Path) -> Plan:
    """48 single ``moment`` invocations in one process, half with ``--shift=``.

    Why: it drives the same ``moments`` layer as scan-grid in another way: a
    few high-order calls in up to 6 dimensions instead of thousands of 2-D
    calls of order at most 8.  A recursion tuned to batch ``scan`` that slows
    single high-order moments shows here, and it is the only workload with
    dimension above 3.
    """
    rng = _rng("moment-sweep", seed)
    calls, specs = [], []
    for index, pattern in enumerate(MOMENT_PATTERNS):
        dim = len(pattern)
        exponents = [pattern[k] for k in rng.permutation(dim)]
        a = rng.normal(size=(dim, dim))
        cov = a @ a.T / dim + 0.5 * np.eye(dim)
        cov = 0.5 * (cov + cov.T)
        name = f"cov{index:02d}.json"
        (workdir / name).write_text(json.dumps({"cov": cov.tolist()}))
        argv = ["moment", "--cov", name, "--r", ",".join(map(str, exponents))]
        shift = None
        if index % 2 == 0:
            shift = [round(float(v), 6) for v in rng.normal(0.0, 1.0, size=dim)]
            argv.append("--shift=" + ",".join(map(repr, shift)))
        calls.append(argv)
        specs.append({"cov": cov.tolist(), "exponents": exponents, "shift": shift})
    return Plan(calls, len(calls), [], {"moments": specs})


def wick_moment(cov, mean, exponents) -> float:
    """E[prod_i X_i^r_i] for X ~ N(mean, cov), by the Wick recursion

    E[X^r] = m_k E[X^(r-e_k)] + sum_j S_kj (r-e_k)_j E[X^(r-e_k-e_j)],

    memoized over the exponent multi-index (Isserlis 1918; Kan 2008).
    """
    cov = [[float(v) for v in row] for row in cov]
    mean = [float(v) for v in mean]

    @lru_cache(maxsize=None)
    def moment(r: tuple) -> float:
        k = next((i for i, e in enumerate(r) if e), None)
        if k is None:
            return 1.0
        rest = r[:k] + (r[k] - 1,) + r[k + 1 :]
        total = mean[k] * moment(rest)
        for j, e in enumerate(rest):
            if e:
                total += cov[k][j] * e * moment(rest[:j] + (e - 1,) + rest[j + 1 :])
        return total

    return moment(tuple(int(e) for e in exponents))


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def gate_moment_sweep(plan: Plan, files: dict, stdouts: list) -> list:
    errors = []
    for index, (spec, text) in enumerate(zip(plan.context["moments"], stdouts)):
        lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        cov = spec["cov"]
        dim = len(spec["exponents"])
        mean = spec["shift"] or [0.0] * dim
        reference = wick_moment(cov, mean, spec["exponents"])
        # error scale: the same expansion with every term made nonnegative
        scale = wick_moment([[abs(v) for v in row] for row in cov], [abs(v) for v in mean], spec["exponents"])
        order = sum(spec["exponents"])
        matchings = double_factorial(order - 1) if order % 2 == 0 else 0
        try:
            value = float(lines["value"])
            counted = int(lines["matchings"])
        except (KeyError, ValueError):
            errors.append(f"moment {index}: output lacks value or matchings lines")
            continue
        if not abs(value - reference) <= MOMENT_RTOL * scale:
            errors.append(f"moment {index}: value {value!r} vs reference {reference!r}")
        if counted != matchings:
            errors.append(f"moment {index}: matchings {counted} vs {matchings}")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what units_per_s counts
    plan: object
    gate: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-grid", "grid points", plan_scan_grid, gate_scan_grid),
        Workload("verify-basket", "checks", plan_verify_basket, gate_verify_basket),
        Workload("wdic-sample", "sampler steps", plan_wdic_sample, gate_wdic_sample),
        Workload("moment-sweep", "moments", plan_moment_sweep, gate_moment_sweep),
    )
}
