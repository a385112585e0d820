"""Tests of the benchmark itself: input generation, correctness gates, tracing.

    python3 -m pytest perfbench/tests -q

Each gate is first shown to accept the program's real output, then to reject
a corrupted copy of it.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import workloads  # noqa: E402
from spans import Tracer, layer_metrics, traced_total  # noqa: E402
from wentropy import cli  # noqa: E402


def run_plan(plan, workdir, monkeypatch):
    """Run a plan's calls in this process; return (files, stdouts) as the gate takes them."""
    monkeypatch.chdir(workdir)
    stdouts = []
    for argv in plan.calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        stdouts.append(buf.getvalue())
    files = {name: (workdir / name).read_text() for name in plan.outputs}
    return files, stdouts


def snapshot(workdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    plan_fn = workloads.WORKLOADS[name].plan
    runs = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        workdir = tmp_path / sub
        workdir.mkdir()
        plan = plan_fn(seed, workdir)
        runs.append((plan.calls, plan.units, plan.outputs, plan.context, snapshot(workdir)))
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[2][0] or runs[0][4] != runs[2][4]


@pytest.mark.parametrize("name", ["scan-grid", "moment-sweep"])
def test_negative_leading_lists_use_the_equals_form(name, tmp_path):
    calls = workloads.WORKLOADS[name].plan(3, tmp_path).calls
    # a separate value that starts with "-" would be read as a flag
    assert not [a for argv in calls for a in argv if a.startswith("-") and not a.startswith("--")]
    assert any("=-" in a for argv in calls for a in argv)


@pytest.fixture(scope="module")
def scan_outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("scan")
    plan = workloads.plan_scan_grid(7, workdir)
    with pytest.MonkeyPatch.context() as mp:
        files, stdouts = run_plan(plan, workdir, mp)
    return plan, files, stdouts


def test_scan_gate_accepts_real_output(scan_outputs):
    assert workloads.gate_scan_grid(*scan_outputs) == []


def test_scan_gate_rejects_perturbed_dw_wick(scan_outputs):
    plan, files, stdouts = scan_outputs
    out = next(iter(plan.context["scans"]))
    lines = files[out].splitlines()
    for k in range(3, len(lines)):  # every row, so the seeded check rows are hit
        cells = lines[k].split(",")
        cells[4] = workloads._fmt(float(cells[4]) * (1.0 + 1e-3) + 1e-3)
        lines[k] = ",".join(cells)
    errors = workloads.gate_scan_grid(plan, {**files, out: "\n".join(lines) + "\n"}, stdouts)
    assert errors and all("Dw_wick" in e for e in errors)


def test_scan_gate_rejects_missing_row(scan_outputs):
    plan, files, stdouts = scan_outputs
    out = next(iter(plan.context["scans"]))
    truncated = "\n".join(files[out].splitlines()[:-1]) + "\n"
    assert workloads.gate_scan_grid(plan, {**files, out: truncated}, stdouts)


@pytest.fixture(scope="module")
def verify_outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("verify")
    plan = workloads.plan_verify_basket(11, workdir)
    with pytest.MonkeyPatch.context() as mp:
        files, stdouts = run_plan(plan, workdir, mp)
    return plan, files, stdouts


def test_verify_gate_accepts_real_output(verify_outputs):
    assert workloads.gate_verify_basket(*verify_outputs) == []


def test_verify_gate_rejects_dropped_check(verify_outputs):
    plan, files, stdouts = verify_outputs
    report = json.loads(files["verify.json"])
    del report["checks"][17]
    report["n_checks"] -= 1
    errors = workloads.gate_verify_basket(plan, {"verify.json": json.dumps(report)}, stdouts)
    assert any("signature" in e for e in errors)


def test_verify_gate_rejects_changed_verdict_and_coarser_oracle(verify_outputs):
    plan, files, stdouts = verify_outputs
    report = json.loads(files["verify.json"])
    flipped = next(c for c in report["checks"] if c["verdict"] == "DISCREPANT")
    flipped["verdict"] = "CONFIRMED"
    assert workloads.gate_verify_basket(plan, {"verify.json": json.dumps(report)}, stdouts)
    report = json.loads(files["verify.json"])
    oracle = next(c for c in report["checks"] if c["mode"] == "wick-vs-quadrature")
    oracle["abs_dev"] = 1e-6
    errors = workloads.gate_verify_basket(plan, {"verify.json": json.dumps(report)}, stdouts)
    assert any("oracle_max_dev" in e for e in errors)


@pytest.fixture(scope="module")
def moment_outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("moment")
    plan = workloads.plan_moment_sweep(13, workdir)
    with pytest.MonkeyPatch.context() as mp:
        files, stdouts = run_plan(plan, workdir, mp)
    return plan, files, stdouts


def test_moment_gate_accepts_real_output(moment_outputs):
    assert workloads.gate_moment_sweep(*moment_outputs) == []


def test_moment_gate_rejects_wrong_moment(moment_outputs):
    plan, files, stdouts = moment_outputs
    index = 0  # a shifted order-12 moment, never exactly zero
    value = float(stdouts[index].splitlines()[0].split(": ")[1])
    wrong = list(stdouts)
    wrong[index] = stdouts[index].replace(workloads._fmt(value), workloads._fmt(value * (1 + 1e-8)))
    errors = workloads.gate_moment_sweep(plan, files, wrong)
    assert any(e.startswith(f"moment {index}: value") for e in errors)


def test_moment_gate_rejects_wrong_matchings(moment_outputs):
    plan, files, stdouts = moment_outputs
    wrong = list(stdouts)
    wrong[0] = stdouts[0].replace("matchings: 10395", "matchings: 945")
    assert any("matchings" in e for e in workloads.gate_moment_sweep(plan, files, wrong))


def test_wick_reference_on_known_moments():
    assert workloads.wick_moment([[2.0]], [0.0], [4]) == 3 * 2.0**2
    assert workloads.wick_moment([[2.0]], [0.5], [2]) == 2.0 + 0.25
    cov = [[1.0, 0.3], [0.3, 2.0]]
    assert math.isclose(workloads.wick_moment(cov, [0.0, 0.0], [2, 2]), 1.0 * 2.0 + 2 * 0.3**2)
    assert workloads.double_factorial(11) == 10395


def test_wdic_gate_rejects_missing_or_non_finite_key(tmp_path):
    plan = workloads.plan_wdic_sample(1, tmp_path)
    payload = {"wdic": 1.0, "pwd": 0.5, "dev_at_hat": 0.0, "theta_hat": [0.1, 0.2], "acceptance_rate": 0.4}
    assert workloads.gate_wdic_sample(plan, {"wdic.json": json.dumps(payload)}, [""]) == []
    for key, value in (("pwd", None), ("wdic", float("nan"))):
        broken = {**payload, key: value}
        assert workloads.gate_wdic_sample(plan, {"wdic.json": json.dumps(broken)}, [""])


def test_tracer_counts_calls_and_accounts_for_the_run(tmp_path, monkeypatch):
    plan = workloads.plan_moment_sweep(2, tmp_path)
    calls = plan.calls[:4]
    monkeypatch.chdir(tmp_path)
    from wentropy import closedform, moments

    original = moments.shifted_moment
    tracer = Tracer().install()
    try:
        assert closedform.shifted_moment is not original  # rebound where imported by name
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert moments.shifted_moment is original and closedform.shifted_moment is original
    functions = tracer.functions()
    assert functions["cli.main"][0] == len(calls)
    metrics = layer_metrics(functions, tracer.counters)
    assert metrics["moments.shifted_moment.calls"] == sum("--shift=" in " ".join(a) for a in calls)
    assert math.isclose(traced_total(functions), functions["cli.main"][1], rel_tol=1e-9)
