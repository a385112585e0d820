import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from wentropy import closedform as cf
from wentropy import gaussian, verify
from wentropy.cli import main
from wentropy.verify import VerifyConfig, _worst

DATA_DIR = Path(__file__).parent / "data"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    header = next(l for l in lines if not l.startswith("#"))
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    return comments, header.split(","), rows


def test_scan_example1_figure_grid(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys,
        ["scan", "--example", "1", "--rho=-0.7:0.7:29", "--x3=-3:3:31",
         "--out", str(out)],
    )
    assert code == 0
    comments, header, rows = parse_csv(out.read_text())
    assert comments[0] == "# wentropy scan schema v1"
    assert header == ["rho", "x3", "D_paper", "D_corrected", "Dw_wick", "Dw_printed", "gibbs_gap"]
    assert len(rows) == 29 * 31
    corrected = [float(r[3]) for r in rows]
    assert all(v >= 0.0 for v in corrected)


def test_scan_values_at_zero_coupling(capsys):
    code, out, _ = run(
        capsys, ["scan", "--example", "1", "--rho", "0:0.1:2", "--x3", "0:0.1:2"]
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    first = dict(zip(header, rows[0]))
    assert float(first["rho"]) == 0.0 and float(first["x3"]) == 0.0
    assert float(first["D_paper"]) == pytest.approx(1.0, abs=1e-14)
    assert float(first["D_corrected"]) == pytest.approx(0.0, abs=1e-14)
    assert float(first["Dw_wick"]) == pytest.approx(0.0, abs=1e-14)


def test_scan_rejects_invalid_range(capsys):
    code, _, err = run(
        capsys, ["scan", "--example", "2", "--rho", "0.2:0.6:5", "--x3", "0:1:4"]
    )
    assert code == 2
    assert "rho outside (0, 0.5)" in err
    code, _, err = run(
        capsys, ["scan", "--example", "1", "--rho", "0:0.9:4", "--x3", "0:1:4"]
    )
    assert code == 2
    assert "1 - rho^2 - rho^4" in err


def test_scan_rejects_single_step_range(capsys):
    code, _, err = run(
        capsys, ["scan", "--example", "1", "--rho", "0:0.5:1", "--x3", "0:1:4"]
    )
    assert code == 2
    assert "steps >= 2" in err


@pytest.mark.parametrize("x3", ["-inf:3:4", "0:inf:4", "-1e308:1e308:3"])
def test_scan_rejects_non_finite_range_naming_the_flag(capsys, x3):
    code, out, err = run(capsys, ["scan", "--example", "1", "--rho=0.1:0.2:2", f"--x3={x3}"])
    assert code == 2 and out == ""
    assert err == f"error: --x3 needs finite lo, hi and hi - lo, got {x3!r}\n"


@pytest.mark.parametrize("modes, message", [
    ("paper,corrected,wick", "D_paper is inf at rho=0.1, x3=5e+199"),
    ("corrected,wick", "D_corrected is inf at rho=0.1, x3=5e+199"),
    ("wick", "Dw_wick is nan at rho=0.1, x3=5e+199"),
])
def test_scan_rejects_non_finite_values_and_writes_nothing(capsys, tmp_path, modes, message):
    # a RuntimeWarning from numpy would fail this test (pytest turns it into an error)
    out = tmp_path / "scan.csv"
    code, stdout, err = run(
        capsys,
        ["scan", "--example", "1", "--rho=0.1:0.2:2", "--x3=0:1e200:3",
         "--modes", modes, "--out", str(out)],
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: {message}\n"


def test_scan_fills_one_moment_table_per_rho_row(capsys, monkeypatch):
    calls = {"shifted_moments": 0, "central_moment": 0}
    for name in calls:

        def counted(*args, _name=name, _fill=getattr(cf, name)):
            calls[_name] += 1
            return _fill(*args)

        monkeypatch.setattr(cf, name, counted)
    code, out, _ = run(capsys, ["scan", "--example", "2", "--rho=0.1:0.4:4", "--x3=-2:2:9"])
    assert code == 0 and len(parse_csv(out)[2]) == 4 * 9
    assert calls == {"shifted_moments": 4, "central_moment": 4}


def test_scan_modes_subset(capsys):
    code, out, _ = run(
        capsys,
        ["scan", "--example", "2", "--rho", "0.1:0.4:3", "--x3", "0:1:2",
         "--modes", "corrected,wick"],
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["rho", "x3", "D_corrected", "Dw_wick", "gibbs_gap"]
    assert len(rows) == 6


def test_scan_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan", "--example", "2", "--rho=0.05:0.45:9", "--x3=-2:2:7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_scan_config_file_flags_win(capsys, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("example = 1\nrho = 0:0.2:3\nx3 = 0:1:2\nmodes = corrected\n")
    code, out, _ = run(capsys, ["scan", "--config", str(cfg)])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["rho", "x3", "D_corrected", "gibbs_gap"]
    assert len(rows) == 6
    # explicit flag overrides the config value
    code, out, _ = run(capsys, ["scan", "--config", str(cfg), "--x3", "0:1:3"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 9


def test_config_rejects_keys_that_are_not_flags_of_the_command(capsys, tmp_path):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"cov": np.eye(2).tolist()}))
    cfg = tmp_path / "moment.cfg"
    cfg.write_text("cov = cov.json\nr = 2,2\nshfit = 1,2\n")
    code, out, err = run(capsys, ["moment", "--cov", str(cov), "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert "'shfit'" in err
    # a real flag of another command is no key for this one
    cfg.write_text("example = 1\nrho = 0:0.2:3\nx3 = 0:1:2\nseed = 3\n")
    code, _, err = run(capsys, ["scan", "--config", str(cfg)])
    assert code == 2
    assert "'seed'" in err
    cfg.write_text("r = 2,2\nshift = 1,2\n")
    code, out, _ = run(capsys, ["moment", "--cov", str(cov), "--config", str(cfg)])
    assert code == 0
    assert out.splitlines()[0] == "value: 10"


def test_moment_identity_covariance(capsys, tmp_path):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"mean": [0, 0, 0], "cov": np.eye(3).tolist()}))
    code, out, _ = run(capsys, ["moment", "--cov", str(cov), "--r", "2,2,2"])
    assert code == 0
    assert out.splitlines() == ["value: 1", "matchings: 15"]


def test_moment_shifted_conditional_value(capsys, tmp_path):
    rho, x3 = 0.5, 2.0
    cov = tmp_path / "cov.json"
    cov.write_text(
        json.dumps({"cov": [[1 - rho**4, rho], [rho, 1.0]]})
    )
    code, out, _ = run(
        capsys,
        ["moment", "--cov", str(cov), "--r", "2,2", "--shift", f"{rho**2 * x3},0"],
    )
    assert code == 0
    lines = out.splitlines()
    assert float(lines[0].split(": ")[1]) == pytest.approx(1.6875, abs=1e-15)
    assert lines[1] == "matchings: 3"


def test_moment_negative_shift_attached_with_equals(capsys, tmp_path):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"cov": np.eye(2).tolist()}))
    code, out, _ = run(capsys, ["moment", "--cov", str(cov), "--shift=-1,2", "--r", "2,2"])
    assert code == 0
    # E[(Y1 - 1)^2] E[(Y2 + 2)^2] = 2 * 5
    assert out.splitlines()[0] == "value: 10"


def test_moment_odd_order(capsys, tmp_path):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"cov": np.eye(3).tolist()}))
    code, out, _ = run(capsys, ["moment", "--cov", str(cov), "--r", "1,1,1"])
    assert code == 0
    assert out.splitlines() == ["value: 0", "matchings: 0"]


@pytest.mark.parametrize("shift, value", [("1e30,1e30", "inf"), ("1e200,-1e200", "nan")])
def test_moment_rejects_non_finite_value(capsys, tmp_path, shift, value):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"cov": [[1, 0.5], [0.5, 1]]}))
    code, out, err = run(capsys, ["moment", "--cov", str(cov), "--r", "6,6", f"--shift={shift}"])
    assert code == 2 and out == ""
    assert err == f"error: value is {value}: the moment is outside the float range\n"


@pytest.mark.parametrize(
    "text", ['{"mean": [0]}', "5", "null", '"cov"'], ids=["no-cov-key", "number", "null", "string"]
)
def test_moment_bad_file_exits_2(capsys, tmp_path, text):
    cov = tmp_path / "cov.json"
    cov.write_text(text)
    code, out, err = run(capsys, ["moment", "--cov", str(cov), "--r", "2"])
    assert (code, out) == (2, "")
    assert err == f"error: {cov}: JSON object must contain a 'cov' matrix\n"


def test_wdic_golden_classical_reduction(capsys):
    code, out, _ = run(
        capsys,
        ["wdic", "--data", str(DATA_DIR / "toy_data.csv"),
         "--draws", str(DATA_DIR / "toy_draws.csv")],
    )
    assert code == 0
    got = json.loads(out)
    golden = json.loads((DATA_DIR / "toy_golden.json").read_text())
    assert got["wdic"] == golden["wdic"]
    assert got["pwd"] == golden["pwd"]
    assert got["dev_at_hat"] == golden["dev_at_hat"]
    assert got["theta_hat"] == golden["theta_hat"]


def test_wdic_sampler_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["wdic", "--data", str(DATA_DIR / "toy_data.csv"),
            "--sample", "1500,300,0.4,42"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert 0.0 < payload["acceptance_rate"] < 1.0


def test_wdic_sampler_golden(capsys):
    # pins the sampler's random stream, not only its run-to-run determinism
    code, out, _ = run(
        capsys,
        ["wdic", "--data", str(DATA_DIR / "toy_data.csv"), "--sample", "1500,300,0.4,42"],
    )
    assert code == 0
    got = json.loads(out)
    golden = json.loads((DATA_DIR / "toy_sample_golden.json").read_text())
    for key in ("wdic", "pwd", "dev_at_hat", "theta_hat", "acceptance_rate"):
        assert got[key] == golden[key], key
    assert list(got) == list(golden) + ["pwd_mcse", "ess"]


def test_wdic_zero_weights(capsys, tmp_path):
    data = tmp_path / "zero.csv"
    rows = "\n".join(f"{v},0" for v in (0.1, -0.4, 1.2, 0.8))
    data.write_text("y_1,weight\n" + rows + "\n")
    draws = tmp_path / "draws.csv"
    draws.write_text("theta_1\n" + "\n".join("0.1" for _ in range(120)) + "\n")
    code, out, _ = run(capsys, ["wdic", "--data", str(data), "--draws", str(draws)])
    assert code == 0
    got = json.loads(out)
    assert got["wdic"] == 0.0 and got["pwd"] == 0.0


def test_wdic_weights_center_override(capsys, tmp_path):
    out = tmp_path / "r.json"
    argv = ["wdic", "--data", str(DATA_DIR / "toy_data.csv"),
            "--draws", str(DATA_DIR / "toy_draws.csv"),
            "--weights-center", "2.0", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    weighted = json.loads(out.read_text())
    golden = json.loads((DATA_DIR / "toy_golden.json").read_text())
    assert weighted["wdic"] != golden["wdic"]


def test_wdic_malformed_data_diagnostics(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("y_1,weight\n0.1,1\nnope,1\n")
    code, _, err = run(
        capsys, ["wdic", "--data", str(bad), "--draws", str(DATA_DIR / "toy_draws.csv")]
    )
    assert code == 2
    assert "row 3" in err
    bad.write_text("a,b\n0.1,1\n")
    code, _, err = run(
        capsys, ["wdic", "--data", str(bad), "--draws", str(DATA_DIR / "toy_draws.csv")]
    )
    assert code == 2
    assert "y_1" in err


def test_verify_default_passes_and_reports_lambda(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        ["verify", "--tri-points", "64", "--pair-points", "96",
         "--mc-samples", "50000", "--discrete-cases", "10", "--out", str(out)],
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    lam11 = next(
        c for c in report["checks"]
        if c["formula"] == "Lambda_11" and c["point"] == "Sigma=I"
    )
    assert lam11["paper_value"] == 1.0
    assert lam11["wick_value"] == 3.0
    assert lam11["verdict"] == "DISCREPANT"
    lam33 = next(
        c for c in report["checks"]
        if c["formula"] == "Lambda_33" and c["point"] == "Sigma=I"
    )
    assert lam33["verdict"] == "CONFIRMED"
    xi_rec = next(c for c in report["checks"] if c["formula"] == "Xi-identity")
    assert xi_rec["verdict"] == "CONFIRMED"


def test_verify_worst_point_ignores_rounding_level_perturbations():
    # a deviation that is the same at every point up to the last bits (like a
    # constant printed defect) must report the same point however the last
    # bits fall; a real maximum is still found
    rng = np.random.default_rng(5)
    for dev in (0.4718592, 3.0e-15, 0.0):
        for _ in range(20):
            noise = rng.uniform(-4e-16, 4e-16, size=8)
            candidates = [(dev * (1 + e) + abs(e), k) for k, e in enumerate(noise)]
            assert _worst(candidates) == candidates[0]
    candidates = [(1.0, 0), (1.0 + 2e-9, 1), (1.0 + 2e-9 * (1 + 1e-15), 2)]
    assert _worst(candidates) == candidates[1]
    assert _worst([(1e-13, "a"), (2e-12, "b")]) == (2e-12, "b")


def test_verify_builds_each_case_once(monkeypatch):
    # one base per (example, rho) and one PairConditional per pair case feed
    # every check, and the relative-de scan builds one _PairRow per rho; the
    # counts do not depend on the grid sizes
    counts = {"validate": 0, "pair": 0, "row": 0}
    validate, post_init = gaussian.validate, cf.PairConditional.__post_init__
    row_init = cf._PairRow.__init__

    def counting_validate(dist):
        counts["validate"] += 1
        validate(dist)

    def counting_post_init(pc):
        counts["pair"] += 1
        post_init(pc)

    def counting_row_init(row, *args):
        counts["row"] += 1
        row_init(row, *args)

    monkeypatch.setattr(gaussian, "validate", counting_validate)
    monkeypatch.setattr(cf.PairConditional, "__post_init__", counting_post_init)
    monkeypatch.setattr(cf._PairRow, "__init__", counting_row_init)
    verify.run_verify(
        VerifyConfig(tri_points=16, pair_points=16, mc_samples=1000, discrete_cases=1)
    )
    assert counts == {"validate": 109, "pair": 22, "row": 29}


def test_verify_tight_tolerance_fails_with_guidance(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys,
        ["verify", "--tol-quad", "1e-9", "--tri-points", "64", "--pair-points", "96",
         "--mc-samples", "50000", "--discrete-cases", "5", "--out", str(out)],
    )
    assert code == 1
    assert "raise --tri-points/--pair-points\nor relax --tol-quad." in err
    report = json.loads(out.read_text())  # report written despite the failure
    assert report["n_failed"] > 0


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("discrete-cases", "0", "discrete_cases must be at least 1, got 0"),
        ("discrete-cases", "-3", "discrete_cases must be at least 1, got -3"),
        ("mc-samples", "999", "need at least 1000 samples, got 999"),
        ("tri-points", "15", "need at least 16 points per axis, got 15"),
        ("pair-points", "0", "need at least 16 points per axis, got 0"),
        ("tol-quad", "nan", "tol_quad must be positive and finite, got nan"),
        ("tol-quad", "inf", "tol_quad must be positive and finite, got inf"),
    ],
    ids=[
        "discrete-cases-0", "discrete-cases--3", "mc-samples-999", "tri-points-15",
        "pair-points-0", "tol-quad-nan", "tol-quad-inf",
    ],
)
def test_verify_rejects_fewer_than_one_discrete_case(
    capsys, tmp_path, monkeypatch, key, value, message
):
    # the configuration is refused before any check of the basket runs
    entered = []
    for name in [n for n in vars(verify) if n.startswith("_check_")]:
        monkeypatch.setattr(verify, name, lambda checks, cfg, name=name: entered.append(name))
    out = tmp_path / "report.json"
    code, stdout, err = run(capsys, ["verify", f"--{key}={value}", "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert message in err
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, _, err = run(capsys, ["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert message in err
    assert not out.exists()
    assert entered == []
    name = key.replace("-", "_")
    field = next(f for f in dataclasses.fields(VerifyConfig) if f.name == name)
    with pytest.raises(ValueError, match=message):
        VerifyConfig(**{name: type(field.default)(value)})


def test_scan_matches_golden_bytes(capsys, tmp_path):
    # all-mode scans of both families, recorded once: scan output must not move by a byte
    grids = {1: "--rho=-0.7:0.7:8", 2: "--rho=0.01:0.49:8"}
    for example, rho in grids.items():
        out = tmp_path / f"scan_{example}.csv"
        argv = ["scan", "--example", str(example), rho, "--x3=-3:3:7", "--out", str(out)]
        assert main(argv) == 0
        golden = DATA_DIR / f"scan_golden_{example}.csv"
        assert out.read_bytes() == golden.read_bytes()
