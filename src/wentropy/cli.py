"""Command-line front door: figure-grid scans, the verification basket,
moment evaluation, and the weighted-DIC demo.

Output is deterministic given flags, config, and seed: floats print with 17
significant digits, and nothing depends on wall clock or locale.  Exit codes:
0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import closedform as cf
from .errors import WentropyError
from .gaussian import example1_cov, example2_cov
from .moments import central_moment, count_matchings, shifted_moment
from .verify import VerifyConfig, run_verify
from .wdic import (
    PosteriorDraws,
    SamplerConfig,
    WeightedDataset,
    builtin_model,
    default_log_prior,
    metropolis_sample,
    wdic,
)

SCAN_SCHEMA = "wentropy scan schema v1"
ALL_MODES = ("paper", "corrected", "wick")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _dump_json(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits, keys in insertion order."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_dump_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = ",\n".join(f"{pad}  {_dump_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            return json.dumps(repr(value))
        return _fmt(value)
    if isinstance(obj, np.ndarray):
        return _dump_json(list(obj), indent)
    return json.dumps(str(obj))


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _read_config(path: str | None) -> dict:
    """Key-value config lines 'name = value'; keys mirror the long flag names."""
    if not path:
        return {}
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _resolve(args, config: dict, key: str, default=None, required: bool = False):
    """Flag value if given, else the config file's, else the default."""
    attr = key.replace("-", "_")
    value = getattr(args, attr, None)
    if value is None:
        value = config.get(key, default)
    if required and value is None:
        raise ValueError(f"missing required option --{key}")
    return value


def _parse_range(text: str, name: str) -> np.ndarray:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ValueError(f"--{name} must be lo:hi:steps, got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 2:
        raise ValueError(f"--{name} needs steps >= 2, got {steps}")
    if not lo < hi:
        raise ValueError(f"--{name} needs lo < hi, got {text!r}")
    if not math.isfinite(hi - lo):
        raise ValueError(f"--{name} needs finite lo, hi and hi - lo, got {text!r}")
    return np.linspace(lo, hi, steps)


def _cmd_scan(args, config: dict) -> int:
    example = int(_resolve(args, config, "example", required=True))
    if example not in (1, 2):
        raise ValueError(f"--example must be 1 or 2, got {example}")
    rhos = _parse_range(_resolve(args, config, "rho", required=True), "rho")
    x3s = _parse_range(_resolve(args, config, "x3", required=True), "x3")
    modes_text = _resolve(args, config, "modes", default=",".join(ALL_MODES))
    modes = tuple(m.strip() for m in str(modes_text).split(",") if m.strip())
    for m in modes:
        if m not in ALL_MODES:
            raise ValueError(f"unknown mode {m!r}; choose from {ALL_MODES}")

    make_base = example1_cov if example == 1 else example2_cov
    printed_de = (
        cf.example1_relative_de_paper if example == 1 else cf.example2_relative_de_paper
    )
    printed_we = (
        cf.example1_relative_we_paper if example == 1 else cf.example2_relative_we_paper
    )
    # (mode, column, values of (rho, row) at every x3); a column without a mode
    # is always written.  The printed formulas are evaluated point by point.
    x3_list = x3s.tolist()
    table = [
        ("paper", "D_paper", lambda rho, row: [printed_de(rho, x3) for x3 in x3_list]),
        ("corrected", "D_corrected", lambda rho, row: cf.relative_de_pair(row, "corrected")),
        ("wick", "Dw_wick", lambda rho, row: cf.relative_we_pair(row, "wick")),
        ("paper", "Dw_printed", lambda rho, row: [printed_we(rho, x3) for x3 in x3_list]),
        (None, "gibbs_gap", lambda rho, row: cf.gibbs_gap(row)),
    ]
    table = [(column, value) for mode, column, value in table if mode is None or mode in modes]

    lines = [
        f"# {SCAN_SCHEMA}",
        f"# example={example} rho={rhos[0]:g}:{rhos[-1]:g}:{rhos.size} "
        f"x3={x3s[0]:g}:{x3s[-1]:g}:{x3s.size} modes={','.join(modes)}",
        ",".join(["rho", "x3"] + [column for column, _ in table]),
    ]
    for rho in rhos.tolist():
        row = cf._PairRow(make_base(rho), x3s)
        with np.errstate(all="ignore"):  # overflow is reported below, by point
            columns = [values(rho, row) for _, values in table]
        for k, x3 in enumerate(x3_list):
            for (column, _), values in zip(table, columns):
                if not math.isfinite(values[k]):
                    raise ValueError(f"{column} is {values[k]} at rho={rho!r}, x3={x3!r}")
            lines.append(",".join([_fmt(rho), _fmt(x3)] + [_fmt(v[k]) for v in columns]))
    _write_output("\n".join(lines) + "\n", _resolve(args, config, "out"))
    return 0


def _cmd_verify(args, config: dict) -> int:
    # each field is the flag of the same name, cast by the type of its default
    cfg = VerifyConfig(**{
        f.name: type(f.default)(_resolve(args, config, f.name.replace("_", "-"), f.default))
        for f in dataclasses.fields(VerifyConfig)
    })
    report = run_verify(cfg)
    _write_output(_dump_json(report) + "\n", _resolve(args, config, "out"))
    if not report["ok"]:
        failed = [c["formula"] for c in report["checks"] if c["verdict"] == "FAIL"]
        sys.stderr.write(
            f"{report['n_failed']} oracle check(s) failed: {', '.join(sorted(set(failed)))}\n"
            "If these are wick-vs-quadrature comparisons at a tightened tolerance, the\n"
            "grid is too coarse for it: raise --tri-points/--pair-points\n"
            "or relax --tol-quad.\n"
        )
        return 1
    return 0


def _cmd_moment(args, config: dict) -> int:
    cov_path = _resolve(args, config, "cov", required=True)
    with open(cov_path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "cov" not in payload:
        raise ValueError(f"{cov_path}: JSON object must contain a 'cov' matrix")
    cov = np.asarray(payload["cov"], dtype=float)
    exponents = [int(v) for v in str(_resolve(args, config, "r", required=True)).split(",")]
    shift_text = _resolve(args, config, "shift")
    if shift_text is None:
        value = central_moment(cov, exponents)
    else:
        deltas = [float(v) for v in str(shift_text).split(",")]
        value = shifted_moment(cov, deltas, exponents)
    if not math.isfinite(value):
        raise ValueError(f"value is {value}: the moment is outside the float range")
    order = sum(exponents)
    matchings = count_matchings(order) if order % 2 == 0 else 0
    sys.stdout.write(f"value: {_fmt(value)}\n")
    sys.stdout.write(f"matchings: {matchings}\n")
    return 0


def _cmd_wdic(args, config: dict) -> int:
    data = WeightedDataset.from_csv(_resolve(args, config, "data", required=True))
    centers_text = _resolve(args, config, "weights-center")
    if centers_text is not None:
        centers = [float(v) for v in str(centers_text).split(",")]
        data = data.with_central_weights(centers)
    model = builtin_model(str(_resolve(args, config, "model", default="normal-mean")))
    draws_path = _resolve(args, config, "draws")
    sample_text = _resolve(args, config, "sample")
    if (draws_path is None) == (sample_text is None):
        raise ValueError("provide exactly one of --draws FILE or --sample steps,burnin,step,seed")
    acceptance = None
    if draws_path is not None:
        draws = PosteriorDraws.from_csv(draws_path)
    else:
        parts = str(sample_text).split(",")
        if len(parts) != 4:
            raise ValueError(f"--sample must be steps,burnin,step,seed, got {sample_text!r}")
        sampler_cfg = SamplerConfig(
            steps=int(parts[0]), burn_in=int(parts[1]),
            step_size=float(parts[2]), seed=int(parts[3]),
        )
        prior_scale = float(_resolve(args, config, "prior-scale", default=10.0))
        draws = metropolis_sample(
            model, default_log_prior(model, prior_scale), data, sampler_cfg
        )
        acceptance = draws.acceptance_rate
    rule = str(_resolve(args, config, "theta-hat", default="mean"))
    result = wdic(model, draws, data, theta_hat_rule=rule)
    payload = {
        "wdic": result.wdic,
        "pwd": result.pwd,
        "dev_at_hat": result.dev_at_hat,
        "theta_hat": [float(v) for v in result.theta_hat],
    }
    if acceptance is not None:
        payload["acceptance_rate"] = acceptance
    payload["pwd_mcse"] = result.pwd_mcse
    payload["ess"] = result.ess
    _write_output(_dump_json(payload) + "\n", _resolve(args, config, "out"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wentropy",
        description="Weighted differential entropies: scans, verification, moments, WDIC.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="emit the (rho, x3) figure grids as CSV")
    scan.add_argument("--example", type=int, choices=(1, 2))
    scan.add_argument("--rho", help="lo:hi:steps")
    scan.add_argument("--x3", help="lo:hi:steps")
    scan.add_argument("--modes", help="comma list from paper,corrected,wick")
    scan.add_argument("--out")
    scan.add_argument("--config")

    verify = sub.add_parser("verify", help="run the verification basket, emit a JSON report")
    verify.add_argument("--tol-quad", type=float)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--tri-points", type=int)
    verify.add_argument("--pair-points", type=int)
    verify.add_argument("--mc-samples", type=int)
    verify.add_argument("--discrete-cases", type=int)
    verify.add_argument("--out")
    verify.add_argument("--config")

    moment = sub.add_parser("moment", help="evaluate a (shifted) Gaussian product moment")
    moment.add_argument("--cov", help="JSON file with a 'cov' matrix")
    moment.add_argument("--r", help="comma list of exponents")
    moment.add_argument("--shift", help="comma list of per-coordinate shifts")
    moment.add_argument("--config")

    wdic_cmd = sub.add_parser("wdic", help="weighted deviance information criterion")
    wdic_cmd.add_argument("--data", help="CSV with columns y_1..y_d,weight")
    wdic_cmd.add_argument("--draws", help="CSV with columns theta_1..theta_p")
    wdic_cmd.add_argument("--sample", help="steps,burnin,step,seed")
    wdic_cmd.add_argument("--model", help="normal-mean | normal-mean-sd2 | normal")
    wdic_cmd.add_argument("--weights-center", help="comma list; derive weights from data")
    wdic_cmd.add_argument("--theta-hat", choices=("mean", "mode"))
    wdic_cmd.add_argument("--prior-scale", type=float)
    wdic_cmd.add_argument("--out")
    wdic_cmd.add_argument("--config")

    return parser


_COMMANDS = {
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "moment": _cmd_moment,
    "wdic": _cmd_wdic,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(getattr(args, "config", None))
        known = {k.replace("_", "-") for k in vars(args)} - {"command", "config"}
        unknown = [key for key in config if key not in known]
        if unknown:
            raise ValueError(
                f"unknown config key {unknown[0]!r}; {args.command} takes {sorted(known)}"
            )
        return _COMMANDS[args.command](args, config)
    except (WentropyError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
