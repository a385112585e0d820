"""Command-line front door: figure-grid scans, the verification basket,
moment evaluation, and the weighted-DIC demo.

Output is deterministic given flags, config, and seed: floats print with 17
significant digits, and nothing depends on wall clock or locale.  Exit codes:
0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import repeat

import numpy as np

from . import closedform as cf
from .errors import DimensionMismatchError, WentropyError
from .gaussian import check_example1_rho, check_example2_rho, example1_cov, example2_cov
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


# what json.dumps runs on a str: the C escaper, ASCII output
_escape = json.encoder.encode_basestring_ascii


def _dump_json(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits, keys in insertion order;
    a non-finite float prints as the string of its repr ("inf", "nan")."""
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return f"{value:.17g}" if math.isfinite(value) else _escape(repr(value))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        sep = "\n" + "  " * (indent + 1)
        items = [f"{_escape(str(k))}: {_dump_json(v, indent + 1)}" for k, v in obj.items()]
        return "{" + sep + ("," + sep).join(items) + sep[:-2] + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = "\n" + "  " * (indent + 1)
        items = [_dump_json(v, indent + 1) for v in obj]
        return "[" + sep + ("," + sep).join(items) + sep[:-2] + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.ndarray):
        return _dump_json(list(obj), indent)
    return _escape(str(obj))


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _read_config(path: str) -> dict:
    """Key-value config lines 'name = value'; keys mirror the long flag names.
    A line whose first non-blank character is '#' is a comment; a '#' in a value is kept."""
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _parse_numbers(flag: str, texts: list, kinds, names=None) -> list:
    """Each text parsed by its kind, int or float; a text that does not parse is
    refused by the flag, its field (from ``names``, else ``entry k``) and the text."""
    values = []
    for k, (text, kind) in enumerate(zip(texts, kinds), start=1):
        try:
            values.append(kind(text))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            name = names[k - 1] if names else f"entry {k}"
            raise ValueError(f"--{flag} {name} must be {what}, got {text!r}") from None
    return values


def _parse_range(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--{name} must be lo:hi:steps, got {text!r}")
    lo, hi, steps = _parse_numbers(name, parts, (float, float, int), ("lo", "hi", "steps"))
    if steps < 2:
        raise ValueError(f"--{name} needs steps >= 2, got {steps}")
    if not lo < hi:
        raise ValueError(f"--{name} needs lo < hi, got {text!r}")
    if not math.isfinite(hi - lo):
        raise ValueError(f"--{name} needs finite lo, hi and hi - lo, got {text!r}")
    return np.linspace(lo, hi, steps)


def _cmd_scan(args) -> int:
    example = args.example
    rhos = _parse_range(args.rho, "rho")
    x3s = _parse_range(args.x3, "x3")
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    for m in modes:
        if m not in ALL_MODES:
            raise ValueError(f"unknown mode {m!r}; choose from {ALL_MODES}")

    make_base = example1_cov if example == 1 else example2_cov
    check_rho = check_example1_rho if example == 1 else check_example2_rho
    printed_de = (
        cf.example1_relative_de_paper if example == 1 else cf.example2_relative_de_paper
    )
    printed_we = (
        cf.example1_relative_we_paper if example == 1 else cf.example2_relative_we_paper
    )
    # (mode, column, fill(rhos, grid) -> the (rho, x3) values); a column without a mode
    # is always written.  A printed formula takes one call per rho on the x3 row (x3
    # enters by + - * / only), the others the grid: both give the per-point floats.
    table = [
        ("paper", "D_paper", lambda rhos, grid: [printed_de(rho, x3s) for rho in rhos]),
        ("corrected", "D_corrected", lambda rhos, grid: cf.relative_de_pair(grid, "corrected")),
        ("wick", "Dw_wick", lambda rhos, grid: cf.relative_we_pair(grid, "wick")),
        ("paper", "Dw_printed", lambda rhos, grid: [printed_we(rho, x3s) for rho in rhos]),
        (None, "gibbs_gap", lambda rhos, grid: cf.gibbs_gap(grid)),
    ]
    table = [(column, fill) for mode, column, fill in table if mode is None or mode in modes]

    lines = [
        f"# {SCAN_SCHEMA}",
        f"# example={example} rho={rhos[0]:g}:{rhos[-1]:g}:{rhos.size} "
        f"x3={x3s[0]:g}:{x3s[-1]:g}:{x3s.size} modes={','.join(modes)}",
        ",".join(["rho", "x3"] + [column for column, _ in table]),
    ]
    # a refused rho raises only after the rows before it are checked, in rho order
    rhos, error = rhos.tolist(), None
    for b, rho in enumerate(rhos):
        try:
            check_rho(rho)
        except WentropyError as exc:
            rhos, error = rhos[:b], exc
            break
    if rhos:  # the valid prefix, one batched base
        grid = cf.PairConditional(make_base(np.array(rhos)), x3s)
        with np.errstate(all="ignore"):  # overflow is reported below, by point
            values = np.stack([fill(rhos, grid) for _, fill in table], axis=-1)
        finite = np.isfinite(values)  # (rho, x3, column)
        if not finite.all():  # the first bad value by rho, then x3, then column
            b, k, c = np.unravel_index(int(np.argmin(finite)), values.shape)
            point = f"rho={rhos[b]!r}, x3={float(x3s[k])!r}"
            raise ValueError(f"{table[c][0]} is {float(values[b, k, c])} at {point}")
    if error is not None:
        raise error
    x3_text = [_fmt(x3) for x3 in x3s.tolist()]
    values_fmt = ",".join(["{:.17g}"] * len(table))  # _fmt of each value
    for rho, row in zip(rhos, values.tolist()):
        head = _fmt(rho) + ","
        lines += [head + x3 + "," + values_fmt.format(*point) for x3, point in zip(x3_text, row)]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(VerifyConfig(args.seed, args.mc_samples, args.discrete_cases))
    _write_output(_dump_json(report) + "\n", args.out)
    if not report["ok"]:
        failed = [c["formula"] for c in report["checks"] if c["verdict"] == "FAIL"]
        sys.stderr.write(
            f"{report['n_failed']} oracle check(s) failed: {', '.join(sorted(set(failed)))}\n"
        )
        return 1
    return 0


def _cmd_moment(args) -> int:
    exponents = _parse_numbers("r", args.r.split(","), repeat(int))
    if args.shift is not None:
        deltas = _parse_numbers("shift", args.shift.split(","), repeat(float))
    with open(args.cov) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "cov" not in payload:
        raise ValueError(f"{args.cov}: JSON object must contain a 'cov' matrix")
    cov = np.asarray(payload["cov"], dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:  # one matrix, not a batch
        raise DimensionMismatchError(f"cov must be square, got shape {cov.shape}")
    if args.shift is None:
        value = central_moment(cov, exponents)
    else:
        value = shifted_moment(cov, deltas, exponents)
    if not math.isfinite(value):
        raise ValueError(f"value is {value}: the moment is outside the float range")
    order = sum(exponents)
    matchings = count_matchings(order) if order % 2 == 0 else 0
    sys.stdout.write(f"value: {_fmt(value)}\n")
    sys.stdout.write(f"matchings: {matchings}\n")
    return 0


@np.errstate(all="ignore")  # overflow is reported below, by key
def _cmd_wdic(args) -> int:
    if (args.draws is None) == (args.sample is None):
        raise ValueError("provide exactly one of --draws FILE or --sample steps,burnin,step,seed")
    # every flag is parsed before the data is read
    model = builtin_model(args.model)
    if args.weights_center is not None:
        centers = _parse_numbers("weights-center", args.weights_center.split(","), repeat(float))
    if args.sample is not None:
        if args.sample.count(",") != 3:
            raise ValueError(f"--sample must be steps,burnin,step,seed, got {args.sample!r}")
        fields = ("steps", "burn_in", "step_size", "seed")  # SamplerConfig's, in order
        values = _parse_numbers("sample", args.sample.split(","), (int, int, float, int), fields)
        cfg = SamplerConfig(*values)
        log_prior = default_log_prior(model, args.prior_scale)
    data = WeightedDataset.from_csv(args.data)
    if args.weights_center is not None:
        data = data.with_central_weights(centers)
    # on either path: data whose sums leave the float range is refused as such,
    # not scored as a zero density
    model.summarize(data.y)
    acceptance = None
    if args.draws is not None:
        draws = PosteriorDraws.from_csv(args.draws)
    else:
        draws = metropolis_sample(model, log_prior, data, cfg)
        acceptance = draws.acceptance_rate
    result = wdic(model, draws, data, theta_hat_rule=args.theta_hat)
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
    for key, value in payload.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{key} is {value}: the result is outside the float range")
    _write_output(_dump_json(payload) + "\n", args.out)
    return 0


@functools.cache  # parse_args leaves the parser as it found it
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
    scan.add_argument("--modes", default=",".join(ALL_MODES), help="comma list from %(default)s")
    scan.add_argument("--out")
    scan.add_argument("--config")

    verify = sub.add_parser("verify", help="run the verification basket, emit a JSON report")
    verify.add_argument("--seed", type=int, default=VerifyConfig.seed)
    verify.add_argument("--mc-samples", type=int, default=VerifyConfig.mc_samples)
    verify.add_argument("--discrete-cases", type=int, default=VerifyConfig.discrete_cases)
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
    wdic_cmd.add_argument(
        "--model", default="normal-mean", help="normal-mean | normal-mean-sd2 | normal"
    )
    wdic_cmd.add_argument("--weights-center", help="comma list; derive weights from data")
    wdic_cmd.add_argument("--theta-hat", choices=("mean", "mode"), default="mean")
    wdic_cmd.add_argument("--prior-scale", type=float, default=10.0)
    wdic_cmd.add_argument("--out")
    wdic_cmd.add_argument("--config")

    return parser


# each command's handler and the options it cannot run without
_COMMANDS = {
    "scan": (_cmd_scan, ("example", "rho", "x3")),
    "verify": (_cmd_verify, ()),
    "moment": (_cmd_moment, ("cov", "r")),
    "wdic": (_cmd_wdic, ("data",)),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, required = _COMMANDS[args.command]
    try:
        if args.config:
            config = _read_config(args.config)
            known = {k.replace("_", "-") for k in vars(args)} - {"command", "config"}
            unknown = [key for key in config if key not in known]
            if unknown:
                raise ValueError(
                    f"unknown config key {unknown[0]!r}; {args.command} takes {sorted(known)}"
                )
            # the file's lines parse as flags ahead of the command line's own,
            # so each gets its flag's type and choices and an explicit flag wins
            at = argv.index(args.command) + 1
            lines = [f"--{key}={value}" for key, value in config.items()]
            args = parser.parse_args(argv[:at] + lines + argv[at:])
        for name in required:
            if getattr(args, name) is None:
                raise ValueError(f"missing required option --{name}")
        return handler(args)
    except (WentropyError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
