"""Which package functions the commands run.

Every command path runs in process under ``sys.setprofile``, and the package
functions no path called must be exactly ``NEVER_CALLED``.  Code that no
command runs is then a visible choice: a new function either runs or is listed
here with its reason.
"""

import gc
import inspect
import json
import pkgutil
import sys
from functools import cached_property
from importlib import import_module
from pathlib import Path

import wentropy
from wentropy import cli, quadrature

DATA_DIR = Path(__file__).parent / "data"

GRID_GATE = "kept for the benchmark's scan gate until it moves to the exact rule"
NEVER_CALLED = {
    "quadrature.GridSpec.__post_init__": GRID_GATE,
    "quadrature.GridSpec.dim": GRID_GATE,
    "quadrature.GridSpec.cell_volume": GRID_GATE,
    "quadrature.GridSpec.axis_centers": GRID_GATE,
    "quadrature.GridSpec.for_gaussians": GRID_GATE,
    "quadrature._chunks": GRID_GATE,
    "quadrature._integrate": GRID_GATE,
    "quadrature._log0": GRID_GATE,
    "quadrature.relative_wde_quadrature": GRID_GATE,
    "gaussian.gaussian_de": "the paper's differential entropy formula, in both modes",
    "gaussian.Gaussian.marginal": "what condition returns for an empty given set",
}


def _functions(obj):
    """(name, function) for a class's own methods, properties included."""
    for name, value in vars(obj).items():
        if isinstance(value, (classmethod, staticmethod)):
            yield name, value.__func__
        elif isinstance(value, property):
            yield name, value.fget
        elif isinstance(value, cached_property):
            yield name, value.func
        elif inspect.isfunction(value):
            yield name, value


def _package_functions() -> dict:
    """Each function and method written in a ``wentropy`` module, by its code
    object, as ``module.qualname``.  Code that a dataclass generates is not
    in the module's file, so it is left out."""
    found = {}
    for info in pkgutil.iter_modules(wentropy.__path__):
        module = import_module(f"wentropy.{info.name}")
        source = inspect.getsourcefile(module)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                members = [(f"{obj.__name__}.{n}", f) for n, f in _functions(obj)]
            elif callable(obj):
                members = [(obj.__name__, inspect.unwrap(obj))]
            else:
                continue
            for name, fn in members:
                if inspect.isfunction(fn) and fn.__code__.co_filename == source:
                    found[fn.__code__] = f"{info.name}.{name}"
    return found


def _command_paths(tmp_path) -> list:
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"cov": [[1.0, 0.5], [0.5, 2.0]]}))
    config = tmp_path / "scan.cfg"
    config.write_text("example = 2\nrho = 0.1:0.4:3\nx3 = 0:1:2\nmodes = wick\n")
    toy = ["--data", str(DATA_DIR / "toy_data.csv")]
    sample = ["--data", str(DATA_DIR / "wdic_sample_data.csv"), "--sample", "400,100,0.4,7"]
    return [
        ["scan", "--example", "1", "--rho=-0.7:0.7:29", "--x3=-3:3:31",
         "--out", str(tmp_path / "scan1.csv")],
        ["scan", "--example", "2", "--rho=0.05:0.45:29", "--x3=-3:3:31",
         "--out", str(tmp_path / "scan2.csv")],
        ["scan", "--config", str(config), "--out", str(tmp_path / "scan3.csv")],
        ["verify", "--mc-samples", "1000", "--discrete-cases", "2",
         "--out", str(tmp_path / "verify.json")],
        ["moment", "--cov", str(cov), "--r", "2,2"],
        ["moment", "--cov", str(cov), "--r", "3,1", "--shift", "0.5,-1"],
        ["wdic", *toy, "--draws", str(DATA_DIR / "toy_draws.csv"), "--theta-hat", "mean"],
        ["wdic", *toy, "--draws", str(DATA_DIR / "toy_draws.csv"), "--theta-hat", "mode"],
        ["wdic", *sample, "--model", "normal", "--weights-center=0.5"],
        ["wdic", *sample, "--model", "normal-mean-sd2", "--theta-hat", "mode"],
    ]


def test_every_package_function_a_command_never_calls_is_listed(tmp_path, capsys):
    functions = _package_functions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    # an earlier test may have filled these caches; a cache hit runs no code
    cli._build_parser.cache_clear()
    quadrature._hermite_rule.cache_clear()
    # and left a suspended generator in a reference cycle (a raising integrand
    # leaves _chunks so); collected inside the window, its close would count
    # as a call
    gc.collect()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in _command_paths(tmp_path)]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(codes), capsys.readouterr().err
    never = {name for code, name in functions.items() if code not in called}
    assert never == set(NEVER_CALLED)
