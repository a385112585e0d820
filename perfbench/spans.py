"""Layer tracing for one benchmark sample, done entirely from outside the package.

Every public function of a layer module, and every public method (plus
``__post_init__`` and ``__call__``) of the classes it defines, is replaced by a
wrapper at every ``wentropy`` module attribute bound to it.  That covers names
imported elsewhere (``closedform`` imports ``validate`` and ``shifted_moment``
by name), methods looked up on their class (``Gaussian.log_pdf``,
``PairConditional.__post_init__``) and the ``wentropy.wdic`` module, which the
package attribute of the same name hides behind the function.

The wrappers keep a span stack in memory.  A span's self time is its duration
minus the durations of the spans it opened, so the self times of all layers
add up to the time spent inside ``cli.main``.  Spans are aggregated by call
path as they close and written out once, at the end of the sample, as folded
stacks.  The program is single-threaded, so no layer queues or waits; there is
no wait time to record.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "moments", "gaussian", "closedform", "quadrature", "discrete", "verify", "wdic")

# integrators that evaluate a midpoint grid; de_quadrature only delegates to
# wde_quadrature, so counting it too would count its grid twice
GRID_INTEGRATORS = (
    "weighted_mass",
    "wde_quadrature",
    "conditional_wde_quadrature",
    "mutual_wde_quadrature",
    "relative_wde_quadrature",
    "gibbs_condition_value",
    "moment_quadrature",
)


def _grid_cells(fn, args, kwargs) -> int:
    """Cells a grid integrator evaluates, computed from its arguments."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    params = bound.arguments
    if "grid" not in params:  # moment_quadrature builds its own cube grid
        return int(params["points"]) ** int(params["dist"].dim)
    cells = 1
    for _, _, n in params["grid"].axes:
        cells *= n
    if params.get("check_refinement"):
        cells *= 1 + 2 ** params["grid"].dim
    return cells


def _count_quadrature(counters, fn, args, kwargs, result):
    counters["quadrature.calls"] += 1
    counters["quadrature.cells"] += _grid_cells(fn, args, kwargs)


def _count_monte_carlo(counters, fn, args, kwargs, result):
    cfg = inspect.signature(fn).bind(*args, **kwargs).arguments["cfg"]
    counters["quadrature.mc_samples"] += cfg.samples


def _count_sampler(counters, fn, args, kwargs, result):
    cfg = inspect.signature(fn).bind(*args, **kwargs).arguments["cfg"]
    kept = cfg.steps - cfg.burn_in
    counters["wdic.sampler.steps"] += cfg.steps
    counters["wdic.sampler.kept"] += kept
    counters["wdic.sampler.accepted"] += round(result.acceptance_rate * kept)


COUNTER_NAMES = (
    "quadrature.calls",
    "quadrature.cells",
    "quadrature.mc_samples",
    "wdic.sampler.steps",
    "wdic.sampler.kept",
    "wdic.sampler.accepted",
)
COUNTERS = {
    **{f"quadrature.{name}": _count_quadrature for name in GRID_INTEGRATORS},
    "quadrature.relative_wde_monte_carlo": _count_monte_carlo,
    "wdic.metropolis_sample": _count_sampler,
}


class Tracer:
    """Span stack plus per-path aggregates for one process."""

    def __init__(self):
        # frame: [time covered by child spans, path id]
        self.stack = [[0.0, -1]]
        self.paths = {}  # (parent path id, name) -> path id
        self.stats = []  # path id -> [calls, total_s, self_s]
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._originals = []

    def _path_id(self, parent: int, name: str) -> int:
        key = (parent, name)
        pid = self.paths.get(key)
        if pid is None:
            pid = self.paths[key] = len(self.stats)
            self.stats.append([0, 0.0, 0.0])
        return pid

    def wrap(self, name: str, fn):
        stack = self.stack
        stats = self.stats
        path_id = self._path_id
        count = COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, path_id(stack[-1][1], name)]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stat = stats[frame[1]]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                stack[-1][0] += duration
            if count is not None:
                count(counters, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every layer's public callables; ``wentropy.cli`` must be imported."""
        modules = [m for n, m in list(sys.modules.items()) if n == "wentropy" or n.startswith("wentropy.")]
        for layer in LAYERS:
            module = sys.modules[f"wentropy.{layer}"]
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and not attr.startswith("_"):
                    wrapped = self.wrap(f"{layer}.{attr}", value)
                    for other in modules:
                        for other_attr, bound in list(vars(other).items()):
                            if bound is value:
                                self._set(other, other_attr, wrapped)
                elif inspect.isclass(value):
                    self._wrap_class(layer, value)
        return self

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__post_init__", "__call__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._set(cls, attr, self.wrap(name, member))
            elif isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self.wrap(name, member.__func__)))

    def _set(self, owner, attr, value) -> None:
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def functions(self) -> dict:
        """Aggregate over call paths: name -> [calls, total_s, self_s]."""
        names = {pid: name for (_, name), pid in self.paths.items()}
        out = {}
        for pid, (calls, total, self_s) in enumerate(self.stats):
            agg = out.setdefault(names[pid], [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return out

    def folded_stacks(self) -> list:
        """One row per call path: ["a;b;c", calls, total_s, self_s], heaviest first."""
        parents = {pid: (parent, name) for (parent, name), pid in self.paths.items()}

        def path(pid):
            parts = []
            while pid != -1:
                pid, name = parents[pid]
                parts.append(name)
            return ";".join(reversed(parts))

        rows = [[path(pid), *stat] for pid, stat in enumerate(self.stats)]
        rows.sort(key=lambda row: -row[3])
        return rows

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "format": "folded stacks: [call path, calls, total_s, self_s]",
                    "stacks": self.folded_stacks(),
                    "counters": self.counters,
                },
                handle,
                indent=1,
            )



def layer_metrics(functions: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced sample, from ``Tracer.functions()`` and
    ``Tracer.counters``.  Layer self times cover every wrapped function of the
    layer; ``*.s`` metrics are inclusive times of one function's spans."""

    def stat(name, k):
        return functions.get(name, (0, 0.0, 0.0))[k]

    def layer_self(layer):
        return float(sum(v[2] for k, v in functions.items() if k.split(".", 1)[0] == layer))

    grid_s = sum(stat(f"quadrature.{name}", 1) for name in GRID_INTEGRATORS)
    kept = counters["wdic.sampler.kept"]
    return {
        "cli.self_s": layer_self("cli"),
        "moments.central_moment.calls": stat("moments.central_moment", 0),
        "moments.shifted_moment.calls": stat("moments.shifted_moment", 0),
        "moments.self_s": layer_self("moments"),
        "gaussian.validate.calls": stat("gaussian.validate", 0),
        "gaussian.validate.self_s": stat("gaussian.validate", 2),
        "gaussian.condition.calls": stat("gaussian.condition", 0),
        "gaussian.log_pdf.calls": stat("gaussian.Gaussian.log_pdf", 0),
        "gaussian.log_pdf.self_s": stat("gaussian.Gaussian.log_pdf", 2),
        "gaussian.self_s": layer_self("gaussian"),
        "closedform.pair_conditional.builds": stat("closedform.PairConditional.__post_init__", 0),
        "closedform.self_s": layer_self("closedform"),
        "quadrature.calls": counters["quadrature.calls"],
        "quadrature.cells": counters["quadrature.cells"],
        "quadrature.self_s": layer_self("quadrature"),
        "quadrature.cells_per_s": counters["quadrature.cells"] / grid_s if grid_s else 0.0,
        "quadrature.mc_samples": counters["quadrature.mc_samples"],
        "discrete.checks": sum(v[0] for k, v in functions.items() if k.startswith("discrete.") and k.endswith("_check")),
        "discrete.self_s": layer_self("discrete"),
        "verify.self_s": layer_self("verify"),
        "wdic.sampler.steps": counters["wdic.sampler.steps"],
        "wdic.sampler.s": stat("wdic.metropolis_sample", 1),
        "wdic.sampler.acceptance_rate": counters["wdic.sampler.accepted"] / kept if kept else 0.0,
        "wdic.deviance.calls": stat("wdic.weighted_deviance", 0),
        "wdic.penalty.s": stat("wdic.penalty_pwd", 1),
        "wdic.self_s": layer_self("wdic"),
    }


def traced_total(functions: dict) -> float:
    """Sum of every layer's self time: the time spent inside ``cli.main``."""
    return sum(v[2] for k, v in functions.items() if k.split(".", 1)[0] in LAYERS)
