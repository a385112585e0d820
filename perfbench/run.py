"""Benchmark of the wentropy CLI: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated from
the seed into a scratch directory under ``.perfbench_work/``.  Then, for S
seconds, samples run as a closed loop with one client: each sample is a fresh
Python process (BLAS pinned to one thread) that imports ``wentropy.cli`` and
runs the workload's CLI calls, and the next starts when it has ended.  Every
sample's outputs must equal the first sample's byte for byte; the first
sample's outputs then pass the workload's correctness gate, outside the timed
loop.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, as
medians over the samples.  Times are in reference seconds: each sample's wall
times are scaled by the calibration kernel timed next to it (calibrate.py),
which takes out most of a shared host's speed swings.  ``--trace 1`` alternates untraced and traced
samples and reports the per-layer metrics: medians over the traced samples,
plus the tracing overhead.  The last line of stdout is the result object; the
line before it records the machine.  The full record, with every sample, goes
to ``.perfbench_work/results/`` and the span file of the last traced sample
to ``.perfbench_work/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench_work"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy is imported, here and in every sample

MIN_SAMPLES = 3  # per kind of sample (untraced, traced) in one run
LOOP_LIMIT_S = 120  # start no sample after this, whatever --seconds says
SAMPLE_TIMEOUT_S = 150  # from the start of the run
ACCOUNTING_TOL = 0.02  # share of traced run_s the layer self times may miss

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from calibrate import REFERENCE_S  # noqa: E402


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(REPO.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_ENV,
        "git_commit": commit,
    }


def child_env() -> dict:
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}


def run_sample(plan, workdir: Path, spec: Path, timeout: float) -> dict:
    """One fresh-process sample; returns its report, or {"error": ...}."""
    for name in plan.outputs:
        (workdir / name).unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec)],
            cwd=workdir, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"sample exceeded {timeout:.0f} s"}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"sample exited with code {proc.returncode}"}
    report = json.loads(lines[-1])
    files = {}
    for name in plan.outputs:
        path = workdir / name
        files[name] = path.read_text() if path.exists() else None
    report["files"] = files
    return report


def reference_s(sample: dict, key: str) -> float:
    """A sample's time in reference seconds (see calibrate.py)."""
    return sample[key] * REFERENCE_S / sample["calibration_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wentropy" / "cli.py").is_file():
        sys.stderr.write(f"no program to measure: {SRC / 'wentropy' / 'cli.py'} is missing\n")
        return 2
    from spans import layer_metrics, traced_total
    from workloads import WORKLOADS, verify_oracle_dev

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        plan = workload.plan(args.seed, workdir)
        spans_dir = WORK / "spans"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"{args.workload}-seed{args.seed}.json"
        specs = {}
        for traced in (False, True):
            specs[traced] = workdir / f"spec-{int(traced)}.json"
            specs[traced].write_text(json.dumps({"calls": plan.calls, "trace": traced, "spans": str(spans_path)}))
        # compile the package's bytecode once, so no sample pays for it
        subprocess.run([sys.executable, "-c", "import wentropy.cli"], env=child_env(), timeout=60)

        kinds = [False, True] if args.trace else [False]
        samples = {kind: [] for kind in kinds}
        attempted = failed = 0
        errors = []
        reference = None
        durations = []  # wall time of each sample process
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            enough = all(len(s) >= MIN_SAMPLES for s in samples.values())
            # stop before a sample that would end past --seconds
            expected = median(durations[-len(kinds):]) if durations else 0.0
            if (elapsed + expected > args.seconds and enough) or elapsed >= LOOP_LIMIT_S:
                break
            traced = kinds[sum(len(s) for s in samples.values()) % len(kinds)]
            report = run_sample(plan, workdir, specs[traced], SAMPLE_TIMEOUT_S - elapsed)
            durations.append(time.perf_counter() - start - elapsed)
            attempted += len(plan.calls)
            samples[traced].append(report)
            if "error" in report:
                failed += len(plan.calls)
                errors.append(report["error"])
                continue
            bad_codes = sum(code != 0 for code in report["codes"])
            if bad_codes:
                failed += bad_codes
                errors.append(f"{bad_codes} call(s) exited with a nonzero code: {report['codes']}")
                continue
            outputs = (report["files"], report["stdouts"])
            if reference is None:
                reference = outputs
            elif outputs != reference:
                failed += 1
                errors.append("sample outputs differ from the first sample's")

        good = {kind: [s for s in runs if "error" not in s] for kind, runs in samples.items()}
        n_good = sum(len(runs) for runs in good.values())
        if reference is not None:
            try:
                gate_errors = workload.gate(plan, *reference)
            except Exception as exc:  # malformed output: the gate fails, the run still reports
                gate_errors = [f"gate raised {exc!r}"]
            if gate_errors:
                failed += n_good  # every sample's outputs equal the gated ones
                errors.extend(gate_errors)

        plain = good[False]
        metrics = None
        if args.trace:
            declared = bench["per_layer"]
            traced = good[True]
            per_sample = [layer_metrics(s["functions"], s["counters"]) for s in traced]
            for s in traced:
                total = traced_total(s["functions"])
                if abs(total - s["run_s"]) > ACCOUNTING_TOL * s["run_s"] + 0.005:
                    failed += 1
                    errors.append(f"layer self times sum to {total:.4f} s, traced run_s is {s['run_s']:.4f} s")
            counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in per_sample]
            if any(c != counts[0] for c in counts):
                failed += 1
                errors.append("call counts differ between traced samples")
            if per_sample and plain:
                overhead = median([reference_s(s, "run_s") for s in traced]) - median(
                    [reference_s(s, "run_s") for s in plain]
                )
                # counts repeat exactly (checked above), so only times take a median
                metrics = {
                    k: v if isinstance(v, int) else median([m[k] for m in per_sample])
                    for k, v in per_sample[0].items()
                }
                metrics["verify.oracle_max_dev"] = verify_oracle_dev(reference[0]) if reference else 0.0
                metrics["trace.overhead_s"] = overhead
        else:
            declared = bench["end_to_end"]
            if plain:
                metrics = {
                    "run_s": median([reference_s(s, "run_s") for s in plain]),
                    "units_per_s": median([plan.units / reference_s(s, "run_s") for s in plain]),
                    "setup_s": median([reference_s(s, "setup_s") for s in plain]),
                    "peak_rss_mb": median([s["peak_rss_mb"] for s in plain]),
                }
        names = [m["name"] for m in declared]
        if metrics is None:  # no sample ended well; the result says so through "correct"
            metrics = dict.fromkeys(names, 0.0)
        elif sorted(metrics) != sorted(names):
            raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
        result = {
            "correct": failed == 0 and n_good > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        }
        machine = machine_info()
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine,
            "client": "closed loop, 1 client, 1 fresh process per sample",
            "unit_of_work": f"{plan.units} {workload.unit} per sample",
            "calls": plan.calls,
            "samples": {("traced" if k else "untraced"): [
                {key: s.get(key) for key in ("setup_s", "run_s", "calibration_s", "peak_rss_mb", "error")}
                for s in runs
            ] for k, runs in samples.items()},
            "errors": errors,
            "result": result,
        }
        results_dir = WORK / "results"
        results_dir.mkdir(exist_ok=True)
        (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        for message in errors[:10]:
            sys.stderr.write(f"FAILED: {message}\n")
        print(json.dumps({"machine": machine, "samples": n_good, "workload": args.workload}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
