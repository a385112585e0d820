"""One benchmark sample, run in a fresh interpreter.

    python3 child.py SPEC_JSON

SPEC_JSON holds ``{"calls": [[argv, ...], ...], "trace": bool, "spans": path}``.
The sample times the import of ``wentropy.cli`` (set-up), then runs the CLI
calls back to back through ``wentropy.cli.main`` (the run), capturing each
call's stdout.  The calibration kernel runs just before and just after the
run, outside it.  With ``trace`` set, the layer tracer is installed for the
run only, and the span file is written to ``spans`` afterwards.  The last line
of stdout is one JSON object with the timings, exit codes, captured stdouts,
peak memory and, when traced, the per-function aggregates.
"""

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    start = perf_counter()
    import wentropy.cli as cli

    setup_s = perf_counter() - start
    from calibrate import kernel_s

    calibration_before = kernel_s()
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer().install()
    codes, stdouts = [], []
    start = perf_counter()
    for argv in spec["calls"]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # report the failure and go on with the next call
            traceback.print_exc()
            code = None
        codes.append(code)
        stdouts.append(buf.getvalue())
    run_s = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calibration_s": 0.5 * (calibration_before + kernel_s()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": codes,
        "stdouts": stdouts,
    }
    if tracer is not None:
        tracer.write_spans(spec["spans"])
        result["functions"] = tracer.functions()
        result["counters"] = tracer.counters
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
