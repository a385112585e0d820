"""Measure every workload, untraced and traced, and write ``perfbench/baseline.json``.

    python3 perfbench/record_baseline.py [--seed N]

Run from the root of a checkout of the commit to record.  Each workload runs
once per trace setting for BENCHMARK.json's ``run_seconds``; the file keeps
the machine, the end-to-end metrics and the per-layer split.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    baseline = {"seed": args.seed, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        entry = baseline["workloads"][workload] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
                cwd=REPO, capture_output=True, text=True, check=True,
            )
            machine_line, result_line = proc.stdout.strip().splitlines()[-2:]
            result = json.loads(result_line)
            baseline["machine"] = json.loads(machine_line)["machine"]
            entry[key] = {name: m["value"] for name, m in result["metrics"].items()}
            entry[f"{key}_correct"] = result["correct"]
        print(workload, json.dumps(entry["end_to_end"]), flush=True)
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
