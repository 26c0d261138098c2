"""Write a BENCH_<n>.json snapshot: one untraced and one traced benchmark
run per workload declared in BENCHMARK.json.

    python3 tools/bench_snapshot.py --out BENCH_<n>.json --seed S [--note TEXT]

Run from the repository root on an otherwise idle machine.  Each run is
``python3 perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace T``; the snapshot keeps every run's environment line and result
object as printed, next to the metric names of BENCHMARK.json.  A run whose
output check fails stops the snapshot.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    args = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                         text=True, check=True)
    environment, result = out.stdout.strip().splitlines()[-2:]
    return {"command": " ".join(["python3", *args]), **json.loads(environment),
            "result": json.loads(result)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--note", default="")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {w["name"]: {f"trace{t}": run(w["name"], args.seed, bench["run_seconds"], t)
                        for t in (0, 1)}
            for w in bench["workloads"]}
    first = next(iter(runs.values()))["trace0"]["environment"]
    snapshot = {
        "note": args.note,
        "seed": args.seed,
        "run_seconds": bench["run_seconds"],
        "environment": {k: v for k, v in first.items() if k != "load_avg_1m_at_start"},
        "metric_names": {kind: [m["name"] for m in bench[kind]]
                         for kind in ("end_to_end", "per_layer")},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(snapshot, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
