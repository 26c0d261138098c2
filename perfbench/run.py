"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The workload runs in a fresh child process
(``workloads.py``) with ``src`` on its path and one BLAS thread.  The last
line of standard output is the result object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
ones with ``--trace 1``).  The line before it records the machine and
software the result was measured on.  Exits non-zero when an output check
fails; files go under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("offline-eval", "train-sac-gems")
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"   # the program is single-process; 2 OpenBLAS threads were no faster
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


VERSIONS = """
import json, sys, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def environment(root: Path, env: dict, load_1m: float) -> dict:
    versions = subprocess.run([sys.executable, "-c", VERSIONS], env=env, cwd=root,
                              capture_output=True, text=True, timeout=60)
    facts = json.loads(versions.stdout) if versions.returncode == 0 else {}
    return {"nproc": os.cpu_count(), "machine": platform.machine(), **facts,
            "blas_threads": BLAS_THREADS, "git_sha": git_sha(root),
            "src_lines": src_lines(root), "load_avg_1m_at_start": load_1m}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="slatelab pipeline benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    load_1m = os.getloadavg()[0]
    if not (ROOT / "src" / "slatelab" / "cli.py").is_file():
        print(f"perfbench: no slatelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = (ROOT / ".perfbench"
               / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}")
    (run_dir / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [x for x in [env.get("PYTHONPATH")] if x])
    env["TMPDIR"] = str(run_dir / "tmp")
    env["PYTHONHASHSEED"] = "0"

    cmd = [sys.executable, str(ROOT / "perfbench" / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", str(run_dir)]
    with open(run_dir / "child.log", "w") as log:
        try:
            child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log,
                                   timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
    result_path = run_dir / "result.json"
    if not result_path.exists():
        print(f"perfbench: workload exited {child.returncode} without a result",
              file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    facts = environment(ROOT, env, load_1m)
    (run_dir / "environment.json").write_text(json.dumps(facts) + "\n")
    print(json.dumps({"environment": facts}))
    print(json.dumps(result))
    return 0 if result["correct"] and child.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
