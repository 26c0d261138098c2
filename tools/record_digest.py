"""Digest every artifact of a tiny end-to-end run, to check that a change
leaves a tree's records bit-identical.

    python3 tools/record_digest.py --workdir DIR > digests.txt

DIR must be empty or absent.  On the tiny config (``TINY`` of
``tests/test_harness.py``) the script runs ``generate-data``, ``train-mf``
and ``pretrain-gems`` once, then, for each of 11 agent/ranker compositions
and seeds 0 and 1, ``train`` and a 5-user ``evaluate`` with diagnostics of
the run's last checkpoint.  Every stage runs inside DIR with relative
artifact paths, so config hashes, and with them record files and checkpoint
headers, do not depend on DIR.  It prints one ``sha256  path`` line per file
written (a ``record.json`` with its ``wall_clock`` dropped) and per
evaluate's returns.  Run the copy of this script in each of two trees and
diff the outputs; it imports ``slatelab`` from the ``src`` beside it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
EVAL_USERS = 5
COMPOSITIONS = {
    "sac-gems": {"agent": "sac", "ranker": "gems"},
    "sac-gems-learned-belief": {"agent": "sac", "ranker": "gems",
                                "belief_item_source": "learned"},
    "sac-wknn-mf-p3": {"agent": "sac", "ranker": "wknn", "wknn_source": "mf", "wknn_p": "3"},
    "sac-wknn-ideal": {"agent": "sac", "ranker": "wknn", "wknn_source": "ideal"},
    "sac-topk-mf": {"agent": "sac", "ranker": "topk-mf"},
    "sac-topk-mf-mf-belief": {"agent": "sac", "ranker": "topk-mf", "belief_item_source": "mf"},
    "sac-topk-ideal": {"agent": "sac", "ranker": "topk-ideal"},
    "reinforce-learned": {"agent": "reinforce", "ranker": "softmax"},
    "reinforce-mf": {"agent": "reinforce", "ranker": "softmax", "belief_item_source": "mf"},
    "random": {"agent": "none", "ranker": "random"},
    "oracle": {"agent": "none", "ranker": "oracle"},
}


def tiny_values() -> dict:
    """The ``TINY`` dict literal of tests/test_harness.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_harness.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TINY"]:
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_harness.py defines no TINY")


def write_config(path: Path, values: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path.name


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "record.json":
        record = json.loads(data)
        record.pop("wall_clock")
        data = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_all(workdir: Path) -> None:
    """Every stage, inside workdir, with the CLI's output sent to stderr."""
    from slatelab.cli import main
    from slatelab.config import load_config
    from slatelab.harness import evaluate

    base = {**tiny_values(), "gems_ckpt": "gems.slk", "mf_embeddings": "mf.npz"}
    cfg = write_config(workdir / "base.cfg", base)
    main(["generate-data", "--config", cfg, "--out", "data.bin", "--trajectories", "100",
          "--seed", "0"])
    main(["train-mf", "--config", cfg, "--data", "data.bin", "--out", "mf.npz", "--seed", "0"])
    main(["pretrain-gems", "--config", cfg, "--data", "data.bin", "--out", "gems.slk",
          "--seed", "0"])
    for name, over in COMPOSITIONS.items():
        cfg = write_config(workdir / f"{name}.cfg", {**base, **over})
        for seed in SEEDS:
            run = Path("runs") / name
            main(["train", "--config", cfg, "--workdir", str(run), "--seed", str(seed)])
            run = run / f"seed-{seed}"
            ckpts = sorted(run.glob("ckpt-*.slk"))
            returns = evaluate(str(ckpts[-1]) if ckpts else "", load_config(cfg), EVAL_USERS,
                               seed, diagnostics_path=run / "diagnostics.csv")
            (run / "evaluate.json").write_text(json.dumps(returns) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workdir", required=True, type=Path)
    args = p.parse_args(argv)
    workdir = args.workdir.resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    if any(workdir.iterdir()):
        raise SystemExit(f"{workdir} is not empty")
    sys.path.insert(0, str(ROOT / "src"))
    cwd = Path.cwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            run_all(workdir)
    finally:
        os.chdir(cwd)
    files = sorted(f for f in workdir.rglob("*") if f.is_file())
    for f in files:
        print(f"{digest(f)}  {f.relative_to(workdir)}")
    print(f"{len(files)} files digested", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
