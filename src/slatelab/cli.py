"""Command line for the full pipeline.

Stages: generate-data (logged interactions) -> train-mf (item embeddings)
-> pretrain-gems (slate VAE) -> train (agent) -> evaluate / report.
Every stage reads the same config file, so one file describes a whole
experiment; flags override individual keys.
"""

import argparse
import ctypes
import logging
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .gems import pretrain, save_gems
from .harness import evaluate, read_records, save_mf_embeddings, train
from .logged import generate_dataset, read_dataset, sim_config_hash, write_dataset
from .mf import train_mf
from .simulator import generate_item_catalog
from .stats import confidence_interval, report_csv, report_text, summarize


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--seed", type=int, default=None)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slatelab")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="roll the logging policy, write a dataset")
    _add_config(p)
    p.add_argument("--out", required=True)
    p.add_argument("--trajectories", type=_positive_int, default=None)
    p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("train-mf", help="fit item embeddings on logged clicks")
    _add_config(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pretrain-gems", help="train the slate VAE on logged data")
    _add_config(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train an agent and test its best checkpoint")
    _add_config(p)
    p.add_argument("--workdir", required=True)
    p.add_argument("--ranker", default=None)
    p.add_argument("--agent", default=None)

    p = sub.add_parser("evaluate", help="score a checkpoint on fresh test users")
    _add_config(p)
    p.add_argument("--ckpt", default="", help="agent checkpoint (omit for agent=none)")
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--diagnostics", default=None, help="per-item CSV output path")

    p = sub.add_parser("report", help="aggregate run records into a results table")
    p.add_argument("--runs", required=True, help="directory searched for record.json")
    p.add_argument("--csv", default=None)
    p.add_argument("--text", default=None)
    return parser


def _load(args, **overrides):
    values = {k: v for k, v in overrides.items() if v is not None}
    return load_config(args.config, values)


def _check_dataset(ds, cfg) -> None:
    if ds.config_hash != sim_config_hash(cfg.sim):
        raise SystemExit("dataset was logged under a different simulator config")


def _pin_malloc_thresholds() -> None:
    """Serve large arrays from the glibc heap at fixed thresholds.

    glibc hands blocks above its mmap threshold to fresh mmap calls, and
    raises that threshold for good to the largest such block freed so far.
    A stage's speed then hung on what ran before it in the process: a
    paper-default SAC train stage took about 13k minor page faults after a
    stage that had freed a 20 MB array, and 350k-530k without one.  Fixed
    thresholds (mmap above 32 MiB, the cap of glibc's own dynamic threshold
    on 64-bit; trim above 64 MiB) give every stage the same allocator
    whatever ran before it.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:      # a libc without mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)       # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    args = _parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    seed = getattr(args, "seed", None)

    if args.command == "generate-data":
        cfg = _load(args)
        catalog = generate_item_catalog(cfg.sim, cfg.catalog_seed)
        n = args.trajectories if args.trajectories is not None else cfg.logged_trajectories
        eps = args.epsilon if args.epsilon is not None else cfg.logged_epsilon
        ds = generate_dataset(cfg.sim, catalog, n, epsilon=eps,
                              seed=seed if seed is not None else 0)
        write_dataset(args.out, ds)
        print(f"wrote {n} trajectories to {args.out}")

    elif args.command == "train-mf":
        cfg = _load(args)
        ds = read_dataset(args.data)
        _check_dataset(ds, cfg)
        emb = train_mf(ds, cfg.mf, seed if seed is not None else 0)
        save_mf_embeddings(args.out, emb)
        print(f"wrote item embeddings {emb.shape} to {args.out}")

    elif args.command == "pretrain-gems":
        cfg = _load(args)
        ds = read_dataset(args.data)
        _check_dataset(ds, cfg)
        model, history = pretrain(ds, cfg.gems, seed if seed is not None else 0)
        save_gems(args.out, model)
        last = history[-1]
        print(f"wrote slate VAE to {args.out} "
              f"(final loss {last.total:.4f}, kl {last.kl:.4f})")

    elif args.command == "train":
        cfg = _load(args, ranker=args.ranker, agent=args.agent,
                    seeds=str(seed) if seed is not None else None)
        workdir = Path(args.workdir)
        for s in cfg.seeds:
            record = train(cfg, s, workdir / f"seed-{s}")
            mean, half = confidence_interval(record.test_returns)
            print(f"seed {s}: best checkpoint {record.best_checkpoint}, "
                  f"test return {mean:.3f} +/- {half:.3f}")

    elif args.command == "evaluate":
        cfg = _load(args)
        n = args.n if args.n is not None else cfg.test_trajectories
        returns = evaluate(args.ckpt, cfg, n, seed if seed is not None else 0,
                           diagnostics_path=args.diagnostics)
        mean, half = confidence_interval(returns)
        print(f"{n} trajectories: mean return {mean:.3f} +/- {half:.3f}")

    elif args.command == "report":
        records = []
        for path in sorted(Path(args.runs).rglob("record.json")):
            records.extend(read_records(path))
        if not records:
            raise SystemExit(f"no record.json files under {args.runs}")
        samples = {}
        for r in records:
            samples.setdefault((r.env, r.method), []).append(
                float(np.mean(r.test_returns)))
        rows = summarize(samples)
        text = report_text(rows)
        if args.csv:
            Path(args.csv).write_text(report_csv(rows))
        if args.text:
            Path(args.text).write_text(text)
        print(text)

    return 0


if __name__ == "__main__":
    sys.exit(main())
