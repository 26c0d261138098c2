"""One benchmark run of one workload, in a fresh process.

Every stage goes through the real command line, ``slatelab.cli.main([...])``,
and is timed around that call.  A run alternates two kinds of work until
its time budget is spent:

* set-up passes (``setup_reps`` of them): a small chain of generate-data,
  train-mf, pretrain-gems, a train below the replay fill and an untrained
  SAC+wknn checkpoint.  A pass builds the artifacts the next rounds read,
  and ``setup_s`` is the median pass.  When the workload's rounds do not
  run the offline stages and evaluate, a pass then times train-mf again
  and runs one small evaluate per policy.  The passes give the figures of
  the stages that a workload does not measure itself;
* measured rounds of the workload's own stages (at least ``min_rounds``),
  which give its own metrics.

A throughput is the rate of its fastest sample in the run.  On a shared
machine a neighbour only ever slows a sample down, in bursts shorter than
most samples, so the fastest of a run's samples is the steadiest figure
from run to run.  Every round and pass repeats the same seed, so their
outputs must be bit-identical.  ``run.py`` starts this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from slatelab import cli
from slatelab.config import load_config
from slatelab.gems import load_gems
from slatelab.harness import build_policy, load_mf_embeddings, read_records
from slatelab.logged import read_dataset, sim_config_hash
from slatelab.sac import load_sac
from slatelab.simulator import generate_item_catalog

import tracing

WORKLOADS = ("offline-eval", "train-sac-gems")
POLICIES = {"gems": {"agent": "sac", "ranker": "gems"},
            "oracle": {"agent": "none", "ranker": "oracle"},
            "wknn": {"agent": "sac", "ranker": "wknn", "wknn_source": "mf"}}

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "logged_turns_per_s": "1/s", "mf_pairs_per_s": "1/s",
    "gems_slates_per_s": "1/s", "gems_final_loss": "nats",
    "train_turns_per_s": "1/s",
    "eval_gems_turns_per_s": "1/s", "eval_oracle_turns_per_s": "1/s",
    "eval_wknn_turns_per_s": "1/s", "eval_oracle_return": "clicks",
}
NATIVE = {
    "offline-eval": ("logged_turns_per_s", "mf_pairs_per_s", "gems_slates_per_s",
                     "gems_final_loss", "eval_gems_turns_per_s",
                     "eval_oracle_turns_per_s", "eval_wknn_turns_per_s",
                     "eval_oracle_return"),
    "train-sac-gems": ("train_turns_per_s",),
}
# Probes that must record calls in a workload's traced rounds.
EXPECTED = {
    "offline-eval": (
        "simulator.step", "simulator.disclosed_relevance",
        "logged.epsilon_greedy_slate", "logged.write_dataset", "logged.read_dataset",
        "mf.fit_mf", "gems.gems_loss", "gems.decode_to_slate", "autodiff.backward",
        "optim.adam_step", "belief.step_hidden", "sac.select_action",
        "nn.mlp_forward_array", "rankers.rank_wknn", "rankers.rank_short_term_oracle",
        "harness.rollout_returns", "checkpoint.save_checkpoint",
        "checkpoint.load_checkpoint"),
    "train-sac-gems": (
        "simulator.step", "gems.decode_to_slate", "autodiff.backward",
        "optim.adam_step", "optim.polyak_update", "replay.sample", "replay.push",
        "belief.recompute_array", "belief.recompute_graph", "belief.step_hidden",
        "belief.update_belief", "sac.sac_update", "sac.critic_loss", "sac.td_target",
        "sac.actor_loss", "sac.select_action", "nn.mlp_forward_array",
        "harness.rollout_returns", "harness.act_single",
        "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"),
}
# Simulator of each workload's set-up passes.  offline-eval's passes build
# the checkpoints its evaluations of TopDown-focused users read; every other
# stage runs on the paper-default TopDown-diffuse simulator.
SETUP_VARIANT = {"offline-eval": "focused", "train-sac-gems": "diffuse"}


@dataclass(frozen=True)
class Profile:
    config: Dict[str, str]           # config keys shared by every stage
    setup_trajectories: int
    setup_train_steps: int           # below the replay fill: no SAC update
    setup_users: Dict[str, int]      # test users per policy, evaluated in a pass
    round_trajectories: int          # offline-eval round: logged data
    round_train_steps: int           # train-sac-gems round
    round_users: Dict[str, int]      # offline-eval round: test users per policy
    mf_sample_trajectories: int      # an MF sample fits this many trajectories' data
    setup_reps: int = 3              # at most; fewer once the time is spent
    min_setups: int = 2
    min_rounds: int = 3


# Paper-default simulator (1000 items, k=10, T=100) and networks; GeMS is
# pretrained for one epoch per stage so that a round fits the time budget.
# A train round cannot be shorter than the replay fill plus its 45 updates.
PAPER = Profile(
    config={"gems.epochs": "1", "validation_trajectories": "5",
            "test_trajectories": "5"},
    setup_trajectories=5, setup_train_steps=2,
    setup_users={"gems": 20, "oracle": 20, "wknn": 1},
    round_trajectories=10, round_train_steps=3,
    round_users={"gems": 60, "oracle": 40, "wknn": 1},
    mf_sample_trajectories=30, setup_reps=10, min_setups=6,
)


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_returns(returns, n: int, cap: int) -> None:
    r = np.asarray(returns, dtype=np.float64)
    _require(r.shape == (n,), f"expected {n} returns, got shape {r.shape}")
    _require(bool(np.isfinite(r).all()), "non-finite return")
    _require(bool(((r >= 0) & (r <= cap)).all()), f"return outside [0, {cap}]")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Runner:
    """Runs CLI stages, checks their outputs and counts operations."""

    seed: int
    tracer: Optional[tracing.Tracer] = None
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    captured: Dict[str, object] = field(default_factory=dict)
    fingerprints: Dict[str, object] = field(default_factory=dict)
    stage_seconds: float = 0.0       # summed over successful stages
    rss_mb: List[tuple] = field(default_factory=list)   # (stage, peak so far)

    def stage(self, argv: List[str], check: Callable[[], None]) -> Optional[float]:
        """Seconds spent in ``main(argv)``, or None if the stage failed."""
        self.attempted += 1
        argv = [argv[0], "--seed", str(self.seed), *argv[1:]]
        span = (self.tracer.span(tracing.STAGE_PREFIX + argv[0]) if self.tracer
                else contextlib.nullcontext())
        try:
            with contextlib.redirect_stdout(io.StringIO()), span:
                t0 = time.perf_counter()
                code = cli.main(argv)
                elapsed = time.perf_counter() - t0
            _require(code == 0, f"exit code {code}")
            check()
        except (Exception, SystemExit) as e:  # a failed stage is counted, not fatal
            self.fail(f"{argv[0]}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return None
        self.stage_seconds += elapsed
        self.rss_mb.append((argv[0], _peak_rss_mb()))
        return elapsed

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def fingerprint(self, key: str, value) -> None:
        """Outputs of one seed must be bit-identical from round to round."""
        if key not in self.fingerprints:
            self.fingerprints[key] = value
        elif self.fingerprints[key] != value:
            self.fail(f"{key} differs between rounds of the same seed")


@contextlib.contextmanager
def capture_outputs(runner: Runner):
    """Record what the CLI's evaluate and pretrain return, for the checks."""
    evaluate, pretrain = cli.evaluate, cli.pretrain

    def recording_evaluate(*args, **kwargs):
        runner.captured["returns"] = evaluate(*args, **kwargs)
        return runner.captured["returns"]

    def recording_pretrain(*args, **kwargs):
        model, history = pretrain(*args, **kwargs)
        runner.captured["history"] = history
        return model, history

    cli.evaluate, cli.pretrain = recording_evaluate, recording_pretrain
    try:
        yield
    finally:
        cli.evaluate, cli.pretrain = evaluate, pretrain


class Chain:
    """Stage commands over one directory sharing one base config."""

    def __init__(self, runner: Runner, profile: Profile, variant: str,
                 directory: Path, gems_ckpt: Path, mf_table: Path):
        self.runner = runner
        self.dir = directory
        directory.mkdir(parents=True, exist_ok=True)
        values = dict(profile.config)
        if variant != "diffuse":
            values["sim.embedding_variant"] = variant
        values.update(gems_ckpt=str(gems_ckpt), mf_embeddings=str(mf_table))
        self.base = self._write("base", values)
        self.cfg = load_config(self.base)
        self.cap = self.cfg.sim.slate_size * self.cfg.sim.episode_length

    def _write(self, name: str, values: Dict[str, str], include: bool = False) -> Path:
        path = self.dir / f"{name}.cfg"
        lines = ["include base.cfg"] if include else []
        lines += [f"{k} = {v}" for k, v in values.items()]
        path.write_text("\n".join(lines) + "\n")
        return path

    def generate(self, out: Path, trajectories: int, samples: dict) -> bool:
        def check():
            ds = read_dataset(out)
            _require(ds.slates.shape == (trajectories, self.cfg.sim.episode_length,
                                         self.cfg.sim.slate_size), "dataset shape")
            _require(ds.config_hash == sim_config_hash(self.cfg.sim), "dataset config")
        t = self.runner.stage(["generate-data", "--config", str(self.base), "--out",
                               str(out), "--trajectories", str(trajectories)], check)
        if t is None:
            return False
        samples["logged_turns_per_s"] = (trajectories * self.cfg.sim.episode_length, t)
        samples["dataset_sha"] = _sha(out)
        return True

    def train_mf(self, data: Path, out: Path, samples: dict, repeats: int = 1) -> bool:
        """``repeats`` identical fits make one sample: one fit on a few
        trajectories takes only tens of milliseconds."""
        def check():
            emb = load_mf_embeddings(out)
            _require(emb.shape == (self.cfg.sim.num_items, self.cfg.mf.embed_dim),
                     "mf table shape")
            _require(bool(np.isfinite(emb).all()), "non-finite mf table")
        t = 0.0
        for _ in range(repeats):
            elapsed = self.runner.stage(["train-mf", "--config", str(self.base),
                                         "--data", str(data), "--out", str(out)], check)
            if elapsed is None:
                return False
            t += elapsed
        positives = int(read_dataset(data).clicks.sum())
        mf = self.cfg.mf
        samples["mf_pairs_per_s"] = (positives * (1 + mf.negatives_per_positive)
                                     * mf.epochs * repeats, t)
        return True

    def pretrain(self, data: Path, out: Path, samples: dict) -> bool:
        def check():
            load_gems(out)
            history = self.runner.captured.pop("history")
            _require(len(history) == self.cfg.gems.epochs, "gems epoch count")
            _require(all(math.isfinite(h.total) for h in history), "non-finite gems loss")
            samples["gems_final_loss"] = history[-1].total
        t = self.runner.stage(["pretrain-gems", "--config", str(self.base), "--data",
                               str(data), "--out", str(out)], check)
        if t is None:
            return False
        turns = read_dataset(data).num_turns
        samples["gems_slates_per_s"] = (turns * self.cfg.gems.epochs, t)
        return True

    def train(self, name: str, steps: int, samples: dict) -> Optional[Path]:
        """SAC+GeMS train stage; returns the best checkpoint."""
        cfg_path = self._write(name, {"training_steps": steps, "validation_every": steps,
                                      **POLICIES["gems"]}, include=True)
        workdir = self.dir / name
        run_dir = workdir / f"seed-{self.runner.seed}"
        best = {}

        def check():
            (record,) = read_records(run_dir / "record.json")
            _check_returns(record.test_returns, self.cfg.test_trajectories, self.cap)
            _check_returns(record.validation_means, len(record.validation_means), self.cap)
            best["ckpt"] = run_dir / f"ckpt-{record.best_checkpoint:04d}.slk"
            load_sac(best["ckpt"])
            samples["train_record"] = record.canonical()
        t = self.runner.stage(["train", "--config", str(cfg_path), "--workdir",
                               str(workdir)], check)
        if t is None:
            return None
        samples["train_turns_per_s"] = (steps * self.cfg.sim.episode_length, t)
        return best["ckpt"]

    def wknn_checkpoint(self, out: Path) -> Optional[float]:
        """Untrained SAC+wknn checkpoint, made through the library."""
        self.runner.attempted += 1
        cfg_path = self._write("wknn", POLICIES["wknn"], include=True)
        try:
            t0 = time.perf_counter()
            cfg = load_config(cfg_path)
            catalog = generate_item_catalog(cfg.sim, cfg.catalog_seed)
            build_policy(cfg, catalog, self.runner.seed).save(out)
            elapsed = time.perf_counter() - t0
            load_sac(out)
        except Exception as e:  # counted as a failed operation
            self.runner.fail(f"wknn checkpoint: {type(e).__name__}: {e}")
            return None
        return elapsed

    def evaluate(self, policy: str, ckpt: Optional[Path], users: int,
                 samples: dict) -> bool:
        cfg_path = self._write(policy, POLICIES[policy], include=True)

        def check():
            returns = self.runner.captured.pop("returns")
            _check_returns(returns, users, self.cap)
            samples[f"returns_{policy}"] = tuple(returns)
            if policy == "oracle":
                samples["eval_oracle_return"] = float(np.mean(returns))
        argv = ["evaluate", "--config", str(cfg_path), "--n", str(users)]
        if ckpt is not None:
            argv += ["--ckpt", str(ckpt)]
        t = self.runner.stage(argv, check)
        if t is None:
            return False
        samples[f"eval_{policy}_turns_per_s"] = (users * self.cfg.sim.episode_length, t)
        return True


def setup_pass(runner: Runner, profile: Profile, workload: str, work: Path,
               probe: bool) -> dict:
    """One set-up pass into ``work/setup``; returns per-stage figures and
    ``wall`` (seconds of the set-up stages).  With ``probe`` the pass then
    takes a full-length MF sample and evaluates every policy, outside
    ``wall``."""
    d = work / "setup"              # one path, so configs hash alike
    _rmtree(d)
    chain = Chain(runner, profile, SETUP_VARIANT[workload], d, d / "gems.slk",
                  d / "mf.npz")
    s: dict = {}
    t0 = runner.stage_seconds
    ok = (chain.generate(d / "data.bin", profile.setup_trajectories, s)
          and chain.train_mf(d / "data.bin", d / "mf.npz", s)
          and chain.pretrain(d / "data.bin", d / "gems.slk", s))
    gems_ckpt = chain.train("train", profile.setup_train_steps, s) if ok else None
    wknn_t = chain.wknn_checkpoint(d / "wknn.slk") if gems_ckpt else None
    s["ckpts"] = {"gems": gems_ckpt, "oracle": None, "wknn": d / "wknn.slk"}
    s["wall"] = runner.stage_seconds - t0 + (wknn_t or 0.0)
    if probe and wknn_t is not None:
        repeats = math.ceil(profile.mf_sample_trajectories / profile.setup_trajectories)
        chain.train_mf(d / "data.bin", d / "mf-probe.npz", s, repeats)
        for policy, users in profile.setup_users.items():
            chain.evaluate(policy, s["ckpts"][policy], users, s)
    s["dir"] = d
    _fingerprint(runner, "setup", s)
    return s


def run_round(runner: Runner, profile: Profile, workload: str, d: Path,
              setup: dict) -> dict:
    """One measured round of the workload's own stages."""
    def chain(variant: str) -> Chain:
        return Chain(runner, profile, variant, d / variant, setup["dir"] / "gems.slk",
                     setup["dir"] / "mf.npz")
    s: dict = {}
    t0 = runner.stage_seconds
    if workload == "offline-eval":
        offline, data = chain("diffuse"), d / "diffuse" / "data.bin"
        (offline.generate(data, profile.round_trajectories, s)
         and offline.train_mf(data, d / "diffuse" / "mf.npz", s,
                              math.ceil(profile.mf_sample_trajectories
                                        / profile.round_trajectories))
         and offline.pretrain(data, d / "diffuse" / "gems.slk", s))
        evaluation = chain(SETUP_VARIANT[workload])
        for policy, users in profile.round_users.items():
            evaluation.evaluate(policy, setup["ckpts"][policy], users, s)
    else:
        chain("diffuse").train("train", profile.round_train_steps, s)
    s["wall"] = runner.stage_seconds - t0
    return s


FINGERPRINTS = ("dataset_sha", "gems_final_loss", "train_record",
                "returns_gems", "returns_oracle", "returns_wknn")


def _fingerprint(runner: Runner, phase: str, s: dict) -> None:
    for key in FINGERPRINTS:
        if key in s:
            runner.fingerprint(f"{phase}.{key}", s[key])


def _rounds(runner, profile, workload, work: Path, setup, deadline: float,
            min_rounds: int, done: List[dict]) -> None:
    """Append measured rounds to ``done`` until it holds min_rounds and the
    next round would pass the deadline."""
    while not runner.failures:
        if len(done) >= min_rounds:
            per_round = statistics.median(r["wall"] for r in done) if done else 0.0
            if time.perf_counter() + per_round > deadline:
                break
        d = work / "round"          # one path, so configs hash alike
        s = run_round(runner, profile, workload, d, setup)
        _fingerprint(runner, "round", s)
        done.append(s)
        _rmtree(d)


def _rmtree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 run_dir: Path, profile: Profile = PAPER) -> dict:
    """The result object of one run: correct, attempted, failed, metrics."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    work = run_dir / "work"
    runner = Runner(seed)
    with capture_outputs(runner):
        if trace:
            setup = setup_pass(runner, profile, workload, work, probe=False)
            metrics = _traced(runner, profile, workload, work, setup, seconds, run_dir)
        else:
            # Set-up passes alternate with rounds, so that both sample the
            # whole run rather than its start.
            setups, rounds = [], []
            probe = "eval_oracle_return" not in NATIVE[workload]
            start = time.perf_counter()
            for i in range(1, profile.setup_reps + 1):
                if (i > profile.min_setups and len(rounds) >= profile.min_rounds
                        and time.perf_counter() >= start + seconds):
                    break
                setups.append(setup_pass(runner, profile, workload, work, probe))
                deadline = start + seconds * i / profile.setup_reps
                due = math.ceil(profile.min_rounds * i / profile.setup_reps)
                _rounds(runner, profile, workload, work, setups[-1], deadline, due,
                        rounds)
            _write_samples(run_dir / "samples.json", setups, rounds, runner.rss_mb)
            metrics = _end_to_end(workload, setups, rounds)
    _rmtree(work)
    failed = len(runner.failures)
    return {"correct": failed == 0, "attempted": max(runner.attempted, 1),
            "failed": failed, "metrics": metrics}


def _write_samples(path: Path, setups: List[dict], rounds: List[dict],
                   rss_mb: List[tuple]) -> None:
    """Every set-up pass's and round's figures, for looking into a result."""
    def plain(s):
        return {k: v for k, v in s.items() if isinstance(v, (int, float, tuple))}
    path.write_text(json.dumps({"setup": [plain(s) for s in setups],
                                "rounds": [plain(r) for r in rounds],
                                "peak_rss_mb_after_stage": rss_mb}) + "\n")


def _end_to_end(workload: str, setups: List[dict], rounds: List[dict]) -> dict:
    """A throughput is the rate of its fastest sample in the run; the
    quality guards are medians (every sample of a seed holds the same
    value)."""
    values = {"setup_s": statistics.median(s["wall"] for s in setups),
              "peak_rss_mb": _peak_rss_mb()}
    for name, unit in END_TO_END.items():
        if name in values:
            continue
        source = rounds if name in NATIVE[workload] else setups
        samples = [s[name] for s in source if name in s]
        if not samples:
            values[name] = None
        elif unit == "1/s":
            values[name] = max(work / seconds for work, seconds in samples)
        else:
            values[name] = statistics.median(samples)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def _traced(runner: Runner, profile: Profile, workload: str, work: Path,
            setup: dict, seconds: float, run_dir: Path) -> dict:
    """One untraced round, then traced rounds; per-layer metrics."""
    untraced: List[dict] = []
    _rounds(runner, profile, workload, work, setup, 0.0, 1, untraced)
    deadline = time.perf_counter() + seconds
    tracer = tracing.Tracer(run_dir.name)
    runner.tracer = tracer
    inst = tracing.install(tracer)
    try:
        traced: List[dict] = []
        _rounds(runner, profile, workload, work, setup, deadline, profile.min_rounds,
                traced)
    finally:
        inst.remove()
        runner.tracer = None
    tracer.write(run_dir / "trace.json.gz")
    wall = sum(r["wall"] for r in traced)
    plain = statistics.median(r["wall"] for r in untraced) if untraced else 0.0
    per_round = statistics.median(r["wall"] for r in traced) if traced else 0.0
    overhead = 100.0 * (per_round / plain - 1.0) if plain else 0.0
    values = tracing.layer_metrics(tracer, inst.missing, wall or 1.0, overhead)
    for probe in EXPECTED[workload]:
        if probe not in inst.missing and values[f"{probe}.calls"] == 0:
            runner.fail(f"probe {probe} recorded no call on {workload}")
    units = dict(tracing.per_layer_metrics())
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    args = p.parse_args(argv)
    run_dir = Path(args.run_dir)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          run_dir)
    (run_dir / "result.json").write_text(json.dumps(result) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
