"""Experiment orchestration: train/validate/test loops and deterministic runs.

One run = one (config, seed) pair. Training rolls fresh simulated users with
the sampling policy and updates the agent; every validation_every
trajectories the deterministic policy is scored on a disjoint user stream
and checkpointed; the best checkpoint (ties to the earliest) is then scored
on the test stream. Every random draw comes from a named substream of the
run seed, so a rerun reproduces returns exactly.
"""

import csv
import json
import logging
import time
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from .autodiff import NonFiniteError
from .belief import BeliefConfig
from .config import ExperimentConfig, config_hash
from .gems import decode_to_slate, load_gems
from .rankers import (rank_gems, rank_random, rank_short_term_oracle,
                      rank_topk, rank_wknn)
from .reinforce import (BaselineState, EpisodeRecord, ReinforceConfig,
                        ReinforcePolicy, load_reinforce, reinforce_update,
                        sample_slate, save_reinforce)
from .replay import ReplayBuffer
from .rng import (STREAM_ACTION, STREAM_BUFFER, STREAM_ENV_TEST,
                  STREAM_ENV_TRAIN, STREAM_ENV_VAL, STREAM_INIT, substream,
                  substream_seed)
from .sac import SacConfig, SacModel, load_sac, sac_update, save_sac, select_action
from .simulator import Environment, ItemCatalog, generate_item_catalog

log = logging.getLogger(__name__)

SAC_RANKERS = ("gems", "topk-mf", "topk-ideal", "wknn")
REINFORCE_RANKERS = ("softmax",)
STATIC_RANKERS = ("random", "oracle")


@dataclass
class RunRecord:
    method: str
    env: str
    seed: int
    config_hash: str
    validation_means: List[float]
    best_checkpoint: int          # validation round index
    test_returns: List[float]
    wall_clock: float

    def canonical(self) -> str:
        """Deterministic serialization; wall-clock excluded so reruns of the
        same seed compare bit-identical."""
        d = asdict(self)
        d.pop("wall_clock")
        return json.dumps(d, sort_keys=True)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def write_record(path, record: RunRecord) -> None:
    Path(path).write_text(record.to_json() + "\n")


def read_records(path) -> List[RunRecord]:
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(RunRecord(**json.loads(line)))
    return records


def save_mf_embeddings(path, embeddings: np.ndarray) -> None:
    np.savez(path, item_embeddings=np.asarray(embeddings, dtype=np.float64))


def load_mf_embeddings(path) -> np.ndarray:
    with np.load(path) as data:
        return np.asarray(data["item_embeddings"], dtype=np.float64)


def _require_file(path: str, what: str) -> Path:
    if not path:
        raise FileNotFoundError(f"{what} required but no path configured")
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} not found at {p}")
    return p


def _check_artifact(path: Path, what: str, field: str, got: int, want: int) -> None:
    """A loaded artifact must fit the configured simulator, or decoding and
    ranking would fail late or return the wrong item ids."""
    if got != want:
        raise ValueError(f"{what} {path} has {field}={got}, but the config has "
                         f"sim.{field}={want}")


class Policy:
    """Acting bundle: optional agent model, belief encoder, and a ranker."""

    def __init__(self, cfg: ExperimentConfig, catalog: ItemCatalog, seed: int,
                 model=None):
        agent, ranker = cfg.agent, cfg.ranker
        allowed = {"sac": SAC_RANKERS, "reinforce": REINFORCE_RANKERS,
                   "none": STATIC_RANKERS}[agent]
        if ranker not in allowed:
            raise ValueError(f"agent {agent!r} cannot drive ranker {ranker!r}; "
                             f"choose one of {allowed}")
        self.cfg = cfg
        self.catalog = catalog
        self.slate_size = cfg.sim.slate_size
        self.agent = agent
        self.ranker = ranker

        self.gems_model = None
        if ranker == "gems" or (agent != "none"
                                and self._belief_source() == "gems-table"):
            path = _require_file(cfg.gems_ckpt, "gems checkpoint")
            self.gems_model = load_gems(path)
            _check_artifact(path, "gems checkpoint", "num_items",
                            self.gems_model.num_items, cfg.sim.num_items)
            _check_artifact(path, "gems checkpoint", "slate_size",
                            self.gems_model.slate_size, cfg.sim.slate_size)

        self.table = None            # ranker embedding table (topk / wknn)
        if ranker in ("topk-mf", "topk-ideal", "wknn"):
            source = cfg.wknn_source if ranker == "wknn" else ranker.split("-")[1]
            if source == "mf":
                self.table = self._mf_table()
            else:
                self.table = catalog.embeddings
        self.needs_disclosed = (
            ranker in ("topk-ideal", "oracle")
            or (ranker == "wknn" and cfg.wknn_source == "ideal")
            or (agent != "none" and self._belief_source() == "ideal"))

        self.model = model
        if agent != "none" and model is None:
            self.model = self._fresh_model(seed)
        self.encoder = self.model.belief if agent != "none" else None
        self.eval_mode = "mean" if agent == "sac" else "sample"

    # -- construction --------------------------------------------------------

    def _belief_source(self) -> str:
        if self.cfg.belief_item_source:
            return self.cfg.belief_item_source
        return "learned" if self.cfg.agent == "reinforce" else "gems-table"

    def _mf_table(self) -> np.ndarray:
        path = _require_file(self.cfg.mf_embeddings, "mf embeddings")
        table = load_mf_embeddings(path)
        _check_artifact(path, "mf embeddings", "num_items", table.shape[0],
                        self.cfg.sim.num_items)
        return table

    def _belief_table(self, rng: np.random.Generator) -> np.ndarray:
        source = self._belief_source()
        if source == "gems-table":
            return self.gems_model.item_table()
        if source == "mf":
            return self._mf_table()
        if source == "ideal":
            return self.catalog.embeddings
        # learned: trainable table, initialized small
        return 0.1 * rng.standard_normal(
            (self.cfg.sim.num_items, self.cfg.gems.item_embed_dim))

    def action_dim(self) -> int:
        if self.ranker == "gems":
            return self.gems_model.cfg.latent_dim
        if self.ranker in ("topk-mf", "topk-ideal"):
            return self.table.shape[1]
        if self.ranker == "wknn":
            return self.slate_size * self.table.shape[1]
        return self.cfg.sim.num_items     # softmax head

    def _fresh_model(self, seed: int):
        cfg = self.cfg
        init_rng = substream(seed, STREAM_INIT)
        belief_cfg = BeliefConfig(belief_dim=cfg.belief_dim,
                                  item_source=self._belief_source(),
                                  truncation=cfg.belief_truncation)
        table = self._belief_table(init_rng)
        if cfg.agent == "sac":
            sac_cfg = SacConfig(action_dim=self.action_dim(), gamma=cfg.gamma,
                                tau=cfg.tau, alpha=cfg.alpha,
                                critic_lr=cfg.critic_lr, actor_lr=cfg.actor_lr,
                                batch_size=cfg.batch_size, hidden=cfg.hidden)
            return SacModel(sac_cfg, belief_cfg, self.slate_size, table, init_rng)
        rcfg = ReinforceConfig(gamma=cfg.gamma, learning_rate=cfg.reinforce_lr,
                               baseline_decay=cfg.baseline_decay, hidden=cfg.hidden)
        return ReinforcePolicy(rcfg, belief_cfg, self.slate_size, table, init_rng)

    # -- acting ----------------------------------------------------------------

    def _wknn_critic(self, belief_vec: np.ndarray, trials: np.ndarray) -> np.ndarray:
        """min(Q1, Q2) of one belief with each row of trials [m, k*e]."""
        beliefs = np.broadcast_to(belief_vec, (trials.shape[0], belief_vec.size))
        x = np.concatenate([beliefs, trials], axis=1)
        return np.minimum(self.model.q1.forward_array(x)[:, 0],
                          self.model.q2.forward_array(x)[:, 0])

    def _rank(self, action, belief_vec, env, rng) -> np.ndarray:
        if self.ranker == "gems":
            return rank_gems(self.gems_model, action)
        if self.ranker in ("topk-mf", "topk-ideal"):
            return rank_topk(action, self.table, self.slate_size)
        if self.ranker == "wknn":
            return rank_wknn(action, self.table, self._wknn_critic, belief_vec,
                             self.slate_size, self.cfg.wknn_p)
        if self.ranker == "random":
            return rank_random(self.cfg.sim.num_items, self.slate_size, rng)
        return rank_short_term_oracle(env, self.slate_size)

    def act_single(self, belief_hidden, env, mode: str, rng):
        """One (action, slate) step for the training loop."""
        if self.agent == "sac":
            action = select_action(self.model, belief_hidden, mode, rng)
            return action, self._rank(action, belief_hidden, env, rng)
        if self.agent == "reinforce":
            return None, sample_slate(self.model, belief_hidden, self.slate_size, rng)
        return None, self._rank(None, None, env, rng)

    def slates_batch(self, hidden, envs, rng) -> np.ndarray:
        """Deterministic-protocol slates for a batch of lockstep episodes."""
        n = len(envs)
        if self.agent == "sac":
            actions = select_action(self.model, hidden, self.eval_mode, rng)
            if self.ranker == "gems":
                return decode_to_slate(self.gems_model, actions)
            return np.stack([self._rank(actions[i], hidden[i], envs[i], rng)
                             for i in range(n)])
        if self.agent == "reinforce":
            return np.stack([sample_slate(self.model, hidden[i], self.slate_size, rng)
                             for i in range(n)])
        return np.stack([self._rank(None, None, env, rng) for env in envs])

    def init_hidden(self, n: int):
        return self.encoder.init_hidden(n) if self.encoder is not None else None

    # -- persistence -------------------------------------------------------------

    def save(self, path, metadata: Optional[dict] = None) -> None:
        if self.agent == "sac":
            save_sac(self.model, path, metadata)
        elif self.agent == "reinforce":
            save_reinforce(self.model, path, metadata)
        else:
            raise ValueError("static policies have nothing to checkpoint")


def build_policy(cfg: ExperimentConfig, catalog: ItemCatalog, seed: int) -> Policy:
    return Policy(cfg, catalog, seed)


def load_policy(cfg: ExperimentConfig, catalog: ItemCatalog, ckpt_path) -> Policy:
    """Policy acting with parameters restored from a checkpoint."""
    if cfg.agent == "none":
        return Policy(cfg, catalog, seed=0)
    loader = load_sac if cfg.agent == "sac" else load_reinforce
    model, _ = loader(ckpt_path)
    return Policy(cfg, catalog, seed=0, model=model)


# -- rollouts ---------------------------------------------------------------------


def rollout_returns(policy: Policy, catalog: ItemCatalog, n: int,
                    env_seed: Callable[[int], int], rng: np.random.Generator,
                    diagnostics: Optional[list] = None,
                    traj_offset: int = 0) -> np.ndarray:
    """Episode returns for n lockstep users under the evaluation protocol.

    With diagnostics, appends per-recommended-item rows
    (traj, turn, slot, item, true relevance, bored-topic count); this forces
    disclosed environments.
    """
    sim = policy.cfg.sim
    disclosed = policy.needs_disclosed or diagnostics is not None
    envs = [Environment(sim, catalog, disclosed=disclosed) for _ in range(n)]
    for i, env in enumerate(envs):
        env.reset(env_seed(i))
    hidden = policy.init_hidden(n)
    returns = np.zeros(n)
    clicks = np.zeros((n, sim.slate_size))
    for t in range(sim.episode_length):
        slates = policy.slates_batch(hidden, envs, rng)
        if diagnostics is not None:
            for i, env in enumerate(envs):
                rel = env.disclosed_relevance()
                bored = len(env.disclosed_bored_topics())
                for slot, item in enumerate(slates[i]):
                    diagnostics.append((traj_offset + i, t, slot, int(item),
                                        float(rel[item]), bored))
        for i, env in enumerate(envs):
            res = env.step(slates[i])
            returns[i] += res.reward
            clicks[i] = res.clicks
        if hidden is not None:
            hidden = policy.encoder.step_hidden(hidden, slates, clicks)
    return returns


def write_diagnostics_csv(path, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("trajectory", "turn", "slot", "item", "relevance",
                    "bored_topics"))
        w.writerows(rows)


# -- training ---------------------------------------------------------------------


class NanLossError(RuntimeError):
    pass


def _dump_and_raise(history: deque, context: dict, workdir: Path, reason: str):
    dump = workdir / "nan-dump.json"
    dump.write_text(json.dumps(list(history), indent=2))
    raise NanLossError(f"{reason} at {context}; diagnostics in {dump}")


def _checked_update(update: Callable[[], dict], history: deque, context: dict,
                    workdir: Path) -> None:
    try:
        diag = update()
    except NonFiniteError as e:
        history.append({**context, "error": str(e)})
        _dump_and_raise(history, context, workdir, "non-finite value in update")
    history.append({**context, **{k: float(v) for k, v in diag.items()}})
    if not all(np.isfinite(v) for v in diag.values()):
        _dump_and_raise(history, context, workdir, "non-finite loss")


def train(cfg: ExperimentConfig, seed: int, workdir) -> RunRecord:
    """One full run: train, validate periodically, test the best checkpoint."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    catalog = generate_item_catalog(cfg.sim, cfg.catalog_seed)
    policy = build_policy(cfg, catalog, seed)
    chash = config_hash(cfg)

    action_rng = substream(seed, STREAM_ACTION, 0)
    buffer_rng = substream(seed, STREAM_BUFFER)
    diag_history: deque = deque(maxlen=50)

    buffer = None
    baseline = None
    sac_cfg = None
    if cfg.agent == "sac":
        sac_cfg = policy.model.cfg
        buffer = ReplayBuffer(cfg.buffer_capacity, cfg.sim.slate_size, sac_cfg.action_dim,
                              cfg.belief_dim, policy.model.dtype)
    elif cfg.agent == "reinforce":
        baseline = BaselineState(decay=cfg.baseline_decay)

    validation_means: List[float] = []

    def validate(round_idx: int, traj_done: int) -> None:
        rng = substream(seed, STREAM_ACTION, 1, round_idx)
        returns = rollout_returns(
            policy, catalog, cfg.validation_trajectories,
            lambda i: substream_seed(seed, STREAM_ENV_VAL, round_idx, i), rng)
        mean = float(returns.mean())
        validation_means.append(mean)
        if cfg.agent != "none":
            policy.save(workdir / f"ckpt-{round_idx:04d}.slk",
                        {"val_round": round_idx, "val_mean": mean,
                         "trajectories": traj_done, "config_hash": chash})
        log.info("seed %d validation %d (after %d trajectories): mean return %.3f",
                 seed, round_idx, traj_done, mean)

    validate(0, 0)
    turn_count = 0
    for traj in range(1, cfg.training_steps + 1):
        if cfg.agent != "none":
            env = Environment(cfg.sim, catalog, disclosed=policy.needs_disclosed)
            env.reset(substream_seed(seed, STREAM_ENV_TRAIN, traj))
            belief = policy.encoder.init_belief()
            ep_slates, ep_clicks, ep_rewards = [], [], []
            for t in range(cfg.sim.episode_length):
                action, slate = policy.act_single(belief.hidden, env, "sample",
                                                  action_rng)
                res = env.step(slate)
                if cfg.agent == "sac":
                    buffer.push(slate, res.clicks, action, res.reward, res.done,
                                belief.hidden)
                else:
                    ep_slates.append(slate)
                    ep_clicks.append(res.clicks)
                    ep_rewards.append(res.reward)
                belief = policy.encoder.update_belief(belief, slate, res.clicks)
                turn_count += 1
                if (cfg.agent == "sac" and turn_count % cfg.update_every == 0
                        and len(buffer) >= sac_cfg.batch_size):
                    _checked_update(
                        lambda: sac_update(policy.model, buffer, sac_cfg, buffer_rng),
                        diag_history, {"trajectory": traj, "turn": t}, workdir)
            if cfg.agent == "reinforce":
                episode = EpisodeRecord(np.asarray(ep_slates),
                                        np.asarray(ep_clicks, dtype=np.float64),
                                        np.asarray(ep_rewards, dtype=np.float64))
                _checked_update(
                    lambda: reinforce_update(policy.model, episode, baseline,
                                             policy.model.cfg),
                    diag_history, {"trajectory": traj}, workdir)
        if traj % cfg.validation_every == 0:
            validate(traj // cfg.validation_every, traj)

    best = int(np.argmax(validation_means))
    if cfg.agent != "none":
        policy = load_policy(cfg, catalog, workdir / f"ckpt-{best:04d}.slk")
    test_rng = substream(seed, STREAM_ACTION, 2)
    test_returns = rollout_returns(
        policy, catalog, cfg.test_trajectories,
        lambda i: substream_seed(seed, STREAM_ENV_TEST, i), test_rng)

    record = RunRecord(method=cfg.method_label, env=cfg.env_label, seed=seed,
                       config_hash=chash, validation_means=validation_means,
                       best_checkpoint=best,
                       test_returns=[float(r) for r in test_returns],
                       wall_clock=time.perf_counter() - t0)
    write_record(workdir / "record.json", record)
    return record


def evaluate(ckpt_path, cfg: ExperimentConfig, n: int, seed: int,
             diagnostics_path=None) -> List[float]:
    """Score a checkpoint on n fresh test users; never mutates the checkpoint."""
    catalog = generate_item_catalog(cfg.sim, cfg.catalog_seed)
    policy = load_policy(cfg, catalog, ckpt_path)
    rng = substream(seed, STREAM_ACTION, 2)
    diagnostics = [] if diagnostics_path else None
    returns = rollout_returns(policy, catalog, n,
                              lambda i: substream_seed(seed, STREAM_ENV_TEST, i),
                              rng, diagnostics=diagnostics)
    if diagnostics_path:
        write_diagnostics_csv(diagnostics_path, diagnostics)
    return [float(r) for r in returns]
