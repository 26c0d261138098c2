"""Experiment orchestration: train/validate/test loops and deterministic runs.

One run = one (config, seed) pair. Training rolls fresh simulated users with
the sampling policy and updates the agent; every validation_every
trajectories the deterministic policy is scored on a disjoint user stream
and checkpointed; the best checkpoint (ties to the earliest) is then scored
on the test stream. Every random draw comes from a named substream of the
run seed, so a rerun reproduces returns exactly.

A learning agent trains through the learner :meth:`Policy.learner` builds.
Training hands it each turn, with the belief the turn was acted from, as
``observe(hidden, slate, clicks, action, reward, done) -> bool`` (is an
update due?), and runs a due update with ``update() -> dict`` (diagnostics).

A :class:`Policy` names the source of each item table once, when it is
built: the ranker's (``topk-mf`` reads MF, ``topk-ideal`` the catalog's
disclosed embeddings, ``wknn`` its ``wknn_source``) and a fresh agent's
belief's (``belief_item_source``, else GeMS's table for SAC and a learned
one for REINFORCE).  It reads and size-checks each artifact at most once,
and derives from those sources the agent's action size and whether rollouts
need a disclosed environment.
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

from .autodiff import NonFiniteError, activate, mlp_values
from .belief import BeliefConfig
from .checkpoint import load_agent, save_agent
from .config import ExperimentConfig, config_hash
from .gems import decode_to_slate, load_gems
from .rankers import rank_random, rank_short_term_oracle, rank_topk, rank_wknn
from .reinforce import (BaselineState, EpisodeRecord, ReinforceConfig,
                        ReinforcePolicy, reinforce_update, sample_slate)
from .replay import ReplayBuffer
from .rng import (STREAM_ACTION, STREAM_BUFFER, STREAM_ENV_TEST,
                  STREAM_ENV_TRAIN, STREAM_ENV_VAL, STREAM_INIT, substream,
                  substream_seed)
from .sac import SacConfig, SacModel, sac_update, select_action
from .simulator import Environment, ItemCatalog, generate_item_catalog

log = logging.getLogger(__name__)


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


def _check_artifact(path: Path, what: str, sim, **fields: int) -> None:
    """A loaded artifact's sizes ``fields`` must equal the simulator's, or
    decoding and ranking would fail late or return the wrong item ids."""
    for field, got in fields.items():
        if got != getattr(sim, field):
            raise ValueError(f"{what} {path} has {field}={got}, but the config has "
                             f"sim.{field}={getattr(sim, field)}")


class SacLearner:
    """A SAC agent's replay ring: an update every ``update_every`` turns once it holds a batch."""

    model_class = SacModel

    def __init__(self, model: SacModel, cfg: ExperimentConfig, rng: np.random.Generator):
        self.model = model
        self.buffer = ReplayBuffer(cfg.buffer_capacity, cfg.sim.slate_size,
                                   model.cfg.action_dim, cfg.belief_dim, model.dtype)
        self.update_every = cfg.update_every
        self.rng = rng
        self.turns = 0

    def observe(self, hidden, slate, clicks, action, reward, done) -> bool:
        self.buffer.push(slate, clicks, action, reward, done, hidden)
        self.turns += 1
        return (self.turns % self.update_every == 0
                and len(self.buffer) >= self.model.cfg.batch_size)

    def update(self) -> dict:
        return sac_update(self.model, self.buffer, self.rng)


class ReinforceLearner:
    """A REINFORCE agent's running episode and return baseline: an update per episode."""

    model_class = ReinforcePolicy

    def __init__(self, model: ReinforcePolicy, cfg: ExperimentConfig, rng: np.random.Generator):
        self.model = model
        self.baseline = BaselineState(decay=model.cfg.baseline_decay)
        self.episode = []

    def observe(self, hidden, slate, clicks, action, reward, done) -> bool:
        self.episode.append((slate, clicks, reward))
        return done

    def update(self) -> dict:
        slates, clicks, rewards = zip(*self.episode)
        self.episode = []
        episode = EpisodeRecord(np.asarray(slates), np.asarray(clicks, dtype=np.float64),
                                np.asarray(rewards, dtype=np.float64))
        return reinforce_update(self.model, episode, self.baseline)


LEARNERS = {"sac": SacLearner, "reinforce": ReinforceLearner}


class Policy:
    """Acting bundle: optional agent model, belief encoder, and a ranker."""

    def __init__(self, cfg: ExperimentConfig, catalog: ItemCatalog, seed: int,
                 model=None):
        self.cfg = cfg
        self.catalog = catalog
        self.slate_size = cfg.sim.slate_size
        self.agent = agent = cfg.agent
        self.ranker = ranker = cfg.ranker

        # A restored agent's belief table lives in its own checkpoint, so only
        # GeMS decoding, the ranker and a fresh agent's belief read artifacts.
        ranker_source = {"topk-mf": "mf", "topk-ideal": "ideal",
                         "wknn": cfg.wknn_source}.get(ranker)
        belief_source = {"sac": cfg.belief_item_source or "gems-table",
                         "reinforce": cfg.belief_item_source or "learned"}.get(agent)
        self.needs_disclosed = ranker == "oracle" or "ideal" in (ranker_source, belief_source)
        sources = {ranker_source, belief_source if model is None else None,
                   "gems-table" if ranker == "gems" else None}
        tables = {"ideal": catalog.embeddings}
        self.gems_model = None
        if "gems-table" in sources:
            path = _require_file(cfg.gems_ckpt, "gems checkpoint")
            self.gems_model = load_gems(path)
            _check_artifact(path, "gems checkpoint", cfg.sim, num_items=self.gems_model.num_items,
                            slate_size=self.gems_model.slate_size)
            tables["gems-table"] = self.gems_model.item_table()
        if "mf" in sources:
            path = _require_file(cfg.mf_embeddings, "mf embeddings")
            tables["mf"] = load_mf_embeddings(path)
            _check_artifact(path, "mf embeddings", cfg.sim, num_items=tables["mf"].shape[0])
        self.table = tables.get(ranker_source)   # ranker embedding table (topk / wknn)
        if ranker == "gems":
            self.action_dim = self.gems_model.cfg.latent_dim
        elif self.table is not None:
            self.action_dim = self.table.shape[1] * (self.slate_size if ranker == "wknn" else 1)
        else:
            self.action_dim = cfg.sim.num_items   # softmax head

        self.model = model
        if agent != "none" and model is None:
            self.model = self._fresh_model(seed, belief_source, tables)
        self.encoder = self.model.belief if agent != "none" else None
        self.eval_mode = "mean" if agent == "sac" else "sample"

    def _fresh_model(self, seed: int, belief_source: str, tables: dict):
        cfg = self.cfg
        init_rng = substream(seed, STREAM_INIT)
        belief_cfg = BeliefConfig(belief_dim=cfg.belief_dim, item_source=belief_source)
        if belief_source == "learned":   # trainable table, initialized small
            table = 0.1 * init_rng.standard_normal((cfg.sim.num_items, cfg.gems.item_embed_dim))
        else:
            table = tables[belief_source]
        if cfg.agent == "sac":
            sac_cfg = SacConfig(action_dim=self.action_dim, gamma=cfg.gamma,
                                tau=cfg.tau, alpha=cfg.alpha,
                                critic_lr=cfg.critic_lr, actor_lr=cfg.actor_lr,
                                batch_size=cfg.batch_size, hidden=cfg.hidden)
            return SacModel(sac_cfg, belief_cfg, self.slate_size, table, init_rng)
        rcfg = ReinforceConfig(gamma=cfg.gamma, learning_rate=cfg.reinforce_lr,
                               baseline_decay=cfg.baseline_decay, hidden=cfg.hidden)
        return ReinforcePolicy(rcfg, belief_cfg, self.slate_size, table, init_rng)

    # -- acting ----------------------------------------------------------------

    def _wknn_critic(self, beliefs: np.ndarray, base: np.ndarray, slot: int,
                     candidates: np.ndarray) -> np.ndarray:
        """min(Q1, Q2) [n, m] of each user's rows belief ‖ base [n, k*e] with
        candidates [n, m, e] placed in ``slot`` (see ``rankers.rank_wknn``).

        The first layer is split: a user's belief and placed items give it
        one base pre-activation, and each candidate adds its slot's block of
        rows of W; the zero padding of later slots adds nothing.  The layers
        after it run on all n*m rows.  Weights are read from the store on
        every call, as training changes them."""
        n, m, e = candidates.shape
        h = beliefs.shape[1]
        split = h + slot * e
        fixed = np.empty((n, split), self.model.dtype)
        fixed[:, :h], fixed[:, h:] = beliefs, base[:, :slot * e]
        rows = candidates.reshape(n * m, e).astype(self.model.dtype)
        q = []
        for critic in (self.model.q1, self.model.q2):
            (W, *Ws), (b, *bs) = critic.weights()
            pre = (rows @ W[split:split + e]).reshape(n, m, -1)
            pre += (fixed @ W[:split] + b)[:, None]
            hidden = activate(pre.reshape(n * m, -1), critic.activation)
            q.append(mlp_values(hidden, Ws, bs, critic.activation)[:, 0])
        return np.minimum(*q).reshape(n, m)

    def act(self, hidden, env, mode: str, rng):
        """(actions [n, d] or None, slates [n, k]) for the n lockstep users of
        env with beliefs hidden [n, H] (None for static policies).

        The agent's actions, GeMS decoding, TopK, wknn and the oracle serve
        all n users in one call each; wknn scores every user's candidates
        of a slot in one critic call.  Softmax and random slates are drawn
        user by user, in user order, from ``rng``."""
        if self.agent == "reinforce":
            return None, np.stack([sample_slate(self.model, h, self.slate_size, rng)
                                   for h in hidden])
        if self.ranker == "random":
            return None, np.stack([rank_random(self.cfg.sim.num_items, self.slate_size, rng)
                                   for _ in range(env.num_users)])
        if self.ranker == "oracle":
            return None, rank_short_term_oracle(env, self.slate_size)
        actions = select_action(self.model, hidden, mode, rng)
        if self.ranker == "gems":
            return actions, decode_to_slate(self.gems_model, actions)
        if self.ranker == "wknn":
            return actions, rank_wknn(actions, self.table, self._wknn_critic, hidden,
                                      self.slate_size, self.cfg.wknn_p)
        return actions, rank_topk(actions, self.table, self.slate_size)

    def act_single(self, hidden, env, mode: str, rng):
        """:meth:`act` for a one-user env with belief hidden [H]: (action [d]
        or None, slate [k])."""
        actions, slates = self.act(hidden[None], env, mode, rng)
        return None if actions is None else actions[0], slates[0]

    def init_hidden(self, n: int):
        return self.encoder.init_hidden(n) if self.encoder is not None else None

    # -- learning and persistence --------------------------------------------------

    def learner(self, rng: np.random.Generator):
        """A learner for this policy's agent, drawing from ``rng`` (None if static)."""
        return LEARNERS[self.agent](self.model, self.cfg, rng) if self.model is not None else None

    def save(self, path, metadata: Optional[dict] = None) -> None:
        if self.model is None:
            raise ValueError("static policies have nothing to checkpoint")
        save_agent(path, self.model, metadata)


def build_policy(cfg: ExperimentConfig, catalog: ItemCatalog, seed: int) -> Policy:
    return Policy(cfg, catalog, seed)


def load_policy(cfg: ExperimentConfig, catalog: ItemCatalog, ckpt_path) -> Policy:
    """Policy acting with parameters restored from a checkpoint."""
    if cfg.agent not in LEARNERS:
        return Policy(cfg, catalog, seed=0)
    model, meta = load_agent(ckpt_path, LEARNERS[cfg.agent].model_class)
    _check_artifact(Path(ckpt_path), "agent checkpoint", cfg.sim,
                    num_items=meta["num_items"], slate_size=meta["slate_size"])
    return Policy(cfg, catalog, seed=0, model=model)


# -- rollouts ---------------------------------------------------------------------


def rollout_returns(policy: Policy, catalog: ItemCatalog, n: int,
                    env_seed: Callable[[int], int], rng: np.random.Generator,
                    diagnostics: Optional[list] = None) -> np.ndarray:
    """Episode returns for n lockstep users under the evaluation protocol.

    With diagnostics, appends per-recommended-item rows
    (traj, turn, slot, item, true relevance, bored-topic count); this forces
    disclosed environments.
    """
    sim = policy.cfg.sim
    disclosed = policy.needs_disclosed or diagnostics is not None
    env = Environment(sim, catalog, disclosed=disclosed)
    env.reset([env_seed(i) for i in range(n)])
    hidden = policy.init_hidden(n)
    returns = np.zeros(n)
    for t in range(sim.episode_length):
        _, slates = policy.act(hidden, env, policy.eval_mode, rng)
        if diagnostics is not None:
            rel = env.disclosed_relevance()
            bored = (env.disclosed_bored_topics() > 0).sum(axis=1)
            for i in range(n):
                for slot, item in enumerate(slates[i]):
                    diagnostics.append((i, t, slot, int(item), float(rel[i, item]), int(bored[i])))
        res = env.step(slates)
        returns += res.rewards
        if hidden is not None:
            hidden = policy.encoder.step_hidden(hidden, slates, res.clicks)
    return returns


def _test_returns(policy: Policy, catalog: ItemCatalog, n: int, seed: int,
                  diagnostics: Optional[list] = None) -> np.ndarray:
    """:func:`rollout_returns` of n users on the test protocol's action and
    user streams of ``seed``, disjoint from training's and validation's."""
    return rollout_returns(policy, catalog, n,
                           lambda i: substream_seed(seed, STREAM_ENV_TEST, i),
                           substream(seed, STREAM_ACTION, 2), diagnostics=diagnostics)


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
    learner = policy.learner(substream(seed, STREAM_BUFFER))
    diag_history: deque = deque(maxlen=50)

    validation_means: List[float] = []

    def validate(round_idx: int, traj_done: int) -> None:
        rng = substream(seed, STREAM_ACTION, 1, round_idx)
        returns = rollout_returns(
            policy, catalog, cfg.validation_trajectories,
            lambda i: substream_seed(seed, STREAM_ENV_VAL, round_idx, i), rng)
        mean = float(returns.mean())
        validation_means.append(mean)
        if learner is not None:
            policy.save(workdir / f"ckpt-{round_idx:04d}.slk",
                        {"val_round": round_idx, "val_mean": mean,
                         "trajectories": traj_done, "config_hash": chash})
        log.info("seed %d validation %d (after %d trajectories): mean return %.3f",
                 seed, round_idx, traj_done, mean)

    validate(0, 0)
    env = Environment(cfg.sim, catalog, disclosed=policy.needs_disclosed)
    for traj in range(1, cfg.training_steps + 1):
        if learner is not None:
            env.reset([substream_seed(seed, STREAM_ENV_TRAIN, traj)])
            hidden = policy.init_hidden(1)[0]
            for t in range(cfg.sim.episode_length):
                action, slate = policy.act_single(hidden, env, "sample", action_rng)
                res = env.step(slate[None])
                clicks = res.clicks[0]
                due = learner.observe(hidden, slate, clicks, action, int(res.rewards[0]),
                                      res.done)
                hidden = policy.encoder.update_belief(hidden, slate, clicks)
                if due:
                    _checked_update(learner.update, diag_history,
                                    {"trajectory": traj, "turn": t}, workdir)
        if traj % cfg.validation_every == 0:
            validate(traj // cfg.validation_every, traj)

    best = int(np.argmax(validation_means))
    if learner is not None:
        policy = load_policy(cfg, catalog, workdir / f"ckpt-{best:04d}.slk")
    test_returns = _test_returns(policy, catalog, cfg.test_trajectories, seed)

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
    diagnostics = [] if diagnostics_path else None
    returns = _test_returns(load_policy(cfg, catalog, ckpt_path), catalog, n, seed, diagnostics)
    if diagnostics_path:
        write_diagnostics_csv(diagnostics_path, diagnostics)
    return [float(r) for r in returns]
