"""Soft actor-critic over continuous proto-actions.

Clipped double-Q with target networks and a tanh-squashed Gaussian
actor.  The belief GRU lives in the critic's parameter store and is
trained by the critic loss alone; the actor sees beliefs as constants.
Updates recompute beliefs from the raw histories in the replay batch, runs
of ``REPLAY_SEQUENCE`` consecutive transitions whose GRU inputs
``BeliefEncoder._inputs`` builds once per update.  Each run starts from
the acting belief stored with its first turn (R2D2's stored-state replay:
no burn-in, and no gradient into the stored state) and restarts from zero
at episode starts.  ``critic_loss`` runs one GRU pass over the runs as a
graph: the states before and after each transition's row are its pre- and
post-action beliefs, and ``td_target`` takes the latter.  ``actor_loss``
runs one array pass from the same start states under the GRU weights of
the critic step.

The policy has one definition, :func:`actor_stats` and
:func:`squashed_log_prob` over graph tensors.  ``actor_loss`` builds it as a
graph; ``td_target`` and sampling in ``select_action`` run it under
``autodiff.no_grad``, and ``actor_loss`` scores its actions with the
critics under ``no_grad`` too, so the action gets a gradient and the
critics get none.

The agent computes in ``SacConfig.dtype`` (float32 by default): its
stores, beliefs and graphs take it, and batch actions, TD targets and
Gaussian noise are cast to it where they enter a graph.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .belief import BeliefConfig, BeliefEncoder, next_beliefs, prev_beliefs
from .checkpoint import load_checkpoint, save_checkpoint
from .nn import Mlp
from .optim import AdamConfig, ParameterStore, adam_step, polyak_update
from .replay import ReplayBuffer, TransitionBatch
from .rng import substream

REPLAY_SEQUENCE = 16     # consecutive transitions per sampled run
LOG_SIGMA_MIN = -5.0
LOG_SIGMA_MAX = 2.0
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class SacConfig:
    action_dim: int
    gamma: float = 0.8
    tau: float = 0.002
    alpha: float = 0.2
    critic_lr: float = 0.001
    actor_lr: float = 0.003
    batch_size: int = 256
    hidden: tuple = (256, 256)
    dtype: str = "float32"

    def __post_init__(self):
        if self.action_dim <= 0:
            raise ValueError("action_dim must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.hidden = tuple(int(h) for h in self.hidden)
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")


class SacModel:
    """Actor, two critics, their targets, and the shared belief encoder."""

    def __init__(self, cfg: SacConfig, belief_cfg: BeliefConfig, slate_size: int,
                 item_embeddings: np.ndarray, rng: np.random.Generator):
        self.cfg = cfg
        self.belief_cfg = belief_cfg
        self.dtype = np.dtype(cfg.dtype)
        self.critic_store = ParameterStore(self.dtype)
        self.belief = BeliefEncoder(self.critic_store, belief_cfg, slate_size,
                                    item_embeddings, rng)
        h, d = belief_cfg.belief_dim, cfg.action_dim
        critic_sizes = [h + d, *cfg.hidden, 1]
        self.q1 = Mlp(self.critic_store, "q1", critic_sizes, rng, "relu")
        self.q2 = Mlp(self.critic_store, "q2", critic_sizes, rng, "relu")
        self.actor_store = ParameterStore(self.dtype)
        self.actor = Mlp(self.actor_store, "pi", [h, *cfg.hidden, 2 * d], rng, "relu")
        self.target_store = ParameterStore(self.dtype)
        for name, p in self.critic_store.items():
            if name.startswith(("q1.", "q2.")):
                self.target_store.add(name, p.value.copy())
        self.target_q1 = Mlp.attach(self.target_store, "q1", critic_sizes, "relu")
        self.target_q2 = Mlp.attach(self.target_store, "q2", critic_sizes, "relu")
        self.critic_adam = AdamConfig(cfg.critic_lr)
        self.actor_adam = AdamConfig(cfg.actor_lr)


def actor_stats(model: SacModel, hidden: Tensor) -> Tuple[Tensor, Tensor]:
    """(mu, log_sigma), both [B, d]; log_sigma is tanh-bounded to
    [LOG_SIGMA_MIN, LOG_SIGMA_MAX]."""
    d = model.cfg.action_dim
    out = model.actor(hidden)
    mid = 0.5 * (LOG_SIGMA_MIN + LOG_SIGMA_MAX)
    half = 0.5 * (LOG_SIGMA_MAX - LOG_SIGMA_MIN)
    log_sigma = ad.add(ad.scale(ad.tanh(out[:, d:]), half),
                       ad.constant(np.full((1, d), mid, model.dtype)))
    return out[:, :d], log_sigma


def squashed_log_prob(mu: Tensor, log_sigma: Tensor, u: Tensor) -> Tensor:
    """log pi(tanh(u)) [B] for u drawn from N(mu, diag(exp(log_sigma)^2))."""
    dt = mu.value.dtype
    z = ad.mul(ad.add(u, ad.scale(mu, -1.0)), ad.exp(ad.scale(log_sigma, -1.0)))
    base = ad.add(ad.scale(ad.square(z), -0.5),
                  ad.add(ad.scale(log_sigma, -1.0), ad.constant(dt.type(-0.5 * _LOG_2PI))))
    correction = ad.scale(
        ad.add(ad.constant(dt.type(np.log(2.0))),
               ad.add(ad.scale(u, -1.0),
                      ad.scale(ad.softplus(ad.scale(u, -2.0)), -1.0))), 2.0)
    return ad.sum_(ad.add(base, ad.scale(correction, -1.0)), axis=1)


def select_action(model: SacModel, hidden: np.ndarray, mode: str = "sample",
                  rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Sample (or take the mode of) the squashed Gaussian policy."""
    single = np.asarray(hidden).ndim == 1
    h = np.atleast_2d(np.asarray(hidden, dtype=model.dtype))
    if mode == "mean":
        a = np.tanh(model.actor.forward_array(h)[:, :model.cfg.action_dim])
    elif mode == "sample":
        if rng is None:
            raise ValueError("sampling requires an rng")
        with ad.no_grad():
            mu, log_sigma = actor_stats(model, ad.constant(h))
        noise = rng.standard_normal(mu.shape).astype(model.dtype)
        a = np.tanh(mu.value + np.exp(log_sigma.value) * noise)
    else:
        raise ValueError(f"unknown action mode {mode!r}")
    return a[0] if single else a


def td_target(model: SacModel, batch: TransitionBatch, next_hidden: np.ndarray,
              cfg: SacConfig, rng: np.random.Generator) -> np.ndarray:
    """y = r + gamma*(1-done)*(min Q' - alpha*log pi') with a' freshly sampled.

    ``next_hidden`` [B, H] holds the batch's post-action beliefs.  Computed
    under ``no_grad``: the target is a constant of the critic loss.
    """
    with ad.no_grad():
        mu, log_sigma = actor_stats(model, ad.constant(next_hidden))
        noise = rng.standard_normal(mu.shape).astype(model.dtype)
        u = mu.value + np.exp(log_sigma.value) * noise
        next_log_pi = squashed_log_prob(mu, log_sigma, ad.constant(u)).value
    target_in = np.concatenate([next_hidden, np.tanh(u)], axis=1)
    tq = np.minimum(model.target_q1.forward_array(target_in)[:, 0],
                    model.target_q2.forward_array(target_in)[:, 0])
    return batch.rewards + cfg.gamma * (1.0 - batch.dones) * (tq - cfg.alpha * next_log_pi)


def critic_loss(model: SacModel, batch: TransitionBatch, inputs: Tensor,
                cfg: SacConfig, rng: np.random.Generator,
                target: Optional[np.ndarray] = None) -> Tuple[Tensor, dict]:
    """Mean over the batch and both critics of (Q(s,a) - y)^2.

    ``inputs`` is the batch runs' GRU input node.  The target is
    computed from the post-action beliefs of the same GRU pass unless
    given; passing one keeps y fixed while parameters are varied (e.g. by a
    finite-difference oracle), matching the no-gradient-through-y semantics
    exactly.
    """
    b = batch.actions.shape[0]
    states = model.belief.recompute_graph(batch.hidden, inputs, batch.resets)
    y = target
    if y is None:
        y = td_target(model, batch, next_beliefs(states.value, b), cfg, rng)

    hidden = prev_beliefs(batch.hidden, states, batch.resets, b)
    q_in = ad.concat([hidden, ad.constant(batch.actions.astype(model.dtype, copy=False))],
                     axis=-1)
    q1 = ad.reshape(model.q1(q_in), (b,))
    q2 = ad.reshape(model.q2(q_in), (b,))
    neg_y = ad.constant((-y).astype(model.dtype))
    err = ad.add(ad.mean(ad.square(ad.add(q1, neg_y))),
                 ad.mean(ad.square(ad.add(q2, neg_y))))
    loss = ad.scale(err, 0.5)
    diag = {"critic_loss": loss.item(), "mean_q": float(np.mean(q1.value)),
            "mean_target": float(np.mean(y))}
    return loss, diag


def actor_loss(model: SacModel, batch: TransitionBatch, inputs: np.ndarray,
               cfg: SacConfig, rng: np.random.Generator) -> Tuple[Tensor, dict]:
    """mean(alpha*log pi - min Q) over the batch runs' GRU input values
    but their last rows; beliefs and critic weights enter as constants, so
    only actor parameters receive gradients."""
    b, d = batch.actions.shape[0], cfg.action_dim
    states = model.belief.recompute_array(batch.hidden, inputs[:, :-1], batch.resets[:, :-1])
    hidden = prev_beliefs(batch.hidden, ad.constant(states), batch.resets, b)
    mu, log_sigma = actor_stats(model, hidden)
    eps = rng.standard_normal((b, d)).astype(model.dtype)
    u = ad.add(mu, ad.mul(ad.exp(log_sigma), ad.constant(eps)))
    log_pi = squashed_log_prob(mu, log_sigma, u)
    q_in = ad.concat([hidden, ad.tanh(u)], axis=-1)
    with ad.no_grad():
        q1 = ad.reshape(model.q1(q_in), (b,))
        q2 = ad.reshape(model.q2(q_in), (b,))
    q_min = ad.minimum(q1, q2)
    loss = ad.mean(ad.add(ad.scale(log_pi, cfg.alpha), ad.scale(q_min, -1.0)))
    diag = {"actor_loss": loss.item(), "mean_log_pi": float(np.mean(log_pi.value)),
            "mean_sigma": float(np.mean(np.exp(log_sigma.value)))}
    return loss, diag


def sac_update(model: SacModel, buffer: ReplayBuffer, cfg: SacConfig,
               rng: np.random.Generator) -> dict:
    """One critic step, one actor step, one polyak step."""
    if len(buffer) < cfg.batch_size:
        raise ValueError("replay buffer holds fewer transitions than a batch")
    batch = buffer.sample(cfg.batch_size, rng, REPLAY_SEQUENCE)
    inputs = model.belief._inputs(batch.slates, batch.clicks)
    c_loss, c_diag = critic_loss(model, batch, inputs, cfg, rng)
    ad.backward(c_loss)
    adam_step(model.critic_store, model.critic_adam)
    x = inputs.value
    if model.belief.trainable_table:        # the critic step moved the table
        x = model.belief._input_values(batch.slates, batch.clicks)
    a_loss, a_diag = actor_loss(model, batch, x, cfg, rng)
    ad.backward(a_loss)
    adam_step(model.actor_store, model.actor_adam)
    polyak_update(model.target_store, model.critic_store, cfg.tau)
    return {**c_diag, **a_diag}


def save_sac(model: SacModel, path, metadata: Optional[dict] = None) -> None:
    meta = {
        "kind": "sac",
        "config": asdict(model.cfg),
        "belief": asdict(model.belief_cfg),
        "slate_size": model.belief.slate_size,
        "num_items": model.belief.num_items,
        "item_dim": model.belief.item_dim,
    }
    if metadata:
        meta.update(metadata)
    stores = {"critic": model.critic_store, "actor": model.actor_store,
              "target": model.target_store}
    if not model.belief.trainable_table:
        frozen = ParameterStore()
        frozen.add("belief.items", model.belief.table_value())
        stores["frozen"] = frozen
    save_checkpoint(path, stores, meta)


def load_sac(path) -> Tuple[SacModel, dict]:
    stores, meta = load_checkpoint(path)
    raw_cfg = dict(meta["config"])
    raw_cfg["hidden"] = tuple(raw_cfg["hidden"])
    cfg = SacConfig(**raw_cfg)
    belief_cfg = BeliefConfig(**meta["belief"])
    if "frozen" in stores:
        table = stores["frozen"]["belief.items"].value
    else:
        table = stores["critic"]["belief.items"].value
    model = SacModel(cfg, belief_cfg, meta["slate_size"], table, substream(0, "init"))
    model.critic_store.load_state_from(stores["critic"])
    model.actor_store.load_state_from(stores["actor"])
    model.target_store.load_state_from(stores["target"])
    return model, meta
