"""REINFORCE for the discrete softmax-over-items policy.

The policy scores every item from the belief state; slates are sampled
with replacement from the softmax.  Updates are per episode: each turn's
slate log-probability is weighted by its discounted return-to-go minus
a per-turn exponential moving-average baseline.  Turn t's belief is
recomputed from zero over the (up to ``truncation``) turns before it, a
one-turn run cut by :func:`belief.run_windows` as the replay buffer cuts
SAC's.  The belief GRU (and its learned item table, if any) trains
through the same loss, as this agent has no critic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from . import autodiff as ad
from .belief import BeliefConfig, BeliefEncoder, run_windows
from .checkpoint import load_checkpoint, save_checkpoint
from .nn import Mlp
from .optim import AdamConfig, ParameterStore, adam_step
from .rng import substream


@dataclass
class ReinforceConfig:
    gamma: float = 0.8
    learning_rate: float = 0.001
    baseline_decay: float = 0.9
    hidden: tuple = (256, 256)

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 <= self.baseline_decay < 1.0:
            raise ValueError("baseline_decay must lie in [0, 1)")
        self.hidden = tuple(int(h) for h in self.hidden)


@dataclass
class EpisodeRecord:
    """One finished episode: what was shown, what was clicked, what it paid."""

    slates: np.ndarray   # [T, k] item ids, as sampled by the policy
    clicks: np.ndarray   # [T, k]
    rewards: np.ndarray  # [T]


@dataclass
class BaselineState:
    """Per-turn EMA of returns, initialized on the first episode."""

    decay: float = 0.9
    values: Optional[np.ndarray] = None

    def lookup(self, returns: np.ndarray) -> np.ndarray:
        if self.values is None:
            return returns.copy()
        if self.values.shape != returns.shape:
            raise ValueError("episode length changed under a fitted baseline")
        return self.values

    def update(self, returns: np.ndarray) -> None:
        if self.values is None:
            self.values = returns.copy()
        else:
            self.values = self.decay * self.values + (1.0 - self.decay) * returns


def return_to_go(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """G_t = sum_{s>=t} gamma^(s-t) r_s; gamma=0 gives back the rewards."""
    r = np.asarray(rewards, dtype=np.float64)
    g = np.zeros_like(r)
    acc = 0.0
    for t in range(len(r) - 1, -1, -1):
        acc = r[t] + gamma * acc
        g[t] = acc
    return g


class ReinforcePolicy:
    """Belief GRU plus an MLP head producing one logit per item."""

    def __init__(self, cfg: ReinforceConfig, belief_cfg: BeliefConfig,
                 slate_size: int, item_embeddings: np.ndarray,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.belief_cfg = belief_cfg
        self.store = ParameterStore()
        self.belief = BeliefEncoder(self.store, belief_cfg, slate_size,
                                    item_embeddings, rng)
        self.num_items = self.belief.num_items
        self.head = Mlp(self.store, "logits",
                        [belief_cfg.belief_dim, *cfg.hidden, self.num_items],
                        rng, "relu")
        self.adam = AdamConfig(cfg.learning_rate)


def episode_beliefs(policy: ReinforcePolicy, episode: EpisodeRecord):
    """[T, H] graph of each turn's pre-action belief: the state after the W
    rows before it, a one-turn run of :func:`belief.run_windows` recomputed
    from zero, or zero at turn 0; window rows that wrap past turn 0 precede
    its reset."""
    turns = np.arange(len(episode.slates))
    window = policy.belief.cfg.truncation
    slates, clicks, resets = run_windows(episode.slates, episode.clicks, turns,
                                         turns - window, window + 1)
    states = policy.belief.recompute_graph(
        policy.belief.init_hidden(len(turns)),
        policy.belief._inputs(slates[:, :-1], clicks[:, :-1]), resets[:, :-1])
    keep = np.logical_not(resets[:, -1:]).astype(states.value.dtype)
    return ad.mul(states[:, -1], ad.constant(keep))


def reinforce_update(policy: ReinforcePolicy, episode: EpisodeRecord,
                     baseline: BaselineState, cfg: ReinforceConfig) -> dict:
    """One Adam step on -sum_t (G_t - b_t) * log pi(slate_t | belief_t)."""
    k = episode.slates.shape[1]
    returns = return_to_go(episode.rewards, cfg.gamma)
    advantage = returns - baseline.lookup(returns)

    log_probs = ad.log_softmax(policy.head(episode_beliefs(policy, episode)))
    slate_lp = ad.pick(log_probs, episode.slates[:, 0])
    for j in range(1, k):
        slate_lp = ad.add(slate_lp, ad.pick(log_probs, episode.slates[:, j]))
    loss = ad.scale(ad.sum_(ad.mul(ad.constant(advantage), slate_lp)), -1.0)
    ad.backward(loss)
    adam_step(policy.store, policy.adam)
    baseline.update(returns)
    return {"loss": loss.item(), "episode_return": float(np.sum(episode.rewards)),
            "mean_advantage": float(np.mean(advantage))}


def sample_slate(policy: ReinforcePolicy, hidden: np.ndarray, slate_size: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw a slate with replacement from the softmax over item logits."""
    logits = policy.head.forward_array(np.atleast_2d(hidden))[0]
    shifted = logits - logits.max()
    p = np.exp(shifted)
    p /= p.sum()
    return rng.choice(policy.num_items, size=slate_size, replace=True, p=p)


def save_reinforce(policy: ReinforcePolicy, path, metadata: Optional[dict] = None) -> None:
    meta = {
        "kind": "reinforce",
        "config": asdict(policy.cfg),
        "belief": asdict(policy.belief_cfg),
        "slate_size": policy.belief.slate_size,
        "num_items": policy.num_items,
        "item_dim": policy.belief.item_dim,
    }
    if metadata:
        meta.update(metadata)
    stores = {"policy": policy.store}
    if not policy.belief.trainable_table:
        frozen = ParameterStore()
        frozen.add("belief.items", policy.belief.table_value())
        stores["frozen"] = frozen
    save_checkpoint(path, stores, meta)


def load_reinforce(path) -> Tuple[ReinforcePolicy, dict]:
    stores, meta = load_checkpoint(path)
    raw = dict(meta["config"])
    raw["hidden"] = tuple(raw["hidden"])
    cfg = ReinforceConfig(**raw)
    belief_cfg = BeliefConfig(**meta["belief"])
    if "frozen" in stores:
        table = stores["frozen"]["belief.items"].value
    else:
        table = stores["policy"]["belief.items"].value
    policy = ReinforcePolicy(cfg, belief_cfg, meta["slate_size"], table,
                             substream(0, "init"))
    policy.store.load_state_from(stores["policy"])
    return policy, meta
