"""REINFORCE for the discrete softmax-over-items policy.

The policy scores every item from the belief state; slates are sampled
with replacement from the softmax.  Updates are per episode: each turn's
slate log-probability is weighted by its discounted return-to-go minus
a per-turn exponential moving-average baseline.  The turns' beliefs come
from one GRU pass over the whole episode from zero, with the kernel that
acting steps, so the update trains on exactly the beliefs the slates were
drawn from.  The belief GRU (and its learned item table, if any) trains through
the same loss, as this agent has no critic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .belief import BeliefConfig, BeliefEncoder, prev_beliefs
from .nn import Mlp
from .optim import AdamConfig, ParameterStore, adam_step
from .rankers import as_rows


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

    kind = "reinforce"
    config_class = ReinforceConfig
    stores = {"policy": "store"}

    def __init__(self, cfg: ReinforceConfig, belief_cfg: BeliefConfig,
                 slate_size: int, item_embeddings: np.ndarray,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.store = ParameterStore()
        self.belief = BeliefEncoder(self.store, belief_cfg, slate_size,
                                    item_embeddings, rng)
        self.head = Mlp(self.store, "logits",
                        [belief_cfg.belief_dim, *cfg.hidden, self.belief.num_items],
                        rng, "relu")
        self.adam = AdamConfig(cfg.learning_rate)


def episode_beliefs(policy: ReinforcePolicy, episode: EpisodeRecord):
    """[T, H] graph of each turn's pre-action belief: zero at turn 0, then the
    states of one GRU pass from zero over the episode but its last turn,
    whose post-action belief no turn reads."""
    turns = len(episode.slates)
    h0, resets = policy.belief.init_hidden(1), np.zeros((1, turns), bool)
    inputs = policy.belief._inputs(episode.slates[None, :-1], episode.clicks[None, :-1])
    states = policy.belief.recompute_graph(h0, inputs, resets[:, :-1])
    return prev_beliefs(h0, states, resets, turns)


def reinforce_update(policy: ReinforcePolicy, episode: EpisodeRecord,
                     baseline: BaselineState) -> dict:
    """One Adam step on -sum_t (G_t - b_t) * log pi(slate_t | belief_t)."""
    k = episode.slates.shape[1]
    returns = return_to_go(episode.rewards, policy.cfg.gamma)
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
    """Slates [n, k] for beliefs hidden [n, H]: one head forward for all n
    users, then each user's k draws with replacement from the softmax over
    its item logits, user by user in row order from ``rng``."""
    logits = policy.head.forward_array(as_rows(hidden, policy.belief.belief_dim, None, "hidden"))
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    return np.array([rng.choice(len(row), size=slate_size, p=row / row.sum()) for row in p],
                    dtype=np.int64).reshape(len(p), slate_size)
