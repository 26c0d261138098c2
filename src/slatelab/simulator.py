"""Seeded episodic user simulator: embeddings, relevance, boredom, influence
and three position-based click models (TopDown, Mixed, DivPen).

Users and items live in a shared topic-block embedding space.  Click
probability factorizes into item attractiveness and rank-dependent
examination.  Two slow dynamics penalize myopic recommenders: clicked items
drift the user embedding (influence), and over-exposure to one topic zeroes
that topic's contribution to relevance for a fixed number of turns (boredom).
Boredom reads each user's last ``boredom_window`` clicks, one [n, W] array;
their topic counts are derived from it afresh every turn.

:class:`Environment` steps n users in lockstep, their state held as arrays.
Each user draws from its own generator in the order a lone user would, and
every dot product is one matrix-vector product per user row, so a user's
clicks do not depend on which or how many users share its batch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import _sigmoid

log = logging.getLogger(__name__)


@dataclass
class SimConfig:
    num_items: int = 1000
    slate_size: int = 10
    num_topics: int = 10
    topic_dim: int = 2
    episode_length: int = 100
    embedding_variant: str = "diffuse"  # diffuse | focused
    click_model: str = "TopDown"        # TopDown | Mixed | DivPen
    nu: Optional[float] = None          # defaults: 1.0 TopDown, 0.5 Mixed/DivPen
    epsilon_exam: float = 0.85
    omega: float = 0.9
    boredom_threshold: int = 5
    boredom_window: int = 10
    boredom_duration: int = 5
    divpen_factor: float = 3.0
    divpen_count: int = 4
    sigmoid_offset: float = 0.28
    sigmoid_slope: float = 5.0
    component_stddev: float = math.sqrt(0.4)

    def __post_init__(self):
        if self.slate_size > self.num_items:
            raise ValueError("slate_size must not exceed num_items")
        if self.embedding_variant not in ("diffuse", "focused"):
            raise ValueError(f"unknown embedding variant {self.embedding_variant!r}")
        if self.click_model not in ("TopDown", "Mixed", "DivPen"):
            raise ValueError(f"unknown click model {self.click_model!r}")
        if self.nu is None:
            self.nu = 1.0 if self.click_model == "TopDown" else 0.5
        if not (0.0 <= self.nu <= 1.0):
            raise ValueError("nu must lie in [0, 1]")
        if not (0.0 < self.epsilon_exam < 1.0):
            raise ValueError("epsilon_exam must lie in (0, 1)")
        if min(self.boredom_threshold, self.boredom_window, self.boredom_duration) < 1:
            raise ValueError("boredom_threshold, boredom_window and boredom_duration "
                             "must be at least 1")

    @property
    def embed_dim(self) -> int:
        return self.num_topics * self.topic_dim


@dataclass
class ItemCatalog:
    embeddings: np.ndarray   # [num_items, embed_dim], unit-norm rows
    main_topic: np.ndarray   # [num_items] int, argmax topic-block norm


@dataclass
class StepResult:
    clicks: np.ndarray    # [n, k] uint8, aligned with the slates
    rewards: np.ndarray   # [n] int64, clicks per user
    done: bool


def _raw_embeddings(cfg: SimConfig, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Diffuse generative process, row i drawn from rngs[i]: topic
    propensities scale magnitude-clipped Gaussian blocks, then the full
    vector is normalized to unit L2.  Each row's norm is its own dot
    product, so a row's bytes do not depend on the rows built with it."""
    w = np.empty((len(rngs), cfg.num_topics))
    eps = np.empty((len(rngs), cfg.num_topics, cfg.topic_dim))
    for i, rng in enumerate(rngs):
        w[i] = rng.uniform(0.0, 1.0, size=cfg.num_topics)
        eps[i] = rng.normal(0.0, cfg.component_stddev, size=(cfg.num_topics, cfg.topic_dim))
    w /= w.sum(axis=1, keepdims=True)
    e = (w[:, :, None] * np.sign(eps) * np.minimum(np.abs(eps), 1.0)).reshape(len(rngs), -1)
    return e / np.sqrt([row.dot(row) for row in e])[:, None]


def _main_topics(embeddings: np.ndarray, cfg: SimConfig) -> np.ndarray:
    blocks = embeddings.reshape(len(embeddings), cfg.num_topics, cfg.topic_dim)
    return np.argmax(np.linalg.norm(blocks, axis=2), axis=1)


def generate_item_catalog(cfg: SimConfig, seed: int) -> ItemCatalog:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    emb = _raw_embeddings(cfg, [rng] * cfg.num_items)
    if cfg.embedding_variant == "focused":
        emb = emb * emb
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return ItemCatalog(embeddings=emb, main_topic=_main_topics(emb, cfg))


def examination_vector(cfg: SimConfig) -> np.ndarray:
    ranks = np.arange(1, cfg.slate_size + 1)
    e, nu, k = cfg.epsilon_exam, cfg.nu, cfg.slate_size
    return nu * e**ranks + (1.0 - nu) * e**(k + 1 - ranks)


def validate_slate(slate: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Slates [..., k] of integer item ids as int64; booleans, floats and
    out-of-range ids raise ValueError rather than being cast."""
    slate = np.asarray(slate)
    if slate.dtype.kind not in "iu":
        raise ValueError(f"slate item ids must be integers, got dtype {slate.dtype}")
    if slate.ndim == 0 or slate.shape[-1] != cfg.slate_size:
        raise ValueError(f"slate must have exactly {cfg.slate_size} items")
    slate = slate.astype(np.int64, copy=False)
    # Viewed as unsigned, a negative id exceeds every valid one.
    if slate.view(np.uint64).max() >= cfg.num_items:
        raise ValueError("slate contains out-of-range item ids")
    return slate


_disclosed_warned = False


class Environment:
    """n episodic users in lockstep: reset(seeds) samples one fresh user per
    seed, step(slates) advances them all by one turn.

    State, one row per user: base embeddings [n, e], turns left of each
    topic's boredom [n, topics] (0: not bored), ``click_history`` [n, W]:
    the last W = ``boredom_window`` clicked items, oldest first, -1 padding
    the front, and the user's generator ``rngs[i]``.  Topic counts in the
    window are derived from ``click_history`` every turn, never stored.
    Read the state freely; overwrite it through :meth:`set_state`.  Agents
    interact only through reset/step.  Rankers that need the true item
    embeddings or current relevance (TopK-ideal, short-term oracle) must
    construct the environment with disclosed=True; the privilege is logged
    loudly once per process.
    """

    def __init__(self, cfg: SimConfig, catalog: ItemCatalog, disclosed: bool = False):
        self.cfg = cfg
        self.catalog = catalog
        self._disclosed = disclosed
        self._exam = examination_vector(cfg)
        # (1 - omega) * e_item, row by row as the influence update scales it.
        self._pull = (1.0 - cfg.omega) * catalog.embeddings
        self.num_users = 0
        self.turn_index = 0
        self._done = True
        if disclosed:
            global _disclosed_warned
            if not _disclosed_warned:
                log.warning("environment created in DISCLOSED mode: true embeddings "
                            "and relevance are readable by the policy")
                _disclosed_warned = True

    def reset(self, seeds: Sequence[int]) -> None:
        """Start one fresh episode per seed; user i draws only from seed i."""
        cfg = self.cfg
        self.rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(s))))
                     for s in seeds]
        n = self.num_users = len(self.rngs)
        if n == 0:
            raise ValueError("reset() needs at least one seed")
        # Users always follow the diffuse process; only items get the focused variant.
        self.base_embeddings = _raw_embeddings(cfg, self.rngs)
        self.bored_turns = np.zeros((n, cfg.num_topics), dtype=np.int64)
        self.click_history = np.full((n, cfg.boredom_window), -1, dtype=np.int64)
        self._masked = None
        self.turn_index = 0
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    def set_state(self, base_embeddings: Optional[np.ndarray] = None,
                  bored_turns: Optional[np.ndarray] = None) -> None:
        """Overwrite the users' base embeddings [n, e] and boredom counters
        [n, topics] (turns left, 0: not bored), as when scripting a user."""
        if base_embeddings is not None:
            base = np.array(base_embeddings, dtype=np.float64)
            if base.shape != self.base_embeddings.shape:
                raise ValueError(f"base_embeddings must have shape {self.base_embeddings.shape}")
            self.base_embeddings = base
        if bored_turns is not None:
            bored = np.array(bored_turns, dtype=np.int64)
            if bored.shape != self.bored_turns.shape or bored.min() < 0:
                raise ValueError(f"bored_turns must be non-negative, of shape "
                                 f"{self.bored_turns.shape}")
            self.bored_turns = bored
        self._masked = None

    def _masked_embeddings(self) -> np.ndarray:
        """Base embeddings with bored topic blocks zeroed, as scored; cached
        until the next step."""
        if self._masked is None:
            bored = self.bored_turns > 0
            if bored.any():
                base = self.base_embeddings.reshape(*bored.shape, -1)
                self._masked = np.where(bored[:, :, None], 0.0, base).reshape(len(bored), -1)
            else:
                self._masked = self.base_embeddings
        return self._masked

    def _relevance(self, dots: np.ndarray) -> np.ndarray:
        return _sigmoid((dots - self.cfg.sigmoid_offset) * self.cfg.sigmoid_slope)

    def _attractiveness(self, slates: np.ndarray) -> np.ndarray:
        """Per-slot attractiveness [n, k] of the slates as presented."""
        cfg = self.cfg
        m = self._masked_embeddings()
        a = self._relevance((self.catalog.embeddings[slates] @ m[:, :, None])[..., 0])
        if cfg.click_model == "DivPen":
            # Slate-level penalty: more than divpen_count items of one main
            # topic down-weight every item of that slate.
            topics = self.catalog.main_topic[slates]
            same = (topics[:, :, None] == topics[:, None, :]).sum(axis=2)
            a[same.max(axis=1) > cfg.divpen_count] /= cfg.divpen_factor
        return a

    def step(self, slates: np.ndarray) -> StepResult:
        """Advance every user by one turn, one slate [k] per user.

        Order of effects: clicks are sampled from the pre-turn state;
        influence applies per clicked item in slate order, and the clicked
        items join the history window in slate order; boredom counters
        decrement before new boredom is detected, so a topic expiring this
        turn may immediately re-trigger while the window still holds
        ``boredom_threshold`` of its clicks.
        """
        cfg = self.cfg
        if self.num_users == 0:
            raise RuntimeError("reset() must be called before step()")
        if self._done:
            raise RuntimeError("step() called on a finished episode")
        slates = validate_slate(slates, cfg)
        if slates.shape != (self.num_users, cfg.slate_size):
            raise ValueError(f"slates must have shape ({self.num_users}, {cfg.slate_size}), "
                             f"got {slates.shape}")
        probs = self._attractiveness(slates) * self._exam
        draws = np.empty_like(probs)
        for i, rng in enumerate(self.rngs):
            rng.random(out=draws[i])
        clicks = (draws < probs).astype(np.uint8)
        per_slot = clicks.sum(axis=0)
        rewards = clicks.sum(axis=1, dtype=np.int64)
        rows = np.arange(self.num_users)[:, None]
        if per_slot.any():
            # Influence, slot by slot, of every clicked item on its user's base embedding.
            pull = self._pull[slates]
            for j, clicked in enumerate(per_slot.tolist()):
                if clicked:
                    base = self.base_embeddings
                    pulled = cfg.omega * base + pull[:, j]
                    self.base_embeddings = (pulled if clicked == self.num_users
                                            else np.where(clicks[:, j, None], pulled, base))
            # Clicked items join the window in slate order: a stable sort on
            # validity moves every -1 to the front and keeps the rest in order.
            window = np.concatenate([self.click_history, np.where(clicks, slates, -1)], axis=1)
            keep = np.argsort(window >= 0, axis=1, kind="stable")[:, -cfg.boredom_window:]
            self.click_history = window[rows, keep]

        bored = self.bored_turns
        bored -= bored > 0
        # Each user's clicks per topic in the window; a -1 pad indexes the
        # last item, and the mask drops it.
        history = self.click_history
        keys = rows * cfg.num_topics + self.catalog.main_topic[history]
        counts = np.bincount(keys[history >= 0], minlength=bored.size).reshape(bored.shape)
        bored[(bored == 0) & (counts >= cfg.boredom_threshold)] = cfg.boredom_duration
        self._masked = None

        self.turn_index += 1
        self._done = self.turn_index >= cfg.episode_length
        return StepResult(clicks=clicks, rewards=rewards, done=self._done)

    # Disclosed-mode accessors ------------------------------------------------

    def _require_disclosed(self):
        if not self._disclosed:
            raise PermissionError("accessor requires an environment constructed "
                                  "with disclosed=True")

    def disclosed_relevance(self) -> np.ndarray:
        """True relevance [n, num_items] of every item for each user's current
        (masked) state."""
        self._require_disclosed()
        m = self._masked_embeddings()
        return self._relevance(np.matmul(self.catalog.embeddings[None], m[:, :, None])[..., 0])

    def disclosed_attractiveness(self, slates: np.ndarray) -> np.ndarray:
        """Per-slot attractiveness [n, k] of slates [n, k] for the current
        state; times :func:`examination_vector` it is the click probability."""
        self._require_disclosed()
        return self._attractiveness(validate_slate(slates, self.cfg))

    def disclosed_bored_topics(self) -> np.ndarray:
        """Remaining masked turns [n, num_topics] of each topic; 0 if not bored."""
        self._require_disclosed()
        return self.bored_turns.copy()
