"""Seeded episodic user simulator: embeddings, relevance, boredom, influence
and three position-based click models (TopDown, Mixed, DivPen).

Users and items live in a shared topic-block embedding space.  Click
probability factorizes into item attractiveness and rank-dependent
examination.  Two slow dynamics penalize myopic recommenders: clicked items
drift the user embedding (influence), and over-exposure to one topic zeroes
that topic's contribution to relevance for a fixed number of turns (boredom).
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

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

    @property
    def embed_dim(self) -> int:
        return self.num_topics * self.topic_dim


@dataclass
class ItemCatalog:
    embeddings: np.ndarray   # [num_items, embed_dim], unit-norm rows
    main_topic: np.ndarray   # [num_items] int, argmax topic-block norm


@dataclass
class UserState:
    base_embedding: np.ndarray          # [embed_dim], unit norm at creation
    bored_topics: Dict[int, int] = field(default_factory=dict)   # topic -> remaining turns
    click_history: deque = field(default_factory=deque)          # last-N clicked item ids
    turn_index: int = 0

    def masked_embedding(self, cfg: SimConfig) -> np.ndarray:
        """Base embedding with bored topic blocks zeroed at scoring time."""
        if not self.bored_topics:
            return self.base_embedding
        e = self.base_embedding.copy()
        d = cfg.topic_dim
        for t in self.bored_topics:
            e[t * d:(t + 1) * d] = 0.0
        return e


@dataclass
class StepResult:
    clicks: np.ndarray   # [k] uint8, aligned with the slate
    reward: int
    done: bool


def _raw_embedding(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Diffuse generative process: topic propensities scale magnitude-clipped
    Gaussian blocks, then the full vector is normalized to unit L2."""
    w = rng.uniform(0.0, 1.0, size=cfg.num_topics)
    w /= w.sum()
    eps = rng.normal(0.0, cfg.component_stddev, size=(cfg.num_topics, cfg.topic_dim))
    blocks = w[:, None] * np.sign(eps) * np.minimum(np.abs(eps), 1.0)
    e = blocks.reshape(-1)
    return e / np.linalg.norm(e)


def _main_topics(embeddings: np.ndarray, cfg: SimConfig) -> np.ndarray:
    blocks = embeddings.reshape(len(embeddings), cfg.num_topics, cfg.topic_dim)
    return np.argmax(np.linalg.norm(blocks, axis=2), axis=1)


def generate_item_catalog(cfg: SimConfig, seed: int) -> ItemCatalog:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    emb = np.stack([_raw_embedding(cfg, rng) for _ in range(cfg.num_items)])
    if cfg.embedding_variant == "focused":
        emb = emb * emb
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return ItemCatalog(embeddings=emb, main_topic=_main_topics(emb, cfg))


def sample_user(cfg: SimConfig, rng: np.random.Generator) -> UserState:
    # Users always follow the diffuse process; only items get the focused variant.
    return UserState(base_embedding=_raw_embedding(cfg, rng),
                     click_history=deque(maxlen=cfg.boredom_window))


def relevance(user: UserState, item_id: int, catalog: ItemCatalog, cfg: SimConfig) -> float:
    dot = float(catalog.embeddings[item_id] @ user.masked_embedding(cfg))
    return float(_sigmoid(np.asarray((dot - cfg.sigmoid_offset) * cfg.sigmoid_slope)))


def relevance_scores(user: UserState, catalog: ItemCatalog, cfg: SimConfig) -> np.ndarray:
    """Relevance of every catalog item for the user's current masked state."""
    dots = catalog.embeddings @ user.masked_embedding(cfg)
    return _sigmoid((dots - cfg.sigmoid_offset) * cfg.sigmoid_slope)


def examination(rank: int, cfg: SimConfig) -> float:
    if not (1 <= rank <= cfg.slate_size):
        raise ValueError(f"rank must lie in 1..{cfg.slate_size}")
    e, nu, k = cfg.epsilon_exam, cfg.nu, cfg.slate_size
    return nu * e**rank + (1.0 - nu) * e**(k + 1 - rank)


def examination_vector(cfg: SimConfig) -> np.ndarray:
    ranks = np.arange(1, cfg.slate_size + 1)
    e, nu, k = cfg.epsilon_exam, cfg.nu, cfg.slate_size
    return nu * e**ranks + (1.0 - nu) * e**(k + 1 - ranks)


def attractiveness_vector(user: UserState, slate: np.ndarray,
                          catalog: ItemCatalog, cfg: SimConfig) -> np.ndarray:
    masked = user.masked_embedding(cfg)
    dots = catalog.embeddings[slate] @ masked
    a = _sigmoid((dots - cfg.sigmoid_offset) * cfg.sigmoid_slope)
    if cfg.click_model == "DivPen":
        topics = catalog.main_topic[slate]
        counts = np.bincount(topics, minlength=cfg.num_topics)
        if counts.max() > cfg.divpen_count:
            # Slate-level penalty: every item is down-weighted.
            a = a / cfg.divpen_factor
    return a


def click_probabilities(user: UserState, slate: np.ndarray,
                        catalog: ItemCatalog, cfg: SimConfig) -> np.ndarray:
    """Per-slot click probability A_i * E_r for the slate as presented."""
    return attractiveness_vector(user, slate, catalog, cfg) * examination_vector(cfg)


def validate_slate(slate: np.ndarray, cfg: SimConfig) -> np.ndarray:
    slate = np.asarray(slate, dtype=np.int64)
    if slate.shape != (cfg.slate_size,):
        raise ValueError(f"slate must have exactly {cfg.slate_size} items")
    if slate.min() < 0 or slate.max() >= cfg.num_items:
        raise ValueError("slate contains out-of-range item ids")
    return slate


def step(user: UserState, slate: np.ndarray, catalog: ItemCatalog, cfg: SimConfig,
         rng: np.random.Generator) -> StepResult:
    """Advance the user by one interaction turn, mutating the user state.

    Order of effects: clicks are sampled from the pre-turn state; influence
    and history updates apply per clicked item in slate order; boredom
    counters decrement before new boredom is detected, so a topic expiring
    this turn may immediately re-trigger.
    """
    if user.turn_index >= cfg.episode_length:
        raise RuntimeError("step() called on a finished episode")
    slate = validate_slate(slate, cfg)
    probs = click_probabilities(user, slate, catalog, cfg)
    clicks = (rng.random(cfg.slate_size) < probs).astype(np.uint8)
    reward = int(clicks.sum())

    for j in range(cfg.slate_size):
        if clicks[j]:
            item = slate[j]
            user.base_embedding = (cfg.omega * user.base_embedding
                                   + (1.0 - cfg.omega) * catalog.embeddings[item])
            user.click_history.append(int(item))
    while len(user.click_history) > cfg.boredom_window:
        user.click_history.popleft()

    expired = [t for t in user.bored_topics if user.bored_topics[t] <= 1]
    for t in user.bored_topics:
        user.bored_topics[t] -= 1
    for t in expired:
        del user.bored_topics[t]

    if user.click_history:
        topics = catalog.main_topic[list(user.click_history)]
        counts = np.bincount(topics, minlength=cfg.num_topics)
        for t in range(cfg.num_topics):
            if counts[t] >= cfg.boredom_threshold and t not in user.bored_topics:
                user.bored_topics[t] = cfg.boredom_duration

    user.turn_index += 1
    return StepResult(clicks=clicks, reward=reward,
                      done=user.turn_index >= cfg.episode_length)


_disclosed_warned = False


class Environment:
    """Episodic wrapper: reset(seed) samples a fresh user, step(slate) advances.

    Agents interact only through reset/step.  Rankers that need the true
    item embeddings or current relevance (TopK-ideal, short-term oracle)
    must construct the environment with disclosed=True; the privilege is
    logged loudly once per environment.
    """

    def __init__(self, cfg: SimConfig, catalog: ItemCatalog, disclosed: bool = False):
        self.cfg = cfg
        self.catalog = catalog
        self._disclosed = disclosed
        self._user: Optional[UserState] = None
        self._rng: Optional[np.random.Generator] = None
        self._done = True
        if disclosed:
            global _disclosed_warned
            if not _disclosed_warned:
                log.warning("environment created in DISCLOSED mode: true embeddings "
                            "and relevance are readable by the policy")
                _disclosed_warned = True

    def reset(self, seed: int) -> None:
        self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
        self._user = sample_user(self.cfg, self._rng)
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    @property
    def turn_index(self) -> int:
        return self._user.turn_index if self._user is not None else 0

    def step(self, slate: np.ndarray) -> StepResult:
        if self._user is None:
            raise RuntimeError("reset() must be called before step()")
        if self._done:
            raise RuntimeError("step() called on a finished episode")
        result = step(self._user, slate, self.catalog, self.cfg, self._rng)
        self._done = result.done
        return result

    # Disclosed-mode accessors ------------------------------------------------

    def _require_disclosed(self):
        if not self._disclosed:
            raise PermissionError("accessor requires an environment constructed "
                                  "with disclosed=True")

    def disclosed_item_embeddings(self) -> np.ndarray:
        self._require_disclosed()
        return self.catalog.embeddings

    def disclosed_relevance(self) -> np.ndarray:
        """True relevance of every item for the current (masked) user state."""
        self._require_disclosed()
        return relevance_scores(self._user, self.catalog, self.cfg)

    def disclosed_bored_topics(self) -> dict:
        """Currently masked topics and their remaining turns."""
        self._require_disclosed()
        return dict(self._user.bored_topics)
