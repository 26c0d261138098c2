"""Recurrent belief state over observed slates and clicks.

A GRU folds the per-turn observation, the concatenation over slate slots
of [item embedding ‖ click bit], into a fixed-size hidden vector that
agents consume as their state.  Item embeddings come from a frozen table
(the slate VAE's, matrix factorization's, or the simulator's disclosed
one) or, for agents without a pretrained table, from a table learned
jointly with the rest of the network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import GruCell
from .optim import ParameterStore

ITEM_SOURCES = ("gems-table", "mf", "ideal", "learned")


@dataclass
class BeliefConfig:
    belief_dim: int = 64
    item_source: str = "gems-table"
    truncation: int = 20

    def __post_init__(self):
        if self.belief_dim <= 0:
            raise ValueError("belief_dim must be positive")
        if self.item_source not in ITEM_SOURCES:
            raise ValueError(f"unknown item source {self.item_source!r}")
        if self.truncation <= 0:
            raise ValueError("truncation window must be positive")


@dataclass
class BeliefState:
    """Value-typed belief; updates return new states."""

    hidden: np.ndarray
    turn: int = 0


class BeliefEncoder:
    """One GRU cell plus the item-embedding lookup feeding it.

    Parameters live in the caller's store (shared with the critics, so
    one backward/optimizer pass trains both).  With item_source
    "learned" the embedding table is a trainable entry of that store;
    otherwise the given table is kept frozen outside the store.
    """

    def __init__(self, store: ParameterStore, cfg: BeliefConfig, slate_size: int,
                 item_embeddings: np.ndarray, rng: np.random.Generator,
                 prefix: str = "belief"):
        table = np.asarray(item_embeddings, dtype=np.float64)
        if table.ndim != 2:
            raise ValueError("item embedding table must be 2-D")
        self.cfg = cfg
        self.slate_size = int(slate_size)
        self.num_items = table.shape[0]
        self.item_dim = table.shape[1]
        self.prefix = prefix
        self.store = store
        self.trainable_table = cfg.item_source == "learned"
        if self.trainable_table:
            store.add(prefix + ".items", table.copy())
            self._table = None
        else:
            self._table = table.copy()
        self.input_dim = self.slate_size * (self.item_dim + 1)
        self.cell = GruCell(store, prefix + ".gru", self.input_dim,
                            cfg.belief_dim, rng)

    @property
    def belief_dim(self) -> int:
        return self.cfg.belief_dim

    def table_value(self) -> np.ndarray:
        if self.trainable_table:
            return self.store[self.prefix + ".items"].value
        return self._table

    def _check_ids(self, slates: np.ndarray) -> np.ndarray:
        ids = np.asarray(slates, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_items):
            raise ValueError("unknown item id in slate")
        return ids

    def _inputs_array(self, slates: np.ndarray, clicks: np.ndarray) -> np.ndarray:
        """[..., k] ids and clicks -> [..., k*(e+1)] per-slot [emb ‖ click] rows."""
        ids = self._check_ids(slates)
        emb = self.table_value()[ids]                       # [..., k, e]
        cl = np.asarray(clicks, dtype=np.float64)[..., None]
        return np.concatenate([emb, cl], axis=-1).reshape(*ids.shape[:-1], self.input_dim)

    def _inputs_graph(self, slates: np.ndarray, clicks: np.ndarray) -> Tensor:
        ids = self._check_ids(slates)
        if not self.trainable_table:
            return ad.constant(self._inputs_array(slates, clicks))
        emb = ad.reshape(ad.gather_rows(self.store.tensor(self.prefix + ".items"),
                                        ids.reshape(-1)), (*ids.shape, self.item_dim))
        cl = ad.constant(np.asarray(clicks, dtype=np.float64)[..., None])
        return ad.reshape(ad.concat([emb, cl], axis=-1), (*ids.shape[:-1], self.input_dim))

    # -- single-episode API ------------------------------------------------

    def init_belief(self) -> BeliefState:
        return BeliefState(hidden=np.zeros(self.cfg.belief_dim), turn=0)

    def update_belief(self, belief: BeliefState, slate, clicks) -> BeliefState:
        """One GRU step; pure, returns a new state."""
        x = self._inputs_array(np.asarray(slate, dtype=np.int64)[None, :],
                               np.asarray(clicks, dtype=np.float64)[None, :])
        h = self.cell.forward_array(belief.hidden[None, :], x)
        return BeliefState(hidden=h[0], turn=belief.turn + 1)

    # -- batched API -------------------------------------------------------

    def init_hidden(self, batch: int) -> np.ndarray:
        return np.zeros((batch, self.cfg.belief_dim))

    def step_hidden(self, hidden: np.ndarray, slates: np.ndarray,
                    clicks: np.ndarray) -> np.ndarray:
        """One GRU step for a batch of independent episodes; no graph."""
        return self.cell.forward_array(hidden, self._inputs_array(slates, clicks))

    def _masks(self, window: int, lengths: np.ndarray) -> np.ndarray:
        """[B, W] indicator of real rows; histories are right-aligned."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.size and (lengths.min() < 0 or lengths.max() > window):
            raise ValueError("history length outside the stored window")
        return (np.arange(window)[None, :] >= (window - lengths)[:, None]).astype(np.float64)

    def recompute_array(self, slates: np.ndarray, clicks: np.ndarray,
                        lengths: np.ndarray) -> np.ndarray:
        """Belief from scratch over right-aligned [B, W, k] histories."""
        mask = self._masks(slates.shape[1], lengths)
        return self.cell.sequence_array(self.init_hidden(slates.shape[0]),
                                        self._inputs_array(slates, clicks), mask)

    def recompute_graph(self, slates: np.ndarray, clicks: np.ndarray,
                        lengths: np.ndarray) -> Tensor:
        """Graph twin of recompute_array, one gru-sequence node; gradients
        reach the GRU (and a learned table) through every unmasked step."""
        mask = self._masks(slates.shape[1], lengths)
        return self.cell.sequence(ad.constant(self.init_hidden(slates.shape[0])),
                                  self._inputs_graph(slates, clicks), mask)
