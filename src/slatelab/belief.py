"""Recurrent belief state over observed slates and clicks.

A GRU folds the per-turn observation, the concatenation over slate slots
of [item embedding ‖ click bit], into a fixed-size hidden vector that
agents consume as their state.  Item embeddings come from a frozen table
(the slate VAE's, matrix factorization's, or the simulator's disclosed
one) or, for agents without a pretrained table, from a table learned
jointly with the rest of the network.

A belief is a plain [H] array, or [n, H] for n lockstep episodes: acting
steps it one turn at a time with :meth:`BeliefEncoder.step_hidden`.  Training
recomputes it over runs of consecutive turns [S, T, k] with resets (True on
rows that start an episode): the GRU recomputes every row's state from a
given start state (zero for a REINFORCE episode, the stored acting belief for
SAC's replay), restarting from zero at each reset.  It runs the kernel that
acting steps, so while the weights stay fixed it reproduces the acting
beliefs (bit for bit over a REINFORCE episode).  :func:`prev_beliefs` and
:func:`next_beliefs` read a run's pre- and post-action beliefs off those
states.  :meth:`BeliefEncoder._inputs` builds a run's GRU inputs once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import GruCell
from .optim import ParameterStore
from .simulator import check_item_ids

ITEM_SOURCES = ("gems-table", "mf", "ideal", "learned")


@dataclass
class BeliefConfig:
    belief_dim: int = 64
    item_source: str = "gems-table"

    def __post_init__(self):
        if self.belief_dim <= 0:
            raise ValueError("belief_dim must be positive")
        if self.item_source not in ITEM_SOURCES:
            raise ValueError(f"unknown item source {self.item_source!r}")


def prev_beliefs(h0: np.ndarray, states: Tensor, resets: np.ndarray, count: int) -> Tensor:
    """Pre-action beliefs [count, H] of [S, L] runs' turns, run-major: a run's
    start state h0 [S, H] (a constant) for its first turn and the state after
    the row before for the rest, or zero where the turn starts an episode.
    ``states`` [S, L, H] may stop one row short of ``resets``."""
    runs, run = resets.shape
    dtype = states.value.dtype
    start = ad.constant(np.asarray(h0, dtype)[:, None, :])
    keep = ad.constant(np.logical_not(resets[..., None]).astype(dtype))
    prev = ad.mul(ad.concat([start, states[:, :run - 1]], axis=1), keep)
    prev = ad.reshape(prev, (runs * run, states.shape[-1]))
    return prev if count == runs * run else prev[:count]


def next_beliefs(states: np.ndarray, count: int) -> np.ndarray:
    """Post-action beliefs [count, H] of the turns of :func:`prev_beliefs`."""
    return states.reshape(-1, states.shape[-1])[:count]


class BeliefEncoder:
    """One GRU cell plus the item-embedding lookup feeding it.

    Parameters live in the caller's store (shared with the critics, so
    one backward/optimizer pass trains both).  With item_source
    "learned" the embedding table is a trainable entry of that store;
    otherwise the given table is kept frozen outside the store.  The
    table, GRU inputs and hidden states take the store's dtype.
    """

    def __init__(self, store: ParameterStore, cfg: BeliefConfig, slate_size: int,
                 item_embeddings: np.ndarray, rng: np.random.Generator):
        table = np.asarray(item_embeddings, dtype=store.dtype)
        if table.ndim != 2:
            raise ValueError("item embedding table must be 2-D")
        self.cfg = cfg
        self.slate_size = int(slate_size)
        self.num_items = table.shape[0]
        self.item_dim = table.shape[1]
        self.store = store
        self.dtype = store.dtype
        self.trainable_table = cfg.item_source == "learned"
        if self.trainable_table:
            store.add("belief.items", table.copy())
            self._table = None
        else:
            self._table = table.copy()
        self.input_dim = self.slate_size * (self.item_dim + 1)
        self.cell = GruCell(store, "belief.gru", self.input_dim, cfg.belief_dim, rng)

    @property
    def belief_dim(self) -> int:
        return self.cfg.belief_dim

    def table_value(self) -> np.ndarray:
        if self.trainable_table:
            return self.store["belief.items"].value
        return self._table

    def _inputs(self, slates: np.ndarray, clicks: np.ndarray) -> Tensor:
        """[..., k] ids and clicks -> [..., k*(e+1)] per-slot [emb ‖ click] rows;
        one constant node unless a learned table takes a gradient."""
        ids = check_item_ids(slates, self.num_items)
        cl = np.asarray(clicks, dtype=self.dtype)[..., None]
        shape = (*ids.shape[:-1], self.input_dim)
        if not (self.trainable_table and ad.grad_enabled()):
            return ad.constant(np.concatenate([self.table_value()[ids], cl], axis=-1)
                               .reshape(shape))
        emb = ad.reshape(ad.gather_rows(self.store.tensor("belief.items"),
                                        ids.reshape(-1)), (*ids.shape, self.item_dim))
        return ad.reshape(ad.concat([emb, ad.constant(cl)], axis=-1), shape)

    def _input_values(self, slates: np.ndarray, clicks: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return self._inputs(slates, clicks).value

    def init_hidden(self, batch: int) -> np.ndarray:
        return np.zeros((batch, self.cfg.belief_dim), self.dtype)

    def step_hidden(self, hidden: np.ndarray, slates: np.ndarray,
                    clicks: np.ndarray) -> np.ndarray:
        """One GRU step for a batch of independent episodes; no graph."""
        x = self._input_values(slates, clicks)
        return self.cell.sequence_array(hidden, x[:, None, :])[:, 0]

    def update_belief(self, hidden: np.ndarray, slate, clicks) -> np.ndarray:
        """:meth:`step_hidden` for one episode: [H] belief, [k] slate and clicks."""
        return self.step_hidden(np.asarray(hidden)[None], np.asarray(slate)[None],
                                np.asarray(clicks)[None])[0]

    def recompute_array(self, h0: np.ndarray, x: np.ndarray,
                        resets: np.ndarray) -> np.ndarray:
        """Every row's belief [B, T, H] over the :meth:`_inputs` values of
        [B, T, k] runs, from h0 [B, H] at the first row and from zero at
        each reset."""
        return self.cell.sequence_array(np.asarray(h0, self.dtype), x, resets)

    def recompute_graph(self, h0: np.ndarray, x: Tensor, resets: np.ndarray) -> Tensor:
        """recompute_array over an :meth:`_inputs` node as one gru-sequence
        node; gradients reach the GRU (and a learned table) back to a reset
        or the first row, and none reaches the constant h0."""
        return self.cell.sequence(ad.constant(np.asarray(h0, self.dtype)), x, resets)
