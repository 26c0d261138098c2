"""Logistic matrix factorization over logged clicks.

One latent vector per logged trajectory (users are episodic and anonymous)
and a global item matrix, trained by mini-batch SGD on binary cross-entropy
with uniformly sampled negatives.  Only the item matrix is kept: it feeds
the nearest-neighbor rankers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import rng as rngmod
from .autodiff import _sigmoid
from .logged import LoggedDataset


@dataclass
class MfConfig:
    embed_dim: int = 20
    learning_rate: float = 0.001
    epochs: int = 10
    negatives_per_positive: int = 1
    batch_size: int = 256
    init_scale: float = 0.1

    def __post_init__(self):
        for name in ("embed_dim", "epochs", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")


@dataclass
class MfResult:
    item_embeddings: np.ndarray   # [num_items, embed_dim]
    epoch_losses: List[float]     # mean BCE: [at init, after epoch 1, ...]


def _positives(ds: LoggedDataset):
    """(user, item) pair per click event, plus the sorted distinct pair
    codes ``user * num_items + item`` of the clicked pairs."""
    n, t, k = ds.slates.shape
    users = np.repeat(np.arange(n), t * k)
    items = ds.slates.reshape(-1).astype(np.int64)
    mask = ds.clicks.reshape(-1).astype(bool)
    pos_u, pos_i = users[mask], items[mask]
    return pos_u, pos_i, np.unique(pos_u * ds.num_items + pos_i)


def _sample_negatives(pos_u, codes, num_items, ratio, rng):
    """Uniform items for each positive's user; the clicked ones are found in
    one pass over the sorted codes, then redrawn one at a time, in index
    order, until the user did not click them."""
    neg_u = np.repeat(pos_u, ratio)
    neg_i = rng.integers(0, num_items, size=neg_u.size)
    q = neg_u * num_items + neg_i
    rejected = codes[np.minimum(np.searchsorted(codes, q), codes.size - 1)] == q
    clicked = set(codes.tolist())
    for idx in np.flatnonzero(rejected):
        base = int(neg_u[idx]) * num_items
        item = int(rng.integers(0, num_items))
        while base + item in clicked:
            item = int(rng.integers(0, num_items))
        neg_i[idx] = item
    return neg_u, neg_i


def _mean_bce(U, V, users, items, labels):
    logits = np.einsum("ij,ij->i", U[users], V[items])
    # softplus(logit) - label*logit, evaluated stably
    return float(np.mean(np.maximum(logits, 0.0) - labels * logits
                         + np.log1p(np.exp(-np.abs(logits)))))


def fit_mf(ds: LoggedDataset, cfg: MfConfig, seed: int) -> MfResult:
    if not ds.clicks.any():
        raise ValueError("dataset contains no clicks")
    pos_u, pos_i, codes = _positives(ds)
    n_users = ds.num_trajectories

    init_rng = rngmod.substream(seed, "mf-init")
    U = init_rng.normal(0.0, cfg.init_scale, size=(n_users, cfg.embed_dim))
    V = init_rng.normal(0.0, cfg.init_scale, size=(ds.num_items, cfg.embed_dim))

    sample_rng = rngmod.substream(seed, "mf-sample")
    # Fixed negative set for the loss monitor so epochs are comparable.
    mon_u, mon_i = _sample_negatives(pos_u, codes, ds.num_items,
                                     cfg.negatives_per_positive, sample_rng)
    all_users = np.concatenate([pos_u, mon_u])
    all_items = np.concatenate([pos_i, mon_i])
    all_labels = np.concatenate([np.ones(pos_u.size), np.zeros(mon_u.size)])
    losses = [_mean_bce(U, V, all_users, all_items, all_labels)]

    for _ in range(cfg.epochs):
        neg_u, neg_i = _sample_negatives(pos_u, codes, ds.num_items,
                                         cfg.negatives_per_positive, sample_rng)
        users = np.concatenate([pos_u, neg_u])
        items = np.concatenate([pos_i, neg_i])
        labels = np.concatenate([np.ones(pos_u.size), np.zeros(neg_u.size)])
        perm = sample_rng.permutation(users.size)
        users, items, labels = users[perm], items[perm], labels[perm]
        for start in range(0, users.size, cfg.batch_size):
            bu = users[start:start + cfg.batch_size]
            bi = items[start:start + cfg.batch_size]
            by = labels[start:start + cfg.batch_size]
            logits = np.einsum("ij,ij->i", U[bu], V[bi])
            err = _sigmoid(logits) - by
            grad_u = err[:, None] * V[bi]
            grad_v = err[:, None] * U[bu]
            np.subtract.at(U, bu, cfg.learning_rate * grad_u)
            np.subtract.at(V, bi, cfg.learning_rate * grad_v)
        losses.append(_mean_bce(U, V, all_users, all_items, all_labels))

    if not np.isfinite(V).all():
        raise ArithmeticError("matrix factorization diverged")
    return MfResult(item_embeddings=V, epoch_losses=losses)


def train_mf(ds: LoggedDataset, cfg: MfConfig, seed: int) -> np.ndarray:
    """Item embedding matrix trained from logged clicks."""
    return fit_mf(ds, cfg, seed).item_embeddings
