"""Rankers: turn an agent's action vector into a slate of item ids.

Each ranker fixes its own action geometry, so the agent's action dimension
must be chosen to match (see ``harness.Policy.action_dim``).  A GeMS latent
action is decoded by the slate VAE itself (``gems.decode_to_slate``, always
on a batch) and the softmax head's draws live with their agent, in
``reinforce.sample_slate``; ``harness.Policy.act`` dispatches to all of
them.  Every ranker but the random one serves a whole batch of users at
once.  ``rank_topk`` and the short-term oracle go through :func:`top_k`,
which partitions to each row's k-th score and sorts only the k kept.
``rank_wknn`` cuts every user's neighbour shortlists once, with a rounding
margin, then fills the slates slot by slot, with one critic call per slot
for all users' candidates.  All rankers are deterministic given their
inputs except the stochastic ones, which take an explicit numpy Generator.
"""

from typing import Callable

import numpy as np


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices [..., k] of the k highest of each row of scores [..., N], in
    descending score order with ties to the lower index: bit for bit
    ``np.argsort(-scores, kind="stable")[..., :k]``.

    A partition finds each row's k-th highest value; only the k indices
    above it, plus the lowest-indexed ties at it, are then stably sorted.
    NaN scores raise ValueError, wherever they would rank.
    """
    scores = np.asarray(scores)
    num = scores.shape[-1]
    if not 1 <= k <= num:
        raise ValueError(f"k={k} must lie in 1..{num}")
    rows = scores.reshape(-1, num)
    if rows.dtype.kind in "fc" and np.isnan(rows).any():
        raise ValueError("scores must not contain NaN")
    kth = np.partition(rows, num - k, axis=1)[:, num - k, None]
    keep = rows >= kth
    flat = np.flatnonzero(keep)
    if flat.size != len(rows) * k:
        # Ties at the k-th value: keep only the lowest-indexed ones needed.
        tied = rows == kth
        need = k - (rows > kth).sum(axis=1, keepdims=True)
        keep &= ~tied | (np.cumsum(tied, axis=1) <= need)
        flat = np.flatnonzero(keep)
    flat = flat.reshape(-1, k)
    # flat ascends in each row, so the stable sort breaks score ties by lower id.
    order = np.argsort(-rows.reshape(-1)[flat], axis=1, kind="stable")
    ids = flat[np.arange(len(flat))[:, None], order] % num
    return ids.reshape(*scores.shape[:-1], k)


def rank_topk(actions: np.ndarray, item_embeddings: np.ndarray,
              slate_size: int) -> np.ndarray:
    """The k distinct items with the highest dot product against each action
    [..., d], in descending score order; score ties go to the lower item id.
    Each action's scores are one matrix-vector product, as for a lone action."""
    emb = np.asarray(item_embeddings, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if actions.ndim == 0 or actions.shape[-1] != emb.shape[1]:
        raise ValueError(f"action must have {emb.shape[1]} dims, got shape {actions.shape}")
    if slate_size > len(emb):
        raise ValueError("slate_size exceeds catalog size")
    if not np.isfinite(actions).all():
        raise ValueError("action must be finite")
    rows = actions.reshape(-1, emb.shape[1])
    scores = np.matmul(emb[None], rows[:, :, None])[..., 0]
    return top_k(scores, slate_size).reshape(*actions.shape[:-1], slate_size)


def rank_wknn(actions: np.ndarray, item_embeddings: np.ndarray,
              critic: Callable[[np.ndarray, np.ndarray, int, np.ndarray], np.ndarray],
              beliefs: np.ndarray, slate_size: int, p: int) -> np.ndarray:
    """Fill each user's slate slot by slot from the p nearest neighbours of
    the slot's target vector, picking the candidate the critic scores
    highest: slates [..., k] for actions [..., k*e] and beliefs [..., H].

    Each action is read as slate_size stacked embedding-sized vectors.  At
    each slot, every user's p unplaced items closest in Euclidean distance
    become candidates, and the critic scores them together, as in
    Dulac-Arnold et al. (2015): ``critic(beliefs [n, H], base [n, k*e],
    slot, candidates [n, m, e])`` returns scores [n, m], where a candidate's
    row is its user's partial slate ``base`` (the chosen items' embeddings
    in slot order, zero-padded for the slots not yet filled) with the
    candidate's embedding placed in ``slot``.  The first highest score
    wins.  The candidate count m shrinks to the remaining count in late
    slots when p exceeds it; with a single candidate (p == 1 in particular)
    the critic is never called.

    Each (user, slot) pair shortlists its c = min(p + k - 1, N) nearest
    items once: those whose expanded squared distance |x|^2 - 2 x.t + |t|^2
    (one product per call) is within twice a float64 rounding margin of the
    c-th smallest, ordered by the direct ((x - t)**2).sum() with a stable
    sort.  At most k - 1 items are placed before any slot, so a slot's
    candidates, the first m unplaced items of its list, their order (ties
    to the lower id) and critic rows equal a full sort's.
    """
    emb = np.asarray(item_embeddings, dtype=np.float64)
    num, e = emb.shape
    actions = np.asarray(actions, dtype=np.float64)
    k = slate_size
    if actions.ndim == 0 or actions.shape[-1] != k * e:
        raise ValueError(f"action must have {k * e} dims, got shape {actions.shape}")
    if k > num:
        raise ValueError(f"slate_size={k} exceeds the {num} available items")
    if p <= 0:
        raise ValueError("p must be positive")
    if p > num:
        raise ValueError(f"p={p} exceeds the {num} available items")
    if not np.isfinite(actions).all():
        raise ValueError("action must be finite")
    lead = actions.shape[:-1]
    targets = actions.reshape(-1, e)           # [n*k, e], user-major
    n = len(targets) // k
    beliefs = np.asarray(beliefs)
    beliefs = beliefs.reshape(n, beliefs.shape[-1])

    c = min(p + k - 1, num)
    x2 = np.einsum("ij,ij->i", emb, emb)
    t2 = np.einsum("ij,ij->i", targets, targets)
    expanded = targets @ emb.T
    expanded *= -2.0
    expanded += x2
    expanded += t2[:, None]
    # |expanded - direct| <= (2e + 4) eps (|x|^2 + |t|^2) to first order; twice that.
    margin = 2.0 * (2 * e + 4) * np.finfo(np.float64).eps * (x2.max() + t2)
    cut = np.partition(expanded, c - 1, axis=1)[:, c - 1] + 2.0 * margin
    rows, items = np.divmod(np.flatnonzero(expanded <= cut[:, None]), num)
    d2 = ((emb[items] - targets[rows]) ** 2).sum(axis=1)
    # items ascend within each row, so the stable sort breaks ties by lower id.
    order = np.lexsort((d2, rows))
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows[order])
    near = items[order][rank < c].reshape(n, k, c)

    slates = np.empty((n, k), dtype=np.int64)
    base = np.zeros((n, k * e), dtype=np.float64)
    users = np.arange(n)
    for s in range(k):
        m = min(p, num - s)
        ranked = near[:, s]
        unplaced = (ranked[:, :, None] != slates[:, None, :s]).all(axis=2)
        cands = ranked[unplaced & (unplaced.cumsum(axis=1) <= m)].reshape(n, m)
        if m == 1:
            pick = cands[:, 0]
        else:
            pick = cands[users, critic(beliefs, base, s, emb[cands]).argmax(axis=1)]
        slates[:, s] = pick
        base[:, s * e:(s + 1) * e] = emb[pick]
    return slates.reshape(*lead, k)


def rank_random(num_items: int, slate_size: int,
                rng: np.random.Generator) -> np.ndarray:
    """k distinct items drawn uniformly without replacement."""
    if slate_size > num_items:
        raise ValueError("slate_size exceeds catalog size")
    return rng.choice(num_items, size=slate_size, replace=False).astype(np.int64)


def rank_short_term_oracle(env, slate_size: int) -> np.ndarray:
    """Top-k items [n, k] by each user's current true (masked) relevance,
    descending.

    Requires an environment constructed with disclosed=True; greedy per turn,
    with no regard for boredom it may trigger later.
    """
    return top_k(env.disclosed_relevance(), slate_size)
