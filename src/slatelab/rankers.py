"""Rankers: turn an agent's action vector into a slate of item ids.

Each ranker fixes its own action geometry, so the agent's action dimension
must be chosen to match (see ``harness.Policy.action_dim``).  A GeMS latent
action is decoded by the slate VAE itself (``gems.decode_to_slate``, always
on a batch) and the softmax head's draws live with their agent, in
``reinforce.sample_slate``; ``harness.Policy.act`` dispatches to all of
them.  ``rank_topk`` and the short-term oracle rank every user of a batch
at once through :func:`top_k`, which partitions to each row's k-th score
and sorts only the k kept; ``rank_wknn`` ranks one user at a time, from a
shortlist of each slot's neighbours cut with a rounding margin.  All
rankers are deterministic given their inputs except the stochastic ones,
which take an explicit numpy Generator.
"""

from typing import Callable, List

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


def rank_wknn(action: np.ndarray, item_embeddings: np.ndarray,
              critic: Callable[[np.ndarray, np.ndarray], np.ndarray],
              belief: np.ndarray, slate_size: int, p: int) -> np.ndarray:
    """Fill the slate slot by slot from the p nearest neighbours of each
    slot's target vector, picking the candidate the critic scores highest.

    The action is read as slate_size stacked embedding-sized vectors. For
    each slot, the p unplaced items closest in Euclidean distance become
    candidates, and the critic scores them together, as in Dulac-Arnold et
    al. (2015): critic(belief, trials) gets one row per candidate [m, k*e],
    the partial slate with that candidate placed (the chosen items'
    embeddings in slot order, zero-padded for slots not yet filled), and
    returns m scores.  The first highest score wins. The candidate set
    shrinks to the remaining count in late slots when p exceeds it; with a
    single candidate (p == 1 in particular) the critic is never called.

    Each slot ranks a shortlist, not every unplaced item: those whose
    expanded squared distance |x|^2 - 2 x.t + |t|^2 (one product per call)
    is within twice a float64 rounding margin of the m-th smallest.  The
    direct ((x - t)**2).sum() orders it with a stable sort, so candidates,
    their order (ties to the lower id) and critic rows equal a full sort's.
    """
    emb = np.asarray(item_embeddings, dtype=np.float64)
    n, e = emb.shape
    action = np.asarray(action, dtype=np.float64).ravel()
    if action.size != slate_size * e:
        raise ValueError(f"action must have {slate_size * e} dims, got {action.size}")
    if slate_size > n:
        raise ValueError(f"slate_size={slate_size} exceeds the {n} available items")
    if p <= 0:
        raise ValueError("p must be positive")
    if p > n:
        raise ValueError(f"p={p} exceeds the {n} available items")
    if not np.isfinite(action).all():
        raise ValueError("action must be finite")
    targets = action.reshape(slate_size, e)
    x2 = np.einsum("ij,ij->i", emb, emb)
    t2 = np.einsum("ij,ij->i", targets, targets)
    expanded = x2 - 2.0 * (targets @ emb.T) + t2[:, None]
    # |expanded - direct| <= (2e + 4) eps (|x|^2 + |t|^2) to first order; twice that.
    margin = 2.0 * (2 * e + 4) * np.finfo(np.float64).eps * (x2.max() + t2)
    chosen: List[int] = []
    partial = np.zeros(slate_size * e, dtype=np.float64)
    for s in range(slate_size):
        d = expanded[s]
        d[chosen] = np.inf
        m = min(p, n - s)
        short = np.flatnonzero(d <= np.partition(d, m - 1)[m - 1] + 2.0 * margin[s])
        d2 = ((emb[short] - targets[s]) ** 2).sum(axis=1)
        # short is ascending, so a stable sort breaks ties by lower id.
        near = short[np.argsort(d2, kind="stable")[:m]]
        if near.size == 1:
            pick = int(near[0])
        else:
            trials = np.tile(partial, (near.size, 1))
            trials[:, s * e:(s + 1) * e] = emb[near]
            pick = int(near[np.argmax(critic(belief, trials))])
        partial[s * e:(s + 1) * e] = emb[pick]
        chosen.append(pick)
    return np.asarray(chosen, dtype=np.int64)


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
