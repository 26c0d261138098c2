"""Rankers: turn an agent's action vector into a slate of item ids.

Each ranker fixes its own action geometry, so the agent's action dimension
must be chosen to match (see ``harness.Policy.action_dim``).  A GeMS latent
action is decoded by the slate VAE itself (``gems.decode_to_slate``, always
on a batch) and the softmax head's draws live with their agent, in
``reinforce.sample_slate``; ``harness.Policy.act`` dispatches to all of
them.  ``rank_wknn`` ranks only a shortlist of each slot's neighbours, cut
with a rounding margin.  All rankers are deterministic given their inputs
except the stochastic ones, which take an explicit numpy Generator.
"""

from typing import Callable, List

import numpy as np


def rank_topk(action: np.ndarray, item_embeddings: np.ndarray,
              slate_size: int) -> np.ndarray:
    """The k distinct items with the highest dot product against the action,
    in descending score order; score ties go to the lower item id."""
    emb = np.asarray(item_embeddings, dtype=np.float64)
    action = np.asarray(action, dtype=np.float64).ravel()
    if action.size != emb.shape[1]:
        raise ValueError(f"action must have {emb.shape[1]} dims, got {action.size}")
    if slate_size > len(emb):
        raise ValueError("slate_size exceeds catalog size")
    if not np.isfinite(action).all():
        raise ValueError("action must be finite")
    scores = emb @ action
    # Stable sort on the negated scores keeps ascending ids among ties.
    order = np.argsort(-scores, kind="stable")
    return order[:slate_size].astype(np.int64)


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
    """Top-k items by the user's current true (masked) relevance, descending.

    Requires an environment constructed with disclosed=True; greedy per turn,
    with no regard for boredom it may trigger later.
    """
    rel = env.disclosed_relevance()
    order = np.argsort(-rel, kind="stable")
    return order[:slate_size].astype(np.int64)
