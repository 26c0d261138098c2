"""Rankers: turn an agent's action vector into a slate of item ids.

Each ranker fixes its own action geometry, so the agent's action dimension
must be chosen to match (see ``harness.Policy.action_dim``).  A GeMS latent
action is decoded by the slate VAE itself (``gems.decode_to_slate``, always
on a batch) and the softmax head's draws live with their agent, in
``reinforce.sample_slate``; ``harness.Policy.act`` dispatches to all of
them.  All rankers are deterministic given their inputs except the
stochastic ones, which take an explicit numpy Generator.
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
    """
    emb = np.asarray(item_embeddings, dtype=np.float64)
    n, e = emb.shape
    action = np.asarray(action, dtype=np.float64).ravel()
    if action.size != slate_size * e:
        raise ValueError(f"action must have {slate_size * e} dims, got {action.size}")
    if p <= 0:
        raise ValueError("p must be positive")
    if p > n:
        raise ValueError(f"p={p} exceeds the {n} available items")
    targets = action.reshape(slate_size, e)
    chosen: List[int] = []
    partial = np.zeros(slate_size * e, dtype=np.float64)
    mask = np.ones(n, dtype=bool)
    ids = np.arange(n)
    for s in range(slate_size):
        remaining = ids[mask]
        d2 = ((emb[remaining] - targets[s]) ** 2).sum(axis=1)
        # remaining is ascending, so a stable sort breaks ties by lower id.
        near = remaining[np.argsort(d2, kind="stable")[:min(p, remaining.size)]]
        if near.size == 1:
            pick = int(near[0])
        else:
            trials = np.tile(partial, (near.size, 1))
            trials[:, s * e:(s + 1) * e] = emb[near]
            pick = int(near[np.argmax(critic(belief, trials))])
        partial[s * e:(s + 1) * e] = emb[pick]
        chosen.append(pick)
        mask[pick] = False
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
