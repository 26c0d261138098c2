"""Independent reference implementations used as test oracles.

Everything here is deliberately written without importing the library's own
numerics (beyond data containers), so a bug in the package cannot hide in
its own test oracle.  A few exceptions lean on the library's autodiff
helpers or networks.  :func:`reference_gems_loss` is the GeMS loss built from the
unfused autodiff primitives, the reference that the fused
slot-reconstruction op must match bit for bit, and
:func:`reference_decode_logits` is the acting decoder's full [n, k,
num_items] logits, whose argmax the blocked ``decode_to_slate`` must match
bit for bit; it runs the library's decoder network.  :func:`reference_gru_window`
and :func:`reference_gru_sequence` are the batch-major, one-step-at-a-time
GRU window and its BPTT that the feature-major kernel replaced, kept as the
reference it must match to 1e-12.  :func:`freeze_mask_gru_window` is the
feature-major window kernel as it was before per-step resets replaced its
freeze mask: a right-aligned history restarted at its first real row must
reproduce its h_T bit for bit.  :func:`reference_rank_wknn` is the
Wolpertinger ranker as it was before the shortlist: every slot sorts all
unplaced items by their direct distance, and the shortlisted ranker must
pick the same items from the same critic rows, bit for bit;
:func:`one_user_critic` turns its one-user critic of trial rows into the
batched critic the ranker calls, and :func:`reference_wknn_critic` is the
acting critic as it was before its first layer was split, min(Q1, Q2) of
each concatenated belief and trial row.  :func:`step`
and the :class:`UserState` helpers are the one-user simulator as it was
before users were held as arrays; the lockstep ``Environment`` must
reproduce its clicks, embeddings and boredom counters bit for bit, so it
leans on the simulator's examination curve.  :func:`raw_embedding` is the
generative process one vector at a time, as it was before catalogs and
users were built as one stack; :func:`catalog_embeddings` builds a catalog
from it, and both must match the stacked build byte for byte.
:func:`epsilon_greedy_slate` is the logging policy as it was when an
explore slot drew with ``Generator.choice`` over the unplaced items; the
logger must give the same slates and leave every generator in the same
state, so it leans on the library's exact ``top_k``.  :func:`sample_negatives`
is MF's negative sampler with per-user clicked-item sets; the vectorised
sampler must draw the same items and leave its generator in the same state.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from slatelab import autodiff as ad
from slatelab.autodiff import Tensor, _check_finite, _node, _sigmoid
from slatelab.gems import GemsLossParts
from slatelab.rankers import top_k
from slatelab.simulator import ItemCatalog, SimConfig, examination_vector


def finite_difference_grads(store, loss_fn, h=1e-5):
    """Central finite differences of loss_fn() w.r.t. every store entry.

    loss_fn must recompute the loss from the store's current values; the
    store is perturbed in place and restored exactly.
    """
    grads = {}
    for name, p in store.items():
        flat = p.value.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_fn()
            flat[i] = orig - h
            f_minus = loss_fn()
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2.0 * h)
        grads[name] = g.reshape(p.value.shape)
    return grads


def max_relative_error(a, b, floor=1e-6):
    """Worst-case elementwise relative error with a small-magnitude floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def reference_adam_trajectory(w0, grad_fn, lr, steps, beta1=0.9, beta2=0.999,
                              epsilon=1e-8):
    """Scalar Adam loop straight from the published update equations."""
    w = float(w0)
    m = 0.0
    v = 0.0
    out = []
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + epsilon)
        out.append(w)
    return out


def mc_gaussian_kl(mu, sigma, num_samples, seed):
    """Monte Carlo estimate of KL(N(mu, diag sigma^2) || N(0, I))."""
    rng = np.random.default_rng(seed)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    z = mu + sigma * rng.standard_normal((num_samples, mu.size))
    log_q = -0.5 * (((z - mu) / sigma) ** 2 + np.log(2.0 * np.pi)) - np.log(sigma)
    log_p = -0.5 * (z**2 + np.log(2.0 * np.pi))
    return float(np.mean(np.sum(log_q - log_p, axis=1)))


def reference_gems_loss(model, slates, clicks, noise, frozen_table=None):
    """GeMS batch loss and its parts with the whole [b*k, num_items] item
    logits built: matmul against the constant item table, log_softmax over
    the catalogue, then pick of each slot's logged item.  Constants take the
    model's dtype."""
    cfg, dt = model.cfg, model.dtype
    b, k = slates.shape
    e = cfg.item_embed_dim
    mu, log_sigma = model.encode_graph(slates, clicks)
    sigma = ad.exp(log_sigma)
    z = ad.add(mu, ad.mul(sigma, ad.constant(np.asarray(noise, dt))))
    out = ad.reshape(model.decoder(z), (b, k, e + 1))
    recon = ad.reshape(out[:, :, :e], (b * k, e))
    click_logits = out[:, :, e]
    table = model.item_table() if frozen_table is None else frozen_table
    item_logits = ad.matmul(recon, ad.constant(np.ascontiguousarray(table.T)))
    picked = ad.pick(ad.log_softmax(item_logits), slates.reshape(-1))
    slate_nll = ad.scale(ad.sum_(picked), -1.0 / b)

    c = ad.constant(np.asarray(clicks, dtype=dt))
    bce = ad.add(ad.softplus(click_logits), ad.scale(ad.mul(c, click_logits), -1.0))
    click_nll = ad.scale(ad.sum_(bce), 1.0 / b)

    per = ad.add(ad.add(ad.square(sigma), ad.square(mu)),
                 ad.add(ad.scale(log_sigma, -2.0), ad.constant(dt.type(-1.0))))
    kl = ad.scale(ad.sum_(per), 0.5 / b)

    total = ad.add(ad.add(slate_nll, ad.scale(click_nll, cfg.lam)),
                   ad.scale(kl, cfg.beta))
    parts = GemsLossParts(total=total.item(), slate_nll=slate_nll.item(),
                          click_nll=click_nll.item(), kl=kl.item())
    return total, parts


def reference_decode_logits(model, z):
    """GeMS's acting decoder as it was before blocked decoding: every item's
    logit per slot [n, k, num_items], one [k, e] @ [e, num_items] product
    per row of z.  Its argmax over the last axis is the reference slate."""
    z = np.atleast_2d(np.asarray(z, dtype=model.dtype))
    k, e = model.slate_size, model.cfg.item_embed_dim
    out = model.decoder.forward_array(z).reshape(z.shape[0], k, e + 1)
    return out[:, :, :e] @ model.item_table().T


def sample_negatives(pos_u, pos_i, num_items, ratio, rng):
    """MF's negative sampler as it was before its membership test was
    vectorised: a uniform item per negative, then each negative, in index
    order, redrawn while its user's clicked-item set holds it."""
    clicked = {}
    for u, i in zip(pos_u, pos_i):
        clicked.setdefault(int(u), set()).add(int(i))
    neg_u = np.repeat(pos_u, ratio)
    neg_i = rng.integers(0, num_items, size=neg_u.size)
    for idx in range(neg_i.size):
        while int(neg_i[idx]) in clicked[int(neg_u[idx])]:
            neg_i[idx] = rng.integers(0, num_items)
    return neg_u, neg_i


def reference_gru_window(h0: np.ndarray, x: np.ndarray, W: np.ndarray, U: np.ndarray,
                         b: np.ndarray, mask: Optional[np.ndarray] = None,
                         tape: Optional[list] = None) -> np.ndarray:
    """Value-only GRU over a window: h0 [B, H], x [B, T, in] -> h_T [B, H].

    Gates are fused column blocks (z, r, n) of W [in, 3H], U [H, 3H] and
    b [3H]:

        z = sigmoid(x Wz + h Uz + bz)
        r = sigmoid(x Wr + h Ur + br)
        n = tanh(x Wn + r * (h Un) + bn)
        h' = (1 - z) * h + z * n

    A [B, T] 0/1 mask keeps a row's state where it is 0:
    h_t = m * h' + (1 - m) * h_{t-1}.  Every step's pre-activations are
    checked for finiteness.  With a ``tape`` list, each step appends
    (h_prev, [z | r], n, h Un) for :func:`reference_gru_sequence`'s backward pass.
    """
    H = h0.shape[-1]
    h = h0
    for t in range(x.shape[1]):
        pre = x[:, t] @ W
        gh = h @ U
        pre[:, :2 * H] += gh[:, :2 * H]
        pre[:, :2 * H] += b[:2 * H]
        zr = _sigmoid(pre[:, :2 * H])
        z, r = zr[:, :H], zr[:, H:]
        gh_n = gh[:, 2 * H:]
        pre[:, 2 * H:] += r * gh_n
        pre[:, 2 * H:] += b[2 * H:]
        _check_finite(pre, "gru-sequence")
        n = np.tanh(pre[:, 2 * H:])
        h_new = (1.0 - z) * h + z * n
        if mask is not None:
            m = mask[:, t, None]
            h_new = m * h_new + (1.0 - m) * h
        if tape is not None:
            tape.append((h, zr, n, gh_n))
        h = h_new
    return h


def reference_gru_sequence(h0: Tensor, x: Tensor, W: Tensor, U: Tensor, b: Tensor,
                           mask: Optional[np.ndarray] = None) -> Tensor:
    """A whole GRU window (see :func:`reference_gru_window`) as one node.

    The VJP is masked backprop through time, accumulating the weight
    gradients one step at a time; each step's gate and state gradients are
    checked for finiteness.
    """
    if x.value.ndim != 3 or x.shape[2] != W.shape[0] or h0.shape[-1] != U.shape[0]:
        raise ValueError("gru_sequence input/hidden shape mismatch")
    tape = [] if any(p.needs_grad for p in (h0, x, W, U, b)) else None
    v = reference_gru_window(h0.value, x.value, W.value, U.value, b.value, mask, tape)

    def vjp(g):
        H = U.shape[0]
        xv, Wv, Uv = x.value, W.value, U.value
        dx = np.zeros_like(xv) if x.needs_grad else None
        dW = np.zeros_like(Wv) if W.needs_grad else None
        dU = np.zeros_like(Uv) if U.needs_grad else None
        db = np.zeros_like(b.value) if b.needs_grad else None
        dh = g
        for t in reversed(range(len(tape))):
            h_prev, zr, n, gh_n = tape[t]
            z, r = zr[:, :H], zr[:, H:]
            if mask is not None:
                m = mask[:, t, None]
                dh_keep = (1.0 - m) * dh
                dh = m * dh
            d = np.empty((g.shape[0], 3 * H))       # dL/d(pre-activations)
            d[:, :H] = dh * (n - h_prev) * (z * (1.0 - z))
            d[:, 2 * H:] = dh * z * (1.0 - n * n)
            d[:, H:2 * H] = d[:, 2 * H:] * gh_n * (r * (1.0 - r))
            _check_finite(d, "gru-sequence")
            if dW is not None:
                dW += xv[:, t].T @ d
            if db is not None:
                db += d.sum(axis=0)
            if dx is not None:
                dx[:, t] = d @ Wv.T
            d[:, 2 * H:] *= r                       # now dL/d(h U)
            if dU is not None:
                dU += h_prev.T @ d
            if t == 0 and not h0.needs_grad:
                break
            dh_prev = d @ Uv.T
            dh_prev += dh * (1.0 - z)
            if mask is not None:
                dh_prev += dh_keep
            _check_finite(dh_prev, "gru-sequence")
            dh = dh_prev
        return (dh if h0.needs_grad else None, dx, dW, dU, db)

    return _node("gru-sequence", v, (h0, x, W, U, b), vjp)


def freeze_mask_gru_window(h0: np.ndarray, x: np.ndarray, W: np.ndarray, U: np.ndarray,
                           b: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """h_T [B, H] of the feature-major window kernel with a [B, T] 0/1 mask
    that keeps a row's state where it is 0: h_t = h_{t-1} + m * z * (n - h_{t-1})."""
    B, T = x.shape[:2]
    H = h0.shape[-1]
    gates = np.matmul(W.T, x.transpose(1, 2, 0))
    gates += b[:, None]
    hs = np.empty((T + 1, H, B), gates.dtype)
    hs[0] = h0.T
    for t in range(T):
        h = hs[t]
        gh = U.T @ h
        zr = gates[t, :2 * H]
        zr += gh[:2 * H]
        _check_finite(zr, "gru-sequence")
        np.tanh(np.multiply(zr, 0.5, out=zr), out=zr)
        zr += 1.0
        zr *= 0.5
        n = gates[t, 2 * H:]
        n += zr[H:] * gh[2 * H:]
        _check_finite(n, "gru-sequence")
        np.tanh(n, out=n)
        h_new = np.subtract(n, h, out=hs[t + 1])
        h_new *= zr[:H]
        if mask is not None:
            h_new *= mask[:, t]
        h_new += h
    return hs[T].T.copy()


def reference_rank_wknn(action: np.ndarray, item_embeddings: np.ndarray,
                        critic: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        belief: np.ndarray, slate_size: int, p: int) -> np.ndarray:
    """Wolpertinger slate with a full stable sort of every unplaced item's
    direct squared distance per slot; ties go to the lower id."""
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


def one_user_critic(critic: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    """The batched wknn critic ``(beliefs [n, H], base [n, k*e], slot,
    candidates [n, m, e]) -> [n, m]`` that scores each user's trial rows
    [m, k*e] (its base with a candidate placed in slot) by one call of
    ``critic(belief, trials) -> [m]``, user by user."""
    def batched(beliefs, base, slot, candidates):
        n, m, e = candidates.shape
        scores = np.empty((n, m))
        for i in range(n):
            trials = np.tile(base[i], (m, 1))
            trials[:, slot * e:(slot + 1) * e] = candidates[i]
            scores[i] = critic(beliefs[i], trials)
        return scores
    return batched


def reference_wknn_critic(model, belief: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """min(Q1, Q2) [m] of a SAC model's critics on each row belief ‖ trials[j],
    in the model's dtype."""
    x = np.empty((len(trials), belief.size + trials.shape[1]), model.dtype)
    x[:, :belief.size], x[:, belief.size:] = belief, trials
    return np.minimum(model.q1.forward_array(x)[:, 0], model.q2.forward_array(x)[:, 0])


def epsilon_greedy_slate(scores: np.ndarray, epsilon: float, k: int,
                         rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Slates [n, k] for score rows [n, N], row i drawing from rngs[i].

    Fill each slot independently: uniform item with probability epsilon,
    otherwise the best not-yet-placed item by score (ties to the lower id).
    Placed items are excluded from both branches, so slates contain distinct
    items.  At most k - 1 items are placed before the last slot, so the
    greedy walk never passes a row's k-th best item.
    """
    num_items = scores.shape[1]
    best = top_k(scores, k).tolist()
    slates = np.empty((len(rngs), k), dtype=np.int64)
    for i, rng in enumerate(rngs):
        order = best[i]
        placed = np.zeros(num_items, dtype=bool)
        ptr = 0
        for j in range(k):
            if rng.random() < epsilon:
                choice = int(rng.choice(np.flatnonzero(~placed)))
            else:
                while placed[order[ptr]]:
                    ptr += 1
                choice = order[ptr]
            placed[choice] = True
            slates[i, j] = choice
    return slates


# --- one-user reference simulator -------------------------------------------------


def raw_embedding(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Diffuse generative process: topic propensities scale magnitude-clipped
    Gaussian blocks, then the full vector is normalized to unit L2."""
    w = rng.uniform(0.0, 1.0, size=cfg.num_topics)
    w /= w.sum()
    eps = rng.normal(0.0, cfg.component_stddev, size=(cfg.num_topics, cfg.topic_dim))
    blocks = w[:, None] * np.sign(eps) * np.minimum(np.abs(eps), 1.0)
    e = blocks.reshape(-1)
    return e / np.linalg.norm(e)


def catalog_embeddings(cfg: SimConfig, seed: int) -> np.ndarray:
    """Item embeddings [num_items, embed_dim], one item at a time."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    emb = np.stack([raw_embedding(cfg, rng) for _ in range(cfg.num_items)])
    if cfg.embedding_variant == "focused":
        emb = emb * emb
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return emb


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


def sample_user(cfg: SimConfig, rng: np.random.Generator) -> UserState:
    # Users always follow the diffuse process; only items get the focused variant.
    return UserState(base_embedding=raw_embedding(cfg, rng),
                     click_history=deque(maxlen=cfg.boredom_window))


def relevance(user: UserState, item_id: int, catalog: ItemCatalog, cfg: SimConfig) -> float:
    dot = float(catalog.embeddings[item_id] @ user.masked_embedding(cfg))
    return float(_sigmoid(np.asarray((dot - cfg.sigmoid_offset) * cfg.sigmoid_slope)))


def relevance_scores(user: UserState, catalog: ItemCatalog, cfg: SimConfig) -> np.ndarray:
    """Relevance of every catalog item for the user's current masked state."""
    dots = catalog.embeddings @ user.masked_embedding(cfg)
    return _sigmoid((dots - cfg.sigmoid_offset) * cfg.sigmoid_slope)


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
