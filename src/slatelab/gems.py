"""Slate+click variational auto-encoder producing the latent proto-action space.

The encoder maps a slate with its clicks to a diagonal Gaussian over a
d-dimensional latent; the decoder maps a latent back to per-slot item logits
(dot products of reconstructed embeddings against a stop-gradient copy of
the learnable item table) and per-slot click probabilities.  Training
scores each slot's logged item with one fused ``softmax_pick`` node, so
the [b*k, num_items] logits are never built.  After pretraining on logged
data, the frozen decoder turns agent proto-actions into slates.

The model computes in float32: its store, its graphs, pretraining,
:func:`encode` and the acting decoder, which takes SAC's float32 actions
without a cast.  Initial draws are float64 draws cast by the store, and
checkpoints hold float64 values, which load into a float32 model.
Tests that need float64 precision (finite differences, 1e-10
identities) build float64 models.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import autodiff as ad
from . import rng as rngmod
from .autodiff import Tensor, backward
from .checkpoint import load_checkpoint, save_checkpoint
from .logged import LoggedDataset
from .nn import Mlp
from .optim import AdamConfig, ParameterStore, adam_step
from .rankers import as_rows
from .simulator import check_item_ids

log = logging.getLogger(__name__)


@dataclass
class GemsConfig:
    latent_dim: int = 16
    beta: float = 1.0
    lam: float = 0.5               # click reconstruction weight
    item_embed_dim: int = 8
    hidden: Tuple[int, ...] = (256, 256)
    epochs: int = 10
    batch_size: int = 256
    learning_rate: float = 0.001

    def __post_init__(self):
        for name in ("latent_dim", "item_embed_dim", "epochs", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if self.beta < 0 or self.lam < 0:
            raise ValueError("beta and lambda must be non-negative")
        self.hidden = tuple(self.hidden)


@dataclass
class LatentSample:
    mu: np.ndarray
    log_sigma: np.ndarray
    z: np.ndarray


@dataclass
class GemsLossParts:
    total: float
    slate_nll: float
    click_nll: float
    kl: float          # unweighted closed-form value


class GemsModel:
    """Item table + encoder/decoder MLPs in one parameter store."""

    def __init__(self, cfg: GemsConfig, num_items: int, slate_size: int, seed: int,
                 dtype=np.float32):
        self.cfg = cfg
        self.num_items = num_items
        self.slate_size = slate_size
        self.store = ParameterStore(dtype)
        self.dtype = self.store.dtype
        rng = rngmod.substream(seed, "gems-init")
        self.store.add("items.E",
                       rng.normal(0.0, 0.01, size=(num_items, cfg.item_embed_dim)))
        width = slate_size * (cfg.item_embed_dim + 1)
        sizes_enc = [width, *cfg.hidden, 2 * cfg.latent_dim]
        sizes_dec = [cfg.latent_dim, *cfg.hidden, width]
        self.encoder = Mlp(self.store, "enc", sizes_enc, rng, activation="tanh")
        self.decoder = Mlp(self.store, "dec", sizes_dec, rng, activation="tanh")

    def item_table(self) -> np.ndarray:
        return self.store["items.E"].value

    def encode_graph(self, slates: np.ndarray, clicks: np.ndarray):
        """Posterior (mu, log_sigma) graph nodes, each [b, d]; the encoder's
        one definition, also run by :func:`encode` under ``no_grad``."""
        slates = check_item_ids(slates, self.num_items)
        b, k = slates.shape
        e = self.cfg.item_embed_dim
        d = self.cfg.latent_dim
        emb = ad.gather_rows(self.store.tensor("items.E"), slates.reshape(-1))
        emb = ad.reshape(emb, (b, k, e))
        cl = ad.constant(np.asarray(clicks, dtype=self.dtype).reshape(b, k, 1))
        x = ad.reshape(ad.concat([emb, cl], axis=-1), (b, k * (e + 1)))
        out = self.encoder(x)
        return out[:, :d], out[:, d:]

    def decode_graph(self, z: Tensor, slates: np.ndarray,
                     frozen_table: Optional[np.ndarray] = None):
        """Decoder half of the graph: the log-probability of each slot's
        item in ``slates`` [b, k], flattened to [b*k], and click logits [b, k].

        The item logits always treat the item table as a constant; passing
        an explicit frozen_table snapshot lets a finite-difference oracle
        perturb the live table while holding the frozen copy fixed, exactly
        mirroring the stop-gradient semantics."""
        b = z.shape[0]
        k, e = self.slate_size, self.cfg.item_embed_dim
        out = ad.reshape(self.decoder(z), (b, k, e + 1))
        recon = ad.reshape(out[:, :, :e], (b * k, e))
        click_logits = out[:, :, e]
        table = self.item_table() if frozen_table is None else frozen_table
        targets = np.asarray(slates).reshape(-1)
        return ad.softmax_pick(recon, table, targets), click_logits


def encode(model: GemsModel, slates, clicks, noise: Optional[np.ndarray] = None) -> LatentSample:
    """Posterior parameters and a reparameterized sample; noise=None means
    the zero-noise point, so z equals mu."""
    with ad.no_grad():
        mu, log_sigma = model.encode_graph(slates, clicks)
    mu, log_sigma = mu.value, log_sigma.value
    if noise is None:
        z = mu.copy()
    else:
        z = mu + np.exp(log_sigma) * np.asarray(noise, mu.dtype)
    return LatentSample(mu=mu, log_sigma=log_sigma, z=z)


# Slot rows per decode block; 64 ran faster than 32 or 128 at 1000 items.
# On OpenBLAS a float32 product row rounds the same whether it shares the
# call with 2 or 1200 rows (checked at K = 4, 8, 16 and 6 to 2000 items),
# but a one-row product runs another kernel and can round apart, so the
# last block takes the remainder rows.  Float64 rows can round apart by
# shape (seen at 300 items), so there only the argmax is expected to agree.
_DECODE_BLOCK = 64


def decode_to_slate(model: GemsModel, z: np.ndarray) -> np.ndarray:
    """Most likely item per slot [n, k] of latents z [n, d]; ties resolved to
    the lowest item id.

    The decoder runs once over every row of z.  Its item part, viewed as
    [n*k, e] slot rows, is scored against the item table in blocks of
    ``_DECODE_BLOCK`` rows written into one reused buffer, and each block is
    reduced to its argmax before the next is formed, so the [n, k,
    num_items] logits are never built."""
    z = as_rows(z, model.cfg.latent_dim, model.dtype, "z")
    k, e = model.slate_size, model.cfg.item_embed_dim
    rows = z.shape[0] * k
    recon = model.decoder.forward_array(z).reshape(rows, e + 1)[:, :e]
    table_t = np.ascontiguousarray(model.item_table().T)
    blocks = ad._row_blocks(rows, _DECODE_BLOCK)
    buf = np.empty((blocks[-1][1] - blocks[-1][0], table_t.shape[1]), model.dtype)
    slate = np.empty(rows, np.intp)
    for lo, hi in blocks:
        logits = np.matmul(recon[lo:hi], table_t, out=buf[:hi - lo])
        logits.argmax(axis=1, out=slate[lo:hi])
    return slate.reshape(-1, k).astype(np.int64, copy=False)


def kl_closed_form(mu: np.ndarray, log_sigma: np.ndarray) -> float:
    """KL(q || N(0, I)) summed over dimensions, averaged over the batch."""
    per = 0.5 * (np.exp(2.0 * log_sigma) + mu**2 - 2.0 * log_sigma - 1.0)
    return float(np.mean(per.sum(axis=-1)))


def gems_loss(model: GemsModel, slates: np.ndarray, clicks: np.ndarray,
              noise: np.ndarray, frozen_table: Optional[np.ndarray] = None):
    """Batch-mean training loss as a graph tensor plus reported components.

    total = slate-NLL + lambda * click-NLL + beta * KL, each component a
    per-example sum averaged over the batch; the KL component is reported
    unweighted.
    """
    cfg, dt = model.cfg, model.dtype
    b, k = slates.shape
    mu, log_sigma = model.encode_graph(slates, clicks)
    sigma = ad.exp(log_sigma)
    z = ad.add(mu, ad.mul(sigma, ad.constant(np.asarray(noise, dt))))
    picked, click_logits = model.decode_graph(z, slates, frozen_table)
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


def pretrain(dataset: LoggedDataset, cfg: GemsConfig,
             seed: int) -> Tuple[GemsModel, List[GemsLossParts]]:
    """Shuffled mini-batch Adam over every logged turn; returns the model and
    per-epoch mean loss components."""
    slates, clicks = dataset.flat_turns()
    if slates.shape[0] == 0:
        raise ValueError("empty dataset")
    model = GemsModel(cfg, dataset.num_items, dataset.slate_size, seed)
    adam = AdamConfig(learning_rate=cfg.learning_rate)
    shuffle_rng = rngmod.substream(seed, "gems-shuffle")
    noise_rng = rngmod.substream(seed, "gems-noise")
    n = slates.shape[0]
    history: List[GemsLossParts] = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        sums = np.zeros(4)
        batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            noise = noise_rng.standard_normal((idx.size, cfg.latent_dim))
            total, parts = gems_loss(model, slates[idx], clicks[idx], noise)
            backward(total)
            adam_step(model.store, adam)
            sums += (parts.total, parts.slate_nll, parts.click_nll, parts.kl)
            batches += 1
        mean = sums / batches
        history.append(GemsLossParts(*mean))
        log.info("gems epoch %d: total %.4f slate %.4f click %.4f kl %.4f",
                 epoch + 1, *mean)
    return model, history


def save_gems(path, model: GemsModel) -> None:
    meta = {"kind": "gems", "config": asdict(model.cfg),
            "num_items": model.num_items, "slate_size": model.slate_size}
    save_checkpoint(path, {"gems": model.store}, meta)


def load_gems(path) -> GemsModel:
    stores, meta = load_checkpoint(path)
    if meta.get("kind") != "gems":
        raise ValueError("checkpoint does not hold a slate VAE")
    meta["config"].pop("kl_form", None)   # older checkpoints; always the standard KL
    cfg = GemsConfig(**{**meta["config"], "hidden": tuple(meta["config"]["hidden"])})
    model = GemsModel(cfg, meta["num_items"], meta["slate_size"], seed=0)
    model.store.load_state_from(stores["gems"])
    return model
