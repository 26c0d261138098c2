"""Slate+click variational auto-encoder producing the latent proto-action space.

The encoder maps a slate with its clicks to a diagonal Gaussian over a
d-dimensional latent; the decoder maps a latent back to per-slot item logits
(dot products of reconstructed embeddings against a stop-gradient copy of
the learnable item table) and per-slot click probabilities.  Training
scores each slot's logged item with one fused ``softmax_pick`` node, so
the [b*k, num_items] logits are never built.  After pretraining on logged
data, the frozen decoder turns agent proto-actions into slates.
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
    kl_form: str = "standard"      # standard | literal

    def __post_init__(self):
        if self.latent_dim <= 0:
            raise ValueError("latent_dim must be positive")
        if self.beta < 0 or self.lam < 0:
            raise ValueError("beta and lambda must be non-negative")
        if self.kl_form not in ("standard", "literal"):
            raise ValueError(f"unknown kl_form {self.kl_form!r}")
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

    def __init__(self, cfg: GemsConfig, num_items: int, slate_size: int, seed: int):
        self.cfg = cfg
        self.num_items = num_items
        self.slate_size = slate_size
        self.store = ParameterStore()
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
        slates = np.asarray(slates)
        if slates.size and (slates.min() < 0 or slates.max() >= self.num_items):
            raise ValueError("slate contains unknown item ids")
        b, k = slates.shape
        e = self.cfg.item_embed_dim
        d = self.cfg.latent_dim
        emb = ad.gather_rows(self.store.tensor("items.E"), slates.reshape(-1))
        emb = ad.reshape(emb, (b, k, e))
        cl = ad.constant(np.asarray(clicks, dtype=np.float64).reshape(b, k, 1))
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

    def decode_array(self, z: np.ndarray) -> np.ndarray:
        """Inference decoder: every item's logit per slot [b, k, num_items]."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        k, e = self.slate_size, self.cfg.item_embed_dim
        out = self.decoder.forward_array(z).reshape(z.shape[0], k, e + 1)
        return out[:, :, :e] @ self.item_table().T


def encode(model: GemsModel, slates, clicks, noise: Optional[np.ndarray] = None) -> LatentSample:
    """Posterior parameters and a reparameterized sample; noise=None means
    the zero-noise point, so z equals mu."""
    with ad.no_grad():
        mu, log_sigma = model.encode_graph(slates, clicks)
    mu, log_sigma = mu.value, log_sigma.value
    if noise is None:
        z = mu.copy()
    else:
        z = mu + np.exp(log_sigma) * noise
    return LatentSample(mu=mu, log_sigma=log_sigma, z=z)


def decode_to_slate(model: GemsModel, z: np.ndarray) -> np.ndarray:
    """Most likely item per slot; ties resolved to the lowest item id."""
    return np.argmax(model.decode_array(z), axis=-1).astype(np.int64)


def kl_closed_form(mu: np.ndarray, log_sigma: np.ndarray, form: str = "standard") -> float:
    """KL(q || N(0, I)) summed over dimensions, averaged over the batch."""
    mu = np.atleast_2d(mu)
    log_sigma = np.atleast_2d(log_sigma)
    s2 = np.exp(2.0 * log_sigma)
    if form == "standard":
        per = 0.5 * (s2 + mu**2 - 2.0 * log_sigma - 1.0)
    elif form == "literal":
        per = s2 + mu**2 - log_sigma - 1.0
    else:
        raise ValueError(f"unknown kl_form {form!r}")
    return float(np.mean(per.sum(axis=-1)))


def gems_loss(model: GemsModel, slates: np.ndarray, clicks: np.ndarray,
              noise: np.ndarray, frozen_table: Optional[np.ndarray] = None):
    """Batch-mean training loss as a graph tensor plus reported components.

    total = slate-NLL + lambda * click-NLL + beta * KL, each component a
    per-example sum averaged over the batch; the KL component is reported
    unweighted.
    """
    cfg = model.cfg
    b, k = slates.shape
    mu, log_sigma = model.encode_graph(slates, clicks)
    sigma = ad.exp(log_sigma)
    z = ad.add(mu, ad.mul(sigma, ad.constant(noise)))
    picked, click_logits = model.decode_graph(z, slates, frozen_table)
    slate_nll = ad.scale(ad.sum_(picked), -1.0 / b)

    c = ad.constant(np.asarray(clicks, dtype=np.float64))
    bce = ad.add(ad.softplus(click_logits), ad.scale(ad.mul(c, click_logits), -1.0))
    click_nll = ad.scale(ad.sum_(bce), 1.0 / b)

    if cfg.kl_form == "standard":
        per = ad.add(ad.add(ad.square(sigma), ad.square(mu)),
                     ad.add(ad.scale(log_sigma, -2.0), ad.constant(-1.0)))
        kl = ad.scale(ad.sum_(per), 0.5 / b)
    else:
        per = ad.add(ad.add(ad.square(sigma), ad.square(mu)),
                     ad.add(ad.scale(log_sigma, -1.0), ad.constant(-1.0)))
        kl = ad.scale(ad.sum_(per), 1.0 / b)

    total = ad.add(ad.add(slate_nll, ad.scale(click_nll, cfg.lam)),
                   ad.scale(kl, cfg.beta))
    parts = GemsLossParts(total=total.item(), slate_nll=slate_nll.item(),
                          click_nll=click_nll.item(), kl=kl.item())
    return total, parts


def pretrain(dataset: LoggedDataset, cfg: GemsConfig, seed: int,
             epochs: Optional[int] = None) -> Tuple[GemsModel, List[GemsLossParts]]:
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
    for epoch in range(epochs if epochs is not None else cfg.epochs):
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
    cfg = GemsConfig(**{**meta["config"], "hidden": tuple(meta["config"]["hidden"])})
    model = GemsModel(cfg, meta["num_items"], meta["slate_size"], seed=0)
    model.store.load_state_from(stores["gems"])
    return model
