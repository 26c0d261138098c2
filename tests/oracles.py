"""Independent reference implementations used as test oracles.

Everything here is deliberately written without importing the library's own
numerics (beyond data containers), so a bug in the package cannot hide in
its own test oracle.  The one exception is :func:`reference_gems_loss`: it
is the GeMS loss built from the unfused autodiff primitives, the reference
that the fused slot-reconstruction op must match bit for bit.
"""

import math

import numpy as np

from slatelab import autodiff as ad
from slatelab.gems import GemsLossParts


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
    the catalogue, then pick of each slot's logged item."""
    cfg = model.cfg
    b, k = slates.shape
    e = cfg.item_embed_dim
    mu, log_sigma = model.encode_graph(slates, clicks)
    sigma = ad.exp(log_sigma)
    z = ad.add(mu, ad.mul(sigma, ad.constant(noise)))
    out = ad.reshape(model.decoder(z), (b, k, e + 1))
    recon = ad.reshape(out[:, :, :e], (b * k, e))
    click_logits = out[:, :, e]
    table = model.item_table() if frozen_table is None else frozen_table
    item_logits = ad.matmul(recon, ad.transpose(ad.constant(table)))
    picked = ad.pick(ad.log_softmax(item_logits), slates.reshape(-1))
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
