import functools
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import log_softmax

import slatelab.gems
from slatelab import autodiff as ad
from slatelab.autodiff import backward
from slatelab.checkpoint import load_checkpoint, save_checkpoint
from slatelab.gems import (
    GemsConfig,
    GemsModel,
    decode_to_slate,
    encode,
    gems_loss,
    kl_closed_form,
    load_gems,
    pretrain,
    save_gems,
)
from slatelab.logged import LoggedDataset, generate_dataset
from slatelab.optim import AdamConfig, adam_step
from slatelab.simulator import SimConfig, generate_item_catalog

from oracles import (finite_difference_grads, max_relative_error, mc_gaussian_kl,
                     reference_decode_logits, reference_gems_loss)


def tiny_model(dtype=np.float32, **kw):
    kw.setdefault("latent_dim", 3)
    kw.setdefault("item_embed_dim", 4)
    kw.setdefault("hidden", (8,))
    return GemsModel(GemsConfig(**kw), num_items=6, slate_size=3, seed=0, dtype=dtype)


def batch(seed=0, b=2, k=3, n=6):
    rng = np.random.default_rng(seed)
    slates = rng.integers(0, n, size=(b, k))
    clicks = rng.integers(0, 2, size=(b, k)).astype(np.float64)
    return slates, clicks


def slate_dataset(slates, clicks):
    n, k = slates.shape
    return LoggedDataset(
        user_seeds=np.arange(n, dtype=np.uint64),
        slates=slates.reshape(n, 1, k).astype(np.uint32),
        clicks=clicks.reshape(n, 1, k).astype(np.uint8),
        num_items=int(slates.max()) + 1,
        config_hash=b"\x00" * 32,
    )


# --- encode/decode basics ----------------------------------------------------

def test_zero_noise_returns_mu():
    model = tiny_model()
    slates, clicks = batch()
    sample = encode(model, slates, clicks)
    np.testing.assert_array_equal(sample.z, sample.mu)
    assert sample.mu.shape == (2, 3)


def test_encode_deterministic_given_noise():
    model = tiny_model()
    slates, clicks = batch()
    noise = np.random.default_rng(1).standard_normal((2, 3))
    a = encode(model, slates, clicks, noise)
    b = encode(model, slates, clicks, noise)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_allclose(a.z, a.mu + np.exp(a.log_sigma) * noise, atol=1e-15)


def test_encode_rejects_unknown_items():
    model = tiny_model()
    with pytest.raises(ValueError):
        encode(model, np.array([[0, 1, 99]]), np.zeros((1, 3)))


def test_decode_slot_distributions_normalize():
    # the inference decoder's full logits and the training decoder's picked
    # log-probabilities describe the same normalised slot distributions
    model = tiny_model(np.float64)
    z = np.random.default_rng(0).standard_normal((4, 3))
    slates = np.random.default_rng(1).integers(0, 6, size=(4, 3))
    log_probs = log_softmax(reference_decode_logits(model, z), axis=-1)
    np.testing.assert_allclose(np.exp(log_probs).sum(axis=-1), 1.0, atol=1e-10)
    picked, click_logits = model.decode_graph(ad.constant(z), slates)
    np.testing.assert_allclose(picked.value,
                               np.take_along_axis(log_probs, slates[..., None], -1).ravel(),
                               atol=1e-12)
    click_probs = ad._sigmoid(click_logits.value)
    assert ((click_probs > 0) & (click_probs < 1)).all()


def test_decode_deterministic_in_z():
    model = tiny_model()
    z = np.random.default_rng(2).standard_normal((1, 3))
    np.testing.assert_array_equal(decode_to_slate(model, z), decode_to_slate(model, z))


def test_decode_to_slate_tie_breaks_to_lowest_id():
    model = tiny_model()
    model.store["items.E"].value[...] = 0.0   # all items tie on every slot
    slate = decode_to_slate(model, np.zeros((1, 3)))
    np.testing.assert_array_equal(slate, [[0, 0, 0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 6, 7, 64, 65, 200])
def test_blocked_decode_matches_full_logit_argmax(n, dtype):
    # n users x 3 slots: 1, 6 and 7 users fit one block, 64, 65 and 200 span
    # several.  Row 0 has z = 0, so with the decoder's zero biases every
    # logit of its slots is 0 and the lowest id must win.
    model = GemsModel(GemsConfig(latent_dim=3, item_embed_dim=4, hidden=(8,)),
                      num_items=300, slate_size=3, seed=0, dtype=dtype)
    z = 3.0 * np.random.default_rng(n).standard_normal((n, 3))
    z[0] = 0.0
    want = np.argmax(reference_decode_logits(model, z), axis=-1)
    assert (reference_decode_logits(model, z[:1]) == 0).all()
    got = decode_to_slate(model, z)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got[0], [0, 0, 0])


def test_decode_valid_slate_range():
    model = tiny_model()
    z = np.random.default_rng(3).standard_normal((10, 3))
    slates = decode_to_slate(model, z)
    assert slates.shape == (10, 3)
    assert slates.min() >= 0 and slates.max() < model.num_items


# --- loss --------------------------------------------------------------------

def test_loss_components_identity():
    model = tiny_model(np.float64, beta=0.7, lam=0.3)
    slates, clicks = batch(seed=4)
    noise = np.random.default_rng(5).standard_normal((2, 3))
    total, parts = gems_loss(model, slates, clicks, noise)
    want = parts.slate_nll + 0.3 * parts.click_nll + 0.7 * parts.kl
    assert abs(parts.total - want) < 1e-10
    assert abs(total.item() - parts.total) < 1e-15


def test_kl_component_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(20):
        mu = rng.normal(0, 2, size=(1, 5))
        log_sigma = rng.normal(0, 1, size=(1, 5))
        assert kl_closed_form(mu, log_sigma) >= 0.0


def test_kl_reference_points():
    assert kl_closed_form(np.zeros((1, 4)), np.zeros((1, 4))) == pytest.approx(0.0, abs=1e-15)
    mu = np.zeros((1, 4))
    mu[0, 0] = 1.0
    assert kl_closed_form(mu, np.zeros((1, 4))) == pytest.approx(0.5, abs=1e-15)


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(7)
    for trial in range(5):
        mu = rng.normal(0, 1, size=4)
        log_sigma = rng.normal(0, 0.5, size=4)
        closed = kl_closed_form(mu[None], log_sigma[None])
        mc = mc_gaussian_kl(mu, np.exp(log_sigma), num_samples=100_000, seed=trial)
        assert abs(closed - mc) / max(closed, 1e-9) < 0.01


def test_full_loss_gradient_matches_fd():
    model = tiny_model(np.float64, beta=0.9, lam=0.4)
    slates, clicks = batch(seed=8)
    noise = np.random.default_rng(9).standard_normal((2, 3))
    # Snapshot the frozen table so finite differences honor stop-gradient.
    snapshot = model.item_table().copy()

    def build():
        total, _ = gems_loss(model, slates, clicks, noise, frozen_table=snapshot)
        return total

    backward(build())
    got = {name: p.grad.copy() for name, p in model.store.items()}
    want = finite_difference_grads(model.store, lambda: build().item())
    for name in want:
        assert max_relative_error(got[name], want[name]) < 1e-4, name


def test_kl_gradient_matches_fd():
    model = tiny_model(np.float64)
    slates, clicks = batch(seed=10)

    def build():
        mu, log_sigma = model.encode_graph(slates, clicks)
        sigma = ad.exp(log_sigma)
        per = ad.add(ad.add(ad.square(sigma), ad.square(mu)),
                     ad.add(ad.scale(log_sigma, -2.0), ad.constant(-1.0)))
        return ad.scale(ad.sum_(per), 0.5 / slates.shape[0])

    backward(build())
    got = {name: p.grad.copy() for name, p in model.store.items()}
    want = finite_difference_grads(model.store, lambda: build().item())
    for name in want:
        assert max_relative_error(got[name], want[name]) < 1e-4, name


def test_item_table_gets_no_gradient_through_decoder_logits():
    model = tiny_model()
    z = ad.constant(np.random.default_rng(11).standard_normal((2, 3)))
    slot_log_probs, _ = model.decode_graph(z, np.array([[0, 1, 2], [3, 4, 5]]))
    assert slot_log_probs.shape == (6,)
    model.store["items.E"].grad[...] = 1.0
    backward(ad.scale(ad.sum_(slot_log_probs), -1.0))
    assert np.abs(model.store["dec.l0.W"].grad).max() > 0.0
    np.testing.assert_array_equal(model.store["items.E"].grad, 1.0)   # never touched


def test_encoder_path_does_update_item_table():
    model = tiny_model(beta=1.0, lam=0.5)
    slates, clicks = batch(seed=12)
    noise = np.zeros((2, 3))
    total, _ = gems_loss(model, slates, clicks, noise)
    backward(total)
    assert np.abs(model.store["items.E"].grad).max() > 0.0


def _graph_nodes(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_float32_gems_batch_upcasts_nothing():
    model = tiny_model(beta=0.7, lam=0.3)
    slates, clicks = batch(seed=17)
    noise = np.random.default_rng(18).standard_normal((2, 3))   # float64 draws
    total, _ = gems_loss(model, slates, clicks, noise)
    backward(total)
    nodes = _graph_nodes(total)
    assert {"softmax-pick", "mlp", "const", "param"} <= {n.op for n in nodes}
    for node in nodes:
        assert node.value.dtype == np.float32, node.op
        assert node.grad is None or node.grad.dtype == np.float32, node.op
    adam_step(model.store, AdamConfig(learning_rate=0.01))
    for name, p in model.store.items():
        assert p.value.dtype == p.grad.dtype == p.m.dtype == p.v.dtype == np.float32, name
    sample = encode(model, slates, clicks, noise)
    for a in (sample.mu, sample.log_sigma, sample.z):
        assert a.dtype == np.float32
    np.testing.assert_array_equal(decode_to_slate(model, noise),
                                  decode_to_slate(model, noise.astype(np.float32)))


def test_gems_loss_graph_never_holds_catalogue_sized_logits():
    model = GemsModel(GemsConfig(latent_dim=3, item_embed_dim=4, hidden=(16,)),
                      num_items=50, slate_size=3, seed=0)
    slates, clicks = batch(seed=15, b=64, n=50)
    noise = np.random.default_rng(16).standard_normal((64, 3))
    limit = 64 * 3 * 50
    ref, _ = reference_gems_loss(model, slates, clicks, noise)
    assert max(t.size for t in _graph_nodes(ref)) >= limit   # the test can tell
    total, _ = gems_loss(model, slates, clicks, noise)
    assert max(t.size for t in _graph_nodes(total)) < limit


# --- pretraining ----------------------------------------------------------------

def small_logged_dataset(num_traj=30, seed=0):
    cfg = SimConfig(num_items=20, slate_size=5, episode_length=50, click_model="TopDown")
    cat = generate_item_catalog(cfg, seed=seed)
    return generate_dataset(cfg, cat, num_trajectories=num_traj, epsilon=0.5, seed=seed)


def test_pretrain_loss_decreases():
    ds = small_logged_dataset()
    assert ds.num_turns >= 1000
    cfg = GemsConfig(latent_dim=8, item_embed_dim=4, hidden=(32,), epochs=2,
                     batch_size=128)
    _, history = pretrain(ds, cfg, seed=0)
    assert history[-1].total < history[0].total


def test_pretrain_seed_determinism():
    ds = small_logged_dataset(num_traj=5)
    cfg = GemsConfig(latent_dim=4, item_embed_dim=4, hidden=(16,), epochs=2,
                     batch_size=64)
    _, h1 = pretrain(ds, cfg, seed=3)
    _, h2 = pretrain(ds, cfg, seed=3)
    assert abs(h1[-1].total - h2[-1].total) < 1e-10


def test_pretrain_reproduces_the_unfused_reference_exactly(monkeypatch):
    # batches of 128 slates x 5 slots span two softmax-pick row blocks, and
    # the last batch of each epoch is short
    ds = small_logged_dataset(num_traj=5)
    cfg = GemsConfig(latent_dim=4, item_embed_dim=4, hidden=(16,), epochs=2,
                     batch_size=128)
    model, history = pretrain(ds, cfg, seed=5)
    monkeypatch.setattr(slatelab.gems, "gems_loss", reference_gems_loss)
    ref_model, ref_history = pretrain(ds, cfg, seed=5)
    assert history == ref_history
    for name, p in ref_model.store.items():
        np.testing.assert_array_equal(model.store[name].value, p.value)


def test_float32_and_float64_pretraining_agree(monkeypatch):
    # Same seed, data and draws in both dtypes.  Measured over seeds 0-4:
    # final totals within 3.7e-8 relative, and every one of the 7500
    # decoded posterior-mean slots equal.
    ds = small_logged_dataset()
    cfg = GemsConfig(latent_dim=8, item_embed_dim=4, hidden=(32,), epochs=2,
                     batch_size=128)
    slates, clicks = ds.flat_turns()
    runs = {}
    for dtype in (np.float32, np.float64):
        monkeypatch.setattr(slatelab.gems, "GemsModel",
                            functools.partial(GemsModel, dtype=dtype))
        model, history = pretrain(ds, cfg, seed=0)
        assert model.dtype == dtype
        runs[dtype] = history[-1].total, decode_to_slate(model, encode(model, slates, clicks).mu)
    (total32, slates32), (total64, slates64) = runs[np.float32], runs[np.float64]
    assert abs(total32 - total64) < 1e-6 * abs(total64)
    assert (slates32 == slates64).mean() >= 0.99


def test_overfit_roundtrip_on_tiny_corpus():
    """Pure autoencoder regime reconstructs a small fixed slate set."""
    rng = np.random.default_rng(13)
    slates = np.stack([rng.choice(12, size=4, replace=False) for _ in range(20)])
    clicks = rng.integers(0, 2, size=slates.shape)
    ds = slate_dataset(slates, clicks)
    cfg = GemsConfig(latent_dim=16, beta=0.0, lam=0.0, item_embed_dim=6,
                     hidden=(64,), epochs=400, batch_size=20, learning_rate=0.003)
    model, history = pretrain(ds, cfg, seed=1)
    z = encode(model, slates, clicks).mu
    recon = decode_to_slate(model, z)
    accuracy = float((recon == slates).mean())
    assert accuracy >= 0.95
    assert history[-1].kl >= 0.0


def test_checkpoint_roundtrip(tmp_path):
    ds = small_logged_dataset(num_traj=3)
    cfg = GemsConfig(latent_dim=4, item_embed_dim=4, hidden=(16,), epochs=1,
                     batch_size=64)
    model, _ = pretrain(ds, cfg, seed=4)
    path = tmp_path / "gems.ckpt"
    save_gems(path, model)
    back = load_gems(path)
    assert back.cfg == model.cfg
    assert back.num_items == model.num_items
    for name, p in model.store.items():
        assert np.array_equal(p.value, back.store[name].value)
    z = np.random.default_rng(14).standard_normal((3, 4))
    np.testing.assert_array_equal(decode_to_slate(model, z), decode_to_slate(back, z))


def test_checkpoint_with_a_stored_kl_form_still_loads(tmp_path):
    # GeMS checkpoints written while GemsConfig had a kl_form knob hold
    # kl_form=standard in their header; they load and decode the same slates.
    ds = small_logged_dataset(num_traj=3)
    cfg = GemsConfig(latent_dim=4, item_embed_dim=4, hidden=(16,), epochs=1,
                     batch_size=64)
    model, _ = pretrain(ds, cfg, seed=4)
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, {"gems": model.store},
                    {"kind": "gems", "config": {**asdict(cfg), "kl_form": "standard"},
                     "num_items": model.num_items, "slate_size": model.slate_size})
    back = load_gems(old)
    assert back.cfg == cfg
    for name, p in model.store.items():
        np.testing.assert_array_equal(back.store[name].value, p.value)
    z = np.random.default_rng(15).standard_normal((6, 4))
    np.testing.assert_array_equal(decode_to_slate(back, z), decode_to_slate(model, z))
    save_gems(tmp_path / "new.ckpt", model)
    assert "kl_form" not in load_checkpoint(tmp_path / "new.ckpt")[1]["config"]


def test_float64_checkpoint_loads_as_float32(tmp_path):
    model = GemsModel(GemsConfig(latent_dim=4, item_embed_dim=4, hidden=(16,)),
                      num_items=20, slate_size=5, seed=6, dtype=np.float64)
    path = tmp_path / "gems.ckpt"
    save_gems(path, model)
    back = load_gems(path)
    cast = GemsModel(model.cfg, 20, 5, seed=7)
    for name, p in model.store.items():
        assert back.store[name].value.dtype == np.float32
        np.testing.assert_array_equal(back.store[name].value, p.value.astype(np.float32))
        cast.store[name].value[...] = p.value.astype(np.float32)
    z = np.random.default_rng(19).standard_normal((8, 4))
    np.testing.assert_array_equal(reference_decode_logits(back, z),
                                  reference_decode_logits(cast, z))
    np.testing.assert_array_equal(decode_to_slate(back, z), decode_to_slate(cast, z))
