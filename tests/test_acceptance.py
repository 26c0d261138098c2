"""Acceptance gates: one test per criterion, at the stated tolerances.

Each test here is an end-to-end check of a core behaviour, verified against
an independent oracle (finite differences, Monte Carlo, brute-force
enumeration, or pinned reference numbers).  They are intentionally heavier
than the unit tests; the slowest one (criterion 9, the desk-scale training
comparison) dominates the suite's runtime.
"""

import itertools

import numpy as np
import pytest
from scipy import stats as sps

from slatelab import autodiff as ad
from slatelab.belief import BeliefConfig, next_beliefs
from slatelab.config import build_config
from slatelab.gems import (
    GemsConfig,
    GemsModel,
    decode_to_slate,
    encode,
    gems_loss,
    kl_closed_form,
    pretrain,
)
from slatelab.logged import LoggedDataset, generate_dataset
from slatelab.nn import Mlp, GruCell
from slatelab.optim import ParameterStore
from slatelab.rankers import rank_short_term_oracle, rank_wknn
from slatelab.replay import ReplayBuffer
from slatelab.rng import substream
from slatelab.sac import (
    SacConfig,
    SacModel,
    actor_loss,
    critic_loss,
    sac_update,
    select_action,
    td_target,
)
from slatelab.simulator import (
    Environment,
    ItemCatalog,
    SimConfig,
    examination_vector,
    generate_item_catalog,
)
from slatelab.stats import confidence_interval, welch_t_test

from oracles import (finite_difference_grads, max_relative_error, mc_gaussian_kl,
                     one_user_critic, sample_user)
from test_agents import window_inputs
from test_gems import batch as gems_batch


# ---------------------------------------------------------------------------
# criterion 1: every trained loss matches central finite differences


def _assert_grads_match(store, loss_fn, graph_loss):
    loss = graph_loss()
    ad.backward(loss)
    grads = {name: p.grad.copy() for name, p in store.items()}
    store.zero_grad()
    fd = finite_difference_grads(store, loss_fn, h=1e-5)
    for name in fd:
        assert max_relative_error(grads[name], fd[name]) < 1e-4, name


def _nudge_biases(store, seed):
    # keep relu pre-activations off the kink, where the subgradient and the
    # difference quotient legitimately disagree
    rng = substream(seed, "bias")
    for name, p in store.items():
        if name.endswith(".b"):
            p.value[...] = rng.normal(0.0, 0.1, p.value.shape)


def _fd_mlp(seed):
    store = ParameterStore()
    net = Mlp(store, "f", [4, 8, 3], substream(seed, "w"), activation="tanh")
    x = substream(seed, "x").normal(0.0, 1.0, (6, 4))
    t = substream(seed, "t").normal(0.0, 1.0, (6, 3))

    def graph():
        d = ad.add(net(ad.constant(x)), ad.scale(ad.constant(t), -1.0))
        return ad.mean(ad.square(d))

    _assert_grads_match(store, lambda: graph().item(), graph)


def _fd_gru(seed):
    store = ParameterStore()
    cell = GruCell(store, "g", 3, 4, substream(seed, "w"))
    h0 = substream(seed, "h").normal(0.0, 0.5, (5, 4))
    x = substream(seed, "x").normal(0.0, 1.0, (5, 3))

    def graph():
        h1 = cell.sequence(ad.constant(h0), ad.constant(x[:, None]))[:, 0]
        return ad.mean(ad.square(h1))

    _assert_grads_match(store, lambda: graph().item(), graph)


def _sac_fixture(seed):
    # finite differences need float64; the agent trains in float32
    cfg = SacConfig(action_dim=2, alpha=0.3, gamma=0.7, hidden=(4,), batch_size=4,
                    dtype="float64")
    bcfg = BeliefConfig(belief_dim=3, item_source="mf")
    table = substream(seed, "table").normal(0.0, 0.5, (4, 2))
    model = SacModel(cfg, bcfg, 1, table, substream(seed, "init"))
    _nudge_biases(model.actor_store, seed)
    _nudge_biases(model.critic_store, seed)
    buf = ReplayBuffer(capacity=8, slate_size=1, action_dim=2, belief_dim=3,
                       dtype=model.dtype)
    roll = substream(seed, "roll")
    for t in range(6):
        # stored beliefs are random: the gradients must not depend on them being zero
        buf.push(roll.integers(0, 4, 1), (roll.random(1) < 0.5).astype(float),
                 roll.uniform(-0.5, 0.5, 2), float(roll.integers(0, 3)), t % 3 == 2,
                 roll.uniform(-0.5, 0.5, 3))
    return cfg, model, buf.sample(4, substream(seed, "s"), sequence=2)


def _fd_sac_actor(seed):
    _, model, batch = _sac_fixture(seed)

    def graph():
        return actor_loss(model, batch, window_inputs(model, batch).value,
                          substream(seed, "eps"))[0]

    _assert_grads_match(model.actor_store, lambda: graph().item(), graph)


def _fd_sac_critic(seed):
    _, model, batch = _sac_fixture(seed)
    # the TD target is a constant of the loss; hold it fixed while differencing
    states = model.belief.recompute_array(batch.hidden, window_inputs(model, batch).value,
                                          batch.resets)
    y = td_target(model, batch, next_beliefs(states, 4), substream(seed, "eps"))

    def graph():
        return critic_loss(model, batch, window_inputs(model, batch),
                           substream(seed, "eps"), target=y)[0]

    _assert_grads_match(model.critic_store, lambda: graph().item(), graph)


def _fd_gems(seed):
    cfg = GemsConfig(latent_dim=3, item_embed_dim=4, hidden=(8,),
                     beta=0.7, lam=0.4)
    model = GemsModel(cfg, num_items=6, slate_size=3, seed=seed, dtype=np.float64)
    slates, clicks = gems_batch(seed)
    noise = substream(seed, "eps").normal(0.0, 1.0, (2, 3))
    # snapshot the decoder's stop-gradient view of the item table so the
    # difference quotient honours the same semantics
    snapshot = model.item_table().copy()

    def graph():
        return gems_loss(model, slates, clicks, noise, frozen_table=snapshot)[0]

    _assert_grads_match(model.store, lambda: graph().item(), graph)


def test_criterion_01_gradient_fidelity_on_every_loss():
    for seed in range(5):
        _fd_mlp(seed)
        _fd_gru(seed)
        _fd_sac_actor(seed)
        _fd_sac_critic(seed)
        _fd_gems(seed)


# ---------------------------------------------------------------------------
# criterion 2: closed-form KL against Monte Carlo


def test_criterion_02_kl_matches_monte_carlo():
    rng = substream(2, "kl")
    for case in range(20):
        mu = rng.uniform(-1.5, 1.5, 8)
        log_sigma = rng.uniform(-0.7, 0.7, 8)
        closed = kl_closed_form(mu[None, :], log_sigma[None, :])
        mc = mc_gaussian_kl(mu, np.exp(log_sigma), 100_000, seed=1000 + case)
        assert abs(closed - mc) / abs(closed) < 0.01, case


# ---------------------------------------------------------------------------
# criterion 3: empirical click rates match A_i * E_r for all click models


def _frozen_cfg(click_model):
    return SimConfig(num_items=30, slate_size=5, num_topics=3, topic_dim=2,
                     episode_length=100_002, click_model=click_model,
                     omega=1.0, boredom_threshold=10**6)


def test_criterion_03_click_calibration_all_models():
    turns = 100_000
    for click_model in ("TopDown", "Mixed", "DivPen"):
        cfg = _frozen_cfg(click_model)
        catalog = generate_item_catalog(cfg, seed=3)
        env = Environment(cfg, catalog, disclosed=True)
        env.reset([0])
        env.set_state(base_embeddings=sample_user(cfg, substream(3, "user")).base_embedding[None])
        if click_model == "DivPen":
            # a slate concentrated on one topic, so the penalty branch is live
            counts = np.bincount(catalog.main_topic, minlength=cfg.num_topics)
            topic = int(np.argmax(counts))
            assert counts[topic] > cfg.divpen_count
            slate = np.where(catalog.main_topic == topic)[0][:5].astype(np.int64)
        else:
            slate = np.arange(5, dtype=np.int64)
        p = env.disclosed_attractiveness(slate[None])[0] * examination_vector(cfg)
        env.rngs = [substream(3, "clicks-" + click_model)]
        totals = np.zeros(5)
        for _ in range(turns):
            totals += env.step(slate[None]).clicks[0]
        rate = totals / turns
        se = np.sqrt(p * (1.0 - p) / turns)
        assert np.all(np.abs(rate - p) <= 3.0 * se), click_model


# ---------------------------------------------------------------------------
# criterion 4: boredom masks for exactly five turns, then recovers exactly


class _ScriptRng:
    """Feeds pre-scripted uniforms to a user's clicks; a row below the click
    probability forces a click, a row of ones forces none."""

    def __init__(self, rows):
        self.rows = [np.asarray(r, dtype=np.float64) for r in rows]

    def random(self, out):
        row = self.rows.pop(0)
        assert row.shape == out.shape
        out[...] = row
        return out


def _pure_topic_catalog(num_topics=4, per_topic=5, topic_dim=2):
    # item i sits entirely in topic i // per_topic, first dim of the block
    n = num_topics * per_topic
    emb = np.zeros((n, num_topics * topic_dim))
    for i in range(n):
        emb[i, (i // per_topic) * topic_dim] = 1.0
    return ItemCatalog(embeddings=emb, main_topic=np.arange(n) // per_topic)


def test_criterion_04_boredom_masks_five_turns_and_recovers_exactly():
    cfg = SimConfig(num_items=20, slate_size=5, num_topics=4, topic_dim=2,
                    episode_length=50, click_model="TopDown", omega=1.0,
                    boredom_threshold=5, boredom_window=10, boredom_duration=5)
    catalog = _pure_topic_catalog()
    base = np.ones(8) / np.sqrt(8.0)
    user = Environment(cfg, catalog, disclosed=True)
    user.reset([0])
    user.set_state(base_embeddings=base[None])
    probe = 0  # pure topic-0 item

    def relevance(env):
        return env.disclosed_relevance()[0, probe]

    def bored_topics(env):
        return {t: int(left) for t, left in enumerate(env.disclosed_bored_topics()[0]) if left}

    rel_before = relevance(user)
    fully_masked_user = Environment(cfg, catalog, disclosed=True)
    fully_masked_user.reset([0])
    fully_masked_user.set_state(base_embeddings=base[None], bored_turns=np.full((1, 4), 3))
    rel_masked = relevance(fully_masked_user)
    assert rel_before != rel_masked

    click_all = np.zeros(5)
    click_first_two = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    user.rngs = [_ScriptRng([click_all] + [click_first_two] * 5)]
    # turn 0: five topic-0 clicks trigger boredom; turns 1-5 click other
    # topics (two per turn) so the window drains before the mask expires
    slates = [np.array([0, 1, 2, 3, 4]),
              np.array([5, 6, 0, 1, 2]),     # topic 1
              np.array([10, 11, 0, 1, 2]),   # topic 2
              np.array([15, 16, 0, 1, 2]),   # topic 3
              np.array([7, 8, 0, 1, 2]),     # topic 1
              np.array([12, 13, 0, 1, 2])]   # topic 2

    user.step(slates[0][None])
    assert bored_topics(user) == {0: 5}
    masked_turns = 0
    for t in range(1, 6):
        assert relevance(user) == rel_masked
        masked_turns += 1
        user.step(slates[t][None])
    assert masked_turns == 5
    # turn 6: the mask has expired and nothing re-triggers it
    assert bored_topics(user) == {}
    assert relevance(user) == rel_before


# ---------------------------------------------------------------------------
# criterion 5: short-term oracle beats every slate under enumeration


def test_criterion_05_oracle_beats_all_enumerated_slates():
    cfg = SimConfig(num_items=20, slate_size=3, click_model="TopDown")
    catalog = generate_item_catalog(cfg, seed=5)
    env = Environment(cfg, catalog, disclosed=True)
    env.reset([123])
    rel = env.disclosed_relevance()[0]
    exam = examination_vector(cfg)
    oracle = rank_short_term_oracle(env, cfg.slate_size)[0]
    perms = np.array(list(itertools.permutations(range(20), 3)))
    assert perms.shape[0] == 6840
    values = rel[perms] @ exam
    assert rel[oracle] @ exam >= values.max() - 1e-12


# ---------------------------------------------------------------------------
# criterion 6: greedy nearest-neighbour slate building vs exhaustive search


_WKNN_EMB = np.array([[0.0, 0.0],
                      [1.0, 0.0],
                      [0.0, 1.0],
                      [-1.0, 0.0],
                      [0.5, 0.5]])
# rank-weighted shared quality u.e scaled by slot coefficients (1.0, 0.5);
# a per-slot greedy provably attains the exhaustive argmax for this form
# even under the items-are-distinct constraint
_WKNN_W = np.array([0.6, 0.25, 0.3, 0.125])


def _enumerate_pairs(critic):
    best = []
    for i, j in itertools.permutations(range(5), 2):
        rep = np.concatenate([_WKNN_EMB[i], _WKNN_EMB[j]])
        best.append(((i, j), float(critic(None, rep[None, :])[0])))
    return sorted(best, key=lambda t: -t[1])


def test_criterion_06_wknn_greedy_vs_exhaustive():
    action = np.zeros(4)  # p = n makes every item a candidate in every slot

    # critics score a slot's candidate rows [m, 4] together
    def modular(_, trials):
        return trials @ _WKNN_W

    ranking = _enumerate_pairs(modular)
    greedy = tuple(rank_wknn(action[None], _WKNN_EMB, one_user_critic(modular),
                             np.zeros(1)[None], slate_size=2, p=5)[0])
    assert greedy == ranking[0][0]

    def coupled(_, trials):
        # cross-slot term invisible while slot 1 is still zero padding, so
        # the greedy fill cannot anticipate it
        return trials @ _WKNN_W + 0.5 * trials[:, 1] * trials[:, 2]

    ranking = _enumerate_pairs(coupled)
    greedy = tuple(rank_wknn(action[None], _WKNN_EMB, one_user_critic(coupled),
                             np.zeros(1)[None], slate_size=2, p=5)[0])
    greedy_value = dict((pair, v) for pair, v in ranking)[greedy]
    assert greedy != ranking[0][0]  # the coupling really displaces greedy
    assert greedy_value >= ranking[2][1]  # but it stays within the top three


# ---------------------------------------------------------------------------
# criterion 7: unregularised autoencoder memorises a tiny slate corpus


def test_criterion_07_vae_overfits_fifty_slates():
    rng = substream(7, "data")
    slates = np.stack([rng.choice(20, 5, replace=False) for _ in range(50)])
    clicks = (rng.random((50, 5)) < 0.4).astype(np.uint8)
    ds = LoggedDataset(user_seeds=np.zeros(50, dtype=np.uint64),
                       slates=slates[:, None, :].astype(np.uint32),
                       clicks=clicks[:, None, :],
                       num_items=20, config_hash=b"overfit")
    cfg = GemsConfig(latent_dim=32, item_embed_dim=16, hidden=(64,),
                     beta=0.0, lam=0.0, epochs=400, batch_size=16,
                     learning_rate=0.003)
    model, _ = pretrain(ds, cfg, seed=3)
    mu = encode(model, slates, clicks).mu
    decoded = decode_to_slate(model, mu)
    slot_acc = float(np.mean(decoded == slates))
    slate_acc = float(np.mean(np.all(decoded == slates, axis=1)))
    assert slot_acc >= 0.95
    assert slate_acc >= 0.95


# ---------------------------------------------------------------------------
# criterion 8: stronger KL weight never increases the converged KL


def test_criterion_08_beta_pressure_orders_converged_kl():
    sim = SimConfig(num_items=30, slate_size=5, num_topics=3, topic_dim=2,
                    episode_length=20)
    catalog = generate_item_catalog(sim, seed=8)
    ds = generate_dataset(sim, catalog, 100, epsilon=0.5, seed=8)
    assert ds.num_trajectories * ds.episode_length == 2000
    finals = []
    for beta in (0.1, 1.0, 2.0):
        cfg = GemsConfig(latent_dim=8, item_embed_dim=8, hidden=(32,),
                         beta=beta, lam=0.5, epochs=30, batch_size=128)
        _, history = pretrain(ds, cfg, seed=5)
        finals.append(history[-1].kl)
    assert finals[0] >= finals[1] >= finals[2]


# ---------------------------------------------------------------------------
# criterion 10: SAC solves a known one-step bandit from raw histories


def _context_bandit_buffer(model, n, rng):
    """Two contexts told apart only through the click history; the optimal
    action is +0.5 after a click and -0.5 after none.  Each two-turn episode
    first pushes the context turn (reward 0, a uniform action) so it lands
    in the pre-action history of the acted turn that follows and ends it.
    Each turn is stored with the belief acted on before it under the
    model's weights, as ``harness.train`` stores it."""
    enc = model.belief
    buf = ReplayBuffer(capacity=2 * n, slate_size=1, action_dim=1,
                       belief_dim=enc.belief_dim, dtype=model.dtype)
    for _ in range(n):
        ctx = int(rng.integers(0, 2))
        start = enc.init_hidden(1)[0]
        buf.push([0], [float(ctx)], rng.uniform(-1.0, 1.0, 1), 0.0, False, start)
        a = rng.uniform(-1.0, 1.0, 1)
        target = 0.5 if ctx else -0.5
        buf.push([0], [0.0], a, 1.0 - (a[0] - target) ** 2, True,
                 enc.update_belief(start, [0], [float(ctx)]))
    return buf


def test_criterion_10_sac_reaches_bandit_optimum_on_all_seeds():
    for seed in range(5):
        cfg = SacConfig(action_dim=1, alpha=0.1, hidden=(32, 32),
                        batch_size=64, critic_lr=0.003, actor_lr=0.003)
        bcfg = BeliefConfig(belief_dim=4, item_source="mf")
        model = SacModel(cfg, bcfg, 1, np.array([[0.5]]), substream(seed, "init"))
        buf = _context_bandit_buffer(model, 3000, substream(seed, "data"))
        rng = substream(seed, "upd")
        for _ in range(2000):
            sac_update(model, buf, rng)
        for ctx, target in ((1, 0.5), (0, -0.5)):
            x = model.belief._input_values(np.array([[[0]]]), np.array([[[float(ctx)]]]))
            h = model.belief.recompute_array(model.belief.init_hidden(1), x,
                                             np.zeros((1, 1), bool))[0, -1]
            a = select_action(model, h[None], "mean")[0, 0]
            reward = 1.0 - (a - target) ** 2
            assert reward >= 0.9, (seed, ctx, a)


# ---------------------------------------------------------------------------
# criterion 11: interval and test statistics match pinned references


def test_criterion_11_stats_match_reference_values():
    t975_dof4 = 2.7764451052
    t975_dof1 = 12.7062047362

    mean, half = confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0], 0.95)
    assert abs(mean - 3.0) < 1e-9
    assert abs(half - t975_dof4 * np.sqrt(2.5 / 5.0)) < 1e-9

    mean, half = confidence_interval([-1.0, 1.0], 0.95)
    assert abs(mean) < 1e-9
    assert abs(half - t975_dof1) < 1e-9

    t, dof, p = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0 and p == 1.0

    jitter = 1e-9 * np.arange(5)
    _, _, p = welch_t_test(jitter, 1.0 + jitter)
    assert p < 1e-6

    rng = substream(11, "welch")
    a = rng.normal(0.0, 1.0, 10)
    b = rng.normal(0.4, 1.5, 10)
    t, dof, p = welch_t_test(a, b)
    ref = sps.ttest_ind(a, b, equal_var=False)
    assert abs(t - ref.statistic) < 1e-9
    assert abs(p - ref.pvalue) < 1e-9
    va, vb = a.var(ddof=1) / 10, b.var(ddof=1) / 10
    dof_ref = (va + vb) ** 2 / (va**2 / 9 + vb**2 / 9)
    assert abs(dof - dof_ref) < 1e-9


# ---------------------------------------------------------------------------
# criterion 12: the full pipeline is bit-reproducible under one master seed


def _pipeline_once(root):
    from slatelab.cli import main
    from slatelab.harness import read_records

    root.mkdir(parents=True, exist_ok=True)
    cfg_path = root / "run.cfg"
    cfg_path.write_text("\n".join([
        "sim.num_items = 15", "sim.slate_size = 3", "sim.episode_length = 8",
        "sim.num_topics = 3", "sim.topic_dim = 2",
        "gems.latent_dim = 4", "gems.item_embed_dim = 4", "gems.hidden = 16",
        "gems.epochs = 2", "gems.batch_size = 32",
        "belief_dim = 8",
        "hidden = 16,16", "batch_size = 16", "update_every = 4",
        "training_steps = 6", "validation_every = 3",
        "validation_trajectories = 3", "test_trajectories = 4",
        "logged_trajectories = 20", "seeds = 4",
        f"gems_ckpt = {root}/gems.slk",
    ]) + "\n")
    args = ["--config", str(cfg_path)]
    main(["generate-data", *args, "--out", str(root / "data.slog"), "--seed", "17"])
    main(["pretrain-gems", *args, "--data", str(root / "data.slog"),
          "--out", str(root / "gems.slk"), "--seed", "17"])
    main(["train", *args, "--workdir", str(root / "runs")])
    record = read_records(root / "runs" / "seed-4" / "record.json")[0]
    ckpts = sorted(p.name for p in (root / "runs" / "seed-4").glob("ckpt-*.slk"))
    best = (root / "runs" / "seed-4" / ckpts[0]).resolve()
    main(["evaluate", *args, "--ckpt", str(best), "--n", "4", "--seed", "4",
          "--diagnostics", str(root / "diag.csv")])
    return record.canonical(), (root / "diag.csv").read_text()


def test_criterion_12_pipeline_is_bit_reproducible(tmp_path):
    # a rerun reuses the exact same paths; only wall clock may differ, and
    # the canonical record form excludes it by design
    rec_a, diag_a = _pipeline_once(tmp_path / "run")
    rec_b, diag_b = _pipeline_once(tmp_path / "run")
    assert rec_a == rec_b
    assert diag_a == diag_b
