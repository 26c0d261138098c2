import hashlib

import numpy as np
import pytest
from scipy import stats

import oracles
from slatelab.logged import (
    LoggedDataset,
    epsilon_greedy_slate,
    generate_dataset,
    read_dataset,
    sim_config_hash,
    write_dataset,
)
from slatelab.mf import MfConfig, _positives, _sample_negatives, fit_mf, train_mf
from slatelab.simulator import Environment, SimConfig, generate_item_catalog


def small_cfg(**kw):
    kw.setdefault("num_items", 20)
    kw.setdefault("slate_size", 5)
    kw.setdefault("episode_length", 10)
    kw.setdefault("click_model", "TopDown")
    return SimConfig(**kw)


# --- slate construction ---------------------------------------------------------

def test_pure_oracle_slate_is_topk_with_id_ties():
    scores = np.array([0.5, 0.9, 0.5, 0.1, 0.9])
    slate = epsilon_greedy_slate(scores[None], epsilon=0.0, k=4,
                                 rngs=[np.random.default_rng(0)])[0]
    # Descending score, ties broken by lowest id.
    np.testing.assert_array_equal(slate, [1, 4, 0, 2])


def test_epsilon_one_slates_are_distinct():
    rng = np.random.default_rng(1)
    for _ in range(50):
        slate = epsilon_greedy_slate(np.zeros((1, 8)), epsilon=1.0, k=8, rngs=[rng])[0]
        assert len(set(slate.tolist())) == 8


@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("k", [1, 6, 12])
def test_epsilon_greedy_matches_the_choice_reference(epsilon, k):
    """Same slates, and every generator left in the same state, as the
    logger that drew explore slots with Generator.choice; scores on four
    levels tie often, and k = 12 places every item."""
    scores = np.random.default_rng(k).integers(0, 4, size=(20, 5, 12)) / 4.0
    rngs = [np.random.default_rng(s) for s in range(5)]
    ref_rngs = [np.random.default_rng(s) for s in range(5)]
    for turn in scores:
        np.testing.assert_array_equal(epsilon_greedy_slate(turn, epsilon, k, rngs),
                                      oracles.epsilon_greedy_slate(turn, epsilon, k, ref_rngs))
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]


@pytest.mark.parametrize("epsilon", [float("nan"), -0.5, 1.7])
def test_generate_dataset_rejects_epsilon_outside_the_unit_interval(epsilon):
    cfg = small_cfg()
    cat = generate_item_catalog(cfg, seed=0)
    with pytest.raises(ValueError, match="epsilon must lie in"):
        generate_dataset(cfg, cat, num_trajectories=2, epsilon=epsilon)


def test_epsilon_one_marginals_uniform():
    cfg = small_cfg(episode_length=50)
    cat = generate_item_catalog(cfg, seed=0)
    ds = generate_dataset(cfg, cat, num_trajectories=80, epsilon=1.0, seed=7)
    counts = np.bincount(ds.slates.reshape(-1), minlength=cfg.num_items)
    assert counts.sum() == 80 * 50 * 5
    p = stats.chisquare(counts).pvalue
    assert p > 0.01


def test_epsilon_zero_matches_live_oracle_replay():
    cfg = small_cfg()
    cat = generate_item_catalog(cfg, seed=3)
    ds = generate_dataset(cfg, cat, num_trajectories=4, epsilon=0.0, seed=11)
    env = Environment(cfg, cat, disclosed=True)
    for i in range(ds.num_trajectories):
        env.reset([int(ds.user_seeds[i])])
        for t in range(ds.episode_length):
            scores = env.disclosed_relevance()[0]
            want = np.argsort(-scores, kind="stable")[: cfg.slate_size]
            np.testing.assert_array_equal(ds.slates[i, t], want)
            env.step(ds.slates[i, t][None])


def test_topdown_click_rate_decreases_with_rank():
    cfg = small_cfg(episode_length=50)
    cat = generate_item_catalog(cfg, seed=5)
    ds = generate_dataset(cfg, cat, num_trajectories=100, epsilon=0.5, seed=13)
    per_rank = ds.clicks.reshape(-1, cfg.slate_size).mean(axis=0)
    assert (np.diff(per_rank) < 0).all()


def test_generation_seed_determinism():
    cfg = small_cfg()
    cat = generate_item_catalog(cfg, seed=1)
    a = generate_dataset(cfg, cat, num_trajectories=3, epsilon=0.5, seed=21)
    b = generate_dataset(cfg, cat, num_trajectories=3, epsilon=0.5, seed=21)
    assert np.array_equal(a.slates, b.slates)
    assert np.array_equal(a.clicks, b.clicks)
    assert np.array_equal(a.user_seeds, b.user_seeds)


def test_a_trajectory_does_not_depend_on_the_users_rolled_with_it():
    cfg = small_cfg(episode_length=12, click_model="DivPen")
    cat = generate_item_catalog(cfg, seed=4)
    whole = generate_dataset(cfg, cat, num_trajectories=7, epsilon=0.5, seed=9)
    for n in (1, 3):
        ds = generate_dataset(cfg, cat, num_trajectories=n, epsilon=0.5, seed=9)
        assert np.array_equal(ds.slates, whole.slates[:n])
        assert np.array_equal(ds.clicks, whole.clicks[:n])
        assert np.array_equal(ds.user_seeds, whole.user_seeds[:n])
    with pytest.raises(ValueError, match="num_trajectories"):
        generate_dataset(cfg, cat, num_trajectories=0)


@pytest.mark.parametrize("sim, digest", [
    (dict(click_model="DivPen", embedding_variant="focused"),
     "33e75c3d25cf32f1e32eb4b2a876084fe2c0c0fa26b84aa733bd79741a34ab69"),
    (dict(), "329aa4cf3ebecb4f0f294d639d2b7498fcce152c42fee9a4594397a85511e2e0"),
])
def test_dataset_bytes_are_pinned(tmp_path, sim, digest):
    """70 lockstep trajectories of 20 turns over 100 items; the digests are
    those of the one-user-at-a-time logger."""
    cfg = SimConfig(num_items=100, episode_length=20, **sim)
    cat = generate_item_catalog(cfg, seed=2)
    path = tmp_path / "log.bin"
    write_dataset(path, generate_dataset(cfg, cat, num_trajectories=70, epsilon=0.5, seed=3))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# --- file format ------------------------------------------------------------------

def test_two_by_three_dataset_roundtrip(tmp_path):
    cfg = small_cfg(episode_length=3, slate_size=10, num_items=25)
    cat = generate_item_catalog(cfg, seed=2)
    ds = generate_dataset(cfg, cat, num_trajectories=2, epsilon=0.5, seed=3)
    assert ds.num_turns == 6
    path = tmp_path / "log.bin"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert np.array_equal(back.slates, ds.slates)
    assert np.array_equal(back.clicks, ds.clicks)
    assert np.array_equal(back.user_seeds, ds.user_seeds)
    assert back.config_hash == ds.config_hash == sim_config_hash(cfg)
    assert back.num_items == cfg.num_items


def test_dataset_whose_length_disagrees_with_its_header_is_rejected(tmp_path):
    cfg = small_cfg(episode_length=8, slate_size=4, num_items=25)
    ds = generate_dataset(cfg, generate_item_catalog(cfg, seed=2), num_trajectories=4,
                          epsilon=0.5, seed=3)
    path = tmp_path / "log.bin"
    write_dataset(path, ds)
    raw = path.read_bytes()
    assert len(raw) == 60 + 4 * (8 + 8 * (4 * 4 + 1))
    # cuts in the header, the seeds, the slates and the clicks
    for cut in (12, 40, 70, len(raw) - 33, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="truncated dataset"):
            read_dataset(path)
    for extra in (b"\x00", b"\x00\x00", bytes(32)):
        path.write_bytes(raw + extra)
        with pytest.raises(ValueError, match="trailing bytes"):
            read_dataset(path)
    path.write_bytes(raw)
    assert np.array_equal(read_dataset(path).slates, ds.slates)


def test_dataset_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"XXXXXXXX" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_dataset(path)


# --- matrix factorization -----------------------------------------------------------

def synthetic_coclick_dataset():
    """Two user groups: group A always clicks items 0,1; group B items 10,11."""
    n, t, k, num_items = 60, 10, 5, 20
    rng = np.random.default_rng(0)
    slates = np.empty((n, t, k), dtype=np.uint32)
    clicks = np.zeros((n, t, k), dtype=np.uint8)
    for u in range(n):
        pair = (0, 1) if u < n // 2 else (10, 11)
        for turn in range(t):
            rest = rng.choice([i for i in range(num_items) if i not in pair],
                              size=k - 2, replace=False)
            slates[u, turn] = np.concatenate([pair, rest])
            clicks[u, turn, :2] = 1
    return LoggedDataset(user_seeds=np.arange(n, dtype=np.uint64), slates=slates,
                         clicks=clicks, num_items=num_items, config_hash=b"\x00" * 32)


def test_mf_loss_decreases_after_first_epoch():
    cfg = small_cfg(episode_length=20)
    cat = generate_item_catalog(cfg, seed=6)
    ds = generate_dataset(cfg, cat, num_trajectories=30, epsilon=0.5, seed=15)
    assert int(ds.clicks.sum()) >= 100
    result = fit_mf(ds, MfConfig(), seed=0)
    assert result.epoch_losses[1] < result.epoch_losses[0]
    assert result.epoch_losses[-1] < result.epoch_losses[0]


def test_mf_negatives_match_the_per_negative_loop():
    # 20 items and 30 users who click often: many first draws are clicked
    # items, and some need several redraws
    cfg = small_cfg(episode_length=20)
    ds = generate_dataset(cfg, generate_item_catalog(cfg, seed=6), num_trajectories=30,
                          epsilon=0.5, seed=15)
    pos_u, pos_i, codes = _positives(ds)
    for ratio in (1, 3):
        rng, ref_rng = np.random.default_rng(ratio), np.random.default_rng(ratio)
        neg_u, neg_i = _sample_negatives(pos_u, codes, ds.num_items, ratio, rng)
        ref_u, ref_i = oracles.sample_negatives(pos_u, pos_i, ds.num_items, ratio, ref_rng)
        np.testing.assert_array_equal(neg_u, ref_u)
        np.testing.assert_array_equal(neg_i, ref_i)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    clicked = set(zip(pos_u.tolist(), pos_i.tolist()))
    assert not clicked & set(zip(neg_u.tolist(), neg_i.tolist()))


def test_mf_fit_reproduces_pinned_table_and_losses():
    # digest and losses recorded with the per-negative redraw loop
    cfg = small_cfg(episode_length=20)
    ds = generate_dataset(cfg, generate_item_catalog(cfg, seed=6), num_trajectories=30,
                          epsilon=0.5, seed=15)
    result = fit_mf(ds, MfConfig(embed_dim=4, epochs=3), seed=2)
    assert (hashlib.sha256(result.item_embeddings.tobytes()).hexdigest()
            == "e02d836f3c61548c35b2e4d3d8c8b264ce4bbfdfd9a64cd758f3b01fb7ec4f53")
    assert [x.hex() for x in result.epoch_losses] == [
        "0x1.629536865d937p-1", "0x1.628ba3fa6f951p-1", "0x1.62824936b2bd3p-1",
        "0x1.62795bdc8c887p-1"]


def test_mf_coclick_geometry():
    ds = synthetic_coclick_dataset()
    V = train_mf(ds, MfConfig(embed_dim=8, learning_rate=0.05, epochs=30), seed=1)

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    coclicked = cos(V[0], V[1])
    assert coclicked > cos(V[0], V[10])
    assert cos(V[10], V[11]) > cos(V[1], V[11])


def test_mf_seed_determinism_and_bounds():
    ds = synthetic_coclick_dataset()
    cfg = MfConfig(embed_dim=6, epochs=3)
    a = train_mf(ds, cfg, seed=5)
    b = train_mf(ds, cfg, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, train_mf(ds, cfg, seed=6))
    assert np.isfinite(a).all()
    assert (np.linalg.norm(a, axis=1) <= 10.0).all()


def test_mf_rejects_clickless_dataset():
    ds = synthetic_coclick_dataset()
    ds.clicks[...] = 0
    with pytest.raises(ValueError):
        train_mf(ds, MfConfig(), seed=0)
