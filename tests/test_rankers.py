"""Rankers: action vectors to slates, checked against brute-force oracles."""

import itertools

import numpy as np
import pytest
from scipy import stats as sps

from slatelab.belief import BeliefConfig
from slatelab.rankers import (
    rank_random,
    rank_short_term_oracle,
    rank_topk,
    rank_wknn,
)
from slatelab.reinforce import ReinforceConfig, ReinforcePolicy, sample_slate
from slatelab.simulator import (Environment, ItemCatalog, SimConfig, UserState,
                                generate_item_catalog)


def unit_table(n, e, seed=0):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(n, e))
    return emb / np.linalg.norm(emb, axis=1, keepdims=True)


def disclosed_env(seed=3, **kw):
    cfg = SimConfig(num_items=kw.pop("num_items", 20),
                    slate_size=kw.pop("slate_size", 3),
                    click_model="TopDown", **kw)
    catalog = generate_item_catalog(cfg, seed=seed)
    env = Environment(cfg, catalog, disclosed=True)
    env.reset(seed=seed + 1)
    return cfg, env


def expected_clicks(slate, rel, eps):
    """TopDown expectation: sum over ranks of relevance times eps^rank."""
    ranks = np.arange(1, len(slate) + 1)
    return float(np.sum(rel[np.asarray(slate)] * eps**ranks))


# --- top-k dot product -------------------------------------------------------


def test_topk_self_similarity():
    emb = unit_table(12, 6, seed=1)
    slate = rank_topk(10.0 * emb[7], emb, slate_size=4)
    assert slate[0] == 7


def test_topk_zero_action_tie_break():
    emb = unit_table(9, 5, seed=2)
    assert rank_topk(np.zeros(5), emb, slate_size=4).tolist() == [0, 1, 2, 3]


def test_topk_matches_full_sort():
    emb = unit_table(50, 8, seed=3)
    rng = np.random.default_rng(4)
    ids = np.arange(50)
    for _ in range(100):
        action = rng.normal(size=8)
        scores = emb @ action
        want = np.lexsort((ids, -scores))[:5]
        got = rank_topk(action, emb, slate_size=5)
        assert got.tolist() == want.tolist()
        assert len(set(got.tolist())) == 5


def test_topk_positive_scale_invariance():
    emb = unit_table(30, 4, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.normal(size=4)
        base = rank_topk(a, emb, slate_size=6)
        for c in (0.01, 3.7, 250.0):
            assert rank_topk(c * a, emb, slate_size=6).tolist() == base.tolist()


def test_topk_dim_mismatch_raises():
    emb = unit_table(10, 4)
    with pytest.raises(ValueError):
        rank_topk(np.zeros(5), emb, slate_size=3)
    with pytest.raises(ValueError):
        rank_topk(np.zeros(4), emb, slate_size=11)


# --- wknn --------------------------------------------------------------------


def test_wknn_p1_is_nearest_neighbor_without_critic():
    emb = unit_table(15, 3, seed=7)
    rng = np.random.default_rng(8)

    def critic(belief, trials):
        pytest.fail("critic must not be called when p=1")

    for _ in range(10):
        action = rng.normal(size=4 * 3)
        got = rank_wknn(action, emb, critic, belief=np.zeros(2), slate_size=4, p=1)
        targets = action.reshape(4, 3)
        chosen = []
        for s in range(4):
            best, best_d = None, np.inf
            for i in range(15):
                if i in chosen:
                    continue
                d = float(((emb[i] - targets[s]) ** 2).sum())
                if d < best_d:
                    best, best_d = i, d
            chosen.append(best)
        assert got.tolist() == chosen


def test_wknn_linear_critic_matches_exhaustive_pairs():
    # Separable linear critic with a dominant first-slot term, so the greedy
    # slot-by-slot argmax provably coincides with the exhaustive ordered-pair
    # argmax, which we enumerate outright.
    f = np.array([5.0, 0.0, 1.0, 2.0, 3.0])
    g = np.array([0.5, 0.9, 0.1, 0.3, 0.7])
    emb = np.stack([f, g], axis=1)          # item i -> (f_i, g_i)
    w = np.array([1.0, 0.0, 0.0, 1.0])      # picks f from slot 1, g from slot 2

    def critic(belief, trials):
        return trials @ w

    action = np.zeros(4)                    # equidistant targets: all 5 candidates
    got = rank_wknn(action, emb, critic, belief=np.zeros(1), slate_size=2, p=5)

    best, best_v = None, -np.inf
    for i, j in itertools.permutations(range(5), 2):
        v = f[i] + g[j]
        if v > best_v:
            best, best_v = (i, j), v
    assert tuple(got.tolist()) == best == (0, 1)


def test_wknn_never_repeats_items():
    emb = unit_table(12, 4, seed=9)
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        wq = rng.normal(size=4 * 4)

        def critic(belief, trials, wq=wq):
            return trials @ wq

        action = rng.normal(size=4 * 4)
        slate = rank_wknn(action, emb, critic, np.zeros(3), slate_size=4, p=3)
        assert len(set(slate.tolist())) == 4
        assert slate.min() >= 0 and slate.max() < 12


def test_wknn_candidates_clip_in_late_slots():
    # p equal to the catalog size still works: later slots just see fewer
    # remaining candidates, and a full-slate request yields a permutation.
    emb = unit_table(5, 2, seed=10)
    calls = []

    def critic(belief, trials):
        calls.append(trials.copy())
        return trials.sum(axis=1)

    slate = rank_wknn(np.zeros(10), emb, critic, np.zeros(1), slate_size=5, p=5)
    assert sorted(slate.tolist()) == [0, 1, 2, 3, 4]
    # One call per slot scores all its candidates; the final slot has a
    # single remaining candidate, so no critic call there.
    assert [len(rows) for rows in calls] == [5, 4, 3, 2]


def test_wknn_errors():
    emb = unit_table(5, 2)
    critic = lambda b, trials: np.zeros(len(trials))
    with pytest.raises(ValueError):
        rank_wknn(np.zeros(4), emb, critic, np.zeros(1), slate_size=2, p=6)
    with pytest.raises(ValueError):
        rank_wknn(np.zeros(4), emb, critic, np.zeros(1), slate_size=2, p=0)
    with pytest.raises(ValueError):
        rank_wknn(np.zeros(3), emb, critic, np.zeros(1), slate_size=2, p=2)


# --- softmax head (the REINFORCE policy's draws) -----------------------------


def softmax_policy(logits):
    """A REINFORCE policy whose head emits exactly `logits` at a zero belief."""
    logits = np.asarray(logits, dtype=np.float64)
    cfg = ReinforceConfig(hidden=(4,))
    pol = ReinforcePolicy(cfg, BeliefConfig(belief_dim=3, item_source="learned"), 2,
                          np.zeros((logits.size, 2)), np.random.default_rng(0))
    pol.store["logits.l1.b"].value[...] = logits
    return pol


def test_softmax_saturation():
    logits = np.zeros(8)
    logits[3] = 50.0
    pol = softmax_policy(logits)
    rng = np.random.default_rng(11)
    for _ in range(200):
        slate = sample_slate(pol, np.zeros(3), slate_size=4, rng=rng)
        assert slate.tolist() == [3, 3, 3, 3]


def test_softmax_uniform_marginals_chi2():
    n, k, draws = 10, 5, 20_000
    pol = softmax_policy(np.zeros(n))
    rng = np.random.default_rng(12)
    counts = np.zeros((k, n))
    for _ in range(draws):
        slate = sample_slate(pol, np.zeros(3), slate_size=k, rng=rng)
        for slot, item in enumerate(slate):
            counts[slot, item] += 1
    expected = draws / n
    for slot in range(k):
        chi2 = float(np.sum((counts[slot] - expected) ** 2 / expected))
        assert chi2 < sps.chi2.ppf(0.99, n - 1)


def test_softmax_draws_with_replacement():
    pol = softmax_policy([3.0, 3.0, -5.0, -5.0])
    rng = np.random.default_rng(14)
    seen_repeat = False
    for _ in range(200):
        slate = sample_slate(pol, np.zeros(3), slate_size=3, rng=rng)
        if len(set(slate.tolist())) < 3:
            seen_repeat = True
            break
    assert seen_repeat


# --- random ------------------------------------------------------------------


def test_random_distinct_in_range_deterministic():
    a = rank_random(20, 5, np.random.default_rng(15))
    b = rank_random(20, 5, np.random.default_rng(15))
    assert a.tolist() == b.tolist()
    assert len(set(a.tolist())) == 5
    assert a.min() >= 0 and a.max() < 20
    with pytest.raises(ValueError):
        rank_random(3, 4, np.random.default_rng(0))


def test_random_marginal_uniform_chi2():
    n, k, draws = 20, 3, 30_000
    rng = np.random.default_rng(16)
    counts = np.zeros(n)
    for _ in range(draws):
        for item in rank_random(n, k, rng):
            counts[item] += 1
    expected = draws * k / n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < sps.chi2.ppf(0.99, n - 1)


# --- short-term oracle -------------------------------------------------------


def test_oracle_beats_all_ordered_slates():
    cfg, env = disclosed_env(seed=17)
    rel = env.disclosed_relevance()
    oracle = rank_short_term_oracle(env, slate_size=3)
    best = expected_clicks(oracle, rel, cfg.epsilon_exam)
    count = 0
    for slate in itertools.permutations(range(20), 3):
        assert best >= expected_clicks(slate, rel, cfg.epsilon_exam) - 1e-12
        count += 1
    assert count == 6840


def test_oracle_descending_order_optimal_among_permutations():
    cfg, env = disclosed_env(seed=18)
    rel = env.disclosed_relevance()
    oracle = rank_short_term_oracle(env, slate_size=3)
    assert rel[oracle[0]] >= rel[oracle[1]] >= rel[oracle[2]]
    best = expected_clicks(oracle, rel, cfg.epsilon_exam)
    for perm in itertools.permutations(oracle.tolist()):
        assert best >= expected_clicks(perm, rel, cfg.epsilon_exam) - 1e-12


def test_oracle_skips_bored_topic():
    from collections import deque

    # Hand-built catalog: two items per topic, all living in a single topic
    # block, so relevances under masking are exactly predictable.
    cfg = SimConfig(num_items=8, slate_size=3, num_topics=4, topic_dim=2,
                    click_model="TopDown")
    emb = np.zeros((8, 8))
    for item in range(8):
        topic = item // 2
        vec = [1.0, 0.0] if item % 2 == 0 else [0.9, np.sqrt(1 - 0.81)]
        emb[item, 2 * topic:2 * topic + 2] = vec
    catalog = ItemCatalog(embeddings=emb, main_topic=np.arange(8) // 2)
    env = Environment(cfg, catalog, disclosed=True)
    env.reset(seed=20)
    # Script a user who loves topic 0, then likes topics 1, 2, 3 less and less.
    base = np.array([1.0, 0.2, 0.5, 0.1, 0.35, 0.05, 0.2, 0.0])
    user = UserState(base_embedding=base,
                     click_history=deque(maxlen=cfg.boredom_window))
    env._user = user

    fresh = rank_short_term_oracle(env, slate_size=3)
    assert fresh.tolist() == [0, 1, 2]

    user.bored_topics = {0: 3}
    bored = rank_short_term_oracle(env, slate_size=3)
    assert bored.tolist() == [2, 3, 4]
    assert all(catalog.main_topic[i] != 0 for i in bored)


def test_oracle_deterministic_and_requires_disclosure():
    _, env = disclosed_env(seed=21)
    a = rank_short_term_oracle(env, slate_size=3)
    b = rank_short_term_oracle(env, slate_size=3)
    assert a.tolist() == b.tolist()

    cfg = SimConfig(num_items=10, slate_size=3)
    closed = Environment(cfg, generate_item_catalog(cfg, seed=0), disclosed=False)
    closed.reset(seed=1)
    with pytest.raises(PermissionError):
        rank_short_term_oracle(closed, slate_size=3)


def test_structural_validity_across_rankers():
    emb = unit_table(25, 6, seed=24)
    _, env = disclosed_env(seed=25, num_items=20)
    critic = lambda b, trials: trials.sum(axis=1)
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        slates = [
            rank_topk(rng.normal(size=6), emb, slate_size=4),
            rank_wknn(rng.normal(size=24), emb, critic, np.zeros(1), 4, p=3),
            sample_slate(softmax_policy(rng.normal(size=25)), np.zeros(3), 4, rng),
            rank_random(25, 4, rng),
        ]
        for i, slate in enumerate(slates):
            assert slate.shape == (4,) and slate.dtype == np.int64
            assert slate.min() >= 0 and slate.max() < 25
            if i != 2:
                assert len(set(slate.tolist())) == 4
        oracle = rank_short_term_oracle(env, slate_size=3)
        assert len(set(oracle.tolist())) == 3 and oracle.max() < 20
