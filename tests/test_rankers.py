"""Rankers: action vectors to slates, checked against brute-force oracles."""

import itertools

import numpy as np
import pytest
from scipy import stats as sps

from oracles import one_user_critic, reference_rank_wknn
from slatelab.belief import BeliefConfig
from slatelab.rankers import (
    rank_random,
    rank_short_term_oracle,
    rank_topk,
    rank_wknn,
    top_k,
)
from slatelab.reinforce import ReinforceConfig, ReinforcePolicy, sample_slate
from slatelab.simulator import Environment, ItemCatalog, SimConfig, generate_item_catalog


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
    env.reset([seed + 1])
    return cfg, env


def expected_clicks(slate, rel, eps):
    """TopDown expectation: sum over ranks of relevance times eps^rank."""
    ranks = np.arange(1, len(slate) + 1)
    return float(np.sum(rel[np.asarray(slate)] * eps**ranks))


# --- top-k dot product -------------------------------------------------------


def test_topk_self_similarity():
    emb = unit_table(12, 6, seed=1)
    slate = rank_topk(10.0 * emb[7][None], emb, slate_size=4)[0]
    assert slate[0] == 7


def test_topk_zero_action_tie_break():
    emb = unit_table(9, 5, seed=2)
    assert rank_topk(np.zeros(5)[None], emb, slate_size=4)[0].tolist() == [0, 1, 2, 3]


def test_topk_matches_full_sort():
    emb = unit_table(50, 8, seed=3)
    rng = np.random.default_rng(4)
    ids = np.arange(50)
    for _ in range(100):
        action = rng.normal(size=8)
        scores = emb @ action
        want = np.lexsort((ids, -scores))[:5]
        got = rank_topk(action[None], emb, slate_size=5)[0]
        assert got.tolist() == want.tolist()
        assert len(set(got.tolist())) == 5


def test_topk_positive_scale_invariance():
    emb = unit_table(30, 4, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.normal(size=4)
        base = rank_topk(a[None], emb, slate_size=6)[0]
        for c in (0.01, 3.7, 250.0):
            assert rank_topk(c * a[None], emb, slate_size=6)[0].tolist() == base.tolist()


def test_topk_dim_mismatch_raises():
    emb = unit_table(10, 4)
    with pytest.raises(ValueError):
        rank_topk(np.zeros(5)[None], emb, slate_size=3)
    with pytest.raises(ValueError):
        rank_topk(np.zeros(4)[None], emb, slate_size=11)
    with pytest.raises(ValueError, match=r"\[n, 4\]"):
        rank_topk(np.zeros(4), emb, slate_size=3)


def top_k_cases():
    """Score tables [n, N]: continuous, rounded to a few tied levels,
    constant, signed zeros among ties, infinities, and paper-sized rows."""
    rng = np.random.default_rng(30)
    yield rng.normal(size=(6, 40))
    yield np.round(rng.random((9, 60)), 1)
    yield np.zeros((3, 25))
    yield np.full((2, 12), -4.5)
    yield rng.choice([0.0, -0.0, 1.0, -1.0], size=(8, 30))
    yield rng.choice([np.inf, -np.inf, 0.5, 0.5], size=(5, 20))
    yield rng.integers(0, 3, size=(4, 50)).astype(np.float64)
    yield rng.random((40, 1000))
    yield np.round(rng.random((40, 1000)), 2)


def test_top_k_equals_a_full_stable_argsort():
    for scores in top_k_cases():
        n_items = scores.shape[1]
        for k in sorted({1, 2, 3, 10, n_items // 2, n_items - 1, n_items}):
            want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            got = top_k(scores, k)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(top_k(scores[:1], k), want[:1])
            with pytest.raises(ValueError, match=r"\[n, N\]"):
                top_k(scores.reshape(1, *scores.shape), k)


def test_top_k_rejects_bad_k_and_nan():
    with pytest.raises(ValueError):
        top_k(np.zeros(5)[None], 0)
    with pytest.raises(ValueError):
        top_k(np.zeros(5)[None], 6)
    scores = np.arange(8.0)
    scores[6] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        top_k(scores[None], 3)
    # A NaN that the k kept would not reach raises too.
    with pytest.raises(ValueError, match="NaN"):
        top_k(np.array([np.nan, 1.0, 1.0])[None], 2)
    with pytest.raises(ValueError, match="NaN"):
        top_k(np.array([[0.0, 2.0, 1.0], [3.0, 1.0, np.nan]]), 1)


def test_batched_topk_equals_one_action_at_a_time():
    emb = unit_table(1000, 20, seed=31)
    actions = np.random.default_rng(32).normal(size=(7, 20)).astype(np.float32)
    actions[3] = 0.0          # every score ties
    slates = rank_topk(actions, emb, slate_size=10)
    assert slates.shape == (7, 10) and slates.dtype == np.int64
    for a, slate in zip(actions, slates):
        scores = emb @ a.astype(np.float64)
        np.testing.assert_array_equal(slate, np.argsort(-scores, kind="stable")[:10])
        np.testing.assert_array_equal(rank_topk(a[None], emb, slate_size=10)[0], slate)


def test_batched_oracle_ranks_each_user_like_a_lone_user():
    cfg = SimConfig(num_items=300, slate_size=10, click_model="TopDown")
    catalog = generate_item_catalog(cfg, seed=33)
    env = Environment(cfg, catalog, disclosed=True)
    env.reset(range(5))
    env.set_state(bored_turns=np.eye(5, cfg.num_topics, dtype=np.int64) * 2)
    slates = rank_short_term_oracle(env, cfg.slate_size)
    rel = env.disclosed_relevance()
    for i in range(5):
        np.testing.assert_array_equal(slates[i], np.argsort(-rel[i], kind="stable")[:10])


# --- wknn --------------------------------------------------------------------


def test_wknn_p1_is_nearest_neighbor_without_critic():
    emb = unit_table(15, 3, seed=7)
    rng = np.random.default_rng(8)

    def critic(belief, trials):
        pytest.fail("critic must not be called when p=1")

    for _ in range(10):
        action = rng.normal(size=4 * 3)
        got = rank_wknn(action[None], emb, one_user_critic(critic), beliefs=np.zeros(2)[None],
                        slate_size=4, p=1)[0]
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
    got = rank_wknn(action[None], emb, one_user_critic(critic), beliefs=np.zeros(1)[None],
                    slate_size=2, p=5)[0]

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
        slate = rank_wknn(action[None], emb, one_user_critic(critic), np.zeros(3)[None],
                          slate_size=4, p=3)[0]
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

    slate = rank_wknn(np.zeros(10)[None], emb, one_user_critic(critic), np.zeros(1)[None],
                      slate_size=5, p=5)[0]
    assert sorted(slate.tolist()) == [0, 1, 2, 3, 4]
    # One call per slot scores all its candidates; the final slot has a
    # single remaining candidate, so no critic call there.
    assert [len(rows) for rows in calls] == [5, 4, 3, 2]


def test_wknn_errors():
    emb = unit_table(5, 2)
    critic = one_user_critic(lambda b, trials: np.zeros(len(trials)))
    with pytest.raises(ValueError):
        rank_wknn(np.zeros(4)[None], emb, critic, np.zeros(1)[None], slate_size=2, p=6)
    with pytest.raises(ValueError):
        rank_wknn(np.zeros(4)[None], emb, critic, np.zeros(1)[None], slate_size=2, p=0)
    with pytest.raises(ValueError):
        rank_wknn(np.zeros(3)[None], emb, critic, np.zeros(1)[None], slate_size=2, p=2)
    with pytest.raises(ValueError, match=r"\[n, 4\]"):
        rank_wknn(np.zeros(4), emb, critic, np.zeros(1), slate_size=2, p=2)


def test_rankers_reject_non_finite_actions_and_oversized_slates():
    emb = unit_table(5, 2)
    critic = one_user_critic(lambda b, trials: np.zeros(len(trials)))
    with pytest.raises(ValueError, match="slate_size=6 exceeds the 5 available items"):
        rank_wknn(np.zeros(12)[None], emb, critic, np.zeros(1)[None], slate_size=6, p=1)
    for bad in (np.nan, np.inf, -np.inf):
        action = np.zeros(4)
        action[1] = bad
        with pytest.raises(ValueError, match="action must be finite"):
            rank_wknn(action[None], emb, critic, np.zeros(1)[None], slate_size=2, p=2)
        with pytest.raises(ValueError, match="action must be finite"):
            rank_topk(action[None, :2], emb, slate_size=2)


def wknn_reference_cases(users):
    """(table, actions [users, k*e], slate_size): random tables, duplicated
    rows, rounded rows with many exact distance ties, targets on item rows,
    tables offset by 1e4 whose neighbours lie closer than the expanded
    distance's rounding, and paper-sized tables."""
    rng = np.random.default_rng(31)
    for trial in range(60):
        n, e, k = int(rng.integers(4, 40)), int(rng.integers(1, 9)), int(rng.integers(1, 5))
        emb, actions = rng.normal(size=(n, e)), rng.normal(size=(users, k * e))
        kind = trial % 5
        if kind == 1:
            emb = emb[rng.integers(0, n // 2, size=n)]
        elif kind == 2:
            emb, actions = np.round(emb), np.round(actions)
        elif kind == 3:
            scale = 10.0 ** rng.uniform(-6, -1)
            emb, actions = 1e4 + scale * emb, 1e4 + scale * actions
        elif kind == 4:
            emb = np.round(emb[rng.integers(0, n // 2, size=n)], 1)
            actions = emb[rng.integers(0, n, size=(users, k))].reshape(users, k * e)
        yield emb, actions, k
    for _ in range(3):
        yield 0.3 * rng.normal(size=(1000, 20)), np.tanh(rng.normal(size=(users, 200))), 10


def test_wknn_matches_the_full_sort_reference_bit_for_bit():
    """Each user of a batch gets the slate, and its candidates the critic
    rows, of the full-sort reference ranking that user alone."""
    rng = np.random.default_rng(32)
    for users, (emb, actions, k) in ((users, case) for users in (1, 3, 8)
                                     for case in wknn_reference_cases(users)):
        n = len(emb)
        w = rng.normal(size=actions.shape[1])
        critics = (lambda t: t @ w, lambda t: np.round(t @ w), lambda t: np.zeros(len(t)))
        for p in sorted({1, 2, 3, n - k + 1, n}):
            for q in critics:
                got_rows = [[] for _ in range(users)]

                def recording(rows, q=q):
                    def critic(belief, trials):
                        rows[int(belief[0])].append(trials.copy())
                        return q(trials)
                    return critic

                calls = []

                def batched(*args, score=one_user_critic(recording(got_rows))):
                    calls.append(args[2])
                    return score(*args)

                got = rank_wknn(actions, emb, batched, np.arange(users)[:, None], k, p)
                assert got.shape == (users, k)
                # one call per slot scores every user's candidates
                assert calls == [s for s in range(k) if min(p, n - s) > 1]
                for i in range(users):
                    want_rows = [[]]
                    want = reference_rank_wknn(actions[i], emb, recording(want_rows),
                                               np.zeros(1), k, p)
                    assert got[i].tolist() == want.tolist(), (n, k, p, i)
                    assert len(got_rows[i]) == len(want_rows[0])
                    for a, b in zip(got_rows[i], want_rows[0]):
                        assert a.shape == b.shape and a.tobytes() == b.tobytes()


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
        slate = sample_slate(pol, np.zeros(3)[None], slate_size=4, rng=rng)[0]
        assert slate.tolist() == [3, 3, 3, 3]


def test_softmax_uniform_marginals_chi2():
    n, k, draws = 10, 5, 20_000
    pol = softmax_policy(np.zeros(n))
    rng = np.random.default_rng(12)
    counts = np.zeros((k, n))
    for _ in range(draws):
        slate = sample_slate(pol, np.zeros(3)[None], slate_size=k, rng=rng)[0]
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
        slate = sample_slate(pol, np.zeros(3)[None], slate_size=3, rng=rng)[0]
        if len(set(slate.tolist())) < 3:
            seen_repeat = True
            break
    assert seen_repeat


# --- random ------------------------------------------------------------------


def test_random_distinct_in_range_deterministic():
    a = rank_random(1, 20, 5, np.random.default_rng(15))[0]
    b = rank_random(1, 20, 5, np.random.default_rng(15))[0]
    assert a.tolist() == b.tolist()
    assert len(set(a.tolist())) == 5
    assert a.min() >= 0 and a.max() < 20
    with pytest.raises(ValueError):
        rank_random(1, 3, 4, np.random.default_rng(0))


def test_random_marginal_uniform_chi2():
    n, k, draws = 20, 3, 30_000
    rng = np.random.default_rng(16)
    counts = np.zeros(n)
    for _ in range(draws):
        for item in rank_random(1, n, k, rng)[0]:
            counts[item] += 1
    expected = draws * k / n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < sps.chi2.ppf(0.99, n - 1)


# --- short-term oracle -------------------------------------------------------


def test_oracle_beats_all_ordered_slates():
    cfg, env = disclosed_env(seed=17)
    rel = env.disclosed_relevance()[0]
    oracle = rank_short_term_oracle(env, slate_size=3)[0]
    best = expected_clicks(oracle, rel, cfg.epsilon_exam)
    count = 0
    for slate in itertools.permutations(range(20), 3):
        assert best >= expected_clicks(slate, rel, cfg.epsilon_exam) - 1e-12
        count += 1
    assert count == 6840


def test_oracle_descending_order_optimal_among_permutations():
    cfg, env = disclosed_env(seed=18)
    rel = env.disclosed_relevance()[0]
    oracle = rank_short_term_oracle(env, slate_size=3)[0]
    assert rel[oracle[0]] >= rel[oracle[1]] >= rel[oracle[2]]
    best = expected_clicks(oracle, rel, cfg.epsilon_exam)
    for perm in itertools.permutations(oracle.tolist()):
        assert best >= expected_clicks(perm, rel, cfg.epsilon_exam) - 1e-12


def test_oracle_skips_bored_topic():
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
    env.reset([20])
    # Script a user who loves topic 0, then likes topics 1, 2, 3 less and less.
    base = np.array([1.0, 0.2, 0.5, 0.1, 0.35, 0.05, 0.2, 0.0])
    env.set_state(base_embeddings=base[None])

    fresh = rank_short_term_oracle(env, slate_size=3)[0]
    assert fresh.tolist() == [0, 1, 2]

    env.set_state(bored_turns=[[3, 0, 0, 0]])
    bored = rank_short_term_oracle(env, slate_size=3)[0]
    assert bored.tolist() == [2, 3, 4]
    assert all(catalog.main_topic[i] != 0 for i in bored)


def test_oracle_deterministic_and_requires_disclosure():
    _, env = disclosed_env(seed=21)
    a = rank_short_term_oracle(env, slate_size=3)
    b = rank_short_term_oracle(env, slate_size=3)
    assert a.tolist() == b.tolist()

    cfg = SimConfig(num_items=10, slate_size=3)
    closed = Environment(cfg, generate_item_catalog(cfg, seed=0), disclosed=False)
    closed.reset([1])
    with pytest.raises(PermissionError):
        rank_short_term_oracle(closed, slate_size=3)


def test_structural_validity_across_rankers():
    emb = unit_table(25, 6, seed=24)
    _, env = disclosed_env(seed=25, num_items=20)
    critic = lambda b, trials: trials.sum(axis=1)
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        slates = [
            rank_topk(rng.normal(size=6)[None], emb, slate_size=4)[0],
            rank_wknn(rng.normal(size=24)[None], emb, one_user_critic(critic), np.zeros(1)[None],
                      4, p=3)[0],
            sample_slate(softmax_policy(rng.normal(size=25)), np.zeros(3)[None], 4, rng)[0],
            rank_random(1, 25, 4, rng)[0],
        ]
        for i, slate in enumerate(slates):
            assert slate.shape == (4,) and slate.dtype == np.int64
            assert slate.min() >= 0 and slate.max() < 25
            if i != 2:
                assert len(set(slate.tolist())) == 4
        oracle = rank_short_term_oracle(env, slate_size=3)[0]
        assert len(set(oracle.tolist())) == 3 and oracle.max() < 20
