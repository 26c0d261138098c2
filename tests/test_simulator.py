import hashlib

import numpy as np
import pytest

import oracles
from slatelab.simulator import (
    Environment,
    ItemCatalog,
    SimConfig,
    examination_vector,
    generate_item_catalog,
    validate_slate,
)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class ScriptRng:
    """Stand-in rng whose random(out=row) fills pre-scripted uniform draws.

    0.0 forces a click at that slot (every probability beats it), 1.0 forces
    no click.
    """

    def __init__(self, rows):
        self.rows = [np.asarray(r, dtype=np.float64) for r in rows]
        self.calls = 0

    def random(self, size=None, out=None):
        row = self.rows[self.calls]
        self.calls += 1
        if out is None:
            assert row.shape == (size,)
            return row.copy()
        assert row.shape == out.shape
        out[...] = row
        return out


def pure_topic_catalog(cfg, topics):
    """Catalog whose item i sits entirely in topic block topics[i]."""
    emb = np.zeros((len(topics), cfg.embed_dim))
    for i, t in enumerate(topics):
        emb[i, t * cfg.topic_dim] = 1.0
    return ItemCatalog(embeddings=emb, main_topic=np.asarray(topics))


def uniform_embedding(cfg):
    e = np.ones(cfg.embed_dim)
    return e / np.linalg.norm(e)


def user_env(cfg, cat, base=None, bored=None, rng=None, seed=0):
    """Disclosed one-user environment; base embedding [e], bored topics
    {topic: turns left} and the user's generator overwrite the sampled ones."""
    env = Environment(cfg, cat, disclosed=True)
    env.reset([seed])
    if base is not None:
        env.set_state(base_embeddings=np.asarray(base)[None])
    if bored is not None:
        turns = np.zeros((1, cfg.num_topics), dtype=np.int64)
        for t, left in bored.items():
            turns[0, t] = left
        env.set_state(bored_turns=turns)
    if rng is not None:
        env.rngs = [rng]
    return env


def bored_topics(env, i=0):
    """User i's bored topics as {topic: turns left}."""
    return {t: int(left) for t, left in enumerate(env.disclosed_bored_topics()[i]) if left}


def history(env, i=0):
    """User i's clicked items in the window, oldest first; a -1 anywhere but
    in the leading padding stays in the list or cuts a clicked item."""
    row = env.click_history[i].tolist()
    return row[row.count(-1):]


def relevance(env, item):
    return float(env.disclosed_relevance()[0, item])


def step(env, slate):
    return env.step(np.asarray(slate)[None])


# --- embeddings ---------------------------------------------------------------

def test_catalog_rows_unit_norm():
    cfg = SimConfig(num_items=200)
    cat = generate_item_catalog(cfg, seed=0)
    norms = np.linalg.norm(cat.embeddings, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)


def test_catalog_seeded_determinism():
    cfg = SimConfig(num_items=50)
    a = generate_item_catalog(cfg, seed=3)
    b = generate_item_catalog(cfg, seed=3)
    assert np.array_equal(a.embeddings, b.embeddings)
    assert np.array_equal(a.main_topic, b.main_topic)
    c = generate_item_catalog(cfg, seed=4)
    assert not np.array_equal(a.embeddings, c.embeddings)


def test_focused_variant_is_peakier():
    base = dict(num_items=1000)
    diffuse = generate_item_catalog(SimConfig(**base), seed=1)
    focused = generate_item_catalog(SimConfig(embedding_variant="focused", **base), seed=1)

    def mean_max_topic_mass(cat, cfg):
        blocks = cat.embeddings.reshape(cfg.num_items, cfg.num_topics, cfg.topic_dim)
        mass = (blocks**2).sum(axis=2)
        return float(np.mean(mass.max(axis=1)))

    cfg = SimConfig(**base)
    assert mean_max_topic_mass(focused, cfg) > mean_max_topic_mass(diffuse, cfg)


def test_main_topic_matches_block_norms():
    cfg = SimConfig(num_items=30)
    cat = generate_item_catalog(cfg, seed=7)
    blocks = cat.embeddings.reshape(cfg.num_items, cfg.num_topics, cfg.topic_dim)
    want = np.argmax(np.linalg.norm(blocks, axis=2), axis=1)
    np.testing.assert_array_equal(cat.main_topic, want)


def test_embedding_components_keep_sign():
    cfg = SimConfig(num_items=500)
    cat = generate_item_catalog(cfg, seed=2)
    assert (cat.embeddings < 0).any()


def test_sample_user_fresh_state():
    cfg = SimConfig()
    env = Environment(cfg, generate_item_catalog(cfg, seed=0), disclosed=True)
    env.reset([0, 1])
    u, v = env.base_embeddings
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-9)
    assert bored_topics(env, 0) == {}
    assert (env.click_history[0] == -1).all()
    assert env.turn_index == 0
    assert not np.array_equal(u, v)


def test_reset_draws_each_user_from_its_own_seed():
    cfg = SimConfig(num_items=30)
    cat = generate_item_catalog(cfg, seed=0)
    env = Environment(cfg, cat)
    env.reset([4, 9, 4])
    ref = oracles.sample_user(cfg, np.random.Generator(np.random.PCG64(np.random.SeedSequence(9))))
    np.testing.assert_array_equal(env.base_embeddings[1], ref.base_embedding)
    np.testing.assert_array_equal(env.base_embeddings[0], env.base_embeddings[2])
    with pytest.raises(ValueError):
        env.reset([])


@pytest.mark.parametrize("variant", ["diffuse", "focused"])
@pytest.mark.parametrize("num_topics", [1, 9, 130, 257])
@pytest.mark.parametrize("topic_dim", [1, 3, 60])
def test_catalog_and_users_match_the_per_item_reference(variant, num_topics, topic_dim):
    cfg = SimConfig(num_items=40, slate_size=5, num_topics=num_topics, topic_dim=topic_dim,
                    embedding_variant=variant)
    cat = generate_item_catalog(cfg, seed=5)
    ref = oracles.catalog_embeddings(cfg, seed=5)
    assert cat.embeddings.shape == ref.shape
    assert cat.embeddings.tobytes() == ref.tobytes()
    env = Environment(cfg, cat)
    seeds = [3, 0, 3, 11]
    env.reset(seeds)
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s))) for s in seeds]
    users = np.stack([oracles.raw_embedding(cfg, rng) for rng in rngs])
    assert env.base_embeddings.tobytes() == users.tobytes()
    assert [r.bit_generator.state for r in env.rngs] == [r.bit_generator.state for r in rngs]


@pytest.mark.parametrize("variant, digest", [
    ("diffuse", "2618eae82d648e21db2d6cd9982b9533b934b70c6dab3998a18f2d643a777d41"),
    ("focused", "6fbd03f340e1e74d386fb2d82bf86fbf9fc42c9912c7c16807adc90540b406e5"),
])
def test_paper_default_catalog_bytes_are_pinned(variant, digest):
    """The digests are those of the one-item-at-a-time catalog build."""
    cat = generate_item_catalog(SimConfig(embedding_variant=variant), seed=0)
    assert hashlib.sha256(cat.embeddings.tobytes()).hexdigest() == digest


# --- relevance ----------------------------------------------------------------

def test_relevance_half_at_offset():
    cfg = SimConfig(num_items=1, slate_size=1)
    # Item along axis 0; user scaled so the dot equals the sigmoid offset.
    cat = pure_topic_catalog(cfg, [0])
    e = np.zeros(cfg.embed_dim)
    e[0] = cfg.sigmoid_offset
    env = user_env(cfg, cat, base=e)
    assert relevance(env, 0) == pytest.approx(0.5, abs=1e-12)


def test_relevance_at_perfect_match():
    cfg = SimConfig(num_items=1, slate_size=1)
    cat = pure_topic_catalog(cfg, [0])
    env = user_env(cfg, cat, base=cat.embeddings[0].copy())
    want = _sigmoid((1.0 - 0.28) * 5.0)
    assert relevance(env, 0) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.973, abs=5e-4)


def test_relevance_fully_masked_user():
    cfg = SimConfig(num_items=1, slate_size=1)
    cat = pure_topic_catalog(cfg, [0])
    env = user_env(cfg, cat, base=uniform_embedding(cfg),
                   bored={t: 3 for t in range(cfg.num_topics)})
    want = _sigmoid(-0.28 * 5.0)
    assert relevance(env, 0) == pytest.approx(want, abs=1e-12)


def test_relevance_scores_match_scalar():
    cfg = SimConfig(num_items=40)
    cat = generate_item_catalog(cfg, seed=5)
    env = user_env(cfg, cat, bored={2: 1}, seed=5)
    user = oracles.UserState(base_embedding=env.base_embeddings[0].copy(), bored_topics={2: 1})
    scores = env.disclosed_relevance()[0]
    for i in (0, 7, 39):
        assert scores[i] == pytest.approx(oracles.relevance(user, i, cat, cfg), abs=1e-12)


# --- examination ---------------------------------------------------------------

def test_examination_topdown_rank_one():
    cfg = SimConfig(click_model="TopDown")
    assert examination_vector(cfg)[0] == pytest.approx(0.85, abs=1e-12)


def test_examination_mixed_value():
    cfg = SimConfig(click_model="Mixed")
    want = 0.5 * 0.85 + 0.5 * 0.85**10
    assert examination_vector(cfg)[0] == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.5234, abs=5e-5)


def test_examination_mixed_symmetry():
    cfg = SimConfig(click_model="Mixed")
    e = examination_vector(cfg)
    for r in range(1, cfg.slate_size + 1):
        assert e[r - 1] == pytest.approx(e[cfg.slate_size - r], abs=1e-15)


def test_examination_topdown_strictly_decreasing():
    cfg = SimConfig(click_model="TopDown")
    e = examination_vector(cfg)
    assert (np.diff(e) < 0).all()
    assert ((e > 0) & (e < 1)).all()


# --- attractiveness and click models --------------------------------------------

def attractiveness(cfg, cat, base, slate):
    return user_env(cfg, cat, base=base).disclosed_attractiveness(np.asarray(slate)[None])[0]


def click_probabilities(env, slate):
    return env.disclosed_attractiveness(np.asarray(slate)[None])[0] * examination_vector(env.cfg)


def test_mixed_attractiveness_equals_relevance():
    cfg = SimConfig(num_items=30, click_model="Mixed")
    cat = generate_item_catalog(cfg, seed=11)
    env = user_env(cfg, cat, seed=11)
    slate = np.arange(10)
    a = env.disclosed_attractiveness(slate[None])[0]
    want = [relevance(env, i) for i in slate]
    np.testing.assert_allclose(a, want, atol=1e-12)


def test_divpen_triggers_on_fifth_same_topic_item():
    cfg = SimConfig(num_items=10, click_model="DivPen")
    cat = pure_topic_catalog(cfg, [3, 3, 3, 3, 3, 1, 2, 4, 5, 6])
    user = uniform_embedding(cfg)
    slate = np.arange(10)
    mixed = SimConfig(num_items=10, click_model="Mixed")
    base = attractiveness(mixed, cat, user, slate)
    penalized = attractiveness(cfg, cat, user, slate)
    np.testing.assert_allclose(penalized, base / 3.0, atol=1e-12)


def test_divpen_inactive_at_four_per_topic():
    cfg = SimConfig(num_items=10, click_model="DivPen")
    cat = pure_topic_catalog(cfg, [3, 3, 3, 3, 1, 1, 2, 4, 5, 6])
    user = uniform_embedding(cfg)
    slate = np.arange(10)
    mixed = SimConfig(num_items=10, click_model="Mixed")
    np.testing.assert_allclose(attractiveness(cfg, cat, user, slate),
                               attractiveness(mixed, cat, user, slate),
                               atol=1e-12)


def test_divpen_penalizes_only_the_slates_over_the_count():
    cfg = SimConfig(num_items=10, click_model="DivPen")
    cat = pure_topic_catalog(cfg, [3, 3, 3, 3, 3, 1, 2, 4, 5, 6])
    env = Environment(cfg, cat, disclosed=True)
    env.reset([0, 1])
    env.set_state(base_embeddings=np.tile(uniform_embedding(cfg), (2, 1)))
    slates = np.array([np.arange(10), [0, 1, 2, 3, 5, 6, 7, 8, 9, 9]])
    a = env.disclosed_attractiveness(slates)
    mixed = attractiveness(SimConfig(num_items=10, click_model="Mixed"), cat,
                           uniform_embedding(cfg), np.arange(10))
    np.testing.assert_array_equal(a[0], mixed / 3.0)
    np.testing.assert_array_equal(a[1], mixed[slates[1]])


def test_click_probabilities_in_unit_interval():
    cfg = SimConfig(num_items=50, click_model="Mixed")
    cat = generate_item_catalog(cfg, seed=13)
    p = click_probabilities(user_env(cfg, cat, seed=13), np.arange(10))
    assert ((p > 0) & (p < 1)).all()


@pytest.mark.parametrize("model", ["TopDown", "Mixed", "DivPen"])
def test_click_rate_calibration(model):
    """Frozen user, fixed slate: empirical per-slot click rate matches A*E."""
    cfg = SimConfig(num_items=100, click_model=model)
    cat = generate_item_catalog(cfg, seed=17)
    slate = np.arange(10)
    probs = click_probabilities(user_env(cfg, cat, seed=17), slate)
    n = 100_000
    draws = np.random.default_rng(99).random((n, cfg.slate_size)) < probs
    rate = draws.mean(axis=0)
    se = np.sqrt(probs * (1 - probs) / n)
    assert (np.abs(rate - probs) <= 3 * se).all()


# --- step dynamics ---------------------------------------------------------------

def small_cfg(**kw):
    kw.setdefault("num_items", 12)
    kw.setdefault("slate_size", 5)
    kw.setdefault("episode_length", 30)
    return SimConfig(**kw)


def test_no_clicks_leaves_user_untouched():
    cfg = small_cfg()
    cat = generate_item_catalog(cfg, seed=1)
    env = user_env(cfg, cat, rng=ScriptRng([np.ones(5)]), seed=1)
    before = env.base_embeddings[0].copy()
    res = step(env, np.arange(5))
    assert res.rewards[0] == 0
    assert not res.clicks.any()
    assert np.array_equal(env.base_embeddings[0], before)
    assert env.turn_index == 1


def test_click_applies_influence_in_slate_order():
    cfg = small_cfg(omega=0.9)
    cat = generate_item_catalog(cfg, seed=2)
    env = user_env(cfg, cat, rng=ScriptRng([[0.0, 1.0, 0.0, 1.0, 1.0]]), seed=2)
    e0 = env.base_embeddings[0].copy()
    slate = np.array([3, 7, 1, 0, 2])
    step(env, slate)
    want = 0.9 * e0 + 0.1 * cat.embeddings[3]
    want = 0.9 * want + 0.1 * cat.embeddings[1]
    np.testing.assert_allclose(env.base_embeddings[0], want, atol=1e-12)
    assert history(env, 0) == [3, 1]


def test_influence_preserves_boundedness():
    cfg = small_cfg(episode_length=200)
    cat = generate_item_catalog(cfg, seed=3)
    rng = np.random.default_rng(30)
    env = user_env(cfg, cat, rng=rng, seed=3)
    for _ in range(200):
        slate = rng.choice(cfg.num_items, size=5, replace=False)
        step(env, slate)
        assert np.linalg.norm(env.base_embeddings[0]) <= 1.0 + 1e-12


def test_duplicate_slots_click_independently():
    cfg = small_cfg()
    cat = generate_item_catalog(cfg, seed=4)
    env = user_env(cfg, cat, rng=ScriptRng([[0.0, 1.0, 0.0, 1.0, 0.0]]), seed=4)
    slate = np.array([2, 2, 2, 2, 2])
    res = step(env, slate)
    np.testing.assert_array_equal(res.clicks[0], [1, 0, 1, 0, 1])
    assert res.rewards[0] == 3


def test_validate_slate_errors():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        validate_slate(np.arange(4), cfg)
    with pytest.raises(ValueError):
        validate_slate(np.array([0, 1, 2, 3, 12]), cfg)
    out = validate_slate([0, 0, 1, 1, 2], cfg)
    assert out.dtype == np.int64


def test_validate_slate_rejects_non_integer_and_boolean_slates():
    cfg = small_cfg(slate_size=3)
    for bad in ([1.7, 2.2, 3.9], np.array([1.0, 2.0, 3.0]), np.array([True, False, True]),
                ["1", "2", "3"]):
        with pytest.raises(ValueError, match="integers"):
            validate_slate(bad, cfg)
    with pytest.raises(ValueError, match="out-of-range"):
        validate_slate(np.array([0, -1, 2]), cfg)
    np.testing.assert_array_equal(validate_slate(np.array([1, 2, 3], np.uint32), cfg), [1, 2, 3])
    env = Environment(cfg, generate_item_catalog(cfg, seed=0))
    env.reset([0])
    with pytest.raises(ValueError, match="integers"):
        env.step(np.array([[1.7, 2.2, 3.9]]))
    with pytest.raises(ValueError, match="shape"):
        env.step(np.array([[0, 1, 2], [3, 4, 5]]))
    assert env.turn_index == 0


# --- boredom -----------------------------------------------------------------

def scripted_step(env, slate, row):
    """One step of the one-user env whose click draws are the uniforms row."""
    env.rngs = [ScriptRng([row])]
    return step(env, slate)


def test_boredom_five_turn_mask_then_recovery():
    """Five same-topic clicks trigger a 5-turn mask; pushing them out of the
    history window lets the topic recover exactly on the sixth turn."""
    cfg = small_cfg(num_items=12, slate_size=5, episode_length=30)
    # Items 0-4 pure topic 0, items 5-10 pure topics 1-6, item 11 topic 7.
    cat = pure_topic_catalog(cfg, [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7])
    env = user_env(cfg, cat, base=uniform_embedding(cfg))
    masked_rel = _sigmoid(-cfg.sigmoid_offset * cfg.sigmoid_slope)

    # Turn 1: click all five topic-0 items.
    scripted_step(env, np.arange(5), np.zeros(5))
    assert bored_topics(env) == {0: 5}

    # Five masked turns; two off-topic clicks per turn age the history,
    # rotated so no filler topic itself accumulates five clicks.
    filler = np.array([5, 6, 7, 8, 9])
    rows = [[0, 0, 1, 1, 1], [1, 1, 0, 0, 1], [0, 1, 1, 1, 0],
            [1, 0, 0, 1, 1], [1, 1, 1, 0, 0]]
    for row in rows:
        assert relevance(env, 0) == pytest.approx(masked_rel, abs=1e-12)
        scripted_step(env, filler, np.asarray(row, dtype=float))
    # Counter expired and the window now holds at most four topic-0 clicks.
    assert bored_topics(env) == {}
    assert relevance(env, 0) > masked_rel


def test_boredom_counter_not_refreshed_while_active():
    cfg = small_cfg()
    cat = pure_topic_catalog(cfg, [0] * 12)
    env = user_env(cfg, cat, base=uniform_embedding(cfg))
    scripted_step(env, np.arange(5), np.zeros(5))
    assert bored_topics(env) == {0: 5}
    # Keep clicking the bored topic: history stays saturated but the counter
    # must keep counting down instead of resetting.
    scripted_step(env, np.arange(5), np.zeros(5))
    assert bored_topics(env) == {0: 4}
    scripted_step(env, np.arange(5), [0.0, 1.0, 1.0, 1.0, 1.0])
    assert bored_topics(env) == {0: 3}


def test_boredom_retriggers_if_history_still_saturated():
    cfg = small_cfg()
    cat = pure_topic_catalog(cfg, [0] * 12)
    env = user_env(cfg, cat, base=uniform_embedding(cfg))
    scripted_step(env, np.arange(5), np.zeros(5))
    # No further clicks: the five topic-0 clicks stay in the window, so on
    # expiry the topic is immediately bored again.
    for _ in range(5):
        scripted_step(env, np.arange(5), np.ones(5))
    assert bored_topics(env) == {0: 5}


def test_bored_values_stay_in_range():
    cfg = small_cfg()
    cat = generate_item_catalog(cfg, seed=8)
    rng = np.random.default_rng(80)
    env = user_env(cfg, cat, rng=rng, seed=8)
    for _ in range(cfg.episode_length):
        step(env, rng.choice(cfg.num_items, 5, replace=False))
        for counter in bored_topics(env).values():
            assert 1 <= counter <= cfg.boredom_duration


# --- lockstep users against the one-user reference ---------------------------------


def boredom_heavy_slates(cfg, cat, rng, users, n):
    """Per user: the current top-k, k items of one main topic (with repeats
    when the topic is small), or k uniform items, chosen at random."""
    by_topic = [np.flatnonzero(cat.main_topic == t) for t in range(cfg.num_topics)]
    by_topic = [items for items in by_topic if items.size]
    slates = np.empty((n, cfg.slate_size), dtype=np.int64)
    for i in range(n):
        mode = rng.integers(3)
        if mode == 0:
            rel = oracles.relevance_scores(users[i], cat, cfg)
            slates[i] = np.argsort(-rel, kind="stable")[:cfg.slate_size]
        elif mode == 1:
            items = by_topic[rng.integers(len(by_topic))]
            slates[i] = rng.choice(items, cfg.slate_size, replace=items.size < cfg.slate_size)
        else:
            slates[i] = rng.choice(cfg.num_items, cfg.slate_size, replace=False)
    return slates


@pytest.mark.parametrize("click_model", ["TopDown", "Mixed", "DivPen"])
@pytest.mark.parametrize("variant", ["focused", "diffuse"])
def test_lockstep_env_matches_one_user_reference_bit_for_bit(click_model, variant):
    cfg = SimConfig(num_items=200, episode_length=25, click_model=click_model,
                    embedding_variant=variant)
    cat = generate_item_catalog(cfg, seed=3)
    ever_bored = 0
    for n in (1, 7, 40):
        seeds = [100 + 13 * i for i in range(n)]
        env = Environment(cfg, cat, disclosed=True)
        env.reset(seeds)
        rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s))) for s in seeds]
        users = [oracles.sample_user(cfg, rng) for rng in rngs]
        slate_rng = np.random.default_rng(n)
        for t in range(cfg.episode_length):
            rel = env.disclosed_relevance()
            slates = boredom_heavy_slates(cfg, cat, slate_rng, users, n)
            res = env.step(slates)
            for i in range(n):
                np.testing.assert_array_equal(rel[i], oracles.relevance_scores(users[i], cat, cfg))
                ref = oracles.step(users[i], slates[i], cat, cfg, rngs[i])
                np.testing.assert_array_equal(res.clicks[i], ref.clicks)
                assert res.rewards[i] == ref.reward
                np.testing.assert_array_equal(env.base_embeddings[i], users[i].base_embedding)
                assert bored_topics(env, i) == users[i].bored_topics
                assert history(env, i) == list(users[i].click_history)
                ever_bored += bool(users[i].bored_topics)
            assert res.done == ref.done
    assert ever_bored > 100


def test_history_window_sizes_match_reference():
    # Windows shorter than the slate, of one click at threshold one, and
    # longer than the slate.
    for window, threshold in ((3, 2), (1, 1), (13, 5)):
        cfg = SimConfig(num_items=30, slate_size=8, num_topics=3, boredom_window=window,
                        boredom_threshold=threshold, episode_length=30, click_model="Mixed")
        cat = generate_item_catalog(cfg, seed=4)
        env = Environment(cfg, cat, disclosed=True)
        env.reset([1, 2, 3])
        rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s)))
                for s in (1, 2, 3)]
        users = [oracles.sample_user(cfg, rng) for rng in rngs]
        slate_rng = np.random.default_rng(0)
        for t in range(cfg.episode_length):
            slates = boredom_heavy_slates(cfg, cat, slate_rng, users, 3)
            res = env.step(slates)
            for i in range(3):
                ref = oracles.step(users[i], slates[i], cat, cfg, rngs[i])
                np.testing.assert_array_equal(res.clicks[i], ref.clicks)
                assert bored_topics(env, i) == users[i].bored_topics
                assert history(env, i) == list(users[i].click_history)


# --- environment wrapper -------------------------------------------------------

def test_episode_replay_bit_identical():
    cfg = small_cfg(episode_length=20)
    cat = generate_item_catalog(cfg, seed=21)
    slates = np.random.default_rng(0).choice(cfg.num_items, size=(20, 5))

    def run():
        env = Environment(cfg, cat)
        env.reset([5])
        out = []
        for t in range(20):
            res = env.step(slates[t][None])
            out.append((res.clicks.copy(), res.rewards[0], res.done))
        return out

    a, b = run(), run()
    for (ca, ra, da), (cb, rb, db) in zip(a, b):
        assert np.array_equal(ca, cb) and ra == rb and da == db
    assert a[-1][2] is True


def test_env_guards():
    cfg = small_cfg(episode_length=2)
    cat = generate_item_catalog(cfg, seed=1)
    env = Environment(cfg, cat)
    with pytest.raises(RuntimeError):
        env.step(np.arange(5)[None])
    env.reset([0])
    env.step(np.arange(5)[None])
    env.step(np.arange(5)[None])
    assert env.done
    with pytest.raises(RuntimeError):
        env.step(np.arange(5)[None])


def test_disclosed_mode_gates_accessors():
    cfg = small_cfg()
    cat = generate_item_catalog(cfg, seed=2)
    env = Environment(cfg, cat)
    denv = Environment(cfg, cat, disclosed=True)
    denv.reset([0])
    scores = denv.disclosed_relevance()
    assert scores.shape == (1, 12)
    assert ((scores > 0) & (scores < 1)).all()
    env.reset([0])
    for accessor in (env.disclosed_relevance, env.disclosed_bored_topics,
                     lambda: env.disclosed_attractiveness(np.arange(5)[None])):
        with pytest.raises(PermissionError):
            accessor()


def test_set_state_checks_shapes_and_refreshes_scores():
    cfg = small_cfg()
    cat = generate_item_catalog(cfg, seed=2)
    env = Environment(cfg, cat, disclosed=True)
    env.reset([0, 1])
    before = env.disclosed_relevance()
    env.set_state(bored_turns=np.full((2, cfg.num_topics), 2))
    masked = _sigmoid(-cfg.sigmoid_offset * cfg.sigmoid_slope)
    np.testing.assert_allclose(env.disclosed_relevance(), masked, atol=1e-12)
    env.set_state(bored_turns=np.zeros((2, cfg.num_topics), dtype=np.int64))
    np.testing.assert_array_equal(env.disclosed_relevance(), before)
    with pytest.raises(ValueError):
        env.set_state(base_embeddings=np.zeros((1, cfg.embed_dim)))
    with pytest.raises(ValueError):
        env.set_state(bored_turns=-np.ones((2, cfg.num_topics)))


def test_scripted_boredom_above_the_duration_outlasts_a_new_trigger():
    """A counter scripted above boredom_duration keeps its topic masked
    after a second topic triggers and expires, as in the reference."""
    cfg = small_cfg(num_items=12, slate_size=5, episode_length=30)
    cat = pure_topic_catalog(cfg, [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7])
    base = uniform_embedding(cfg)
    # Turn 0 bores topic 0; turns 1-2 push its clicks out of the window.
    rows = [np.zeros(5)] * 3 + [np.ones(5)] * 9
    env = user_env(cfg, cat, base=base, bored={7: 3 * cfg.boredom_duration},
                   rng=ScriptRng(rows))
    user = oracles.UserState(base_embedding=base.copy(),
                             bored_topics={7: 3 * cfg.boredom_duration})
    ref_rng = ScriptRng(rows)
    for t in range(len(rows)):
        slate = np.arange(5) if t == 0 else np.arange(5, 10)
        res = step(env, slate)
        ref = oracles.step(user, slate, cat, cfg, ref_rng)
        np.testing.assert_array_equal(res.clicks[0], ref.clicks)
        assert bored_topics(env) == user.bored_topics
        np.testing.assert_array_equal(env.disclosed_relevance()[0],
                                      oracles.relevance_scores(user, cat, cfg))
    assert bored_topics(env) == {7: 3 * cfg.boredom_duration - len(rows)}
    assert relevance(env, 11) == _sigmoid(-cfg.sigmoid_offset * cfg.sigmoid_slope)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(num_items=5, slate_size=10)
    with pytest.raises(ValueError):
        SimConfig(click_model="Cascade")
    with pytest.raises(ValueError):
        SimConfig(embedding_variant="sharp")
    assert SimConfig(click_model="TopDown").nu == 1.0
    assert SimConfig(click_model="Mixed").nu == 0.5
    assert SimConfig(click_model="DivPen").nu == 0.5
    assert SimConfig().embed_dim == 20


def test_boredom_settings_must_be_at_least_one():
    for key in ("boredom_threshold", "boredom_window", "boredom_duration"):
        with pytest.raises(ValueError, match=key):
            SimConfig(**{key: 0})
