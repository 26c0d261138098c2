import dataclasses

import numpy as np
import pytest
from scipy import stats as sps

import slatelab.sac
from slatelab import autodiff as ad
from slatelab.belief import (
    BeliefConfig,
    BeliefEncoder,
    next_beliefs,
    prev_beliefs,
)
from slatelab.checkpoint import load_agent, load_checkpoint, save_agent, save_checkpoint
from slatelab.gems import GemsConfig, GemsModel, decode_to_slate, encode
from slatelab.optim import ParameterStore
from slatelab.reinforce import (
    BaselineState,
    EpisodeRecord,
    ReinforceConfig,
    ReinforcePolicy,
    episode_beliefs,
    reinforce_update,
    return_to_go,
    sample_slate,
)
from slatelab.replay import ReplayBuffer
from slatelab.rng import substream
from slatelab.sac import (
    SacConfig,
    SacModel,
    actor_loss,
    actor_stats,
    critic_loss,
    sac_update,
    td_target,
    select_action,
    squashed_log_prob,
)

from oracles import finite_difference_grads, freeze_mask_gru_window, max_relative_error


def window_inputs(model, batch):
    """The GRU input node of a replay batch's runs, built as sac_update does."""
    return model.belief._inputs(batch.slates, batch.clicks)


def batch_beliefs(model, batch):
    """(pre-action, post-action) beliefs [B, H] of a replay batch's transitions."""
    states = model.belief.recompute_array(batch.hidden, window_inputs(model, batch).value,
                                          batch.resets)
    b = len(batch.rewards)
    return (prev_beliefs(batch.hidden, ad.constant(states), batch.resets, b).value,
            next_beliefs(states, b))


def post_action_beliefs(model, batch):
    return batch_beliefs(model, batch)[1]


def small_table(num_items=12, dim=3, seed=0):
    return substream(seed, "table").normal(0.0, 0.5, (num_items, dim))


def small_encoder(belief_dim=5, k=2, source="mf", seed=0, store=None):
    store = store if store is not None else ParameterStore()
    cfg = BeliefConfig(belief_dim=belief_dim, item_source=source)
    enc = BeliefEncoder(store, cfg, k, small_table(seed=seed), substream(seed, "init"))
    return store, enc


# ---------------------------------------------------------------------------
# belief encoder


def test_model_inputs_take_item_ids_by_the_simulators_rule():
    """Float, boolean, negative and too-large ids raise at the belief and at
    the slate VAE, as they do at the simulator, rather than being cast."""
    _, enc = small_encoder(k=2)                         # 12 items
    gems = GemsModel(GemsConfig(latent_dim=3, item_embed_dim=2, hidden=(8,)),
                     num_items=12, slate_size=2, seed=0)
    clicks = np.zeros((1, 2))
    for bad, match in (([[0.5, 3.9]], "integers"), (np.array([[0.0, 3.0]]), "integers"),
                       (np.array([[True, False]]), "integers"),
                       (np.array([[0, -1]]), "out-of-range"),
                       (np.array([[0, 12]]), "out-of-range")):
        with pytest.raises(ValueError, match=match):
            enc.step_hidden(enc.init_hidden(1), bad, clicks)
        with pytest.raises(ValueError, match=match):
            encode(gems, bad, clicks)
    ok = np.array([[0, 11]], np.uint8)
    assert enc.step_hidden(enc.init_hidden(1), ok, clicks).shape == (1, 5)
    assert encode(gems, ok, clicks).mu.shape == (1, 3)


def test_init_belief_is_zero_with_configured_dim():
    _, enc = small_encoder(belief_dim=7)
    b = enc.init_hidden(3)
    assert b.shape == (3, 7) and b.dtype == np.float64
    assert np.all(b == 0.0)
    assert BeliefConfig().belief_dim == 64


def test_zero_parameters_halve_the_hidden_state():
    store, enc = small_encoder()
    for _, p in store.items():
        p.value[...] = 0.0
    start = np.array([0.8, -0.4, 0.2, 0.0, 1.0])
    out = enc.update_belief(start, [1, 2], [1.0, 0.0])
    assert np.allclose(out, 0.5 * start)


def test_permuting_slate_slots_changes_the_belief():
    _, enc = small_encoder(seed=4)
    b = enc.init_hidden(1)[0]
    straight = enc.update_belief(b, [3, 9], [1.0, 0.0])
    swapped = enc.update_belief(b, [9, 3], [0.0, 1.0])
    assert not np.allclose(straight, swapped)


def test_update_belief_is_pure_and_reproducible():
    _, enc = small_encoder(seed=2)
    b = enc.init_hidden(1)[0]
    first = enc.update_belief(b, [0, 5], [1.0, 1.0])
    enc.update_belief(b, [7, 7], [0.0, 0.0])  # unrelated call
    second = enc.update_belief(b, [0, 5], [1.0, 1.0])
    assert np.array_equal(first, second)
    assert np.all(b == 0.0)  # input state untouched


def test_unknown_item_id_rejected():
    _, enc = small_encoder()
    b = enc.init_hidden(1)[0]
    with pytest.raises(ValueError):
        enc.update_belief(b, [0, 12], [0.0, 0.0])
    with pytest.raises(ValueError):
        enc.update_belief(b, [-1, 3], [0.0, 0.0])


def test_hidden_entries_stay_inside_unit_interval():
    # candidate is tanh-bounded and the state starts at zero, so every
    # entry stays in (-1, 1) no matter how large the weights are
    store, enc = small_encoder(seed=8)
    for _, p in store.items():
        p.value *= 4.0
    rng = substream(8, "episode")
    b = enc.init_hidden(1)[0]
    for _ in range(40):
        slate = rng.integers(0, 12, 2)
        clicks = (rng.random(2) < 0.5).astype(float)
        b = enc.update_belief(b, slate, clicks)
        assert np.all(np.abs(b) < 1.0)


def test_batched_step_matches_single_updates():
    _, enc = small_encoder(seed=5)
    rng = substream(5, "batch")
    hidden = rng.normal(0.0, 0.3, (4, 5)).clip(-0.9, 0.9)
    slates = rng.integers(0, 12, (4, 2))
    clicks = (rng.random((4, 2)) < 0.5).astype(float)
    stepped = enc.step_hidden(hidden, slates, clicks)
    for i in range(4):
        one = enc.update_belief(hidden[i].copy(), slates[i], clicks[i])
        assert np.allclose(stepped[i], one, atol=1e-12)


def test_recompute_matches_sequential_updates_and_truncates():
    _, enc = small_encoder(seed=6)
    rng = substream(6, "episode")
    slates = rng.integers(0, 12, (6, 2))
    clicks = (rng.random((6, 2)) < 0.5).astype(float)

    # belief for turn 6 with window 3 = GRU run from zero over turns 3..5
    b = enc.init_hidden(1)[0]
    for t in (3, 4, 5):
        b = enc.update_belief(b, slates[t], clicks[t])

    window_s = slates[None, 3:6]
    window_c = clicks[None, 3:6]
    no_reset = np.zeros((1, 3), bool)
    arr = enc.recompute_array(enc.init_hidden(1), enc._input_values(window_s, window_c),
                              no_reset)
    assert np.allclose(arr[0, -1], b, atol=1e-12)
    graph = enc.recompute_graph(enc.init_hidden(1), enc._inputs(window_s, window_c), no_reset)
    assert np.allclose(graph.value[0, -1], b, atol=1e-12)


def test_recompute_handles_short_histories_right_aligned():
    # a history shorter than the run restarts at its first real row, so
    # garbage before it, the run's start state included, does not leak into
    # the pre-action belief of the turn in the last row; the first turn's
    # belief is the start state, and a turn that starts an episode gets zero
    _, enc = small_encoder(seed=7)
    slates = np.array([[5, 1], [2, 8]])
    clicks = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = enc.init_hidden(1)[0]
    for t in range(2):
        b = enc.update_belief(b, slates[t], clicks[t])

    padded_s = np.zeros((1, 5, 2), dtype=np.int64)
    padded_c = np.zeros((1, 5, 2))
    padded_s[0, 2:4] = slates
    padded_c[0, 2:4] = clicks
    padded_s[0, 0] = [11, 11]
    padded_c[0, 0] = [1.0, 1.0]
    padded_s[0, 4] = [3, 3]
    x = enc._input_values(padded_s, padded_c)
    h0 = np.full((1, 5), 0.7)
    resets = np.zeros((1, 5), bool)
    resets[0, 2] = True
    out = prev_beliefs(h0, ad.constant(enc.recompute_array(h0, x, resets)), resets, 5)
    assert np.allclose(out.value[4], b, atol=1e-12)
    assert np.array_equal(out.value[0], h0[0]) and np.all(out.value[2] == 0.0)
    resets[0, 4] = True
    zero = prev_beliefs(h0, ad.constant(enc.recompute_array(h0, x, resets)), resets, 5)
    assert np.all(zero.value[4] == 0.0)


def test_belief_gradient_through_chained_updates_matches_fd():
    # three real turns inside the window; learned table so its rows get
    # gradient checked too
    store, enc = small_encoder(belief_dim=4, source="learned", seed=9)
    rng = substream(9, "episode")
    slates = rng.integers(0, 12, (1, 3, 2))
    clicks = (rng.random((1, 3, 2)) < 0.5).astype(float)
    resets = np.zeros((1, 3), bool)
    h0 = np.full((1, 4), 0.3)   # a constant: no gradient reaches it

    def loss_fn():
        h = enc.recompute_graph(h0, enc._inputs(slates, clicks), resets)
        return ad.mean(ad.square(h)).item()

    loss = ad.mean(ad.square(enc.recompute_graph(h0, enc._inputs(slates, clicks), resets)))
    ad.backward(loss)
    grads = {name: p.grad.copy() for name, p in store.items()}
    fd = finite_difference_grads(store, loss_fn)
    for name in fd:
        assert max_relative_error(grads[name], fd[name]) < 1e-4, name


def test_learned_table_gradient_through_short_windows_matches_fd():
    # windows restarting at their first row, their last row, and at both
    # of their last two rows: the table's gradient reaches it through the
    # fused GRU's input gradient from every step's state
    store, enc = small_encoder(belief_dim=4, source="learned", seed=10)
    rng = substream(10, "episode")
    slates = rng.integers(0, 12, (3, 3, 2))
    clicks = (rng.random((3, 3, 2)) < 0.5).astype(float)
    resets = np.array([[True, False, False], [False, False, True], [False, True, True]])
    w = substream(10, "w").normal(0.0, 1.0, (3, 3, 4))
    h0 = substream(10, "h0").uniform(-0.5, 0.5, (3, 4))

    def graph():
        h = enc.recompute_graph(h0, enc._inputs(slates, clicks), resets)
        return ad.sum_(ad.mul(ad.square(h), ad.constant(w)))

    ad.backward(graph())
    grads = {name: p.grad.copy() for name, p in store.items()}
    assert np.any(grads["belief.items"] != 0.0)
    fd = finite_difference_grads(store, lambda: graph().item())
    for name in fd:
        assert max_relative_error(grads[name], fd[name]) < 1e-4, name


def _graph_nodes(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _critic_fixture(run):
    cfg = SacConfig(action_dim=2, hidden=(4,), batch_size=20)
    bcfg = BeliefConfig(belief_dim=3, item_source="mf")
    model = SacModel(cfg, bcfg, 1, small_table(num_items=4, dim=2), substream(0, "init"))
    buf = ReplayBuffer(capacity=64, slate_size=1, action_dim=2, belief_dim=3,
                       dtype=model.dtype)
    roll = substream(0, "roll")
    for t in range(60):
        buf.push(roll.integers(0, 4, 1), (roll.random(1) < 0.5).astype(float),
                 roll.uniform(-0.5, 0.5, 2), float(roll.integers(0, 3)), False,
                 roll.uniform(-0.5, 0.5, 3))
    return cfg, model, buf.sample(20, substream(0, "s"), sequence=run)


def test_graph_size_does_not_grow_with_the_window():
    # one gru-sequence node covers a batch's runs, however long they are
    sizes = {}
    for run in (2, 20):
        _, model, batch = _critic_fixture(run)
        assert batch.slates.shape[1] == run
        hidden = model.belief.recompute_graph(batch.hidden, window_inputs(model, batch),
                                              batch.resets)
        assert [n.op for n in _graph_nodes(hidden)].count("gru-sequence") == 1
        loss, _ = critic_loss(model, batch, window_inputs(model, batch), substream(0, "eps"))
        nodes = _graph_nodes(loss)
        assert [n.op for n in nodes].count("gru-sequence") == 1
        sizes[run] = len(nodes)
    assert sizes[2] == sizes[20]


# ---------------------------------------------------------------------------
# replay buffer


def scalar_buffer(capacity):
    """A buffer of one-item slates, one-dim actions and one-dim beliefs."""
    return ReplayBuffer(capacity=capacity, slate_size=1, action_dim=1, belief_dim=1,
                        dtype=np.float64)


def test_buffer_never_exceeds_capacity_and_evicts_fifo():
    buf = scalar_buffer(5)
    for i in range(8):
        buf.push([0], [0.0], [0.0], float(i), False, [0.0])
    assert len(buf) == 5
    batch = buf.sample(4000, substream(0, "sample"), sequence=1)
    assert set(np.unique(batch.rewards)) == {3.0, 4.0, 5.0, 6.0, 7.0}


def test_buffer_sampling_is_uniform():
    buf = scalar_buffer(20)
    for i in range(20):
        buf.push([0], [0.0], [0.0], float(i), False, [0.0])
    draws = buf.sample(100_000, substream(1, "sample"), sequence=1).rewards.astype(int)
    counts = np.bincount(draws, minlength=20)
    chi2 = np.sum((counts - 5000.0) ** 2 / 5000.0)
    assert chi2 < sps.chi2.ppf(0.99, 19)


class TakeAll:
    """Stand-in generator that samples slots 0, 1, ... in order."""

    def integers(self, lo, hi, size):
        return np.arange(size) % hi


def test_buffer_windows_split_into_prev_and_next_histories():
    # one 3-turn episode; each run holds its own turns, the belief stored
    # with its first turn (the pre-action history folded in), and resets on
    # every turn-0 row
    buf = ReplayBuffer(capacity=10, slate_size=2, action_dim=1, belief_dim=2,
                       dtype=np.float32)
    turns = [([1, 2], [1.0, 0.0]), ([3, 4], [0.0, 0.0]), ([5, 6], [0.0, 1.0])]
    for t, (slate, clicks) in enumerate(turns):
        buf.push(slate, clicks, [0.5], float(t), t == 2, [0.25 * t, -t])

    batch = buf.sample(3, TakeAll(), sequence=1)
    assert batch.slates.shape == (3, 1, 2) and batch.hidden.shape == (3, 2)
    assert batch.hidden.dtype == batch.actions.dtype == np.float32
    assert np.array_equal(batch.slates[:, 0], [[1, 2], [3, 4], [5, 6]])
    assert np.array_equal(batch.clicks[2, 0], [0.0, 1.0])
    # turn 0 restarts the state; turns 1 and 2 start from their stored beliefs
    assert list(batch.resets[:, 0]) == [True, False, False]
    assert np.array_equal(batch.hidden, [[0.0, 0.0], [0.25, -1.0], [0.5, -2.0]])
    assert batch.dones[2] == 1.0 and batch.dones[0] == 0.0

    run = buf.sample(3, TakeAll(), sequence=3)
    assert run.slates.shape == (1, 3, 2)
    assert np.array_equal(run.slates[0], [[1, 2], [3, 4], [5, 6]])
    assert list(run.resets[0]) == [True, False, False]
    assert np.array_equal(run.hidden, [[0.0, 0.0]])
    assert list(run.rewards) == [0.0, 1.0, 2.0] and list(run.dones) == [0.0, 0.0, 1.0]


def test_buffer_windows_match_the_pushed_turns_after_the_ring_wraps():
    capacity = 5
    buf = ReplayBuffer(capacity=capacity, slate_size=2, action_dim=1, belief_dim=3,
                       dtype=np.float64)
    rng = substream(40, "turns")
    pushed = []  # (slate, clicks, index within the episode, done, stored belief)
    for episode_length in (4, 1, 6, 3):
        for t in range(episode_length):
            slate = rng.integers(1, 9, 2)
            clicks = (rng.random(2) < 0.5).astype(float)
            done = t == episode_length - 1
            hidden = rng.uniform(-1.0, 1.0, 3)
            buf.push(slate, clicks, [0.0], float(len(pushed)), done, hidden)
            pushed.append((slate, clicks, t, done, hidden))
    assert len(pushed) == 14 and len(buf) == capacity
    for run in (1, 2, capacity):
        batch = buf.sample(capacity, TakeAll(), sequence=run)
        starts = 14 - capacity + np.arange(batch.slates.shape[0])
        assert list(batch.rewards) == list((starts[:, None] + np.arange(run)).ravel()[:capacity])
        for s, first in enumerate(starts):
            rows = pushed[first:first + run]
            assert np.array_equal(batch.slates[s], np.reshape([r[0] for r in rows], (-1, 2)))
            assert np.array_equal(batch.clicks[s], np.reshape([r[1] for r in rows], (-1, 2)))
            assert list(batch.resets[s]) == [r[2] == 0 for r in rows]
            assert np.array_equal(batch.hidden[s], pushed[first][4])
        assert list(batch.dones) == [float(pushed[n][3]) for n in batch.rewards.astype(int)]


def test_buffer_columns_grow_to_the_capacity_and_keep_every_row():
    # the columns double from 1024 rows until they hold the capacity, and
    # rows written before each growth read back unchanged after the ring wraps
    buf = scalar_buffer(2500)
    rows = []
    for i in range(3000):
        buf.push([i % 7], [i % 2], [i / 3000], float(i), i % 10 == 9, [-i])
        rows.append(len(buf._hidden))
    assert sorted(set(rows)) == [1024, 2048, 2500]
    assert rows.index(2048) == 1024 and rows.index(2500) == 2048
    batch = buf.sample(2500, TakeAll(), sequence=1)
    kept = np.arange(500, 3000)
    np.testing.assert_array_equal(batch.rewards, kept)
    np.testing.assert_array_equal(batch.slates[:, 0, 0], kept % 7)
    np.testing.assert_array_equal(batch.clicks[:, 0, 0], kept % 2)
    np.testing.assert_array_equal(batch.actions[:, 0], kept / 3000)
    np.testing.assert_array_equal(batch.hidden[:, 0], -kept)
    np.testing.assert_array_equal(batch.dones, kept % 10 == 9)
    np.testing.assert_array_equal(batch.resets[:, 0], kept % 10 == 0)


def test_push_after_a_done_transition_starts_an_empty_history():
    buf = scalar_buffer(4)
    buf.push([1], [1.0], [0.0], 0.0, False, [0.0])
    buf.push([2], [1.0], [0.0], 1.0, True, [0.5])
    buf.push([3], [0.0], [0.0], 2.0, False, [0.0])
    batch = buf.sample(3, TakeAll(), sequence=1)
    assert list(batch.resets[:, 0]) == [True, False, True]
    run = buf.sample(3, TakeAll(), sequence=3)
    assert np.array_equal(run.slates[0], [[1], [2], [3]])
    assert list(run.resets[0]) == [True, False, True]


def test_sampled_runs_match_hand_built_windows():
    # 9 turns through a ring of 7: runs starting at turns 2..5 read rows 2..6, 0, 1
    rng = substream(41, "episode")
    T, cap, k, length = 9, 7, 2, 4
    slates = rng.integers(1, 9, (T, k))
    clicks = (rng.random((T, k)) < 0.5).astype(float)
    turns = np.array([0, 1, 0, 1, 2, 0, 1, 2, 3])
    buf = ReplayBuffer(capacity=cap, slate_size=k, action_dim=1, belief_dim=1, dtype=np.float64)
    for i in range(T):
        done = i + 1 < T and turns[i + 1] == 0
        buf.push(slates[i], clicks[i], [0.0], float(i), done, [float(i)])
    batch = buf.sample(4 * length, TakeAll(), sequence=length)
    ws, wc, resets = batch.slates, batch.clicks, batch.resets
    assert ws.dtype == np.int64 and wc.dtype == np.float64 and resets.dtype == bool
    assert ws.shape == wc.shape == (4, length, k) and resets.shape == (4, length)
    for s, start in enumerate(range(T - cap, T - cap + 4)):
        rows = list(range(start, start + length))
        assert np.array_equal(ws[s], slates[rows]) and np.array_equal(wc[s], clicks[rows])
        assert list(resets[s]) == [turns[r] == 0 for r in rows]
        assert batch.hidden[s, 0] == start
    assert np.array_equal(batch.rewards, np.concatenate([np.arange(t, t + length)
                                                         for t in range(2, 6)]))


def test_runs_shrink_to_short_batches_and_the_last_run_is_cut_short():
    buf = scalar_buffer(50)
    for i in range(60):
        buf.push([i % 7], [0.0], [0.0], float(i), i % 10 == 9, [i])
    # B < L: one run of B turns
    batch = buf.sample(5, substream(0, "s"), sequence=16)
    assert batch.slates.shape == (1, 5, 1) and batch.resets.shape == (1, 5)
    assert np.array_equal(np.diff(batch.rewards), np.ones(4))
    assert batch.hidden.shape == (1, 1) and batch.hidden[0, 0] == batch.rewards[0]
    # B = 10, L = 4: three runs, the last one cut to its first 2 turns
    batch = buf.sample(10, substream(1, "s"), sequence=4)
    assert batch.slates.shape == (3, 4, 1) and len(batch.rewards) == 10
    for run, rewards in enumerate(np.split(batch.rewards.astype(int), [4, 8])):
        first = rewards[0]
        assert 10 <= first <= 59 - 3 and np.array_equal(rewards, first + np.arange(len(rewards)))
        assert np.array_equal(batch.slates[run, :, 0], np.arange(first, first + 4) % 7)
        assert batch.hidden[run, 0] == first


def test_run_starts_are_uniform_over_the_runs_that_fit():
    # capacity 20 after 30 pushes holds transitions 10..29; runs of 4 can
    # start at 10..26
    buf = scalar_buffer(20)
    for i in range(30):
        buf.push([0], [0.0], [0.0], float(i), False, [0.0])
    starts = buf.sample(4 * 17_000, substream(2, "sample"), sequence=4).rewards[::4]
    counts = np.bincount(starts.astype(int) - 10, minlength=17)
    assert len(counts) == 17
    chi2 = np.sum((counts - 1000.0) ** 2 / 1000.0)
    assert chi2 < sps.chi2.ppf(0.99, 16)


def test_buffer_guards():
    buf = scalar_buffer(2)
    with pytest.raises(ValueError):
        buf.sample(1, substream(0, "s"), sequence=1)  # empty buffer
    buf.push([0], [0.0], [0.0], 0.0, False, [0.0])
    with pytest.raises(ValueError, match="runs of 2 from 1"):
        buf.sample(4, substream(0, "s"), sequence=2)  # a run longer than the buffer
    with pytest.raises(ValueError, match="runs of 0"):
        buf.sample(1, substream(0, "s"), sequence=0)
    buf = ReplayBuffer(capacity=2, slate_size=1, action_dim=1, belief_dim=2,
                       dtype=np.float32)
    with pytest.raises(ValueError, match="1 entries"):
        buf.push([0, 1], [0.0], [0.0], 0.0, False, [0.0, 0.0])  # slate of the wrong size
    with pytest.raises(ValueError, match="1 entries"):
        buf.push([0], [0.0, 1.0], [0.0], 0.0, False, [0.0, 0.0])  # clicks of the wrong size
    for hidden in ([0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]], 0.0):  # beliefs of the wrong shape
        with pytest.raises(ValueError, match=r"hidden must have shape \(2,\)"):
            buf.push([0], [0.0], [0.0], 0.0, False, hidden)
    assert len(buf) == 0


# ---------------------------------------------------------------------------
# SAC


def tiny_sac(alpha=0.2, gamma=0.5, action_dim=1, hidden=(1,), belief_dim=1,
             k=1, seed=0, **kw):
    cfg = SacConfig(action_dim=action_dim, alpha=alpha, gamma=gamma,
                    hidden=hidden, batch_size=kw.pop("batch_size", 4), **kw)
    bcfg = BeliefConfig(belief_dim=belief_dim, item_source="mf")
    table = small_table(num_items=4, dim=2, seed=seed)
    model = SacModel(cfg, bcfg, k, table, substream(seed, "init"))
    return cfg, model


def test_target_networks_equal_main_networks_at_init():
    _, model = tiny_sac(hidden=(8, 8), action_dim=3, belief_dim=4)
    names = [name for name, _ in model.target_store.items()]
    assert names  # both critics mirrored
    for name in names:
        assert np.array_equal(model.target_store[name].value,
                              model.critic_store[name].value)
    assert all(n.startswith(("q1.", "q2.")) for n in names)


def test_mean_action_deterministic_and_samples_strictly_inside_bounds():
    cfg, model = tiny_sac(hidden=(8,), action_dim=3, belief_dim=4)
    h = substream(3, "h").normal(0.0, 0.5, 4)
    a1 = select_action(model, h[None], "mean")
    a2 = select_action(model, h[None], "mean")
    assert np.array_equal(a1, a2)
    rng = substream(3, "act")
    batch = select_action(model, np.tile(h, (500, 1)), "sample", rng)
    assert batch.shape == (500, 3)
    assert np.all(np.abs(batch) < 1.0)
    with pytest.raises(ValueError):
        select_action(model, h[None], "sample")  # rng required
    with pytest.raises(ValueError):
        select_action(model, h[None], "argmax")


def test_sample_mean_approaches_tanh_mu_as_sigma_shrinks():
    cfg, model = tiny_sac(hidden=(8,), action_dim=1, belief_dim=2)
    # zero the actor body so the head bias drives (mu, raw log-sigma)
    for name, p in model.actor_store.items():
        p.value[...] = 0.0
    model.actor_store["pi.l1.b"].value[...] = [0.7, -40.0]  # sigma -> e^-5
    h = np.zeros((10_000, 2))
    samples = select_action(model, h, "sample", substream(4, "mc"))
    assert abs(np.mean(samples) - np.tanh(0.7)) < 1e-3


def test_acting_and_decoding_raise_on_an_inf_weight():
    # the inference forward checks every layer, where it once returned NaN
    # actions and an all-zero slate
    cfg, model = tiny_sac(hidden=(8,), action_dim=3, belief_dim=4)
    model.actor_store["pi.l0.W"].value[0, 0] = np.inf
    h = np.full(4, 0.5)
    with pytest.raises(ad.NonFiniteError):
        select_action(model, h[None], "mean")
    with pytest.raises(ad.NonFiniteError):
        select_action(model, h[None], "sample", substream(0, "act"))
    gems = GemsModel(GemsConfig(latent_dim=3, item_embed_dim=2, hidden=(8,)),
                     num_items=6, slate_size=3, seed=0)
    gems.store["dec.l1.W"].value[0, 0] = np.inf
    with pytest.raises(ad.NonFiniteError):
        decode_to_slate(gems, np.ones((2, 3)))


def test_acting_and_decoding_take_rows_only():
    # a lone belief or latent names the [n, ...] form instead of dying in numpy
    _, model = tiny_sac(hidden=(8,), action_dim=3, belief_dim=4)
    gems = GemsModel(GemsConfig(latent_dim=3, item_embed_dim=2, hidden=(8,)),
                     num_items=6, slate_size=3, seed=0)
    _, pol = small_reinforce(seed=3)
    rng = substream(0, "act")
    cases = [lambda x: select_action(model, x, "mean"),
             lambda x: select_action(model, x, "sample", rng),
             lambda x: decode_to_slate(gems, x), lambda x: sample_slate(pol, x, 2, rng)]
    for call, width in zip(cases, (4, 4, 3, 5)):
        for bad in (np.zeros(width), np.zeros((1, 1, width)), np.zeros((2, width + 1))):
            with pytest.raises(ValueError, match=rf"must be \[n, {width}\], got shape"):
                call(bad)
        assert call(np.zeros((2, width))).shape[0] == 2


def test_squashed_log_prob_matches_numerical_change_of_variables():
    rng = substream(5, "points")
    mu = rng.normal(0.0, 0.5, (40, 1))
    log_sigma = rng.uniform(-1.0, 0.3, (40, 1))
    u = mu + np.exp(log_sigma) * rng.standard_normal((40, 1))
    ours = squashed_log_prob(ad.constant(mu), ad.constant(log_sigma), ad.constant(u)).value

    a = np.tanh(u)
    delta = 1e-7
    jac = (np.arctanh(a + delta) - np.arctanh(a - delta)) / (2.0 * delta)
    reference = sps.norm.logpdf(np.arctanh(a), mu, np.exp(log_sigma)) + np.log(jac)
    assert np.max(np.abs(ours - reference[:, 0])) < 1e-6


def hand_set_critics(model):
    """q1 = 2*relu(0.3 h + 0.7 a + 0.1) - 0.2, q2 = 1.5*relu(-0.2 h + 0.4 a + 0.05) + 0.3,
    target q1 == 0.6, target q2 == 0.9 (constant)."""
    cs = model.critic_store
    cs["q1.l0.W"].value[...] = np.array([[0.3], [0.7]])
    cs["q1.l0.b"].value[...] = [0.1]
    cs["q1.l1.W"].value[...] = [[2.0]]
    cs["q1.l1.b"].value[...] = [-0.2]
    cs["q2.l0.W"].value[...] = np.array([[-0.2], [0.4]])
    cs["q2.l0.b"].value[...] = [0.05]
    cs["q2.l1.W"].value[...] = [[1.5]]
    cs["q2.l1.b"].value[...] = [0.3]
    ts = model.target_store
    for q in ("q1", "q2"):
        ts[f"{q}.l0.W"].value[...] = 0.0
        ts[f"{q}.l0.b"].value[...] = 0.0
        ts[f"{q}.l1.W"].value[...] = 0.0
    ts["q1.l1.b"].value[...] = [0.6]
    ts["q2.l1.b"].value[...] = [0.9]
    # zero GRU weights keep the belief at exactly zero
    for name, p in cs.items():
        if name.startswith("belief."):
            p.value[...] = 0.0


def one_transition_batch(action=0.4, reward=2.0, done=False):
    buf = scalar_buffer(4)
    buf.push([0], [1.0], [action], reward, done, [0.0])

    class First:
        def integers(self, lo, hi, size):
            return np.zeros(size, dtype=np.int64)

    return buf.sample(1, First(), sequence=1)


def test_critic_loss_equals_hand_computed_td_error():
    # float64: the hand-computed loss is checked to 1e-12
    _, model = tiny_sac(alpha=0.0, gamma=0.5, dtype="float64")
    hand_set_critics(model)
    batch = one_transition_batch()
    loss, diag = critic_loss(model, batch, window_inputs(model, batch), substream(0, "eps"))
    # y = 2 + 0.5 * min(0.6, 0.9) = 2.3
    # q1 = 2*relu(0.7*0.4 + 0.1) - 0.2 = 0.56 ; q2 = 1.5*relu(0.4*0.4 + 0.05) + 0.3 = 0.615
    expected = 0.5 * ((0.56 - 2.3) ** 2 + (0.615 - 2.3) ** 2)
    assert abs(loss.item() - expected) < 1e-12
    assert abs(diag["mean_target"] - 2.3) < 1e-12


def test_done_transition_target_ignores_next_state():
    _, model = tiny_sac(alpha=0.0, gamma=0.5, dtype="float64")
    hand_set_critics(model)
    batch = one_transition_batch(done=True)
    loss, diag = critic_loss(model, batch, window_inputs(model, batch), substream(0, "eps"))
    expected = 0.5 * ((0.56 - 2.0) ** 2 + (0.615 - 2.0) ** 2)
    assert abs(loss.item() - expected) < 1e-12
    # perturbing the target networks must not change the loss when done
    model.target_store["q1.l1.b"].value[...] = [123.0]
    model.target_store["q2.l1.b"].value[...] = [-55.0]
    again, _ = critic_loss(model, batch, window_inputs(model, batch), substream(0, "eps"))
    assert abs(again.item() - loss.item()) < 1e-12


def test_gamma_zero_target_reduces_to_reward():
    _, model = tiny_sac(alpha=0.0, gamma=0.0)
    hand_set_critics(model)
    # make both critics output the reward exactly: q = 2*relu(0 + 0.7a + ...)
    batch = one_transition_batch(action=0.4, reward=0.56)
    model.critic_store["q2.l0.W"].value[...] = np.array([[0.3], [0.7]])
    model.critic_store["q2.l0.b"].value[...] = [0.1]
    model.critic_store["q2.l1.W"].value[...] = [[2.0]]
    model.critic_store["q2.l1.b"].value[...] = [-0.2]
    loss, diag = critic_loss(model, batch, window_inputs(model, batch), substream(0, "eps"))
    assert abs(diag["mean_target"] - 0.56) < 1e-12
    assert loss.item() < 1e-24


def test_actor_gradient_zero_under_constant_critics_and_zero_alpha():
    _, model = tiny_sac(alpha=0.0, hidden=(4,), action_dim=2, belief_dim=3)
    for q in ("q1", "q2"):
        model.critic_store[f"{q}.l0.W"].value[...] = 0.0
        model.critic_store[f"{q}.l1.W"].value[...] = 0.0
    batch = one_transition_batch()
    # widen to the right shapes: rebuild a batch matching k=1, d=2
    buf = ReplayBuffer(capacity=2, slate_size=1, action_dim=2, belief_dim=3,
                       dtype=model.dtype)
    buf.push([0], [1.0], [0.1, -0.2], 1.0, False, np.zeros(3))
    batch = buf.sample(2, substream(0, "s"), sequence=1)
    loss, _ = actor_loss(model, batch, window_inputs(model, batch).value, substream(0, "eps"))
    ad.backward(loss)
    for name, p in model.actor_store.items():
        assert np.all(p.grad == 0.0), name
    # and the critics never receive gradient from the actor objective
    for name, p in model.critic_store.items():
        assert np.all(p.grad == 0.0), name


def nudge_biases(store, seed):
    # zero-init biases with all-zero belief rows (empty histories) put relu
    # pre-activations exactly at the kink, where FD and the subgradient
    # legitimately disagree; move off it before differencing
    rng = substream(seed, "bias")
    for name, p in store.items():
        if name.endswith(".b"):
            p.value[...] = rng.normal(0.0, 0.1, p.value.shape)


def test_actor_loss_gradient_matches_fd_on_two_dim_toy():
    _, model = tiny_sac(alpha=0.3, hidden=(4,), action_dim=2, belief_dim=3,
                          seed=12, dtype="float64")   # FD needs float64
    nudge_biases(model.actor_store, 12)
    nudge_biases(model.critic_store, 12)
    buf = ReplayBuffer(capacity=8, slate_size=1, action_dim=2, belief_dim=3,
                       dtype=model.dtype)
    roll = substream(12, "roll")
    for t in range(8):
        buf.push(roll.integers(0, 4, 1), (roll.random(1) < 0.5).astype(float),
                 roll.uniform(-0.5, 0.5, 2), float(roll.integers(0, 3)), t % 3 == 2,
                 roll.uniform(-0.5, 0.5, 3))
    batch = buf.sample(5, substream(12, "s"), sequence=3)  # runs cross episode ends
    assert not batch.resets[:, 0].all()     # a run starts from a stored nonzero belief

    def loss_fn():
        return actor_loss(model, batch, window_inputs(model, batch).value,
                          substream(12, "eps"))[0].item()

    loss, _ = actor_loss(model, batch, window_inputs(model, batch).value,
                         substream(12, "eps"))
    ad.backward(loss)
    grads = {name: p.grad.copy() for name, p in model.actor_store.items()}
    fd = finite_difference_grads(model.actor_store, loss_fn)
    for name in fd:
        assert max_relative_error(grads[name], fd[name]) < 1e-4, name


def test_critic_loss_gradient_matches_fd_including_belief():
    _, model = tiny_sac(alpha=0.2, gamma=0.7, hidden=(4,), action_dim=2,
                          belief_dim=3, seed=13, dtype="float64")
    nudge_biases(model.actor_store, 13)
    nudge_biases(model.critic_store, 13)
    buf = ReplayBuffer(capacity=8, slate_size=1, action_dim=2, belief_dim=3,
                       dtype=model.dtype)
    roll = substream(13, "roll")
    for t in range(8):
        buf.push(roll.integers(0, 4, 1), (roll.random(1) < 0.5).astype(float),
                 roll.uniform(-0.5, 0.5, 2), float(roll.integers(0, 3)), t % 3 == 2,
                 roll.uniform(-0.5, 0.5, 3))
    batch = buf.sample(4, substream(13, "s"), sequence=3)  # runs cross episode ends
    assert not batch.resets[:, 0].all()     # a run starts from a stored nonzero belief
    # the TD target is a constant of the loss; hold it fixed while
    # differencing, as autodiff does by construction
    y = td_target(model, batch, post_action_beliefs(model, batch), substream(13, "eps"))

    def loss_fn():
        return critic_loss(model, batch, window_inputs(model, batch),
                           substream(13, "eps"), target=y)[0].item()

    loss, _ = critic_loss(model, batch, window_inputs(model, batch),
                          substream(13, "eps"), target=y)
    ad.backward(loss)
    grads = {name: p.grad.copy() for name, p in model.critic_store.items()}
    model.critic_store.zero_grad()
    fd = finite_difference_grads(model.critic_store, loss_fn)
    for name in fd:
        assert max_relative_error(grads[name], fd[name]) < 1e-4, name


def quadratic_bandit_buffer(n, rng):
    """One-turn episodes, empty prior history, reward 1 - a^2 (optimum a=0)."""
    buf = ReplayBuffer(capacity=n, slate_size=1, action_dim=1, belief_dim=4,
                       dtype=np.float32)
    for _ in range(n):
        a = rng.uniform(-1.0, 1.0, 1)
        buf.push([0], [0.0], a, 1.0 - a[0] ** 2, True, np.zeros(4))
    return buf


def train_bandit_sac(alpha, updates=700, seed=11):
    cfg = SacConfig(action_dim=1, alpha=alpha, hidden=(32, 32), batch_size=64,
                    critic_lr=0.003, actor_lr=0.003)
    bcfg = BeliefConfig(belief_dim=4, item_source="mf")
    model = SacModel(cfg, bcfg, 1, np.array([[0.5]]), substream(seed, "init"))
    buf = quadratic_bandit_buffer(1500, substream(seed, "data"))
    rng = substream(seed, "upd")
    diags = [sac_update(model, buf, rng) for _ in range(updates)]
    return model, diags


def test_sac_finds_bandit_optimum_and_q_stays_bounded():
    model, diags = train_bandit_sac(alpha=0.2)
    a = select_action(model, np.zeros(4)[None], "mean")[0]
    assert abs(a[0]) < 0.15  # optimum is a = 0
    for d in diags:
        assert np.isfinite(d["critic_loss"]) and np.isfinite(d["actor_loss"])
    # r_max / (1 - gamma) + slack with r_max = 1, gamma = 0.8
    grid = np.linspace(-1.0, 1.0, 41)[:, None]
    q_in = np.concatenate([np.zeros((41, 4)), grid], axis=1)
    q = model.q1.forward_array(q_in)
    assert np.max(np.abs(q)) < 1.0 / (1.0 - 0.8) + 2.0


def test_entropy_weight_raises_converged_policy_spread():
    sigmas = []
    for alpha in (0.0, 0.2, 1.0):
        model, _ = train_bandit_sac(alpha=alpha)
        _, log_sigma = actor_stats(model, ad.constant(np.zeros((1, 4))))
        sigmas.append(float(np.exp(log_sigma.value[0, 0])))
    assert sigmas[0] < sigmas[1] < sigmas[2]


def test_sac_update_deterministic_given_seed_and_buffer():
    runs = []
    for _ in range(2):
        _, model = tiny_sac(hidden=(6,), action_dim=2, belief_dim=3,
                              seed=21, batch_size=4)
        buf = one_slot_buffer(21)
        rng = substream(21, "upd")
        diags = [sac_update(model, buf, rng) for _ in range(3)]
        runs.append((model, diags))
    m1, d1 = runs[0]
    m2, d2 = runs[1]
    assert d1 == d2
    for name, p in m1.critic_store.items():
        assert np.array_equal(p.value, m2.critic_store[name].value)
    for name, p in m1.actor_store.items():
        assert np.array_equal(p.value, m2.actor_store[name].value)
    for name, p in m1.target_store.items():
        assert np.array_equal(p.value, m2.target_store[name].value)


def test_sac_update_requires_a_full_batch():
    _, model = tiny_sac(batch_size=8)
    buf = scalar_buffer(8)
    buf.push([0], [0.0], [0.1], 1.0, True, [0.0])
    with pytest.raises(ValueError):
        sac_update(model, buf, substream(0, "u"))


def one_slot_buffer(seed, turns=10):
    """Random turns of one-item slates, two-dim actions and three-dim stored beliefs."""
    buf = ReplayBuffer(capacity=16, slate_size=1, action_dim=2, belief_dim=3,
                       dtype=np.float32)
    roll = substream(seed, "roll")
    for t in range(turns):
        buf.push(roll.integers(0, 4, 1), (roll.random(1) < 0.5).astype(float),
                 roll.uniform(-0.9, 0.9, 2), float(roll.integers(0, 2)), t % 5 == 4,
                 roll.uniform(-0.5, 0.5, 3))
    return buf


def test_sac_update_builds_the_window_inputs_once(monkeypatch):
    _, model = tiny_sac(hidden=(6,), action_dim=2, belief_dim=3, seed=23)
    builds = []
    real = BeliefEncoder._inputs

    def counting(self, slates, clicks):
        builds.append(np.shape(slates))
        return real(self, slates, clicks)

    monkeypatch.setattr(BeliefEncoder, "_inputs", counting)
    sac_update(model, one_slot_buffer(23), substream(23, "upd"))
    # B = 4 < L = 16: one run of 4 turns, [S, L, k] for both recomputes
    assert builds == [(1, 4, 1)]


def test_actor_belief_uses_the_learned_table_after_the_critic_step(monkeypatch):
    cfg = SacConfig(action_dim=2, hidden=(6,), batch_size=4)
    bcfg = BeliefConfig(belief_dim=3, item_source="learned")
    table = small_table(num_items=4, dim=2, seed=24)
    model = SacModel(cfg, bcfg, 1, table, substream(24, "init"))
    batches, beliefs = [], []
    sample, recompute = ReplayBuffer.sample, BeliefEncoder.recompute_array

    def recording_sample(self, *args):
        batches.append(sample(self, *args))
        return batches[-1]

    def recording_recompute(self, h0, x, resets):
        beliefs.append((x, recompute(self, h0, x, resets)))
        return beliefs[-1][1]

    monkeypatch.setattr(ReplayBuffer, "sample", recording_sample)
    monkeypatch.setattr(BeliefEncoder, "recompute_array", recording_recompute)
    sac_update(model, one_slot_buffer(24), substream(24, "upd"))
    (batch,), (actor_x, actor_h) = batches, beliefs[-1]
    fresh = model.belief._input_values(batch.slates, batch.clicks)[:, :-1]
    stale = np.concatenate([table[batch.slates], batch.clicks[..., None]], axis=-1)
    assert not np.array_equal(actor_x, stale[:, :-1].reshape(actor_x.shape))
    np.testing.assert_array_equal(actor_x, fresh)
    np.testing.assert_array_equal(actor_h, recompute(model.belief, batch.hidden, fresh,
                                                     batch.resets[:, :-1]))


def mixed_episode_buffer(seed, model, lengths=(3, 1, 5, 2, 4, 1, 6), capacity=64):
    """Episodes of the given lengths on one-item slates, each turn stored
    with the belief acted on before it, as ``harness.train`` stores it.
    Returns the buffer, each pushed transition's index within its episode,
    and the acting beliefs [N, H] before and after each turn."""
    enc = model.belief
    buf = ReplayBuffer(capacity=capacity, slate_size=1, action_dim=model.cfg.action_dim,
                       belief_dim=enc.belief_dim, dtype=model.dtype)
    roll, turns, before, after = substream(seed, "roll"), [], [], []
    for length in lengths:
        belief = enc.init_hidden(1)[0]
        for t in range(length):
            slate, clicks = roll.integers(0, 4, 1), (roll.random(1) < 0.5).astype(float)
            buf.push(slate, clicks, roll.uniform(-0.9, 0.9, model.cfg.action_dim),
                     float(len(turns)), t == length - 1, belief)
            before.append(belief)
            belief = enc.update_belief(belief, slate, clicks)
            after.append(belief)
            turns.append(t)
    return buf, np.array(turns), np.array(before), np.array(after)


@pytest.mark.parametrize("dtype, tol", [("float32", 1e-6), ("float64", 1e-12)])
def test_replayed_beliefs_equal_the_acting_beliefs_after_the_ring_wraps(dtype, tol):
    # With the weights held fixed, each run starts from the belief its first
    # turn was acted on and restarts from zero at episode starts, so replay
    # gives every transition the acting beliefs before and after its turn.
    cfg, model = tiny_sac(hidden=(6,), action_dim=2, belief_dim=4, seed=32, dtype=dtype)
    nudge_biases(model.critic_store, 32)
    buf, turns, before, after = mixed_episode_buffer(32, model, (4, 1, 6, 3, 2, 4),
                                                     capacity=5)
    assert len(turns) == 20 and len(buf) == 5
    assert np.all(before[turns == 0] == 0.0) and np.all(np.any(before[turns > 0], axis=1))
    crossed = False
    for run in (1, 2, 5):
        for rng in (TakeAll(), substream(32, "s")):
            batch = buf.sample(5, rng, sequence=run)
            n = batch.rewards.astype(int)
            np.testing.assert_array_equal(batch.hidden, before[n[::run]])
            prev, post = batch_beliefs(model, batch)
            assert prev.dtype == post.dtype == np.dtype(dtype)
            assert np.max(np.abs(prev - before[n])) <= tol
            assert np.max(np.abs(post - after[n])) <= tol
            crossed |= bool(batch.resets[:, 1:].any())
    assert crossed      # some run crossed an episode end and restarted at the reset


def test_turn_zero_transitions_get_the_zero_belief_and_done_ones_no_bootstrap():
    _, model = tiny_sac(hidden=(6,), action_dim=2, belief_dim=3, seed=30,
                          gamma=0.9, dtype="float64")
    nudge_biases(model.critic_store, 30)
    buf, turns, _, _ = mixed_episode_buffer(30, model)
    batch = buf.sample(12, substream(30, "s"), sequence=6)   # runs cross episode ends
    n = batch.rewards.astype(int)
    assert np.all(batch.resets.ravel()[:12] == (turns[n] == 0))
    prev, post = batch_beliefs(model, batch)
    assert np.all(prev[turns[n] == 0] == 0.0)
    assert np.all(np.any(prev[turns[n] > 0] != 0.0, axis=1))
    # inside a run, a transition's post-action belief is the next one's
    # pre-action belief unless that one starts an episode
    nested = (np.diff(n) == 1) & (turns[n[1:]] > 0)
    assert nested.any() and np.array_equal(post[:-1][nested], prev[1:][nested])
    done = batch.dones == 1.0
    assert done.any() and not done.all()
    y = td_target(model, batch, post, substream(30, "eps"))
    moved = td_target(model, batch, post + 5.0, substream(30, "eps"))
    np.testing.assert_array_equal(y[done], batch.rewards[done])
    np.testing.assert_array_equal(moved[done], y[done])
    assert np.all(moved[~done] != y[~done])


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_per_transition_runs_step_once_from_the_stored_state_bit_for_bit(dtype):
    # at L = 1 a run is one transition: its pre-action belief is its stored
    # belief, or zero where it starts an episode, and its post-action one is
    # one step of the per-step reference kernel from there
    cfg, model = tiny_sac(hidden=(6,), action_dim=2, belief_dim=4, seed=31, dtype=dtype)
    buf, turns, _, _ = mixed_episode_buffer(31, model)
    batch = buf.sample(40, substream(31, "s"), sequence=1)
    t = turns[batch.rewards.astype(int)]
    x = window_inputs(model, batch).value
    s = model.critic_store
    gru = (s["belief.gru.W"].value, s["belief.gru.U"].value, s["belief.gru.b"].value)
    h0 = batch.hidden * (t > 0)[:, None]
    prev, post = batch_beliefs(model, batch)
    assert prev.dtype == h0.dtype == np.dtype(dtype) and (t > 0).any() and (t == 0).any()
    np.testing.assert_array_equal(prev, h0)
    np.testing.assert_array_equal(post, freeze_mask_gru_window(h0, x, *gru))


def test_sac_checkpoint_roundtrip_resumes_exactly(tmp_path):
    _, model = tiny_sac(hidden=(6,), action_dim=2, belief_dim=3,
                          seed=22, batch_size=4)
    buf = ReplayBuffer(capacity=16, slate_size=1, action_dim=2, belief_dim=3,
                       dtype=model.dtype)
    roll = substream(22, "roll")
    for t in range(8):
        buf.push(roll.integers(0, 4, 1), (roll.random(1) < 0.5).astype(float),
                 roll.uniform(-0.9, 0.9, 2), float(roll.integers(0, 2)), t % 4 == 3,
                 roll.uniform(-0.5, 0.5, 3))
    rng = substream(22, "upd")
    for _ in range(3):
        sac_update(model, buf, rng)
    path = tmp_path / "agent.ckpt"
    save_agent(path, model, {"note": "resume"})
    loaded, meta = load_agent(path, SacModel)
    assert meta["note"] == "resume"
    d1 = sac_update(model, buf, substream(22, "resume"))
    d2 = sac_update(loaded, buf, substream(22, "resume"))
    assert d1 == d2
    for name, p in model.critic_store.items():
        assert np.array_equal(p.value, loaded.critic_store[name].value)
    assert model.critic_store.step_count == loaded.critic_store.step_count


def test_checkpoint_with_per_gate_gru_parameters_is_rejected(tmp_path):
    # the GRU once stored one W/U/b triple per gate; such files must not load
    _, model = tiny_sac(belief_dim=2)
    path = tmp_path / "agent.ckpt"
    save_agent(path, model)
    stores, meta = load_checkpoint(path)
    old = ParameterStore()
    for name, p in stores["critic"].items():
        if name.startswith("belief.gru."):
            for gate in ("z", "r", "n"):
                old.add(f"{name}{gate}", p.value)
        else:
            old.add(name, p.value)
    stores["critic"] = old
    save_checkpoint(path, stores, meta)
    with pytest.raises(ValueError, match="belief.gru.Wz"):
        load_agent(path, SacModel)


def test_losses_stay_finite_over_many_updates():
    _, model = tiny_sac(hidden=(16, 16), action_dim=3, belief_dim=6,
                          k=2, seed=30, batch_size=16, gamma=0.8)
    buf = ReplayBuffer(capacity=512, slate_size=2, action_dim=3, belief_dim=6,
                       dtype=model.dtype)
    roll = substream(30, "roll")
    for t in range(300):
        buf.push(roll.integers(0, 4, 2), (roll.random(2) < 0.4).astype(float),
                 roll.uniform(-1.0, 1.0, 3), float(roll.integers(0, 3)), t % 10 == 9,
                 roll.uniform(-0.9, 0.9, 6))
    rng = substream(30, "upd")
    for _ in range(300):
        d = sac_update(model, buf, rng)
        assert np.isfinite(d["critic_loss"]) and np.isfinite(d["actor_loss"])


# ---------------------------------------------------------------------------
# SAC in float32


def graph_nodes(root):
    """Every node of a graph, constants included."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def sac_arrays(model):
    for store in (model.critic_store, model.actor_store, model.target_store):
        for name, p in store.items():
            yield from ((f"{name}.{part}", getattr(p, part))
                        for part in ("value", "grad", "m", "v"))


def test_float32_sac_update_upcasts_nothing(monkeypatch):
    cfg, model = tiny_sac(hidden=(6,), action_dim=2, belief_dim=3, seed=25)
    assert cfg.dtype == "float32"
    roots, backward = [], ad.backward

    def recording_backward(root):
        roots.append(root)
        backward(root)

    monkeypatch.setattr(ad, "backward", recording_backward)
    sac_update(model, one_slot_buffer(25), substream(25, "upd"))
    assert len(roots) == 2                      # critic loss, then actor loss
    nodes = graph_nodes(roots[0]) + graph_nodes(roots[1])
    assert {"gru-sequence", "mlp", "softplus", "const", "param"} <= {n.op for n in nodes}
    for node in nodes:
        assert node.value.dtype == np.float32, node.op
        assert node.grad is None or node.grad.dtype == np.float32, node.op
    for name, a in sac_arrays(model):
        assert a.dtype == np.float32, name
    enc, rng = model.belief, substream(25, "act")
    h = enc.step_hidden(enc.init_hidden(2), np.array([[1], [3]]), np.array([[1.0], [0.0]]))
    assert h.dtype == np.float32
    assert enc.update_belief(enc.init_hidden(1)[0], [2], [1.0]).dtype == np.float32
    for hidden in (h, h[:1]):
        assert select_action(model, hidden, "mean").dtype == np.float32
        assert select_action(model, hidden, "sample", rng).dtype == np.float32
    # GeMS computes in float32 too; REINFORCE keeps float64
    gems = GemsModel(GemsConfig(latent_dim=3, item_embed_dim=2, hidden=(8,)),
                     num_items=6, slate_size=3, seed=0)
    policy = ReinforcePolicy(ReinforceConfig(hidden=(8,)),
                             BeliefConfig(belief_dim=3, item_source="learned"), 2,
                             small_table(), substream(0, "init"))
    for store, dtype in ((gems.store, np.float32), (policy.store, np.float64)):
        assert store.dtype == dtype
        for name, p in store.items():
            assert p.value.dtype == p.grad.dtype == p.m.dtype == dtype, name


def twin_models(seed, k, belief_dim, **kw):
    """The same agent in float32 and in float64, from identical parameters."""
    table = small_table(num_items=20, dim=4, seed=seed).astype(np.float32)
    bcfg = BeliefConfig(belief_dim=belief_dim, item_source="mf")
    (cfg32, m32), (cfg64, m64) = [
        (cfg, SacModel(cfg, bcfg, k, table, substream(seed, "init")))
        for cfg in (SacConfig(dtype=dt, **kw) for dt in ("float32", "float64"))]
    for name in ("critic_store", "actor_store", "target_store"):
        getattr(m64, name).load_state_from(getattr(m32, name))
    return (cfg32, m32), (cfg64, m64)


def test_float32_and_float64_updates_agree(monkeypatch):
    # One update from the same parameters and batch: losses, beliefs and
    # gradients agree to 1e-4 relative (float32 rounds at 6e-8; measured
    # gaps are about 2e-7 here).
    kw = dict(hidden=(32, 32), action_dim=4, belief_dim=16, k=3,
              batch_size=64, gamma=0.8)
    (_, m32), (_, m64) = twin_models(26, **kw)
    buf = ReplayBuffer(capacity=256, slate_size=3, action_dim=4, belief_dim=16,
                       dtype=np.float32)
    roll = substream(26, "roll")
    for t in range(200):
        buf.push(roll.integers(0, 20, 3), (roll.random(3) < 0.4).astype(float),
                 roll.uniform(-1.0, 1.0, 4), float(roll.integers(0, 3)), t % 10 == 9,
                 roll.uniform(-0.5, 0.5, 16))
    grads, beliefs = [], []
    adam = slatelab.sac.adam_step

    def recording_adam(store, adam_cfg):
        grads.append({name: p.grad.copy() for name, p in store.items()})
        adam(store, adam_cfg)

    def recording(recompute):
        def wrapper(self, h0, x, resets):
            beliefs.append(recompute(self, h0, x, resets))
            return beliefs[-1]
        return wrapper

    monkeypatch.setattr(slatelab.sac, "adam_step", recording_adam)
    for name in ("recompute_array", "recompute_graph"):
        monkeypatch.setattr(BeliefEncoder, name, recording(getattr(BeliefEncoder, name)))
    d32 = sac_update(m32, buf, substream(26, "upd"))
    d64 = sac_update(m64, buf, substream(26, "upd"))
    for key in ("critic_loss", "actor_loss"):
        assert abs(d32[key] - d64[key]) <= 1e-4 * abs(d64[key]), key
    n = len(beliefs) // 2
    assert n == 2
    for b32, b64 in zip(beliefs[:n], beliefs[n:]):
        b32, b64 = getattr(b32, "value", b32), getattr(b64, "value", b64)
        assert b32.dtype == np.float32 and b64.dtype == np.float64
        assert np.max(np.abs(b32 - b64)) <= 1e-4 * np.max(np.abs(b64))
    for g32, g64 in zip(grads[:2], grads[2:]):
        for name in g64:
            err = np.linalg.norm(g32[name] - g64[name]) / np.linalg.norm(g64[name])
            assert err < 1e-4, (name, err)


def test_float32_checkpoint_roundtrip_is_bit_exact(tmp_path):
    _, model = tiny_sac(hidden=(6,), action_dim=2, belief_dim=3, seed=27)
    rng = substream(27, "upd")
    buf = one_slot_buffer(27)
    for _ in range(3):
        sac_update(model, buf, rng)
    path = tmp_path / "agent.ckpt"
    save_agent(path, model)
    loaded, meta = load_agent(path, SacModel)
    assert meta["config"]["dtype"] == "float32" and loaded.dtype == np.float32
    for (name, a), (_, b) in zip(sac_arrays(model), sac_arrays(loaded)):
        assert b.dtype == np.float32, name
        if not name.endswith(".grad"):
            np.testing.assert_array_equal(a, b, err_msg=name)
    np.testing.assert_array_equal(loaded.belief.table_value(), model.belief.table_value())


@pytest.mark.parametrize("kind", ["sac", "reinforce"])
def test_loaded_agent_stores_equal_the_checkpoint_stores(tmp_path, kind):
    # load_agent builds its model without drawing initial weights, so every
    # value, Adam moment and step count it holds must come from the file.
    if kind == "sac":
        (_, model), cls = tiny_sac(hidden=(6,), action_dim=2, belief_dim=3, seed=29), SacModel
    else:
        (_, model), cls = small_reinforce(seed=29), ReinforcePolicy
    rng = substream(29, "moments")
    for attr in cls.stores.values():
        store = getattr(model, attr)
        store.step_count = 7
        for _, p in store.items():
            p.m[...] = rng.normal(size=p.m.shape)
            p.v[...] = rng.uniform(size=p.v.shape)
    path = tmp_path / "agent.slk"
    save_agent(path, model)
    stores, _ = load_checkpoint(path)
    loaded, _ = load_agent(path, cls)
    for name, attr in cls.stores.items():
        got = getattr(loaded, attr)
        assert got.step_count == stores[name].step_count == 7
        assert [n for n, _ in got.items()] == [n for n, _ in stores[name].items()]
        for pname, want in stores[name].items():
            for field in ("value", "m", "v"):
                a, b = getattr(got[pname], field), getattr(want, field)
                assert a.tobytes() == b.astype(got.dtype).tobytes(), (name, pname, field)
    save_agent(tmp_path / "again.slk", loaded)
    assert (tmp_path / "again.slk").read_bytes() == path.read_bytes()


def test_checkpoint_without_a_dtype_loads_as_float32(tmp_path):
    # checkpoints written before SacConfig had a dtype hold a float64 agent
    # and no "dtype" key; a float64 model computes as that code did
    _, old = tiny_sac(hidden=(16,), action_dim=3, belief_dim=16, k=4,
                        seed=28, dtype="float64")
    rng = substream(28, "upd")
    buf = ReplayBuffer(capacity=64, slate_size=4, action_dim=3, belief_dim=16,
                       dtype=np.float64)
    roll = substream(28, "roll")
    for t in range(40):
        buf.push(roll.integers(0, 4, 4), (roll.random(4) < 0.4).astype(float),
                 roll.uniform(-1.0, 1.0, 3), float(roll.integers(0, 3)), t % 10 == 9,
                 roll.uniform(-0.5, 0.5, 16))
    for _ in range(5):
        sac_update(old, buf, rng)
    path = tmp_path / "agent.ckpt"
    save_agent(path, old)
    stores, meta = load_checkpoint(path)
    del meta["config"]["dtype"]
    save_checkpoint(path, stores, meta)
    model, _ = load_agent(path, SacModel)
    assert model.cfg.dtype == "float32" and model.dtype == np.float32
    batch = buf.sample(32, substream(28, "s"), sequence=1)
    step = [m.belief.step_hidden(np.full((32, 16), 0.3), batch.slates[:, -1],
                                 batch.clicks[:, -1]) for m in (old, model)]
    window = [m.belief.recompute_array(batch.hidden,
                                       m.belief._input_values(batch.slates, batch.clicks),
                                       batch.resets) for m in (old, model)]
    for b64, b32 in (step, window):
        assert b32.dtype == np.float32
        assert np.max(np.abs(b32 - b64)) < 1e-6


# ---------------------------------------------------------------------------
# REINFORCE


def test_return_to_go_matches_direct_sums_and_gamma_zero():
    rewards = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(return_to_go(rewards, 0.0), rewards)
    g = return_to_go(rewards, 0.5)
    assert np.allclose(g, [1 + 0.5 * 2 + 0.25 * 3, 2 + 0.5 * 3, 3.0])
    rng = substream(2, "r")
    r = rng.normal(0.0, 1.0, 7)
    g = return_to_go(r, 0.9)
    direct = [np.sum(r[t:] * 0.9 ** np.arange(len(r) - t)) for t in range(7)]
    assert np.allclose(g, direct, atol=1e-12)


def small_reinforce(seed=3, num_items=6, k=2, lr=0.01):
    cfg = ReinforceConfig(gamma=0.6, learning_rate=lr, hidden=(12,))
    bcfg = BeliefConfig(belief_dim=5, item_source="learned")
    table = substream(seed, "table").normal(0.0, 0.1, (num_items, 2))
    return cfg, ReinforcePolicy(cfg, bcfg, k, table, substream(seed, "init"))


def test_constant_rewards_equal_to_baseline_give_zero_gradient():
    cfg, pol = small_reinforce()
    rng = substream(7, "ep")
    episode = EpisodeRecord(slates=rng.integers(0, 6, (4, 2)),
                            clicks=(rng.random((4, 2)) < 0.5).astype(float),
                            rewards=np.full(4, 2.0))
    base = BaselineState(decay=0.9)
    base.values = return_to_go(episode.rewards, cfg.gamma)
    before = {name: p.value.copy() for name, p in pol.store.items()}
    diag = reinforce_update(pol, episode, base)
    assert diag["mean_advantage"] == 0.0
    for name, p in pol.store.items():
        assert np.array_equal(before[name], p.value), name


def test_first_episode_initializes_the_baseline_to_its_returns():
    cfg, pol = small_reinforce()
    rng = substream(8, "ep")
    episode = EpisodeRecord(slates=rng.integers(0, 6, (3, 2)),
                            clicks=np.zeros((3, 2)),
                            rewards=np.array([1.0, 0.0, 2.0]))
    base = BaselineState(decay=0.9)
    reinforce_update(pol, episode, base)
    assert np.allclose(base.values, return_to_go(episode.rewards, cfg.gamma))
    # EMA afterwards
    episode2 = EpisodeRecord(episode.slates, episode.clicks, np.array([0.0, 0.0, 0.0]))
    reinforce_update(pol, episode2, base)
    assert np.allclose(base.values, 0.9 * return_to_go(episode.rewards, cfg.gamma))


def test_reinforce_prefers_the_rewarding_item_on_a_bandit():
    cfg = ReinforceConfig(gamma=0.0, learning_rate=0.01, hidden=(16,))
    bcfg = BeliefConfig(belief_dim=4, item_source="learned")
    table = substream(3, "table").normal(0.0, 0.1, (2, 2))
    pol = ReinforcePolicy(cfg, bcfg, 1, table, substream(3, "init"))
    base = BaselineState(decay=0.9)
    rng = substream(3, "roll")
    h0 = np.zeros(4)
    for _ in range(1000):
        slate = sample_slate(pol, h0[None], 1, rng)[0]
        reward = 1.0 if slate[0] == 0 else 0.0
        episode = EpisodeRecord(slates=slate[None, :],
                                clicks=np.array([[reward]]),
                                rewards=np.array([reward]))
        reinforce_update(pol, episode, base)
    logits = pol.head.forward_array(h0[None, :])[0]
    p = np.exp(logits - logits.max())
    p /= p.sum()
    assert p[0] > 0.9


def test_reinforce_update_gradient_matches_fd():
    cfg, pol = small_reinforce(seed=14, lr=0.01)
    nudge_biases(pol.store, 14)
    rng = substream(14, "ep")
    episode = EpisodeRecord(slates=rng.integers(0, 6, (3, 2)),
                            clicks=(rng.random((3, 2)) < 0.5).astype(float),
                            rewards=rng.integers(0, 3, 3).astype(float))
    advantage = return_to_go(episode.rewards, cfg.gamma) - 0.25  # fixed baseline

    def build_loss():
        log_probs = ad.log_softmax(pol.head(episode_beliefs(pol, episode)))
        lp = ad.pick(log_probs, episode.slates[:, 0])
        for j in range(1, 2):
            lp = ad.add(lp, ad.pick(log_probs, episode.slates[:, j]))
        return ad.scale(ad.sum_(ad.mul(ad.constant(advantage), lp)), -1.0)

    loss = build_loss()
    ad.backward(loss)
    grads = {name: p.grad.copy() for name, p in pol.store.items()}
    pol.store.zero_grad()
    fd = finite_difference_grads(pol.store, lambda: build_loss().item())
    for name in fd:
        assert max_relative_error(grads[name], fd[name]) < 1e-4, name


def test_reinforce_trains_on_the_beliefs_it_acted_from():
    # An episode longer than the old 20-turn window: one GRU pass from zero
    # gives every turn the belief acting stepped to before it, bit for bit.
    _, pol = small_reinforce(seed=17)
    nudge_biases(pol.store, 17)
    rng = substream(17, "ep")
    hidden, acted, slates, clicks = pol.belief.init_hidden(1)[0], [], [], []
    for _ in range(27):
        acted.append(hidden)
        slates.append(sample_slate(pol, hidden[None], 2, rng)[0])
        clicks.append((rng.random(2) < 0.5).astype(float))
        hidden = pol.belief.update_belief(hidden, slates[-1], clicks[-1])
    episode = EpisodeRecord(np.array(slates), np.array(clicks), np.ones(27))
    beliefs = episode_beliefs(pol, episode).value
    assert beliefs.shape == (27, 5) and np.all(beliefs[0] == 0.0)
    np.testing.assert_array_equal(beliefs, np.array(acted))


def test_a_one_turn_episode_backpropagates_through_zero_gru_rows():
    # its only belief is the zero start state, so its GRU pass has no rows
    _, pol = small_reinforce(seed=19)
    h0, resets = pol.belief.init_hidden(1), np.zeros((1, 1), bool)
    inputs = pol.belief._inputs(np.zeros((1, 0, 2), np.int64), np.zeros((1, 0, 2)))
    states = pol.belief.recompute_graph(h0, inputs, resets[:, :0])
    assert states.shape == (1, 0, 5)
    ad.backward(ad.sum_(pol.head(prev_beliefs(h0, states, resets, 1))))
    for name, p in pol.store.items():
        if name.startswith("belief."):
            assert not p.grad.any(), name
    # a start state that takes a gradient gets a zero one of its own shape
    store = ParameterStore()
    for name, shape in (("h0", (2, 5)), ("x", (2, 0, 3)), ("W", (3, 15)),
                        ("U", (5, 15)), ("b", (15,))):
        store.add(name, np.ones(shape))
    gru = ad.gru_sequence(*(store.tensor(n) for n in ("h0", "x", "W", "U", "b")))
    ad.backward(ad.sum_(gru))
    for name, p in store.items():
        assert p.grad.shape == p.value.shape and not p.grad.any(), name


def test_sample_slate_draws_with_replacement_from_the_softmax():
    cfg, pol = small_reinforce(seed=15, num_items=3, k=4)
    # force a known distribution: zero body, logits from the head bias
    for name, p in pol.store.items():
        if name.startswith(("logits.", "belief.")):
            p.value[...] = 0.0
    pol.store["logits.l1.b"].value[...] = np.log([0.6, 0.3, 0.1])
    rng = substream(15, "draw")
    draws = np.concatenate([sample_slate(pol, np.zeros(5)[None], 4, rng)[0] for _ in range(5000)])
    freq = np.bincount(draws, minlength=3) / draws.size
    assert np.all(np.abs(freq - [0.6, 0.3, 0.1]) < 0.02)
    # with replacement: some slate must repeat an item
    repeats = [len(set(sample_slate(pol, np.zeros(5)[None], 4, rng)[0])) < 4 for _ in range(50)]
    assert any(repeats)


def test_reinforce_checkpoint_roundtrip(tmp_path):
    cfg, pol = small_reinforce(seed=16)
    nudge_biases(pol.store, 16)
    path = tmp_path / "policy.ckpt"
    save_agent(path, pol, {"val_round": 2})
    loaded, meta = load_agent(path, ReinforcePolicy)
    assert meta == {
        "kind": "reinforce",
        "config": {"gamma": 0.6, "learning_rate": 0.01, "baseline_decay": 0.9,
                   "hidden": [12]},
        "belief": {"belief_dim": 5, "item_source": "learned"},
        "slate_size": 2, "num_items": 6, "item_dim": 2, "val_round": 2,
    }
    h = substream(16, "h").normal(0.0, 0.5, (4, 5))
    np.testing.assert_array_equal(loaded.head.forward_array(h).view(np.int64),
                                  pol.head.forward_array(h).view(np.int64))


def test_load_agent_refuses_a_checkpoint_of_the_other_kind(tmp_path):
    _, pol = small_reinforce(seed=20)
    _, sac = tiny_sac(hidden=(6,), action_dim=2, belief_dim=3, seed=20)
    for model, other in ((pol, SacModel), (sac, ReinforcePolicy)):
        save_agent(tmp_path / "agent.ckpt", model)
        with pytest.raises(ValueError, match=f"holds a '{model.kind}' agent checkpoint, "
                                             f"not '{other.kind}'"):
            load_agent(tmp_path / "agent.ckpt", other)


def test_checkpoints_that_store_a_truncation_window_still_load(tmp_path):
    # Checkpoints written before whole-episode REINFORCE beliefs store the
    # window in their belief metadata; the loader drops it.
    _, pol = small_reinforce(seed=18)
    _, sac = tiny_sac(hidden=(6,), action_dim=2, belief_dim=3, seed=18)
    for model, net in ((pol, "head"), (sac, "actor")):
        old = {**dataclasses.asdict(model.belief.cfg), "truncation": 20}
        save_agent(tmp_path / "old.ckpt", model, {"belief": old})
        assert load_checkpoint(tmp_path / "old.ckpt")[1]["belief"] == old
        loaded, meta = load_agent(tmp_path / "old.ckpt", type(model))
        assert loaded.belief.cfg == model.belief.cfg
        assert meta["belief"] == dataclasses.asdict(model.belief.cfg)
        h = substream(18, "h").normal(0.0, 0.5, (4, model.belief.cfg.belief_dim))
        np.testing.assert_array_equal(getattr(loaded, net).forward_array(h),
                                      getattr(model, net).forward_array(h))
