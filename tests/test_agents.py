import numpy as np
import pytest
from scipy import stats as sps

from slatelab import autodiff as ad
from slatelab.belief import BeliefConfig, BeliefEncoder, BeliefState
from slatelab.checkpoint import load_checkpoint, save_checkpoint
from slatelab.gems import GemsConfig, GemsModel, decode_to_slate
from slatelab.optim import ParameterStore
from slatelab.reinforce import (
    BaselineState,
    EpisodeRecord,
    ReinforceConfig,
    ReinforcePolicy,
    load_reinforce,
    reinforce_update,
    return_to_go,
    sample_slate,
    save_reinforce,
)
from slatelab.replay import HistoryWindow, ReplayBuffer
from slatelab.rng import substream
from slatelab.sac import (
    SacConfig,
    SacModel,
    actor_loss,
    actor_stats,
    critic_loss,
    load_sac,
    sac_update,
    save_sac,
    td_target,
    select_action,
    squashed_log_prob,
)

from oracles import finite_difference_grads, max_relative_error


def small_table(num_items=12, dim=3, seed=0):
    return substream(seed, "table").normal(0.0, 0.5, (num_items, dim))


def small_encoder(belief_dim=5, k=2, window=3, source="mf", seed=0, store=None):
    store = store if store is not None else ParameterStore()
    cfg = BeliefConfig(belief_dim=belief_dim, item_source=source, truncation=window)
    enc = BeliefEncoder(store, cfg, k, small_table(seed=seed), substream(seed, "init"))
    return store, enc


# ---------------------------------------------------------------------------
# belief encoder


def test_init_belief_is_zero_with_configured_dim():
    _, enc = small_encoder(belief_dim=7)
    b = enc.init_belief()
    assert b.hidden.shape == (7,)
    assert np.all(b.hidden == 0.0)
    assert b.turn == 0
    assert BeliefConfig().belief_dim == 64

    b2 = enc.init_belief()
    assert np.array_equal(b.hidden, b2.hidden) and b2.turn == 0


def test_zero_parameters_halve_the_hidden_state():
    store, enc = small_encoder()
    for _, p in store.items():
        p.value[...] = 0.0
    start = BeliefState(hidden=np.array([0.8, -0.4, 0.2, 0.0, 1.0]), turn=3)
    out = enc.update_belief(start, [1, 2], [1.0, 0.0])
    assert np.allclose(out.hidden, 0.5 * start.hidden)
    assert out.turn == 4


def test_permuting_slate_slots_changes_the_belief():
    _, enc = small_encoder(seed=4)
    b = enc.init_belief()
    straight = enc.update_belief(b, [3, 9], [1.0, 0.0])
    swapped = enc.update_belief(b, [9, 3], [0.0, 1.0])
    assert not np.allclose(straight.hidden, swapped.hidden)


def test_update_belief_is_pure_and_reproducible():
    _, enc = small_encoder(seed=2)
    b = enc.init_belief()
    first = enc.update_belief(b, [0, 5], [1.0, 1.0])
    enc.update_belief(b, [7, 7], [0.0, 0.0])  # unrelated call
    second = enc.update_belief(b, [0, 5], [1.0, 1.0])
    assert np.array_equal(first.hidden, second.hidden)
    assert np.all(b.hidden == 0.0)  # input state untouched


def test_unknown_item_id_rejected():
    _, enc = small_encoder()
    b = enc.init_belief()
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
    b = enc.init_belief()
    for _ in range(40):
        slate = rng.integers(0, 12, 2)
        clicks = (rng.random(2) < 0.5).astype(float)
        b = enc.update_belief(b, slate, clicks)
        assert np.all(np.abs(b.hidden) < 1.0)


def test_batched_step_matches_single_updates():
    _, enc = small_encoder(seed=5)
    rng = substream(5, "batch")
    hidden = rng.normal(0.0, 0.3, (4, 5)).clip(-0.9, 0.9)
    slates = rng.integers(0, 12, (4, 2))
    clicks = (rng.random((4, 2)) < 0.5).astype(float)
    stepped = enc.step_hidden(hidden, slates, clicks)
    for i in range(4):
        one = enc.update_belief(BeliefState(hidden=hidden[i].copy()), slates[i], clicks[i])
        assert np.allclose(stepped[i], one.hidden, atol=1e-12)


def test_recompute_matches_sequential_updates_and_truncates():
    _, enc = small_encoder(window=3, seed=6)
    rng = substream(6, "episode")
    slates = rng.integers(0, 12, (6, 2))
    clicks = (rng.random((6, 2)) < 0.5).astype(float)

    # belief for turn 6 with window 3 = GRU run from zero over turns 3..5
    b = enc.init_belief()
    for t in (3, 4, 5):
        b = enc.update_belief(b, slates[t], clicks[t])

    window_s = slates[None, 3:6]
    window_c = clicks[None, 3:6]
    arr = enc.recompute_array(window_s, window_c, np.array([3]))
    assert np.allclose(arr[0], b.hidden, atol=1e-12)
    graph = enc.recompute_graph(window_s, window_c, np.array([3]))
    assert np.allclose(graph.value[0], b.hidden, atol=1e-12)


def test_recompute_handles_short_histories_right_aligned():
    _, enc = small_encoder(window=4, seed=7)
    slates = np.array([[5, 1], [2, 8]])
    clicks = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = enc.init_belief()
    for t in range(2):
        b = enc.update_belief(b, slates[t], clicks[t])

    padded_s = np.zeros((1, 4, 2), dtype=np.int64)
    padded_c = np.zeros((1, 4, 2))
    padded_s[0, 2:] = slates
    padded_c[0, 2:] = clicks
    # garbage in the masked rows must not leak into the result
    padded_s[0, 0] = [11, 11]
    padded_c[0, 0] = [1.0, 1.0]
    out = enc.recompute_array(padded_s, padded_c, np.array([2]))
    assert np.allclose(out[0], b.hidden, atol=1e-12)
    zero = enc.recompute_array(padded_s, padded_c, np.array([0]))
    assert np.all(zero == 0.0)


def test_belief_gradient_through_chained_updates_matches_fd():
    # three real turns inside the window; learned table so its rows get
    # gradient checked too
    store, enc = small_encoder(belief_dim=4, window=3, source="learned", seed=9)
    rng = substream(9, "episode")
    slates = rng.integers(0, 12, (1, 3, 2))
    clicks = (rng.random((1, 3, 2)) < 0.5).astype(float)
    lengths = np.array([3])

    def loss_fn():
        h = enc.recompute_graph(slates, clicks, lengths)
        return ad.mean(ad.square(h)).item()

    loss = ad.mean(ad.square(enc.recompute_graph(slates, clicks, lengths)))
    ad.backward(loss)
    grads = {name: p.grad.copy() for name, p in store.items()}
    fd = finite_difference_grads(store, loss_fn)
    for name in fd:
        assert max_relative_error(grads[name], fd[name]) < 1e-4, name


def test_learned_table_gradient_through_short_windows_matches_fd():
    # a batch of right-aligned histories of lengths 3, 1 and 0: the table's
    # gradient reaches it through the fused GRU's input gradient
    store, enc = small_encoder(belief_dim=4, window=3, source="learned", seed=10)
    rng = substream(10, "episode")
    slates = rng.integers(0, 12, (3, 3, 2))
    clicks = (rng.random((3, 3, 2)) < 0.5).astype(float)
    lengths = np.array([3, 1, 0])
    w = substream(10, "w").normal(0.0, 1.0, (3, 4))

    def graph():
        h = enc.recompute_graph(slates, clicks, lengths)
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


def _critic_fixture(window):
    cfg = SacConfig(action_dim=2, hidden=(4,), batch_size=4)
    bcfg = BeliefConfig(belief_dim=3, item_source="mf", truncation=window)
    model = SacModel(cfg, bcfg, 1, small_table(num_items=4, dim=2), substream(0, "init"))
    buf = ReplayBuffer(capacity=64, window=window, slate_size=1, action_dim=2)
    hw = HistoryWindow(window, 1)
    roll = substream(0, "roll")
    for t in range(3 * window):
        hw.push(roll.integers(0, 4, 1), (roll.random(1) < 0.5).astype(float))
        buf.push(hw, roll.uniform(-0.5, 0.5, 2), float(roll.integers(0, 3)), False)
    return cfg, model, buf.sample(4, substream(0, "s"))


def test_graph_size_does_not_grow_with_the_window():
    sizes = {}
    for window in (2, 20):
        cfg, model, batch = _critic_fixture(window)
        hidden = model.belief.recompute_graph(batch.prev_slates, batch.prev_clicks,
                                              batch.prev_lengths)
        assert [n.op for n in _graph_nodes(hidden)].count("gru-sequence") == 1
        loss, _ = critic_loss(model, batch, cfg, substream(0, "eps"))
        nodes = _graph_nodes(loss)
        assert [n.op for n in nodes].count("gru-sequence") == 1
        sizes[window] = len(nodes)
    assert sizes[2] == sizes[20]


# ---------------------------------------------------------------------------
# replay buffer


def fill_window(window, slate_size, pairs):
    hw = HistoryWindow(window, slate_size)
    for slate, clicks in pairs:
        hw.push(slate, clicks)
    return hw


def test_buffer_never_exceeds_capacity_and_evicts_fifo():
    buf = ReplayBuffer(capacity=5, window=1, slate_size=1, action_dim=1)
    hw = HistoryWindow(1, 1)
    for i in range(8):
        hw.reset()
        hw.push([0], [0.0])
        buf.push(hw, [0.0], float(i), False)
    assert len(buf) == 5
    batch = buf.sample(4000, substream(0, "sample"))
    assert set(np.unique(batch.rewards)) == {3.0, 4.0, 5.0, 6.0, 7.0}


def test_buffer_sampling_is_uniform():
    buf = ReplayBuffer(capacity=20, window=1, slate_size=1, action_dim=1)
    hw = HistoryWindow(1, 1)
    for i in range(20):
        hw.reset()
        hw.push([0], [0.0])
        buf.push(hw, [0.0], float(i), False)
    draws = buf.sample(100_000, substream(1, "sample")).rewards.astype(int)
    counts = np.bincount(draws, minlength=20)
    chi2 = np.sum((counts - 5000.0) ** 2 / 5000.0)
    assert chi2 < sps.chi2.ppf(0.99, 19)


def test_buffer_windows_split_into_prev_and_next_histories():
    # simulate one 3-turn episode with window 3
    buf = ReplayBuffer(capacity=10, window=3, slate_size=2, action_dim=1)
    hw = HistoryWindow(3, 2)
    turns = [([1, 2], [1.0, 0.0]), ([3, 4], [0.0, 0.0]), ([5, 6], [0.0, 1.0])]
    for t, (slate, clicks) in enumerate(turns):
        hw.push(slate, clicks)
        buf.push(hw, [0.5], float(t), t == 2)

    class TakeAll:
        def integers(self, lo, hi, size):
            return np.arange(size) % hi

    batch = buf.sample(3, TakeAll())
    # turn 0: empty previous history, next history holds just turn 0
    assert batch.prev_lengths[0] == 0 and batch.next_lengths[0] == 1
    assert np.array_equal(batch.next_slates[0, -1], [1, 2])
    # turn 2: previous = turns 0..1, next = turns 0..2, right aligned
    assert batch.prev_lengths[2] == 2 and batch.next_lengths[2] == 3
    assert np.array_equal(batch.prev_slates[2, -1], [3, 4])
    assert np.array_equal(batch.prev_slates[2, -2], [1, 2])
    assert np.array_equal(batch.next_slates[2], [[1, 2], [3, 4], [5, 6]])
    assert np.array_equal(batch.next_clicks[2, 2], [0.0, 1.0])
    assert batch.dones[2] == 1.0 and batch.dones[0] == 0.0


def test_buffer_guards():
    buf = ReplayBuffer(capacity=2, window=2, slate_size=1, action_dim=1)
    with pytest.raises(ValueError):
        buf.push(HistoryWindow(2, 1), [0.0], 0.0, False)  # empty window
    with pytest.raises(ValueError):
        buf.sample(1, substream(0, "s"))  # empty buffer
    hw = HistoryWindow(3, 1)
    hw.push([0], [0.0])
    with pytest.raises(ValueError):
        buf.push(hw, [0.0], 0.0, False)  # window size mismatch


# ---------------------------------------------------------------------------
# SAC


def tiny_sac(alpha=0.2, gamma=0.5, action_dim=1, hidden=(1,), belief_dim=1,
             window=1, k=1, seed=0, **kw):
    cfg = SacConfig(action_dim=action_dim, alpha=alpha, gamma=gamma,
                    hidden=hidden, batch_size=kw.pop("batch_size", 4), **kw)
    bcfg = BeliefConfig(belief_dim=belief_dim, item_source="mf", truncation=window)
    table = small_table(num_items=4, dim=2, seed=seed)
    model = SacModel(cfg, bcfg, k, table, substream(seed, "init"))
    return cfg, model


def test_target_networks_equal_main_networks_at_init():
    _, model = tiny_sac(hidden=(8, 8), action_dim=3, belief_dim=4)
    names = model.target_store.names()
    assert names  # both critics mirrored
    for name in names:
        assert np.array_equal(model.target_store[name].value,
                              model.critic_store[name].value)
    assert all(n.startswith(("q1.", "q2.")) for n in names)


def test_mean_action_deterministic_and_samples_strictly_inside_bounds():
    cfg, model = tiny_sac(hidden=(8,), action_dim=3, belief_dim=4)
    h = substream(3, "h").normal(0.0, 0.5, 4)
    a1 = select_action(model, h, "mean")
    a2 = select_action(model, h, "mean")
    assert np.array_equal(a1, a2)
    rng = substream(3, "act")
    batch = select_action(model, np.tile(h, (500, 1)), "sample", rng)
    assert batch.shape == (500, 3)
    assert np.all(np.abs(batch) < 1.0)
    with pytest.raises(ValueError):
        select_action(model, h, "sample")  # rng required
    with pytest.raises(ValueError):
        select_action(model, h, "argmax")


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
        select_action(model, h, "mean")
    with pytest.raises(ad.NonFiniteError):
        select_action(model, h, "sample", substream(0, "act"))
    gems = GemsModel(GemsConfig(latent_dim=3, item_embed_dim=2, hidden=(8,)),
                     num_items=6, slate_size=3, seed=0)
    gems.store["dec.l1.W"].value[0, 0] = np.inf
    with pytest.raises(ad.NonFiniteError):
        decode_to_slate(gems, np.ones((2, 3)))


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
    buf = ReplayBuffer(capacity=4, window=1, slate_size=1, action_dim=1)
    hw = HistoryWindow(1, 1)
    hw.push([0], [1.0])
    buf.push(hw, [action], reward, done)

    class First:
        def integers(self, lo, hi, size):
            return np.zeros(size, dtype=np.int64)

    return buf.sample(1, First())


def test_critic_loss_equals_hand_computed_td_error():
    cfg, model = tiny_sac(alpha=0.0, gamma=0.5)
    hand_set_critics(model)
    batch = one_transition_batch()
    loss, diag = critic_loss(model, batch, cfg, substream(0, "eps"))
    # y = 2 + 0.5 * min(0.6, 0.9) = 2.3
    # q1 = 2*relu(0.7*0.4 + 0.1) - 0.2 = 0.56 ; q2 = 1.5*relu(0.4*0.4 + 0.05) + 0.3 = 0.615
    expected = 0.5 * ((0.56 - 2.3) ** 2 + (0.615 - 2.3) ** 2)
    assert abs(loss.item() - expected) < 1e-12
    assert abs(diag["mean_target"] - 2.3) < 1e-12


def test_done_transition_target_ignores_next_state():
    cfg, model = tiny_sac(alpha=0.0, gamma=0.5)
    hand_set_critics(model)
    batch = one_transition_batch(done=True)
    loss, diag = critic_loss(model, batch, cfg, substream(0, "eps"))
    expected = 0.5 * ((0.56 - 2.0) ** 2 + (0.615 - 2.0) ** 2)
    assert abs(loss.item() - expected) < 1e-12
    # perturbing the target networks must not change the loss when done
    model.target_store["q1.l1.b"].value[...] = [123.0]
    model.target_store["q2.l1.b"].value[...] = [-55.0]
    again, _ = critic_loss(model, batch, cfg, substream(0, "eps"))
    assert abs(again.item() - loss.item()) < 1e-12


def test_gamma_zero_target_reduces_to_reward():
    cfg, model = tiny_sac(alpha=0.0, gamma=0.0)
    hand_set_critics(model)
    # make both critics output the reward exactly: q = 2*relu(0 + 0.7a + ...)
    batch = one_transition_batch(action=0.4, reward=0.56)
    model.critic_store["q2.l0.W"].value[...] = np.array([[0.3], [0.7]])
    model.critic_store["q2.l0.b"].value[...] = [0.1]
    model.critic_store["q2.l1.W"].value[...] = [[2.0]]
    model.critic_store["q2.l1.b"].value[...] = [-0.2]
    loss, diag = critic_loss(model, batch, cfg, substream(0, "eps"))
    assert abs(diag["mean_target"] - 0.56) < 1e-12
    assert loss.item() < 1e-24


def test_actor_gradient_zero_under_constant_critics_and_zero_alpha():
    cfg, model = tiny_sac(alpha=0.0, hidden=(4,), action_dim=2, belief_dim=3)
    for q in ("q1", "q2"):
        model.critic_store[f"{q}.l0.W"].value[...] = 0.0
        model.critic_store[f"{q}.l1.W"].value[...] = 0.0
    batch = one_transition_batch()
    # widen to the right shapes: rebuild a batch matching k=1, d=2
    buf = ReplayBuffer(capacity=2, window=1, slate_size=1, action_dim=2)
    hw = HistoryWindow(1, 1)
    hw.push([0], [1.0])
    buf.push(hw, [0.1, -0.2], 1.0, False)
    batch = buf.sample(2, substream(0, "s"))
    loss, _ = actor_loss(model, batch, cfg, substream(0, "eps"))
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
    cfg, model = tiny_sac(alpha=0.3, hidden=(4,), action_dim=2, belief_dim=3,
                          window=2, seed=12)
    nudge_biases(model.actor_store, 12)
    nudge_biases(model.critic_store, 12)
    buf = ReplayBuffer(capacity=8, window=2, slate_size=1, action_dim=2)
    hw = HistoryWindow(2, 1)
    roll = substream(12, "roll")
    for t in range(6):
        if t % 3 == 0:
            hw.reset()
        hw.push(roll.integers(0, 4, 1), (roll.random(1) < 0.5).astype(float))
        buf.push(hw, roll.uniform(-0.5, 0.5, 2), float(roll.integers(0, 3)), t % 3 == 2)
    batch = buf.sample(5, substream(12, "s"))

    def loss_fn():
        return actor_loss(model, batch, cfg, substream(12, "eps"))[0].item()

    loss, _ = actor_loss(model, batch, cfg, substream(12, "eps"))
    ad.backward(loss)
    grads = {name: p.grad.copy() for name, p in model.actor_store.items()}
    fd = finite_difference_grads(model.actor_store, loss_fn)
    for name in fd:
        assert max_relative_error(grads[name], fd[name]) < 1e-4, name


def test_critic_loss_gradient_matches_fd_including_belief():
    cfg, model = tiny_sac(alpha=0.2, gamma=0.7, hidden=(4,), action_dim=2,
                          belief_dim=3, window=2, seed=13)
    nudge_biases(model.actor_store, 13)
    nudge_biases(model.critic_store, 13)
    buf = ReplayBuffer(capacity=8, window=2, slate_size=1, action_dim=2)
    hw = HistoryWindow(2, 1)
    roll = substream(13, "roll")
    for t in range(6):
        if t % 3 == 0:
            hw.reset()
        hw.push(roll.integers(0, 4, 1), (roll.random(1) < 0.5).astype(float))
        buf.push(hw, roll.uniform(-0.5, 0.5, 2), float(roll.integers(0, 3)), t % 3 == 2)
    batch = buf.sample(4, substream(13, "s"))
    # the TD target is a constant of the loss; hold it fixed while
    # differencing, as autodiff does by construction
    y = td_target(model, batch, cfg, substream(13, "eps"))

    def loss_fn():
        return critic_loss(model, batch, cfg, substream(13, "eps"), target=y)[0].item()

    loss, _ = critic_loss(model, batch, cfg, substream(13, "eps"), target=y)
    ad.backward(loss)
    grads = {name: p.grad.copy() for name, p in model.critic_store.items()}
    model.critic_store.zero_grad()
    fd = finite_difference_grads(model.critic_store, loss_fn)
    for name in fd:
        assert max_relative_error(grads[name], fd[name]) < 1e-4, name


def quadratic_bandit_buffer(n, rng):
    """One-turn episodes, empty prior history, reward 1 - a^2 (optimum a=0)."""
    buf = ReplayBuffer(capacity=n, window=1, slate_size=1, action_dim=1)
    hw = HistoryWindow(1, 1)
    for _ in range(n):
        hw.reset()
        hw.push([0], [0.0])
        a = rng.uniform(-1.0, 1.0, 1)
        buf.push(hw, a, 1.0 - a[0] ** 2, True)
    return buf


def train_bandit_sac(alpha, updates=700, seed=11):
    cfg = SacConfig(action_dim=1, alpha=alpha, hidden=(32, 32), batch_size=64,
                    critic_lr=0.003, actor_lr=0.003)
    bcfg = BeliefConfig(belief_dim=4, item_source="mf", truncation=1)
    model = SacModel(cfg, bcfg, 1, np.array([[0.5]]), substream(seed, "init"))
    buf = quadratic_bandit_buffer(1500, substream(seed, "data"))
    rng = substream(seed, "upd")
    diags = [sac_update(model, buf, cfg, rng) for _ in range(updates)]
    return model, diags


def test_sac_finds_bandit_optimum_and_q_stays_bounded():
    model, diags = train_bandit_sac(alpha=0.2)
    a = select_action(model, np.zeros(4), "mean")
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
        cfg, model = tiny_sac(hidden=(6,), action_dim=2, belief_dim=3, window=2,
                              seed=21, batch_size=4)
        buf = ReplayBuffer(capacity=16, window=2, slate_size=1, action_dim=2)
        hw = HistoryWindow(2, 1)
        roll = substream(21, "roll")
        for t in range(10):
            if t % 5 == 0:
                hw.reset()
            hw.push(roll.integers(0, 4, 1), (roll.random(1) < 0.5).astype(float))
            buf.push(hw, roll.uniform(-0.9, 0.9, 2), float(roll.integers(0, 2)), t % 5 == 4)
        rng = substream(21, "upd")
        diags = [sac_update(model, buf, cfg, rng) for _ in range(3)]
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
    cfg, model = tiny_sac(batch_size=8)
    buf = ReplayBuffer(capacity=8, window=1, slate_size=1, action_dim=1)
    hw = HistoryWindow(1, 1)
    hw.push([0], [0.0])
    buf.push(hw, [0.1], 1.0, True)
    with pytest.raises(ValueError):
        sac_update(model, buf, cfg, substream(0, "u"))


def test_sac_checkpoint_roundtrip_resumes_exactly(tmp_path):
    cfg, model = tiny_sac(hidden=(6,), action_dim=2, belief_dim=3, window=2,
                          seed=22, batch_size=4)
    buf = ReplayBuffer(capacity=16, window=2, slate_size=1, action_dim=2)
    hw = HistoryWindow(2, 1)
    roll = substream(22, "roll")
    for t in range(8):
        if t % 4 == 0:
            hw.reset()
        hw.push(roll.integers(0, 4, 1), (roll.random(1) < 0.5).astype(float))
        buf.push(hw, roll.uniform(-0.9, 0.9, 2), float(roll.integers(0, 2)), t % 4 == 3)
    rng = substream(22, "upd")
    for _ in range(3):
        sac_update(model, buf, cfg, rng)
    path = tmp_path / "agent.ckpt"
    save_sac(model, path, {"note": "resume"})
    loaded, meta = load_sac(path)
    assert meta["note"] == "resume"
    d1 = sac_update(model, buf, cfg, substream(22, "resume"))
    d2 = sac_update(loaded, buf, cfg, substream(22, "resume"))
    assert d1 == d2
    for name, p in model.critic_store.items():
        assert np.array_equal(p.value, loaded.critic_store[name].value)
    assert model.critic_store.step_count == loaded.critic_store.step_count


def test_checkpoint_with_per_gate_gru_parameters_is_rejected(tmp_path):
    # the GRU once stored one W/U/b triple per gate; such files must not load
    _, model = tiny_sac(belief_dim=2, window=2)
    path = tmp_path / "agent.ckpt"
    save_sac(model, path)
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
        load_sac(path)


def test_losses_stay_finite_over_many_updates():
    cfg, model = tiny_sac(hidden=(16, 16), action_dim=3, belief_dim=6, window=3,
                          k=2, seed=30, batch_size=16, gamma=0.8)
    buf = ReplayBuffer(capacity=512, window=3, slate_size=2, action_dim=3)
    hw = HistoryWindow(3, 2)
    roll = substream(30, "roll")
    for t in range(300):
        if t % 10 == 0:
            hw.reset()
        hw.push(roll.integers(0, 4, 2), (roll.random(2) < 0.4).astype(float))
        buf.push(hw, roll.uniform(-1.0, 1.0, 3), float(roll.integers(0, 3)), t % 10 == 9)
    rng = substream(30, "upd")
    for _ in range(300):
        d = sac_update(model, buf, cfg, rng)
        assert np.isfinite(d["critic_loss"]) and np.isfinite(d["actor_loss"])


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
    bcfg = BeliefConfig(belief_dim=5, item_source="learned", truncation=3)
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
    diag = reinforce_update(pol, episode, base, cfg)
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
    reinforce_update(pol, episode, base, cfg)
    assert np.allclose(base.values, return_to_go(episode.rewards, cfg.gamma))
    # EMA afterwards
    episode2 = EpisodeRecord(episode.slates, episode.clicks, np.array([0.0, 0.0, 0.0]))
    reinforce_update(pol, episode2, base, cfg)
    assert np.allclose(base.values, 0.9 * return_to_go(episode.rewards, cfg.gamma))


def test_reinforce_prefers_the_rewarding_item_on_a_bandit():
    cfg = ReinforceConfig(gamma=0.0, learning_rate=0.01, hidden=(16,))
    bcfg = BeliefConfig(belief_dim=4, item_source="learned", truncation=1)
    table = substream(3, "table").normal(0.0, 0.1, (2, 2))
    pol = ReinforcePolicy(cfg, bcfg, 1, table, substream(3, "init"))
    base = BaselineState(decay=0.9)
    rng = substream(3, "roll")
    h0 = np.zeros(4)
    for _ in range(1000):
        slate = sample_slate(pol, h0, 1, rng)
        reward = 1.0 if slate[0] == 0 else 0.0
        episode = EpisodeRecord(slates=slate[None, :],
                                clicks=np.array([[reward]]),
                                rewards=np.array([reward]))
        reinforce_update(pol, episode, base, cfg)
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

    from slatelab.reinforce import _episode_windows

    def build_loss():
        ws, wc, wl = _episode_windows(episode, pol.belief.cfg.truncation)
        hidden = pol.belief.recompute_graph(ws, wc, wl)
        log_probs = ad.log_softmax(pol.head(hidden))
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


def test_sample_slate_draws_with_replacement_from_the_softmax():
    cfg, pol = small_reinforce(seed=15, num_items=3, k=4)
    # force a known distribution: zero body, logits from the head bias
    for name, p in pol.store.items():
        if name.startswith(("logits.", "belief.")):
            p.value[...] = 0.0
    pol.store["logits.l1.b"].value[...] = np.log([0.6, 0.3, 0.1])
    rng = substream(15, "draw")
    draws = np.concatenate([sample_slate(pol, np.zeros(5), 4, rng) for _ in range(5000)])
    freq = np.bincount(draws, minlength=3) / draws.size
    assert np.all(np.abs(freq - [0.6, 0.3, 0.1]) < 0.02)
    # with replacement: some slate must repeat an item
    repeats = [len(set(sample_slate(pol, np.zeros(5), 4, rng))) < 4 for _ in range(50)]
    assert any(repeats)


def test_reinforce_checkpoint_roundtrip(tmp_path):
    cfg, pol = small_reinforce(seed=16)
    nudge_biases(pol.store, 16)
    path = tmp_path / "policy.ckpt"
    save_reinforce(pol, path, {"val_round": 2})
    loaded, meta = load_reinforce(path)
    assert meta == {
        "kind": "reinforce",
        "config": {"gamma": 0.6, "learning_rate": 0.01, "baseline_decay": 0.9,
                   "hidden": [12]},
        "belief": {"belief_dim": 5, "item_source": "learned", "truncation": 3},
        "slate_size": 2, "num_items": 6, "item_dim": 2, "val_round": 2,
    }
    h = substream(16, "h").normal(0.0, 0.5, (4, 5))
    np.testing.assert_array_equal(loaded.head.forward_array(h).view(np.int64),
                                  pol.head.forward_array(h).view(np.int64))
