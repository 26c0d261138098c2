import numpy as np
import pytest

from slatelab import autodiff as ad
from slatelab.autodiff import NonFiniteError, Tensor, backward
from slatelab.checkpoint import load_checkpoint, save_checkpoint
from slatelab.nn import GruCell, Mlp
from slatelab.optim import AdamConfig, ParameterStore, adam_step, polyak_update
from slatelab import rng as rngmod

from oracles import (
    finite_difference_grads,
    freeze_mask_gru_window,
    max_relative_error,
    reference_adam_trajectory,
    reference_gru_sequence,
    reference_gru_window,
)


def autodiff_grads(store, build):
    loss = build(store)
    backward(loss)
    return {name: p.grad.copy() for name, p in store.items()}


def check_fd(build, shapes, seed=0, low=-1.0, high=1.0, tol=1e-4):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    for name, shape in shapes:
        store.add(name, rng.uniform(low, high, size=shape))
    got = autodiff_grads(store, build)
    want = finite_difference_grads(store, lambda: build(store).item())
    for name in want:
        err = max_relative_error(got[name], want[name])
        assert err < tol, f"{name}: relative gradient error {err}"


def scalar_sum_sq(x):
    return ad.sum_(ad.square(x))


# --- analytic spot values ----------------------------------------------------

def test_square_grad_at_three():
    store = ParameterStore()
    store.add("x", np.array(3.0))
    x = store.tensor("x")
    backward(ad.mul(x, x))
    assert store["x"].grad == pytest.approx(6.0, abs=1e-12)


def test_logistic_at_zero():
    store = ParameterStore()
    store.add("x", np.array(0.0))
    y = ad.logistic(store.tensor("x"))
    assert y.item() == pytest.approx(0.5, abs=1e-15)
    backward(y)
    assert store["x"].grad == pytest.approx(0.25, abs=1e-15)


def test_gru_zero_weights_halve_state():
    store = ParameterStore()
    cell = GruCell(store, "gru", input_dim=3, hidden_dim=4, rng=np.random.default_rng(0))
    for name, p in store.items():
        p.value[...] = 0.0
    h_prev = np.array([[0.2, -0.4, 1.0, 0.0]])
    h_next = cell(Tensor(h_prev), Tensor(np.ones((1, 3))))
    np.testing.assert_allclose(h_next.value, 0.5 * h_prev, atol=1e-15)


def test_gru_fused_gate_blocks_keep_per_gate_draw_order():
    store = ParameterStore()
    GruCell(store, "gru", input_dim=3, hidden_dim=4, rng=np.random.default_rng(7))
    ref = np.random.default_rng(7)
    for i in range(3):  # z, r, n: W block, then U block
        np.testing.assert_array_equal(store["gru.W"].value[:, 4 * i:4 * i + 4],
                                      ref.normal(0.0, 1.0 / np.sqrt(3), (3, 4)))
        np.testing.assert_array_equal(store["gru.U"].value[:, 4 * i:4 * i + 4],
                                      ref.normal(0.0, 0.5, (4, 4)))
    np.testing.assert_array_equal(store["gru.b"].value, np.zeros(12))


def test_gru_zero_everything_stays_zero():
    store = ParameterStore()
    cell = GruCell(store, "gru", input_dim=3, hidden_dim=4, rng=np.random.default_rng(0))
    for name, p in store.items():
        p.value[...] = 0.0
    h_next = cell(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 3))))
    np.testing.assert_array_equal(h_next.value, np.zeros((1, 4)))


# --- finite-difference checks for every primitive -----------------------------

def test_matmul_fd():
    check_fd(lambda s: ad.sum_(ad.square(ad.matmul(s.tensor("a"), s.tensor("b")))),
             [("a", (3, 4)), ("b", (4, 2))])


def test_add_broadcast_fd():
    check_fd(lambda s: ad.sum_(ad.square(ad.add(s.tensor("a"), s.tensor("b")))),
             [("a", (3, 4)), ("b", (4,))])


def test_mul_fd():
    check_fd(lambda s: ad.sum_(ad.mul(s.tensor("a"), s.tensor("b"))),
             [("a", (3, 4)), ("b", (3, 4))])


def test_minimum_fd():
    # Inputs chosen away from ties; the subgradient at a tie is not tested.
    store = ParameterStore()
    store.add("a", np.array([0.5, -0.3, 0.9]))
    store.add("b", np.array([0.1, 0.4, -0.8]))
    build = lambda s: ad.sum_(ad.square(ad.minimum(s.tensor("a"), s.tensor("b"))))
    got = autodiff_grads(store, build)
    want = finite_difference_grads(store, lambda: build(store).item())
    for name in want:
        assert max_relative_error(got[name], want[name]) < 1e-4


def test_scale_fd():
    check_fd(lambda s: ad.sum_(ad.square(ad.scale(s.tensor("a"), 0.7))), [("a", (5,))])


@pytest.mark.parametrize("op", [ad.tanh, ad.logistic, ad.softplus, ad.square, ad.exp])
def test_elementwise_fd(op):
    check_fd(lambda s: ad.sum_(ad.square(op(s.tensor("a")))), [("a", (3, 4))], seed=7)


def test_relu_fd():
    # Keep inputs away from the kink at zero.
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.2, 1.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
    store = ParameterStore()
    store.add("a", vals)
    build = lambda s: ad.sum_(ad.square(ad.relu(s.tensor("a"))))
    got = autodiff_grads(store, build)
    want = finite_difference_grads(store, lambda: build(store).item())
    assert max_relative_error(got["a"], want["a"]) < 1e-4


def test_log_fd():
    check_fd(lambda s: ad.sum_(ad.square(ad.log(s.tensor("a")))),
             [("a", (3, 4))], low=0.5, high=1.5)


def test_log_softmax_fd():
    w = np.arange(15.0).reshape(3, 5)
    check_fd(lambda s: ad.sum_(ad.mul(ad.log_softmax(s.tensor("a")), Tensor(w))),
             [("a", (3, 5))], seed=11)


def test_concat_fd():
    check_fd(lambda s: ad.sum_(ad.square(
        ad.concat([s.tensor("a"), s.tensor("b")], axis=-1))),
        [("a", (2, 3)), ("b", (2, 4))])


def test_slice_fd():
    check_fd(lambda s: ad.sum_(ad.square(s.tensor("a")[1:3, ::2])), [("a", (4, 5))])


def test_reshape_fd():
    w = np.linspace(-1, 1, 12).reshape(2, 6)
    check_fd(lambda s: ad.sum_(ad.mul(ad.reshape(s.tensor("a"), (2, 6)), Tensor(w))),
             [("a", (3, 4))])


def test_gather_rows_fd():
    ids = np.array([0, 2, 2, 5])
    check_fd(lambda s: ad.sum_(ad.square(ad.gather_rows(s.tensor("t"), ids))),
             [("t", (6, 3))])


def test_pick_fd():
    idx = np.array([1, 0, 3, 2])
    check_fd(lambda s: ad.sum_(ad.square(ad.pick(s.tensor("a"), idx))), [("a", (4, 5))])


def test_sum_mean_fd():
    check_fd(lambda s: ad.sum_(ad.square(ad.mean(s.tensor("a"), axis=0))), [("a", (3, 4))])
    check_fd(lambda s: ad.mean(ad.square(s.tensor("a"))), [("a", (3, 4))], seed=5)


def test_mlp_matches_fd():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        mlp = Mlp(store, "net", [4, 8, 3], rng, activation="tanh")
        x = rng.uniform(-1, 1, size=(2, 4))
        target = rng.uniform(-1, 1, size=(2, 3))

        def build(s, x=x, target=target, mlp=mlp):
            return ad.mean(ad.square(mlp(Tensor(x)) - Tensor(target)))

        got = autodiff_grads(store, build)
        want = finite_difference_grads(store, lambda: build(store).item())
        for name in want:
            assert max_relative_error(got[name], want[name]) < 1e-4


def test_gru_matches_fd():
    rng = np.random.default_rng(2)
    store = ParameterStore()
    cell = GruCell(store, "gru", input_dim=3, hidden_dim=4, rng=rng)
    h0 = rng.uniform(-1, 1, size=(1, 4))
    x = rng.uniform(-1, 1, size=(1, 3))
    build = lambda s: ad.sum_(cell(Tensor(h0), Tensor(x)))
    got = autodiff_grads(store, build)
    want = finite_difference_grads(store, lambda: build(store).item())
    for name in want:
        assert max_relative_error(got[name], want[name]) < 1e-4


def _mlp_operands(s, n_layers):
    return (s.tensor("x"), [s.tensor(f"W{i}") for i in range(n_layers)],
            [s.tensor(f"b{i}") for i in range(n_layers)])


def _mlp_shapes(n_layers, width=3, batch=4):
    dims = [width + i for i in range(n_layers + 1)]
    return ([("x", (batch, dims[0]))]
            + [(f"W{i}", (dims[i], dims[i + 1])) for i in range(n_layers)]
            + [(f"b{i}", (dims[i + 1],)) for i in range(n_layers)])


@pytest.mark.parametrize("act", ad.MLP_ACTIVATIONS)
@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_mlp_fd(n_layers, act):
    w = np.random.default_rng(n_layers).uniform(-1, 1, size=(4, 3 + n_layers))
    check_fd(lambda s: ad.sum_(ad.mul(ad.mlp(*_mlp_operands(s, n_layers), act),
                                      ad.constant(w))),
             _mlp_shapes(n_layers), seed=10 * n_layers + len(act))


def _unfused_mlp(x, Ws, bs, act):
    op = {"tanh": ad.tanh, "relu": ad.relu, "logistic": ad.logistic}[act]
    h = x
    for i, (W, b) in enumerate(zip(Ws, bs)):
        h = ad.add(ad.matmul(h, W), b)
        if i != len(Ws) - 1:
            h = op(h)
    return h


@pytest.mark.parametrize("act", ad.MLP_ACTIVATIONS)
@pytest.mark.parametrize("frozen", ["none", "x", "params"])
def test_mlp_equals_unfused_chain_bit_for_bit(act, frozen):
    rng = np.random.default_rng(1)
    shapes = _mlp_shapes(3, width=6, batch=9)
    values = {name: rng.normal(size=shape) for name, shape in shapes}
    w = ad.constant(rng.normal(size=(9, 9)))

    constants = {"none": set(), "x": {"x"}, "params": set(values) - {"x"}}[frozen]

    def run(build):
        leaf = {n: ad.constant(v) if n in constants else Tensor(v) for n, v in values.items()}
        out = build(leaf["x"], [leaf[f"W{i}"] for i in range(3)],
                    [leaf[f"b{i}"] for i in range(3)], act)
        backward(ad.sum_(ad.mul(out, w)))
        return out.value, {n: t.grad for n, t in leaf.items()}

    fused, fused_grads = run(ad.mlp)
    ref, ref_grads = run(_unfused_mlp)
    np.testing.assert_array_equal(fused.view(np.int64), ref.view(np.int64))
    for name, g in ref_grads.items():
        if g is None:
            assert fused_grads[name] is None, name
        else:
            np.testing.assert_array_equal(fused_grads[name].view(np.int64),
                                          g.view(np.int64), err_msg=name)


def test_mlp_nonfinite_preactivation_raises_although_tanh_would_saturate():
    store = ParameterStore()
    mlp = Mlp(store, "net", [2, 3, 1], np.random.default_rng(0), activation="tanh")
    x = np.array([[1e308, 1e308]])
    store["net.l0.W"].value[...] = 10.0      # x @ W overflows; tanh(inf) is 1
    with pytest.raises(NonFiniteError, match="mlp"):
        mlp(ad.constant(x))
    with pytest.raises(NonFiniteError, match="mlp"):
        mlp.forward_array(x)


def test_mlp_nonfinite_upstream_gradient_raises():
    store = ParameterStore()
    mlp = Mlp(store, "net", [3, 4, 2], np.random.default_rng(1), activation="relu")
    store["net.l0.W"].value[...] = 0.0
    store["net.l0.b"].value[...] = 1.0       # every hidden unit is 1
    store["net.l1.W"].value[...] = [[4.0, 4.0], [-4.0, -4.0], [4.0, 4.0], [-4.0, -4.0]]
    out = mlp(Tensor(np.random.default_rng(2).uniform(0, 1, size=(2, 3))))
    assert np.all(out.value == 0.0)
    # the upstream gradient 1e308 is finite, but the hidden layer's
    # gradient +-1e308 * (4 + 4) overflows inside the mlp node
    root = ad.sum_(ad.mul(out, ad.constant(np.full((2, 2), 1e308))))
    with pytest.raises(NonFiniteError, match="mlp"):
        backward(root)


def test_no_grad_gives_parameters_no_gradient_and_nodes_no_parents():
    rng = np.random.default_rng(3)
    store = ParameterStore()
    mlp = Mlp(store, "net", [3, 4, 2], rng, activation="tanh")
    cell = GruCell(store, "gru", input_dim=2, hidden_dim=3, rng=rng)
    x = rng.uniform(-1, 1, size=(5, 3))
    with ad.no_grad():
        out = mlp(ad.constant(x))
        h = cell.sequence(ad.constant(np.zeros((5, 3))), ad.constant(np.ones((5, 2, 2))))
        assert not ad.grad_enabled()
    assert ad.grad_enabled()
    for node in (out, h):
        assert node._parents == () and node._vjp is None and not node.needs_grad
    np.testing.assert_array_equal(out.value, mlp.forward_array(x))

    # a gradient still reaches an operand that needs one, and only it
    for _, p in store.items():
        p.grad[...] = 7.0
    leaf, free = Tensor(x), Tensor(x)
    with ad.no_grad():
        frozen_out = mlp(leaf)
    backward(ad.sum_(ad.square(frozen_out)))
    for name, p in store.items():
        np.testing.assert_array_equal(p.grad, 7.0, err_msg=name)
    backward(ad.sum_(ad.square(mlp(free))))
    np.testing.assert_array_equal(leaf.grad, free.grad)

    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("left early")
    assert ad.grad_enabled() and store.tensor("net.l0.W").needs_grad


@pytest.mark.parametrize("n", [5, 2 * ad._SOFTMAX_PICK_BLOCK + 37])
def test_softmax_pick_fd_within_and_across_row_blocks(n):
    rng = np.random.default_rng(n)
    table = rng.uniform(-1, 1, size=(7, 3))
    idx = rng.integers(0, 7, size=n)
    w = rng.uniform(-1, 1, size=n)
    check_fd(lambda s: ad.sum_(ad.mul(ad.softmax_pick(s.tensor("x"), table, idx),
                                      ad.constant(w))),
             [("x", (n, 3))], seed=n)


@pytest.mark.parametrize("n", [2560, 2320])   # a full paper-default batch, a short last one
def test_softmax_pick_equals_unfused_graph_bit_for_bit(n):
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, size=(n, 8))
    table = rng.normal(0.0, 0.5, size=(1000, 8))
    idx = rng.integers(0, 1000, size=n)
    w = ad.constant(rng.normal(size=n))
    fused, ref = Tensor(x), Tensor(x)
    a = ad.softmax_pick(fused, table, idx)
    b = ad.pick(ad.log_softmax(ad.matmul(ref, ad.constant(np.ascontiguousarray(table.T)))), idx)
    backward(ad.sum_(ad.mul(a, w)))
    backward(ad.sum_(ad.mul(b, w)))
    np.testing.assert_array_equal(a.value.view(np.int64), b.value.view(np.int64))
    np.testing.assert_array_equal(fused.grad.view(np.int64), ref.grad.view(np.int64))


def test_softmax_pick_nonfinite_forward_raises():
    n = ad._SOFTMAX_PICK_BLOCK + 3
    x = np.random.default_rng(0).uniform(-1, 1, size=(n, 2))
    x[n - 1, 0] = 1e300   # overflows one logit in the last block only
    with pytest.raises(NonFiniteError, match="softmax-pick"):
        ad.softmax_pick(Tensor(x), np.full((4, 2), 1e10), np.zeros(n, dtype=int))


def test_softmax_pick_nonfinite_upstream_gradient_raises():
    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(-1, 1, size=(6, 3)))
    lp = ad.softmax_pick(x, rng.uniform(-1, 1, size=(5, 3)), rng.integers(0, 5, size=6))
    # exp(s*lp) peaks at e^705 in the forward pass, but its gradient times
    # |s| > 705 overflows on the way into the softmax-pick node
    assert lp.value.max() < 0.0
    root = ad.sum_(ad.exp(ad.scale(lp, 705.0 / lp.value.min())))
    with pytest.raises(NonFiniteError, match="softmax-pick"):
        backward(root)


def _right_aligned_mask(window, lengths):
    lengths = np.asarray(lengths)
    return (np.arange(window)[None, :] >= (window - lengths)[:, None]).astype(np.float64)


def _first_real_row_resets(window, lengths):
    """Resets that restart right-aligned histories at their first real row."""
    return np.arange(window)[None, :] == (window - np.asarray(lengths))[:, None]


def test_gru_sequence_fd_short_windows_and_nonzero_h0():
    # every step's state is an output: rows restart at their first, a middle
    # and their last step, or run from h0 throughout, and the upstream
    # gradient reaches steps 0, 2 and 4 only; h0 and x are parameters, so
    # both get checked
    resets = np.zeros((4, 5), bool)
    resets[0, 0] = resets[1, 2] = resets[2, 4] = True
    w = np.linspace(-1.0, 1.0, 80).reshape(4, 5, 4)
    w[:, [1, 3]] = 0.0
    build = lambda s: ad.sum_(ad.mul(ad.gru_sequence(
        s.tensor("h0"), s.tensor("x"), s.tensor("W"), s.tensor("U"), s.tensor("b"), resets),
        ad.constant(w)))
    check_fd(build, [("h0", (4, 4)), ("x", (4, 5, 2)), ("W", (2, 12)), ("U", (4, 12)),
                     ("b", (12,))], seed=3)


def test_gru_sequence_equals_single_steps():
    rng = np.random.default_rng(6)
    store = ParameterStore()
    cell = GruCell(store, "gru", input_dim=3, hidden_dim=4, rng=rng)
    store["gru.b"].value[...] = rng.normal(0.0, 0.3, 12)
    h0 = rng.uniform(-1, 1, size=(4, 4))
    x = rng.uniform(-1, 1, size=(4, 6, 3))
    resets = np.zeros((4, 6), bool)
    resets[0, 0] = resets[1, [2, 3]] = resets[2, 5] = True
    for r in (None, resets):
        h, steps = h0, []
        for t in range(6):
            if r is not None:
                h = h * ~r[:, t, None]
            h = cell(Tensor(h), Tensor(x[:, t])).value
            steps.append(h)
        steps = np.stack(steps, axis=1)
        for states in (cell.sequence(Tensor(h0), Tensor(x), r).value,
                       cell.sequence_array(h0, x, r)):
            np.testing.assert_array_equal(states, steps)
            np.testing.assert_array_equal(states[:, -1], h)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_reset_at_the_first_real_row_matches_the_freeze_mask_bit_for_bit(dtype):
    # a right-aligned history recomputed from zero: restarting at its first
    # real row gives the h_T that freezing the zero state over the padding did
    rng = np.random.default_rng(31)
    B, T, n_in, H = 64, 20, 90, 64
    lengths = np.concatenate([[1, T], rng.integers(1, T + 1, B - 2)])
    x, W, U, b = (rng.normal(0.0, s, shape).astype(dtype) for s, shape in (
        (1.0, (B, T, n_in)), (n_in ** -0.5, (n_in, 3 * H)), (H ** -0.5, (H, 3 * H)),
        (0.3, (3 * H,))))
    h0 = np.zeros((B, H), dtype)
    frozen = freeze_mask_gru_window(h0, x, W, U, b, _right_aligned_mask(T, lengths).astype(dtype))
    states = ad.gru_window(h0, x, W, U, b, _first_real_row_resets(T, lengths))
    assert states.dtype == dtype
    np.testing.assert_array_equal(states[:, -1], frozen)


@pytest.mark.parametrize("B, T, n_in, H, lengths", [
    (3, 1, 4, 5, None),                     # a one-step window
    (1, 6, 4, 5, None),                     # a single row
    (4, 5, 3, 2, [0, 2, 5, 1]),             # empty, short and full histories
    (256, 20, 90, 64, "mixed"),             # the paper's update shape
])
def test_gru_kernel_matches_the_per_step_reference(B, T, n_in, H, lengths):
    # the reference freezes h0 over a history's padding; the kernel restarts
    # from zero at its first real row, which agrees when h0 is zero there.
    # Full windows keep a nonzero h0 and no reset.
    # An empty history has no row to restart at (its pre-action belief is
    # set to zero by belief.prev_beliefs), so its output and its upstream
    # gradient are left out.
    rng = np.random.default_rng(B + T)
    if lengths == "mixed":
        lengths = np.concatenate([[0, 1, T], rng.integers(0, T + 1, B - 3)])
    lengths = np.full(B, T) if lengths is None else np.asarray(lengths)
    operands = (rng.uniform(-1, 1, (B, H)), rng.normal(0.0, 1.0, (B, T, n_in)),
                rng.normal(0.0, n_in ** -0.5, (n_in, 3 * H)),
                rng.normal(0.0, H ** -0.5, (H, 3 * H)), rng.normal(0.0, 0.3, 3 * H))
    operands[0][lengths < T] = 0.0
    real, full = lengths > 0, lengths == T
    mask = _right_aligned_mask(T, lengths)
    resets = _first_real_row_resets(T, lengths) & ~full[:, None]
    w = rng.normal(0.0, 1.0, (B, H)) * real[:, None]
    np.testing.assert_allclose(ad.gru_window(*operands, resets)[real, -1],
                               reference_gru_window(*operands, mask)[real], rtol=0, atol=1e-12)
    results = []
    for sequence, m in ((ad.gru_sequence, resets), (reference_gru_sequence, mask)):
        leaves = [Tensor(a) for a in operands]
        out = sequence(*leaves, m)
        h_T = out[:, -1] if sequence is ad.gru_sequence else out
        backward(ad.sum_(ad.mul(h_T, ad.constant(w))))
        results.append([h_T.value[real], leaves[0].grad[full]] + [t.grad for t in leaves[1:]])
    for name, got, want in zip(("h_T", "h0", "x", "W", "U", "b"), *results):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


def _two_branch_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bit_identical_to_two_branch_formula():
    edges = [0.0, 1e-300, 5e-324, 1e-8, 0.5, 1.0, 36.0, 40.0, 709.0, 710.0, 745.0,
             800.0, np.inf]
    grid = np.array(edges + [-v for v in edges])
    rng = np.random.default_rng(0)
    x = np.concatenate([grid, rng.normal(0.0, 5.0, 20_000), rng.normal(0.0, 300.0, 2_000)])
    np.testing.assert_array_equal(ad._sigmoid(x).view(np.int64),
                                  _two_branch_sigmoid(x).view(np.int64))
    assert np.signbit(ad._sigmoid(np.array([-0.0]))[0]) == np.signbit(0.5)
    assert float(ad._sigmoid(np.asarray(0.3))) == _two_branch_sigmoid(np.array([0.3]))[0]
    assert np.isnan(ad._sigmoid(np.array([np.nan]))).all()


def test_mlp_forward_array_matches_graph():
    rng = np.random.default_rng(4)
    for act in ad.MLP_ACTIVATIONS:
        store = ParameterStore()
        mlp = Mlp(store, "net", [4, 8, 3], rng, activation=act)
        x = rng.uniform(-1, 1, size=(5, 4))
        np.testing.assert_array_equal(mlp.forward_array(x), mlp(Tensor(x)).value)


# --- graph mechanics ----------------------------------------------------------

def test_log_softmax_rows_normalize():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-5, 5, size=(6, 9)))
    sums = np.exp(ad.log_softmax(x).value).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(123)
        store = ParameterStore()
        mlp = Mlp(store, "net", [3, 5, 2], rng)
        x = rng.uniform(-1, 1, size=(4, 3))
        backward(ad.mean(ad.square(mlp(Tensor(x)))))
        return {name: p.grad.copy() for name, p in store.items()}

    a, b = run(), run()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def test_grad_accumulates_across_reuse():
    # x used twice: d/dx (x*x + 3x) = 2x + 3
    store = ParameterStore()
    store.add("x", np.array(2.0))
    x = store.tensor("x")
    backward(ad.add(ad.mul(x, x), ad.scale(x, 3.0)))
    assert store["x"].grad == pytest.approx(7.0, abs=1e-12)


def test_nonscalar_root_rejected():
    store = ParameterStore()
    store.add("x", np.ones(3))
    with pytest.raises(ValueError):
        backward(ad.square(store.tensor("x")))


def test_nonfinite_forward_raises():
    with pytest.raises(NonFiniteError):
        ad.exp(Tensor(np.array([1000.0])))
    with pytest.raises(NonFiniteError):
        ad.log(Tensor(np.array([-1.0])))


def test_gru_sequence_nonfinite_input_raises():
    store = ParameterStore()
    cell = GruCell(store, "gru", input_dim=3, hidden_dim=4, rng=np.random.default_rng(0))
    x = np.zeros((2, 3, 3))
    x[1, 2, 0] = np.inf  # saturated gates would hide it in the output alone
    with pytest.raises(NonFiniteError, match="gru-sequence"):
        cell.sequence(ad.constant(np.zeros((2, 4))), ad.constant(x))
    with pytest.raises(NonFiniteError, match="gru-sequence"):
        cell.sequence_array(np.zeros((2, 4)), x)


def test_gru_sequence_overflow_in_the_gate_block_raises():
    # x Wz + bz overflows to +inf in one z column only; squashed, that gate
    # would read a finite 1, so only the pre-activation check can see it
    store = ParameterStore()
    cell = GruCell(store, "gru", input_dim=3, hidden_dim=4, rng=np.random.default_rng(0))
    store["gru.W"].value[:, 0] = 1e307
    store["gru.b"].value[0] = 1.7e308
    x = np.ones((2, 3, 3))
    with pytest.raises(NonFiniteError, match="gru-sequence"):
        cell.sequence(ad.constant(np.zeros((2, 4))), ad.constant(x))
    with pytest.raises(NonFiniteError, match="gru-sequence"):
        cell.sequence_array(np.zeros((2, 4)), x)


def test_gru_sequence_nonfinite_upstream_gradient_raises():
    store = ParameterStore()
    cell = GruCell(store, "gru", input_dim=3, hidden_dim=4, rng=np.random.default_rng(1))
    x = np.random.default_rng(2).uniform(-1, 1, size=(2, 3, 3))
    h = cell.sequence(ad.constant(np.zeros((2, 4))), ad.constant(x))
    # exp(s*h) peaks at e^705 in the forward pass, but its gradient times
    # s > 705 overflows on the way into the GRU node
    assert 0.0 < h.value.max() < 1.0
    root = ad.sum_(ad.exp(ad.scale(h, 705.0 / h.value.max())))
    with pytest.raises(NonFiniteError, match="gru-sequence"):
        backward(root)


@pytest.mark.parametrize("dtype, big", [(np.float64, 1e308), (np.float32, 3e38)])
def test_gru_sequence_overflowing_upstream_gradient_at_a_middle_step_raises(dtype, big):
    # U = 0 and bz = -5 make z about 0.007: the state gradient leaving the
    # last step is about big * (1 - z), finite, and only adding the middle
    # step's own upstream gradient big overflows it
    store = ParameterStore(dtype)
    cell = GruCell(store, "gru", input_dim=3, hidden_dim=4, rng=np.random.default_rng(4))
    store["gru.U"].value[...] = 0.0
    store["gru.b"].value[:4] = -5.0
    x = np.random.default_rng(5).uniform(-1, 1, size=(2, 3, 3)).astype(dtype)
    for steps, raises in (([2], False), ([1, 2], True)):
        w = np.zeros((2, 3, 4), dtype)
        w[0, steps, 0] = big
        h = cell.sequence(ad.constant(np.zeros((2, 4), dtype)), ad.constant(x))
        root = ad.sum_(ad.mul(h, ad.constant(w)))
        if raises:
            with pytest.raises(NonFiniteError, match="gru-sequence"):
                backward(root)
        else:
            backward(root)
            assert all(np.isfinite(p.grad).all() for _, p in store.items())


# --- float32 twins of the overflow tests: float32 overflows past 3.4e38 ------


def f32(a):
    return np.asarray(a, dtype=np.float32)


def test_mlp_nonfinite_preactivation_raises_in_float32():
    store = ParameterStore(np.float32)
    mlp = Mlp(store, "net", [2, 3, 1], np.random.default_rng(0), activation="tanh")
    x = f32([[1e38, 1e38]])
    store["net.l0.W"].value[...] = 10.0      # x @ W overflows; tanh(inf) is 1
    with pytest.raises(NonFiniteError, match="mlp"):
        mlp(ad.constant(x))
    with pytest.raises(NonFiniteError, match="mlp"):
        mlp.forward_array(x)


def test_mlp_preactivation_near_1e39_raises_in_float32_only():
    x = np.array([[1e37, 1e37]])
    nets = {}
    for dtype in (np.float64, np.float32):
        store = ParameterStore(dtype)
        nets[dtype] = Mlp(store, "net", [2, 3, 1], np.random.default_rng(0), activation="tanh")
        store["net.l0.W"].value[...] = 50.0      # pre-activations 1e39
    assert np.isfinite(nets[np.float64].forward_array(x)).all()
    with pytest.raises(NonFiniteError, match="mlp"):
        nets[np.float32](ad.constant(f32(x)))
    with pytest.raises(NonFiniteError, match="mlp"):
        nets[np.float32].forward_array(x)


def test_mlp_nonfinite_upstream_gradient_raises_in_float32():
    store = ParameterStore(np.float32)
    mlp = Mlp(store, "net", [3, 4, 2], np.random.default_rng(1), activation="relu")
    store["net.l0.W"].value[...] = 0.0
    store["net.l0.b"].value[...] = 1.0       # every hidden unit is 1
    store["net.l1.W"].value[...] = [[4.0, 4.0], [-4.0, -4.0], [4.0, 4.0], [-4.0, -4.0]]
    out = mlp(Tensor(f32(np.random.default_rng(2).uniform(0, 1, size=(2, 3)))))
    assert out.value.dtype == np.float32 and np.all(out.value == 0.0)
    # the upstream gradient 1e38 is finite in float32, but the hidden
    # layer's gradient +-1e38 * (4 + 4) is not
    root = ad.sum_(ad.mul(out, ad.constant(np.full((2, 2), 1e38, np.float32))))
    with pytest.raises(NonFiniteError, match="mlp"):
        backward(root)


def test_gru_sequence_nonfinite_input_raises_in_float32():
    store = ParameterStore(np.float32)
    cell = GruCell(store, "gru", input_dim=3, hidden_dim=4, rng=np.random.default_rng(0))
    x = np.zeros((2, 3, 3), np.float32)
    x[1, 2, 0] = np.inf
    h0 = np.zeros((2, 4), np.float32)
    with pytest.raises(NonFiniteError, match="gru-sequence"):
        cell.sequence(ad.constant(h0), ad.constant(x))
    with pytest.raises(NonFiniteError, match="gru-sequence"):
        cell.sequence_array(h0, x)


def test_gru_sequence_overflow_in_the_gate_block_raises_in_float32():
    # 3 * 1e37 + 3.3e38 passes the float32 maximum in one z column only
    store = ParameterStore(np.float32)
    cell = GruCell(store, "gru", input_dim=3, hidden_dim=4, rng=np.random.default_rng(0))
    store["gru.W"].value[:, 0] = 1e37
    store["gru.b"].value[0] = 3.3e38
    x = np.ones((2, 3, 3), np.float32)
    h0 = np.zeros((2, 4), np.float32)
    with pytest.raises(NonFiniteError, match="gru-sequence"):
        cell.sequence(ad.constant(h0), ad.constant(x))
    with pytest.raises(NonFiniteError, match="gru-sequence"):
        cell.sequence_array(h0, x)


def test_gru_sequence_nonfinite_upstream_gradient_raises_in_float32():
    store = ParameterStore(np.float32)
    cell = GruCell(store, "gru", input_dim=3, hidden_dim=4, rng=np.random.default_rng(1))
    x = f32(np.random.default_rng(2).uniform(-1, 1, size=(2, 3, 3)))
    h = cell.sequence(ad.constant(np.zeros((2, 4), np.float32)), ad.constant(x))
    # exp(s*h) peaks at e^88 < 3.4e38, but its gradient times s > 88 is not
    assert h.value.dtype == np.float32 and 0.0 < h.value.max() < 1.0
    root = ad.sum_(ad.exp(ad.scale(h, 88.0 / h.value.max())))
    with pytest.raises(NonFiniteError, match="gru-sequence"):
        backward(root)


def test_constant_operands_get_no_gradient_and_change_no_parameter_gradient():
    rng = np.random.default_rng(5)
    store = ParameterStore()
    mlp = Mlp(store, "net", [3, 5, 2], rng)
    cell = GruCell(store, "gru", input_dim=2, hidden_dim=3, rng=rng)
    x = rng.uniform(-1, 1, size=(4, 3))
    seq = rng.uniform(-1, 1, size=(4, 2, 2))
    c = rng.uniform(-1, 1, size=(4, 2))
    resets = np.array([[False, False], [False, True], [True, False], [True, True]])

    def grads(leaf):
        operands = [leaf(v) for v in (x, seq, c)]
        h = cell.sequence(leaf(np.zeros((4, 3))), operands[1], resets)
        y = ad.mul(mlp(operands[0]), operands[2])
        backward(ad.add(ad.sum_(ad.square(y)), ad.sum_(h)))
        return operands, {name: p.grad.copy() for name, p in store.items()}

    consts, pruned = grads(ad.constant)
    leaves, full = grads(Tensor)
    assert all(t.grad is None for t in consts)
    assert all(t.grad is not None for t in leaves)
    for name in full:
        np.testing.assert_array_equal(pruned[name], full[name])


# --- optimizer -----------------------------------------------------------------

def test_adam_zero_grad_no_move():
    store = ParameterStore()
    store.add("w", np.array([1.0, -2.0]))
    adam_step(store, AdamConfig(learning_rate=0.1))
    np.testing.assert_array_equal(store["w"].value, np.array([1.0, -2.0]))
    assert store.step_count == 1


def test_adam_first_step_magnitude():
    store = ParameterStore()
    store.add("w", np.array(0.0))
    store["w"].grad[...] = 1.0
    adam_step(store, AdamConfig(learning_rate=0.001))
    assert store["w"].value == pytest.approx(-0.001, abs=1e-9)
    assert store["w"].grad == pytest.approx(0.0)


def test_adam_matches_reference_on_quadratic():
    store = ParameterStore()
    store.add("w", np.array(1.0))
    cfg = AdamConfig(learning_rate=0.1)
    got = []
    for _ in range(10):
        w = store.tensor("w")
        backward(ad.square(w))
        adam_step(store, cfg)
        got.append(float(store["w"].value))
    want = reference_adam_trajectory(1.0, lambda w: 2.0 * w, lr=0.1, steps=10)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_adam_shape_mismatch_rejected():
    store = ParameterStore()
    store.add("w", np.ones((2, 2)))
    store["w"].grad = np.ones(3)
    with pytest.raises(ValueError):
        adam_step(store, AdamConfig(learning_rate=0.1))


def test_polyak_endpoints_and_decay():
    src = ParameterStore()
    src.add("w", np.full(3, 2.0))
    tgt = ParameterStore()
    tgt.add("w", np.zeros(3))

    polyak_update(tgt, src, tau=0.0)
    np.testing.assert_array_equal(tgt["w"].value, 0.0)
    polyak_update(tgt, src, tau=1.0)
    np.testing.assert_array_equal(tgt["w"].value, 2.0)

    tgt["w"].value[...] = 0.0
    for _ in range(4):
        polyak_update(tgt, src, tau=0.25)
    np.testing.assert_allclose(tgt["w"].value, 2.0 * (1 - 0.75**4), atol=1e-12)


def test_adam_config_validation():
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=0.1, beta1=1.0)
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=0.1, epsilon=0.0)


# --- checkpoint ----------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    actor = ParameterStore()
    actor.add("l0.W", rng.normal(size=(4, 3)))
    actor.add("l0.b", rng.normal(size=3))
    actor["l0.W"].m[...] = rng.normal(size=(4, 3))
    actor["l0.W"].v[...] = np.abs(rng.normal(size=(4, 3)))
    actor.step_count = 17
    critic = ParameterStore()
    critic.add("q", np.array([np.pi, -0.0, 1e-300]))

    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"actor": actor, "critic": critic}, {"gamma": 0.8, "seed": 3})
    stores, meta = load_checkpoint(path)

    assert meta == {"gamma": 0.8, "seed": 3}
    assert set(stores) == {"actor", "critic"}
    assert stores["actor"].step_count == 17
    for name, p in actor.items():
        q = stores["actor"][name]
        assert np.array_equal(p.value, q.value)
        assert np.array_equal(p.m, q.m)
        assert np.array_equal(p.v, q.v)
    assert np.array_equal(critic["q"].value, stores["critic"]["q"].value)


def test_checkpoint_loads_writable_arrays_and_rejects_truncation(tmp_path):
    store = ParameterStore()
    store.add("W", np.arange(12.0).reshape(4, 3))
    store.add("s", np.array(2.5))
    store.add("e", np.zeros((0, 3)))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"odd-length-name": store})
    loaded = load_checkpoint(path)[0]["odd-length-name"]
    for name, p in store.items():
        q = loaded[name]
        assert q.value.shape == p.value.shape and q.value.flags.writeable
        q.value[...] += 1.0               # a copy, not a view of the file's bytes
        np.testing.assert_array_equal(q.value, p.value + 1.0)
    raw = path.read_bytes()
    for cut in (10, 20, len(raw) // 2, len(raw) - 8, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)


# --- seeded substreams -----------------------------------------------------------

def test_substreams_reproducible_and_distinct():
    a1 = rngmod.substream(42, "env-train", 0).random(4)
    a2 = rngmod.substream(42, "env-train", 0).random(4)
    b = rngmod.substream(42, "env-val", 0).random(4)
    c = rngmod.substream(42, "env-train", 1).random(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_substream_seed_stable():
    s1 = rngmod.substream_seed(7, "init")
    s2 = rngmod.substream_seed(7, "init")
    assert s1 == s2
    assert s1 != rngmod.substream_seed(8, "init")
