"""Reverse-mode automatic differentiation over dense float32 or float64 arrays.

Graphs are built define-by-run: every primitive allocates a fresh node and
``backward`` walks the tape once, accumulating gradients by the chain rule.
Sized for the small MLP/GRU/VAE workloads in this package: no views, no
GPU.  A graph computes in the dtype of its operands, which follow the
parameters: float32 and float64 arrays are kept as they are, anything else
becomes float64, and Python-float constants stay weak scalars, so nothing
upcasts a float32 graph.  Array constants are made in the graph's dtype by
their callers.  Three fused ops keep graphs and their arrays small:
:func:`mlp` (a fully connected stack as one node) and :func:`gru_sequence`
(a GRU window with resets as one node, valued at every step's state, with
backprop through time), each over a value-only kernel that inference
calls directly (:func:`mlp_values`, :func:`gru_window`), and
:func:`softmax_pick` (the log-softmax of ``x @ table.T`` at one index per
row, in row blocks so the logits never exist whole).

A node needs a gradient when it is a parameter or ``Tensor(...)`` leaf, or
when one of its parents does; one that does not, such as a
:func:`constant`, keeps neither parents nor VJP.  Inside :class:`no_grad`
parameters are constants, while other operands still get gradients.
``backward`` visits only nodes that need a gradient.  Any non-finite value
of a forward pass or gradient raises :class:`NonFiniteError` at once; the
fused ops and their kernels, inference included, check every layer's or
step's pre-activations and gradients, so a saturating tanh hides nothing.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Optional, Sequence

import numpy as np

_GRAD_ENABLED: ContextVar[bool] = ContextVar("slatelab_grad_enabled", default=True)


class no_grad:
    """Context manager inside which ``ParameterStore.tensor`` returns
    constants: parameters get no gradient and value-only graphs no tape."""

    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)

    def __exit__(self, *exc):
        _GRAD_ENABLED.reset(self._token)


def grad_enabled() -> bool:
    """False inside :class:`no_grad`."""
    return _GRAD_ENABLED.get()


class NonFiniteError(ArithmeticError):
    """A forward or backward pass produced NaN or Inf."""


def _check_finite(a: np.ndarray, op: str) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


def _as_array(x) -> np.ndarray:
    a = np.asarray(x)
    return a if a.dtype in (np.float32, np.float64) else a.astype(np.float64)


class Tensor:
    """One node of the compute graph: a value plus a gradient accumulator."""

    __slots__ = ("value", "grad", "op", "needs_grad", "_parents", "_vjp", "_param")

    def __init__(self, value, op: str = "leaf", parents: Sequence["Tensor"] = (),
                 vjp: Optional[Callable] = None, param=None, needs_grad: bool = True):
        self.value = _as_array(value)
        self.grad: Optional[np.ndarray] = None
        self.op = op
        self.needs_grad = needs_grad
        self._parents = tuple(parents)
        self._vjp = vjp
        self._param = param

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def item(self) -> float:
        return float(self.value.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.value.shape})"

    # Operator sugar; scalars are promoted to constants.
    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, scale(_wrap(other), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other), scale(self, -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, key):
        return slice_(self, key)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def constant(x) -> Tensor:
    return Tensor(x, op="const", needs_grad=False)


def _node(op: str, value: np.ndarray, parents: Sequence[Tensor], vjp: Optional[Callable]) -> Tensor:
    _check_finite(value, op)
    if not any(p.needs_grad for p in parents):
        return Tensor(value, op=op, needs_grad=False)
    return Tensor(value, op=op, parents=parents, vjp=vjp)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce gradient g down to `shape` by summing broadcast axes."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    v = a.value @ b.value
    return _node("matmul", v, (a, b),
                 lambda g: (g @ b.value.T if a.needs_grad else None,
                            a.value.T @ g if b.needs_grad else None))


def add(a: Tensor, b: Tensor) -> Tensor:
    v = a.value + b.value
    return _node("add", v, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    v = a.value * b.value
    return _node("mul", v, (a, b),
                 lambda g: (_unbroadcast(g * b.value, a.shape) if a.needs_grad else None,
                            _unbroadcast(g * a.value, b.shape) if b.needs_grad else None))


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; gradient routes to the smaller input (ties to `a`)."""
    take_a = a.value <= b.value
    v = np.where(take_a, a.value, b.value)
    return _node("minimum", v, (a, b),
                 lambda g: (_unbroadcast(g * take_a, a.shape),
                            _unbroadcast(g * (~take_a), b.shape)))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _node("scalar-scale", a.value * s, (a,), lambda g: (g * s,))


def tanh(a: Tensor) -> Tensor:
    v = np.tanh(a.value)
    return _node("tanh", v, (a,), lambda g: (g * (1.0 - v * v),))


def logistic(a: Tensor) -> Tensor:
    v = _sigmoid(a.value)
    return _node("logistic", v, (a,), lambda g: (g * v * (1.0 - v),))


def relu(a: Tensor) -> Tensor:
    v = np.maximum(a.value, 0.0)
    return _node("relu", v, (a,), lambda g: (g * (a.value > 0.0),))


def softplus(a: Tensor) -> Tensor:
    v = _softplus(a.value)
    return _node("softplus", v, (a,), lambda g: (g * _sigmoid(a.value),))


def square(a: Tensor) -> Tensor:
    return _node("square", a.value * a.value, (a,), lambda g: (g * 2.0 * a.value,))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.log(a.value)
    return _node("log", v, (a,), lambda g: (g / a.value,))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        v = np.exp(a.value)
    return _node("exp", v, (a,), lambda g: (g * v,))


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log softmax over the last axis."""
    x = a.value
    m = x.max(axis=-1, keepdims=True)
    p = x - m
    np.exp(p, out=p)
    lse = np.log(p.sum(axis=-1, keepdims=True)) + m
    v = x - lse
    np.exp(v, out=p)

    def vjp(g):
        out = p * g.sum(axis=-1, keepdims=True)
        return (np.subtract(g, out, out=out),)

    return _node("softmax-log", v, (a,), vjp)


# Rows per block.  At 1000 items, 64-row blocks ran about 15% faster, but
# below about 126 rows OpenBLAS rounds the block's dx product differently
# from the whole-batch product, so the gradient would no longer match the
# unfused graph bit for bit.
_SOFTMAX_PICK_BLOCK = 256


def _row_blocks(n: int, block: int) -> list:
    """(lo, hi) ranges over n rows in fixed blocks of ``block`` rows.  The last
    block takes the remainder rows: a short trailing product can run a
    different BLAS kernel than the whole-batch one and round apart."""
    starts = list(range(0, max(n - block, 0) + 1, block))
    return list(zip(starts, starts[1:] + [n]))


def softmax_pick(x: Tensor, table: np.ndarray, idx: np.ndarray) -> Tensor:
    """``log_softmax(x @ table.T)[i, idx[i]]`` as one node of shape [N].

    ``table`` [M, e] is a constant.  Rows go through in fixed blocks, so the
    [N, M] logits never exist: the forward pass keeps each row's log-sum-exp
    and the VJP recomputes a block's logits to form its softmax.  Value and
    gradient equal ``pick(log_softmax(matmul(x, constant(table.T))), idx)``
    (a contiguous ``table.T``) bit for bit wherever the BLAS rounds a row of
    a block's product as it rounds that row of the whole-batch product
    (OpenBLAS does at the GeMS shapes the tests check).  Each block's logits
    and gradient are checked for finiteness, and so are the output and ``dx``.
    """
    xv = x.value
    table = _as_array(table)
    idx = np.asarray(idx)
    if (xv.ndim != 2 or table.ndim != 2 or xv.shape[1] != table.shape[1]
            or idx.shape != xv.shape[:1]):
        raise ValueError("softmax_pick shape mismatch")
    table_t = np.ascontiguousarray(table.T)   # the operand layout matmul sees unfused
    n = xv.shape[0]
    blocks = _row_blocks(n, _SOFTMAX_PICK_BLOCK)
    lse = np.empty((n, 1), xv.dtype)
    v = np.empty(n, xv.dtype)
    for lo, hi in blocks:
        logits = xv[lo:hi] @ table_t
        _check_finite(logits, "softmax-pick")
        m = logits.max(axis=-1, keepdims=True)
        picked = logits[np.arange(hi - lo), idx[lo:hi]]
        logits -= m
        np.exp(logits, out=logits)
        lse[lo:hi] = np.log(logits.sum(axis=-1, keepdims=True)) + m
        v[lo:hi] = picked - lse[lo:hi, 0]

    def vjp(g):
        dx = np.empty_like(xv)
        for lo, hi in blocks:
            rows, cols = np.arange(hi - lo), idx[lo:hi]
            grad = xv[lo:hi] @ table_t
            grad -= lse[lo:hi]
            np.exp(grad, out=grad)                  # softmax p
            grad *= g[lo:hi, None]
            at_pick = g[lo:hi] - grad[rows, cols]
            np.subtract(0.0, grad, out=grad)        # 0 - p*g, as the dense VJP does
            grad[rows, cols] = at_pick
            _check_finite(grad, "softmax-pick")
            dx[lo:hi] = grad @ table_t.T
        _check_finite(dx, "softmax-pick")
        return (dx,)

    return _node("softmax-pick", v, (x,), vjp)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    v = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.value.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node("concat", v, tensors, vjp)


def slice_(a: Tensor, key) -> Tensor:
    v = a.value[key]

    def vjp(g):
        out = np.zeros_like(a.value)
        out[key] = g
        return (out,)

    return _node("slice", v, (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    v = a.value.reshape(shape)
    return _node("reshape", v, (a,), lambda g: (g.reshape(a.shape),))


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Select rows of a 2-D table by integer id; backward scatter-adds."""
    ids = np.asarray(ids)
    v = table.value[ids]

    def vjp(g):
        out = np.zeros_like(table.value)
        np.add.at(out, ids.reshape(-1), g.reshape(-1, table.value.shape[1]))
        return (out,)

    return _node("gather-rows", v, (table,), vjp)


def pick(a: Tensor, idx: np.ndarray) -> Tensor:
    """Per-row scalar gather: out[i] = a[i, idx[i]] for 2-D a."""
    idx = np.asarray(idx)
    rows = np.arange(a.value.shape[0])
    v = a.value[rows, idx]

    def vjp(g):
        out = np.zeros_like(a.value)
        out[rows, idx] = g
        return (out,)

    return _node("pick", v, (a,), vjp)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    v = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _node("sum", v, (a,), vjp)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.value.size if axis is None else a.value.shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


# Hidden-layer activations of mlp: a forward that may overwrite its
# argument, and the VJP from the activation's output, written exactly as
# the elementwise ops above write them.
_MLP_ACTIVATIONS = {
    "tanh": (lambda v: np.tanh(v, out=v), lambda g, v: g * (1.0 - v * v)),
    "relu": (lambda v: np.maximum(v, 0.0, out=v), lambda g, v: g * (v > 0.0)),
    "logistic": (lambda v: _sigmoid(v), lambda g, v: g * v * (1.0 - v)),
}
MLP_ACTIVATIONS = tuple(_MLP_ACTIVATIONS)


def activate(pre: np.ndarray, act: str) -> np.ndarray:
    """A hidden layer of :func:`mlp_values` from its pre-activation: checked
    for finiteness, then squashed by ``act`` (in place where it can)."""
    _check_finite(pre, "mlp")
    return _MLP_ACTIVATIONS[act][0](pre)


def mlp_values(x: np.ndarray, Ws: Sequence[np.ndarray], bs: Sequence[np.ndarray],
               act: str, tape: Optional[list] = None) -> np.ndarray:
    """Value-only fully connected stack: ``act(h @ W + b)`` for every layer
    but the last, which is linear.  Every pre-activation is checked for
    finiteness; with a ``tape`` list, each layer's input is appended for
    :func:`mlp`'s backward pass."""
    forward = _MLP_ACTIVATIONS[act][0]
    h = x
    last = len(Ws) - 1
    for i, (W, b) in enumerate(zip(Ws, bs)):
        if tape is not None:
            tape.append(h)
        pre = h @ W
        pre += b
        _check_finite(pre, "mlp")
        h = pre if i == last else forward(pre)
    return h


def mlp(x: Tensor, Ws: Sequence[Tensor], bs: Sequence[Tensor], act: str) -> Tensor:
    """:func:`mlp_values` as one node; value and gradients equal the chain of
    ``add(matmul(h, W), b)`` and activation nodes bit for bit.  The VJP
    checks each hidden layer's gradient and skips operands needing none."""
    Ws, bs = list(Ws), list(bs)
    parents = (x, *Ws, *bs)
    tape = [] if any(p.needs_grad for p in parents) else None
    v = mlp_values(x.value, [W.value for W in Ws], [b.value for b in bs], act, tape)
    deriv = _MLP_ACTIVATIONS[act][1]

    def vjp(g):
        n = len(Ws)
        dWs, dbs = [None] * n, [None] * n
        lowest = 0 if x.needs_grad else min(
            i for i in range(n) if Ws[i].needs_grad or bs[i].needs_grad)
        d = g                                   # dL/d(pre-activation of layer i)
        for i in reversed(range(lowest, n)):
            if Ws[i].needs_grad:
                dWs[i] = tape[i].T @ d
            if bs[i].needs_grad:
                dbs[i] = d.sum(axis=0)
            if i == lowest:
                break
            d = deriv(d @ Ws[i].value.T, tape[i])
            _check_finite(d, "mlp")
        return (d @ Ws[0].value.T if x.needs_grad else None, *dWs, *dbs)

    return _node("mlp", v, parents, vjp)


def gru_window(h0: np.ndarray, x: np.ndarray, W: np.ndarray, U: np.ndarray,
               b: np.ndarray, resets: Optional[np.ndarray] = None,
               tape: Optional[list] = None) -> np.ndarray:
    """Value-only GRU over a window: h0 [B, H], x [B, T, in] -> every step's state [B, T, H].

    Gates are fused column blocks (z, r, n) of W [in, 3H], U [H, 3H] and
    b [3H]:

        z = sigmoid(x Wz + h Uz + bz)
        r = sigmoid(x Wr + h Ur + br)
        n = tanh(x Wn + r * (h Un) + bn)
        h' = h + z * (n - h)

    A [B, T] boolean ``resets`` restarts a row from h = 0 at the steps
    where it is True, so that one window can hold several sequences.

    The work runs feature-major, one column per batch row, so that each
    step's gate blocks are contiguous rows: one stacked product projects
    the whole window's inputs to gates [T, 3H, B], and the states live in
    [T+1, H, B].  Each step checks its z/r and then its n pre-activations
    for finiteness before squashing them in place, the sigmoid as
    0.5 * (1 + tanh(x / 2)).  With a ``tape`` list, the inputs as
    [T, in, B], the squashed gates, each step's h Un, the states and the
    keep factors 1 - resets are appended for :func:`gru_sequence`'s VJP.
    """
    B, T = x.shape[:2]
    H = h0.shape[-1]
    xt = x.transpose(1, 2, 0)
    gates = np.matmul(W.T, xt)
    gates += b[:, None]
    hs = np.empty((T + 1, H, B), gates.dtype)
    hs[0] = h0.T
    keep = None if resets is None else np.logical_not(resets).T.astype(gates.dtype)
    gh_n = None if tape is None else np.empty((T, H, B), gates.dtype)
    for t in range(T):
        h = hs[t] if keep is None else hs[t] * keep[t]
        gh = U.T @ h
        zr = gates[t, :2 * H]
        zr += gh[:2 * H]
        _check_finite(zr, "gru-sequence")
        np.tanh(np.multiply(zr, 0.5, out=zr), out=zr)
        zr += 1.0
        zr *= 0.5
        n = gates[t, 2 * H:]
        n += zr[H:] * gh[2 * H:]
        _check_finite(n, "gru-sequence")
        np.tanh(n, out=n)
        h_new = np.subtract(n, h, out=hs[t + 1])
        h_new *= zr[:H]
        h_new += h
        if gh_n is not None:
            gh_n[t] = gh[2 * H:]
    if tape is not None:
        tape.extend((xt, gates, gh_n, hs, keep))
    return np.ascontiguousarray(hs[1:].transpose(2, 0, 1))


def gru_sequence(h0: Tensor, x: Tensor, W: Tensor, U: Tensor, b: Tensor,
                 resets: Optional[np.ndarray] = None) -> Tensor:
    """A whole GRU window (see :func:`gru_window`) as one node, valued at every step's state.

    The VJP is backprop through time in the same feature-major layout; each
    step's upstream gradient joins the state gradient as it passes, and a
    reset stops it.  Each step writes its gradients into d [T, 4H, B], rows
    (pre_n, pre_z, pre_r, h Un), and checks them and the state gradient for
    finiteness; ``dW``, ``dU`` and ``dx`` are then one stacked product each
    over the window, and ``db`` one sum.
    """
    if x.value.ndim != 3 or x.shape[2] != W.shape[0] or h0.shape[-1] != U.shape[0]:
        raise ValueError("gru_sequence input/hidden shape mismatch")
    tape = [] if any(p.needs_grad for p in (h0, x, W, U, b)) else None
    v = gru_window(h0.value, x.value, W.value, U.value, b.value, resets, tape)

    def vjp(g):
        xt, gates, gh_n, hs, keep = tape
        T, H = gates.shape[0], U.shape[0]
        up = g.transpose(1, 2, 0)                   # [T, H, B]
        h_in = hs[:T] if keep is None else hs[:T] * keep[:, None]
        d = np.empty((T, 4 * H, g.shape[0]), gates.dtype)
        dh = up[T - 1] if T else np.zeros((H, g.shape[0]), gates.dtype)
        for t in reversed(range(T)):
            z, r, n = gates[t, :H], gates[t, H:2 * H], gates[t, 2 * H:]
            dhz = dh * z
            np.multiply(dhz, 1.0 - n * n, out=d[t, :H])
            np.multiply(dhz * (n - h_in[t]), 1.0 - z, out=d[t, H:2 * H])
            np.multiply(d[t, :H], r, out=d[t, 3 * H:])
            np.multiply(d[t, 3 * H:] * (1.0 - r), gh_n[t], out=d[t, 2 * H:3 * H])
            _check_finite(d[t], "gru-sequence")
            if t == 0 and not h0.needs_grad:
                break
            dh_prev = U.value @ d[t, H:]
            dh_prev += dh
            dh_prev -= dhz
            if keep is not None:
                dh_prev *= keep[t]
            if t > 0:
                dh_prev += up[t - 1]
            _check_finite(dh_prev, "gru-sequence")
            dh = dh_prev
        d_pre = d[:, :3 * H]                        # gate order (n, z, r)
        dx = dW = dU = db = None
        if x.needs_grad:
            dx = np.matmul(np.roll(W.value, H, axis=1), d_pre).transpose(2, 0, 1)
        if W.needs_grad:
            dW = np.roll(np.matmul(xt, d_pre.transpose(0, 2, 1)).sum(axis=0), -H, axis=1)
        if U.needs_grad:
            dU = np.matmul(h_in, d[:, H:].transpose(0, 2, 1)).sum(axis=0)
        if b.needs_grad:
            db = np.roll(d_pre.sum(axis=(0, 2)), -H)
        return (dh.T if h0.needs_grad else None, dx, dW, dU, db)

    return _node("gru-sequence", v, (h0, x, W, U, b), vjp)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _toposort(root: Tensor) -> list:
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.needs_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Populate gradients of every node (and bound parameter) reachable from root.

    Only nodes that need a gradient are visited; a constant's ``grad``
    stays None.  The root must be scalar-valued.  Parameter gradients
    touched by this graph are zeroed before accumulation, so each call
    stands on its own.
    """
    if root.value.size != 1:
        raise ValueError(f"backward() root must be scalar, got shape {root.value.shape}")
    order = _toposort(root)
    for node in order:
        node.grad = None
        if node._param is not None:
            node._param.grad[...] = 0.0
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad is None:
            continue
        _check_finite(node.grad, node.op)
        if node._param is not None:
            node._param.grad += node.grad
        if node._vjp is None or not node.needs_grad:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if g is None or not parent.needs_grad:
                continue
            if parent.grad is None:
                # A vjp returns per parent an array it allocated for that
                # parent alone, or node.grad itself or a view of it, which
                # several parents may share: only those are copied.
                fresh = type(g) is np.ndarray and g.base is None and g is not node.grad
                parent.grad = g if fresh else np.array(g, dtype=parent.value.dtype)
            else:
                parent.grad += g


# Numerically stable scalar kernels shared with plain-numpy inference paths.

def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, without branching on x.

    The numerator exp(min(x, 0)) is exactly 1 for x >= 0 and e^x below,
    and the denominator is 1 + exp(-|x|), so both branches come out bit for
    bit, far cheaper than np.where with a scalar operand or boolean-mask
    indexing.  Working in place saves allocating a temporary per step.
    """
    x = _as_array(x)
    e = np.abs(x, out=np.empty_like(x))     # out= keeps 0-d inputs arrays
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    num = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(num, out=num)
    num /= e
    return num


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
