"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built define-by-run: every primitive allocates a fresh node and
``backward`` walks the tape once, accumulating gradients by the chain rule.
Sized for the small MLP/GRU/VAE workloads in this package: float64 only,
no views, no GPU.  Three fused ops keep graphs and their arrays small:
:func:`linear` (``x @ W + b`` as one node), :func:`gru_sequence` (a whole
masked GRU window as one node, with a hand-written backprop-through-time
VJP) and :func:`softmax_pick` (the log-softmax of ``x @ table.T`` at one
index per row, computed in row blocks so the full logits never exist).

Every node records whether it needs a gradient: parameters and plain
``Tensor(...)`` leaves do, :func:`constant` and :func:`stop_gradient`
outputs do not, and any other node does when one of its parents does.
``backward`` visits only nodes that need a gradient, and the matmul-like
VJPs skip the operands that need none.  Any non-finite value produced by
a forward pass, and any gradient ``backward`` computes, including each of
the fused ops' outputs and gradients, raises :class:`NonFiniteError`
immediately.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np


class NonFiniteError(ArithmeticError):
    """A forward or backward pass produced NaN or Inf."""


def _check_finite(a: np.ndarray, op: str) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


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
    return Tensor(value, op=op, parents=parents, vjp=vjp,
                  needs_grad=any(p.needs_grad for p in parents))


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


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b as one node; values equal ``add(matmul(x, W), b)`` bit for bit."""
    v = x.value @ W.value + b.value

    def vjp(g):
        return (g @ W.value.T if x.needs_grad else None,
                x.value.T @ g if W.needs_grad else None,
                _unbroadcast(g, b.shape) if b.needs_grad else None)

    return _node("linear", v, (x, W, b), vjp)


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


def softmax_pick(x: Tensor, table: np.ndarray, idx: np.ndarray) -> Tensor:
    """``log_softmax(x @ table.T)[i, idx[i]]`` as one node of shape [N].

    ``table`` [M, e] is a constant.  Rows go through in fixed blocks, so the
    [N, M] logits never exist: the forward pass keeps each row's log-sum-exp
    and the VJP recomputes a block's logits to form its softmax.  Value and
    gradient equal ``pick(log_softmax(matmul(x, transpose(constant(table)))),
    idx)`` bit for bit wherever the BLAS rounds a row of a block's product
    as it rounds that row of the whole-batch product (OpenBLAS does at the
    GeMS shapes the tests check).  Each block's logits and gradient are
    checked for finiteness, and so are the output and ``dx``.
    """
    xv = x.value
    table = _as_array(table)
    idx = np.asarray(idx)
    if (xv.ndim != 2 or table.ndim != 2 or xv.shape[1] != table.shape[1]
            or idx.shape != xv.shape[:1]):
        raise ValueError("softmax_pick shape mismatch")
    table_t = np.ascontiguousarray(table.T)   # the operand layout matmul sees unfused
    # The last block takes the remainder rows: a short trailing product can
    # run a different BLAS kernel than the whole-batch one and round apart.
    n = xv.shape[0]
    starts = list(range(0, max(n - _SOFTMAX_PICK_BLOCK, 0) + 1, _SOFTMAX_PICK_BLOCK))
    blocks = list(zip(starts, starts[1:] + [n]))
    lse = np.empty((n, 1))
    v = np.empty(n)
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


def transpose(a: Tensor) -> Tensor:
    if a.value.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    return _node("transpose", np.ascontiguousarray(a.value.T), (a,),
                 lambda g: (g.T,))


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

    return _node("sum", np.asarray(v, dtype=np.float64), (a,), vjp)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.value.size if axis is None else a.value.shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def gru_window(h0: np.ndarray, x: np.ndarray, W: np.ndarray, U: np.ndarray,
               b: np.ndarray, mask: Optional[np.ndarray] = None,
               tape: Optional[list] = None) -> np.ndarray:
    """Value-only GRU over a window: h0 [B, H], x [B, T, in] -> h_T [B, H].

    Gates are fused column blocks (z, r, n) of W [in, 3H], U [H, 3H] and
    b [3H]:

        z = sigmoid(x Wz + h Uz + bz)
        r = sigmoid(x Wr + h Ur + br)
        n = tanh(x Wn + r * (h Un) + bn)
        h' = (1 - z) * h + z * n

    A [B, T] 0/1 mask keeps a row's state where it is 0:
    h_t = m * h' + (1 - m) * h_{t-1}.  Every step's pre-activations are
    checked for finiteness.  With a ``tape`` list, each step appends
    (h_prev, [z | r], n, h Un) for :func:`gru_sequence`'s backward pass.
    """
    H = h0.shape[-1]
    h = h0
    for t in range(x.shape[1]):
        pre = x[:, t] @ W
        gh = h @ U
        pre[:, :2 * H] += gh[:, :2 * H]
        pre[:, :2 * H] += b[:2 * H]
        zr = _sigmoid(pre[:, :2 * H])
        z, r = zr[:, :H], zr[:, H:]
        gh_n = gh[:, 2 * H:]
        pre[:, 2 * H:] += r * gh_n
        pre[:, 2 * H:] += b[2 * H:]
        _check_finite(pre, "gru-sequence")
        n = np.tanh(pre[:, 2 * H:])
        h_new = (1.0 - z) * h + z * n
        if mask is not None:
            m = mask[:, t, None]
            h_new = m * h_new + (1.0 - m) * h
        if tape is not None:
            tape.append((h, zr, n, gh_n))
        h = h_new
    return h


def gru_sequence(h0: Tensor, x: Tensor, W: Tensor, U: Tensor, b: Tensor,
                 mask: Optional[np.ndarray] = None) -> Tensor:
    """A whole GRU window (see :func:`gru_window`) as one node.

    The VJP is masked backprop through time, accumulating the weight
    gradients one step at a time; each step's gate and state gradients are
    checked for finiteness.
    """
    if x.value.ndim != 3 or x.shape[2] != W.shape[0] or h0.shape[-1] != U.shape[0]:
        raise ValueError("gru_sequence input/hidden shape mismatch")
    tape: list = []
    v = gru_window(h0.value, x.value, W.value, U.value, b.value, mask, tape)

    def vjp(g):
        H = U.shape[0]
        xv, Wv, Uv = x.value, W.value, U.value
        dx = np.zeros_like(xv) if x.needs_grad else None
        dW = np.zeros_like(Wv) if W.needs_grad else None
        dU = np.zeros_like(Uv) if U.needs_grad else None
        db = np.zeros_like(b.value) if b.needs_grad else None
        dh = g
        for t in reversed(range(len(tape))):
            h_prev, zr, n, gh_n = tape[t]
            z, r = zr[:, :H], zr[:, H:]
            if mask is not None:
                m = mask[:, t, None]
                dh_keep = (1.0 - m) * dh
                dh = m * dh
            d = np.empty((g.shape[0], 3 * H))       # dL/d(pre-activations)
            d[:, :H] = dh * (n - h_prev) * (z * (1.0 - z))
            d[:, 2 * H:] = dh * z * (1.0 - n * n)
            d[:, H:2 * H] = d[:, 2 * H:] * gh_n * (r * (1.0 - r))
            _check_finite(d, "gru-sequence")
            if dW is not None:
                dW += xv[:, t].T @ d
            if db is not None:
                db += d.sum(axis=0)
            if dx is not None:
                dx[:, t] = d @ Wv.T
            d[:, 2 * H:] *= r                       # now dL/d(h U)
            if dU is not None:
                dU += h_prev.T @ d
            if t == 0 and not h0.needs_grad:
                break
            dh_prev = d @ Uv.T
            dh_prev += dh * (1.0 - z)
            if mask is not None:
                dh_prev += dh_keep
            _check_finite(dh_prev, "gru-sequence")
            dh = dh_prev
        return (dh if h0.needs_grad else None, dx, dW, dU, db)

    return _node("gru-sequence", v, (h0, x, W, U, b), vjp)


def stop_gradient(a: Tensor) -> Tensor:
    return _node("stop-gradient", a.value, (), None)


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
                parent.grad = g if fresh else np.array(g, dtype=np.float64)
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
    x = np.asarray(x, dtype=np.float64)
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
