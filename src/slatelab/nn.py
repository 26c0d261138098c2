"""Small network building blocks on top of the autodiff graph."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import ParameterStore

_ACTIVATIONS = {"tanh": ad.tanh, "relu": ad.relu, "logistic": ad.logistic}


def init_linear(store: ParameterStore, prefix: str, fan_in: int, fan_out: int,
                rng: np.random.Generator) -> None:
    scale = 1.0 / np.sqrt(fan_in)
    store.add(prefix + ".W", rng.normal(0.0, scale, size=(fan_in, fan_out)))
    store.add(prefix + ".b", np.zeros(fan_out))


def linear(store: ParameterStore, prefix: str, x: Tensor) -> Tensor:
    return ad.linear(x, store.tensor(prefix + ".W"), store.tensor(prefix + ".b"))


class Mlp:
    """Fully connected stack: hidden layers with a fixed activation, linear head."""

    def __init__(self, store: ParameterStore, prefix: str, sizes: Sequence[int],
                 rng: np.random.Generator, activation: str = "tanh"):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.store = store
        self.prefix = prefix
        self.sizes = list(sizes)
        self.activation = activation
        for i in range(len(sizes) - 1):
            init_linear(store, f"{prefix}.l{i}", sizes[i], sizes[i + 1], rng)

    @classmethod
    def attach(cls, store: ParameterStore, prefix: str, sizes: Sequence[int],
               activation: str = "tanh") -> "Mlp":
        """Bind to already-initialized parameters (e.g. a target-network copy)."""
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        m = cls.__new__(cls)
        m.store = store
        m.prefix = prefix
        m.sizes = list(sizes)
        m.activation = activation
        return m

    def __call__(self, x: Tensor) -> Tensor:
        act = _ACTIVATIONS[self.activation]
        h = x
        last = len(self.sizes) - 2
        for i in range(len(self.sizes) - 1):
            h = linear(self.store, f"{self.prefix}.l{i}", h)
            if i != last:
                h = act(h)
        return h

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Plain-numpy forward for inference; no graph is built."""
        h = np.asarray(x, dtype=np.float64)
        last = len(self.sizes) - 2
        for i in range(len(self.sizes) - 1):
            W = self.store[f"{self.prefix}.l{i}.W"].value
            b = self.store[f"{self.prefix}.l{i}.b"].value
            h = h @ W + b
            if i != last:
                if self.activation == "tanh":
                    h = np.tanh(h)
                elif self.activation == "relu":
                    h = np.maximum(h, 0.0)
                else:
                    h = ad._sigmoid(h)
        return h


class GruCell:
    """Gated recurrent unit, update-toward-candidate convention.

        z = sigmoid(Wz x + Uz h + bz)
        r = sigmoid(Wr x + Ur h + br)
        n = tanh(Wn x + r * (Un h) + bn)
        h' = (1 - z) * h + z * n

    The gates are stored fused, as column blocks (z, r, n) of
    ``<prefix>.W`` [in, 3H], ``<prefix>.U`` [H, 3H] and ``<prefix>.b`` [3H].
    With all-zero weights and biases this reduces to h' = 0.5 * h.
    """

    GATES = ("z", "r", "n")

    def __init__(self, store: ParameterStore, prefix: str, input_dim: int,
                 hidden_dim: int, rng: np.random.Generator):
        self.store = store
        self.prefix = prefix
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        si = 1.0 / np.sqrt(input_dim)
        sh = 1.0 / np.sqrt(hidden_dim)
        # Per-gate blocks drawn gate by gate, W before U.
        blocks = [(rng.normal(0.0, si, size=(input_dim, hidden_dim)),
                   rng.normal(0.0, sh, size=(hidden_dim, hidden_dim)))
                  for _ in self.GATES]
        store.add(prefix + ".W", np.concatenate([w for w, _ in blocks], axis=1))
        store.add(prefix + ".U", np.concatenate([u for _, u in blocks], axis=1))
        store.add(prefix + ".b", np.zeros(len(self.GATES) * hidden_dim))

    def sequence(self, h0: Tensor, x: Tensor, mask=None) -> Tensor:
        """Graph GRU over x [B, T, in]; see :func:`autodiff.gru_sequence`."""
        p = self.prefix
        return ad.gru_sequence(h0, x, self.store.tensor(p + ".W"),
                               self.store.tensor(p + ".U"),
                               self.store.tensor(p + ".b"), mask)

    def sequence_array(self, h0: np.ndarray, x: np.ndarray, mask=None) -> np.ndarray:
        """Value-only twin of :meth:`sequence`; the same kernel, no graph."""
        s, p = self.store, self.prefix
        return ad.gru_window(h0, x, s[p + ".W"].value, s[p + ".U"].value,
                             s[p + ".b"].value, mask)

    def __call__(self, h_prev: Tensor, x: Tensor) -> Tensor:
        """One step: a 1-step window of :meth:`sequence`."""
        if x.shape[-1] != self.input_dim or h_prev.shape[-1] != self.hidden_dim:
            raise ValueError("gru_cell input/hidden shape mismatch")
        return self.sequence(h_prev, ad.reshape(x, (x.shape[0], 1, self.input_dim)))

    def forward_array(self, h_prev: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Plain-numpy step for rollouts; mirrors __call__ exactly."""
        return self.sequence_array(h_prev, x[:, None, :])
