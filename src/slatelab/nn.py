"""Small network building blocks on top of the autodiff graph.

Each network's forward pass is one autodiff kernel: training wraps it in
one graph node, and inference (``forward_array``, ``sequence_array``)
calls it directly, with the same arithmetic and finite checks.  Both forms
take batch rows: an :class:`Mlp` rows [n, in], a :class:`GruCell` windows
[B, T, in], so that one step is a window of length 1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import ParameterStore


class Mlp:
    """Fully connected stack: hidden layers with a fixed activation, linear head."""

    def __init__(self, store: ParameterStore, prefix: str, sizes: Sequence[int],
                 rng: np.random.Generator, activation: str = "tanh"):
        self._bind(store, prefix, sizes, activation)
        for i, (w, b) in enumerate(zip(self._W, self._b)):
            store.add(w, rng.normal(0.0, 1.0 / np.sqrt(sizes[i]), size=(sizes[i], sizes[i + 1])))
            store.add(b, np.zeros(sizes[i + 1]))

    @classmethod
    def attach(cls, store: ParameterStore, prefix: str, sizes: Sequence[int],
               activation: str = "tanh") -> "Mlp":
        """Bind to already-initialized parameters (e.g. a target-network copy)."""
        m = cls.__new__(cls)
        m._bind(store, prefix, sizes, activation)
        return m

    def _bind(self, store, prefix, sizes, activation) -> None:
        if activation not in ad.MLP_ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.store = store
        self.activation = activation
        self._W = [f"{prefix}.l{i}.W" for i in range(len(sizes) - 1)]
        self._b = [f"{prefix}.l{i}.b" for i in range(len(sizes) - 1)]

    def __call__(self, x: Tensor) -> Tensor:
        """The stack as one ``mlp`` graph node."""
        s = self.store
        return ad.mlp(x, [s.tensor(n) for n in self._W], [s.tensor(n) for n in self._b],
                      self.activation)

    def weights(self):
        """(Ws, bs): the store's current weight and bias arrays, layer by layer."""
        s = self.store
        return [s[n].value for n in self._W], [s[n].value for n in self._b]

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """The same kernel for inference, with x cast to the store's dtype;
        no graph is built."""
        return ad.mlp_values(np.asarray(x, dtype=self.store.dtype), *self.weights(),
                             self.activation)


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
        si = 1.0 / np.sqrt(input_dim)
        sh = 1.0 / np.sqrt(hidden_dim)
        # Per-gate blocks drawn gate by gate, W before U.
        blocks = [(rng.normal(0.0, si, size=(input_dim, hidden_dim)),
                   rng.normal(0.0, sh, size=(hidden_dim, hidden_dim)))
                  for _ in self.GATES]
        store.add(prefix + ".W", np.concatenate([w for w, _ in blocks], axis=1))
        store.add(prefix + ".U", np.concatenate([u for _, u in blocks], axis=1))
        store.add(prefix + ".b", np.zeros(len(self.GATES) * hidden_dim))

    def sequence(self, h0: Tensor, x: Tensor, resets=None) -> Tensor:
        """Graph GRU over x [B, T, in] -> every step's state; see :func:`autodiff.gru_sequence`."""
        p = self.prefix
        return ad.gru_sequence(h0, x, self.store.tensor(p + ".W"),
                               self.store.tensor(p + ".U"),
                               self.store.tensor(p + ".b"), resets)

    def sequence_array(self, h0: np.ndarray, x: np.ndarray, resets=None) -> np.ndarray:
        """The same kernel as :meth:`sequence` for inference; no graph."""
        s, p = self.store, self.prefix
        return ad.gru_window(h0, x, s[p + ".W"].value, s[p + ".U"].value,
                             s[p + ".b"].value, resets)
