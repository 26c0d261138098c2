"""Named parameter storage and the Adam optimizer.

A :class:`ParameterStore` owns every trainable array of one network
component together with its gradient buffer and Adam moment estimates.
Stores are confined to one worker at a time; parallel runs use
independent stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np

from .autodiff import Tensor, constant, grad_enabled


class Param:
    __slots__ = ("value", "grad", "m", "v")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)


@dataclass
class AdamConfig:
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("Adam betas must lie strictly in (0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("Adam epsilon must be positive")


class ParameterStore:
    """Uniquely named parameters with paired gradient and Adam moment state."""

    def __init__(self):
        self._entries: Dict[str, Param] = {}
        self.step_count = 0

    def add(self, name: str, value: np.ndarray) -> Param:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Param(value)
        self._entries[name] = p
        return p

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> Param:
        return self._entries[name]

    def items(self) -> Iterator[Tuple[str, Param]]:
        return iter(self._entries.items())

    def names(self):
        return list(self._entries.keys())

    def tensor(self, name: str) -> Tensor:
        """Graph leaf bound to this parameter; backward() fills param.grad.
        Inside ``autodiff.no_grad`` it is a constant instead."""
        p = self._entries[name]
        if not grad_enabled():
            return constant(p.value)
        return Tensor(p.value, op="param", param=p)

    def zero_grad(self) -> None:
        for p in self._entries.values():
            p.grad[...] = 0.0

    def load_state_from(self, other: "ParameterStore") -> None:
        """Adopt another store's values, Adam moments and step count.

        Both stores must hold exactly the same parameter names with the
        same shapes; used to restore a freshly built model from a
        checkpointed store without rebinding any graph references.
        """
        mine, theirs = set(self._entries), set(dict(other.items()))
        if mine != theirs:
            raise ValueError(f"parameter name sets differ: missing {sorted(mine - theirs)}, "
                             f"unexpected {sorted(theirs - mine)}")
        for name, src in other.items():
            dst = self._entries[name]
            if dst.value.shape != src.value.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            dst.value[...] = src.value
            dst.m[...] = src.m
            dst.v[...] = src.v
        self.step_count = other.step_count

    def clone(self) -> "ParameterStore":
        out = ParameterStore()
        for name, p in self.items():
            out.add(name, p.value.copy())
        out.step_count = self.step_count
        return out


def adam_step(store: ParameterStore, cfg: AdamConfig) -> None:
    """One bias-corrected Adam update over every parameter in the store.

    Gradients are consumed and cleared; the store's step count advances by 1.
    """
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - cfg.beta1 ** t
    c2 = 1.0 - cfg.beta2 ** t
    for name, p in store.items():
        if p.grad.shape != p.value.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        p.m *= cfg.beta1
        p.m += (1.0 - cfg.beta1) * p.grad
        p.v *= cfg.beta2
        p.v += (1.0 - cfg.beta2) * (p.grad * p.grad)
        m_hat = p.m / c1
        v_hat = p.v / c2
        p.value -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    store.zero_grad()


def polyak_update(target: ParameterStore, source: ParameterStore, tau: float) -> None:
    """target <- (1 - tau) * target + tau * source, parameter by parameter.

    Iterates the target's entries, so the source store may hold extra
    parameters (e.g. a shared belief encoder) that have no target mirror.
    """
    for name, tgt in target.items():
        src = source[name]
        tgt.value *= 1.0 - tau
        tgt.value += tau * src.value
