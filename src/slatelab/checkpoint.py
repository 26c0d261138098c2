"""Versioned binary checkpoints for parameter stores.

Layout (all integers little-endian):

    magic   8 bytes  b"SLCKPT01"
    meta    u32 length + UTF-8 JSON (model/config/RNG header)
    n_stores u32
    per store:
        name     u32 length + UTF-8
        step     u64 optimizer step count
        n_params u32
        per parameter:
            name  u32 length + UTF-8
            ndim  u32, dims u64[ndim]
            value float64[prod(dims)]
            m     float64[prod(dims)]
            v     float64[prod(dims)]

Values are written as float64 whatever the store's dtype, which follows
the parameters: a float32 value converts to float64 and back exactly.
Loaded stores are float64; ``ParameterStore.load_state_from`` casts them
into a model built in its own dtype.  Round-trips are bit-exact: values,
Adam moments, step counts and metadata all survive save/load unchanged.

An agent checkpoint (:func:`save_agent`) holds the stores its class lists
(``critic, actor, target`` for SAC, ``policy`` for REINFORCE), then, if
the belief's item table is not trained, a ``frozen`` store holding it as
``belief.items``.  Its header holds the class's ``kind``, the agent's and
the belief's ``config``/``belief`` fields, ``slate_size``, ``num_items``
and ``item_dim``, plus the caller's metadata.  :func:`load_agent` rebuilds
the agent from it and refuses a checkpoint of another kind.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from typing import Dict, Tuple

import numpy as np

from .belief import BeliefConfig
from .optim import ParameterStore

MAGIC = b"SLCKPT01"


def _write_str(out, s: str) -> None:
    raw = s.encode("utf-8")
    out.append(struct.pack("<I", len(raw)))
    out.append(raw)


def _write_array(out, a: np.ndarray) -> None:
    out.append(np.ascontiguousarray(a, dtype="<f8").tobytes())


def save_checkpoint(path, stores: Dict[str, ParameterStore], metadata: dict | None = None) -> None:
    out = [MAGIC]
    meta_raw = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
    out.append(struct.pack("<I", len(meta_raw)))
    out.append(meta_raw)
    out.append(struct.pack("<I", len(stores)))
    for store_name, store in stores.items():
        _write_str(out, store_name)
        out.append(struct.pack("<Q", store.step_count))
        entries = list(store.items())
        out.append(struct.pack("<I", len(entries)))
        for pname, p in entries:
            _write_str(out, pname)
            out.append(struct.pack("<I", p.value.ndim))
            out.append(struct.pack(f"<{p.value.ndim}Q", *p.value.shape))
            _write_array(out, p.value)
            _write_array(out, p.m)
            _write_array(out, p.v)
    with open(path, "wb") as f:
        f.write(b"".join(out))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def skip(self, n: int) -> int:
        """Offset of the next n bytes, which the reader then moves past."""
        if self.pos + n > len(self.buf):
            raise ValueError("truncated checkpoint")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        return self.buf[self.skip(n):self.pos]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")

    def array(self, shape) -> np.ndarray:
        """A read-only view of the next float64 array: copying it is the only copy."""
        n = int(np.prod(shape)) if shape else 1
        return np.frombuffer(self.buf, "<f8", n, self.skip(8 * n)).reshape(shape)


def load_checkpoint(path) -> Tuple[Dict[str, ParameterStore], dict]:
    with open(path, "rb") as f:
        buf = f.read()
    r = _Reader(buf)
    if r.take(8) != MAGIC:
        raise ValueError(f"not a checkpoint file: {path}")
    metadata = json.loads(r.take(r.u32()).decode("utf-8"))
    stores: Dict[str, ParameterStore] = {}
    for _ in range(r.u32()):
        store_name = r.string()
        store = ParameterStore()
        store.step_count = r.u64()
        for _ in range(r.u32()):
            pname = r.string()
            ndim = r.u32()
            shape = tuple(r.u64() for _ in range(ndim))
            p = store.add(pname, np.array(r.array(shape), np.float64))
            p.m[...] = r.array(shape)
            p.v[...] = r.array(shape)
        stores[store_name] = store
    if r.pos != len(buf):
        raise ValueError(f"trailing bytes: {len(buf) - r.pos} after the last store of {path}")
    return stores, metadata


def save_agent(path, model, metadata: dict | None = None) -> None:
    """Checkpoint an agent: the stores its class lists, then a frozen item table."""
    belief = model.belief
    meta = {"kind": model.kind, "config": asdict(model.cfg), "belief": asdict(belief.cfg),
            "slate_size": belief.slate_size, "num_items": belief.num_items,
            "item_dim": belief.item_dim, **(metadata or {})}
    stores = {name: getattr(model, attr) for name, attr in model.stores.items()}
    if not belief.trainable_table:
        stores["frozen"] = ParameterStore()
        stores["frozen"].add("belief.items", belief.table_value())
    save_checkpoint(path, stores, meta)


class _NoDraws:
    """Stands in for the init generator of a model whose every parameter is
    then overwritten: its "draws" are zeros, so none are computed."""

    @staticmethod
    def normal(loc=0.0, scale=1.0, size=None):
        return np.zeros(size)


def load_agent(path, cls):
    """(agent of class ``cls``, header) restored from a :func:`save_agent` file."""
    stores, meta = load_checkpoint(path)
    if meta.get("kind") != cls.kind:
        raise ValueError(f"{path} holds a {meta.get('kind')!r} agent checkpoint, "
                         f"not {cls.kind!r}")
    meta["belief"].pop("truncation", None)   # older checkpoints; no model reads it
    table = next(s["belief.items"].value for s in stores.values() if "belief.items" in s)
    model = cls(cls.config_class(**meta["config"]), BeliefConfig(**meta["belief"]),
                meta["slate_size"], table, _NoDraws())
    for name, attr in cls.stores.items():
        getattr(model, attr).load_state_from(stores[name])
    return model, meta
