"""Logged-interaction dataset: generation under an epsilon-greedy oracle
logging policy, and a fixed-width binary file format with bit-exact round-trip.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import rng as rngmod
from .rankers import top_k
from .simulator import Environment, ItemCatalog, SimConfig

MAGIC = b"SLDATA01"
VERSION = 1


def sim_config_text(cfg: SimConfig) -> str:
    """Canonical key=value serialization, one field per line, sorted."""
    d = asdict(cfg)
    return "\n".join(f"{k}={d[k]!r}" for k in sorted(d)) + "\n"


def sim_config_hash(cfg: SimConfig) -> bytes:
    return hashlib.sha256(sim_config_text(cfg).encode()).digest()


@dataclass
class LoggedDataset:
    """Column storage of N trajectories of T turns each."""

    user_seeds: np.ndarray   # [N] uint64
    slates: np.ndarray       # [N, T, k] uint32
    clicks: np.ndarray       # [N, T, k] uint8
    num_items: int
    config_hash: bytes

    @property
    def num_trajectories(self) -> int:
        return self.slates.shape[0]

    @property
    def episode_length(self) -> int:
        return self.slates.shape[1]

    @property
    def slate_size(self) -> int:
        return self.slates.shape[2]

    @property
    def num_turns(self) -> int:
        return self.slates.shape[0] * self.slates.shape[1]

    def flat_turns(self):
        """All turns as two arrays [N*T, k]: slates and clicks."""
        n, t, k = self.slates.shape
        return (self.slates.reshape(n * t, k).astype(np.int64),
                self.clicks.reshape(n * t, k).astype(np.float64))


def epsilon_greedy_slate(scores: np.ndarray, epsilon: float, k: int,
                         rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Slates [n, k] for score rows [n, N], row i drawing from rngs[i].

    Fill each slot independently: uniform item with probability epsilon,
    otherwise the best not-yet-placed item by score (ties to the lower id).
    Placed items are excluded from both branches, so slates contain distinct
    items.  At most k - 1 items are placed before the last slot, so the
    greedy walk never passes a row's k-th best item.

    Draw order, per slot: one ``random()``, then, if it explores, one
    ``integers(0, N - j)`` over the N - j unplaced items, taken in id order.
    """
    num_items = scores.shape[1]
    rows = []
    for order, rng in zip(top_k(scores, k).tolist(), rngs):
        row, placed, ptr = [], [], 0
        for j in range(k):
            if rng.random() < epsilon:
                choice = int(rng.integers(0, num_items - j))
                for p in placed:
                    if p > choice:
                        break
                    choice += 1
            else:
                while order[ptr] in placed:
                    ptr += 1
                choice = order[ptr]
            bisect.insort(placed, choice)
            row.append(choice)
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rngs), k)


def generate_dataset(cfg: SimConfig, catalog: ItemCatalog, num_trajectories: int,
                     epsilon: float = 0.5, seed: int = 0) -> LoggedDataset:
    """Roll num_trajectories fresh users under the epsilon-greedy oracle
    logging policy and record every (slate, clicks) pair.

    All users step in lockstep; trajectory i draws its user from substream
    ("logged-user", i) and its slates from ("logged-policy", i), so its data
    do not depend on how many trajectories are rolled with it."""
    if num_trajectories < 1:
        raise ValueError(f"num_trajectories must be at least 1, got {num_trajectories}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    env = Environment(cfg, catalog, disclosed=True)
    k, t_len = cfg.slate_size, cfg.episode_length
    user_seeds = np.array([rngmod.substream_seed(seed, "logged-user", i)
                           for i in range(num_trajectories)], dtype=np.uint64)
    policy_rngs = [rngmod.substream(seed, "logged-policy", i) for i in range(num_trajectories)]
    slates = np.empty((num_trajectories, t_len, k), dtype=np.uint32)
    clicks = np.empty((num_trajectories, t_len, k), dtype=np.uint8)
    env.reset(user_seeds.tolist())
    for t in range(t_len):
        slate = epsilon_greedy_slate(env.disclosed_relevance(), epsilon, k, policy_rngs)
        slates[:, t] = slate
        clicks[:, t] = env.step(slate).clicks
    return LoggedDataset(user_seeds=user_seeds, slates=slates, clicks=clicks,
                         num_items=cfg.num_items, config_hash=sim_config_hash(cfg))


def write_dataset(path, ds: LoggedDataset) -> None:
    n, t, k = ds.slates.shape
    packed = np.packbits(ds.clicks, axis=-1, bitorder="little")
    with open(path, "wb") as out:
        out.write(MAGIC)
        out.write(struct.pack("<IIIII", VERSION, k, t, n, ds.num_items))
        assert len(ds.config_hash) == 32
        out.write(ds.config_hash)
        out.write(ds.user_seeds.astype("<u8").tobytes())
        out.write(ds.slates.astype("<u4").tobytes())
        out.write(packed.tobytes())


def read_dataset(path) -> LoggedDataset:
    with open(path, "rb") as f:
        if f.read(8) != MAGIC:
            raise ValueError("not a logged-dataset file")
        version, k, t, n, num_items = struct.unpack("<IIIII", f.read(20))
        if version != VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        config_hash = f.read(32)
        user_seeds = np.frombuffer(f.read(8 * n), dtype="<u8").copy()
        slates = np.frombuffer(f.read(4 * n * t * k), dtype="<u4").reshape(n, t, k).copy()
        bytes_per_row = (k + 7) // 8
        packed = np.frombuffer(f.read(n * t * bytes_per_row), dtype=np.uint8)
        packed = packed.reshape(n, t, bytes_per_row)
        clicks = np.unpackbits(packed, axis=-1, count=k, bitorder="little")
    return LoggedDataset(user_seeds=user_seeds, slates=slates, clicks=clicks,
                         num_items=num_items, config_hash=config_hash)
