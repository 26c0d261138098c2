"""Ring replay buffer storing each observed turn once.

Transitions carry no precomputed beliefs.  The buffer keeps one row per
turn (slate, clicks, action, reward, done and the turn's index within its
episode) and cuts each sampled transition's history at sampling time
with :func:`belief.history_windows`, so the belief can be recomputed with
fresh GRU parameters.  A sampled transition carries one right-aligned
window of W+1 turns ending at its own turn: its first W rows are the
pre-action history, its last W the post-action one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import history_windows


@dataclass
class TransitionBatch:
    slates: np.ndarray        # [B, W+1, k] history up to and including the turn
    clicks: np.ndarray
    prev_lengths: np.ndarray  # [B] real rows of slates[:, :-1], the history before the turn
    next_lengths: np.ndarray  # [B] real rows of slates[:, 1:], the history including it
    actions: np.ndarray       # [B, d]
    rewards: np.ndarray       # [B]
    dones: np.ndarray         # [B] in {0.0, 1.0}


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions with uniform sampling.

    ``window`` rows beyond ``capacity`` keep the history of the oldest
    transition that can still be sampled.
    """

    def __init__(self, capacity: int, window: int, slate_size: int, action_dim: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.window = int(window)
        self.slate_size = int(slate_size)
        rows = self.capacity + self.window
        self._slates = np.zeros((rows, self.slate_size), dtype=np.int32)
        self._clicks = np.zeros((rows, self.slate_size), dtype=np.uint8)
        self._actions = np.zeros((rows, int(action_dim)))
        self._rewards = np.zeros(rows)
        self._dones = np.zeros(rows, dtype=np.uint8)
        self._turns = np.zeros(rows, dtype=np.int64)  # index within the episode
        self._count = 0  # transitions pushed so far
        self._next_turn = 0

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    def push(self, slate, clicks, action, reward: float, done: bool) -> None:
        """Store one turn; the first push and any push after a done one
        start a new episode."""
        if np.size(slate) != self.slate_size or np.size(clicks) != self.slate_size:
            raise ValueError(f"slate and clicks must each hold {self.slate_size} entries")
        i = self._count % len(self._turns)
        self._turns[i] = self._next_turn
        self._slates[i] = slate
        self._clicks[i] = clicks
        self._actions[i] = action
        self._rewards[i] = reward
        self._dones[i] = done
        self._count += 1
        self._next_turn = 0 if done else self._next_turn + 1

    def sample(self, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
        """Uniform with replacement over the stored transitions."""
        if self._count < 1:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, len(self), size=batch_size)
        # slot idx of a capacity-sized ring holds the latest transition
        # numbered idx mod capacity; find its row in the longer one
        number = idx + self.capacity * ((self._count - 1 - idx) // self.capacity)
        rows = number % len(self._turns)
        turns = self._turns[rows]
        w = self.window
        slates, clicks = history_windows(self._slates, self._clicks, rows + 1,
                                         np.minimum(turns + 1, w + 1), w + 1)
        return TransitionBatch(
            slates=slates,
            clicks=clicks,
            prev_lengths=np.minimum(turns, w),
            next_lengths=np.minimum(turns + 1, w),
            actions=self._actions[rows],
            rewards=self._rewards[rows],
            dones=self._dones[rows].astype(np.float64),
        )
