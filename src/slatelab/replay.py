"""Ring replay buffer storing each observed turn once.

Transitions carry no precomputed beliefs.  The buffer keeps one row per
turn (slate, clicks, action, reward, done and the turn's index within its
episode) and samples runs of L consecutive transitions, each cut at
sampling time by :func:`belief.run_windows` as one window of W + L rows:
the W turns before the run, then its own.  One GRU pass from zero over the
window, restarting at every episode start (runs may cross episode ends),
gives each transition its pre- and post-action beliefs under fresh weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import run_windows


@dataclass
class TransitionBatch:
    slates: np.ndarray        # [S, W+L, k] run windows: W history rows, then the run's turns
    clicks: np.ndarray
    resets: np.ndarray        # [S, W+L] True on rows that start an episode
    window: int               # W
    actions: np.ndarray       # [B, d] the runs' transitions, run-major, the first B of S*L
    rewards: np.ndarray       # [B]
    dones: np.ndarray         # [B] in {0.0, 1.0}


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions, sampled as uniform runs.

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

    def sample(self, batch_size: int, rng: np.random.Generator,
               sequence: int) -> TransitionBatch:
        """B = ``batch_size`` transitions as ceil(B / L) runs of L = min(sequence, B).

        Runs start uniformly, with replacement, at the stored transitions whose
        run ends at or before the newest.  The batch is the runs' first B
        transitions in order: only the last run is cut short when L does not
        divide B.  L = 1 is uniform sampling with replacement.
        """
        run = min(int(sequence), batch_size)
        if run < 1 or len(self) < run:
            raise ValueError(f"cannot sample runs of {run} from {len(self)} transitions")
        first = self._count - len(self) + rng.integers(0, len(self) - run + 1,
                                                       size=-(-batch_size // run))
        w = self.window
        slates, clicks, resets = run_windows(self._slates, self._clicks, self._turns,
                                             first - w, w + run)
        rows = (first[:, None] + np.arange(run)).reshape(-1)[:batch_size] % len(self._turns)
        return TransitionBatch(slates=slates, clicks=clicks, resets=resets, window=w,
                               actions=self._actions[rows], rewards=self._rewards[rows],
                               dones=self._dones[rows].astype(np.float64))
