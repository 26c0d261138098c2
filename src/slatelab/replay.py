"""Ring replay buffer storing each observed turn once.

The buffer keeps one row per turn: slate, clicks, action, reward, done,
the turn's index within its episode, and the acting belief from just
before the turn.  It samples runs of L consecutive transitions, cut at
sampling time by :func:`belief.run_windows`.  One GRU pass over a run's L
rows, from the stored belief of its first turn and restarting from zero at
every episode start (runs may cross episode ends), gives each transition
its pre- and post-action beliefs under fresh weights.  This is R2D2's
stored-state replay (Kapturowski et al., 2019): a stored state is as old
as its turn, and no gradient flows into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import run_windows


@dataclass
class TransitionBatch:
    slates: np.ndarray        # [S, L, k] the runs' turns
    clicks: np.ndarray
    resets: np.ndarray        # [S, L] True on rows that start an episode
    hidden: np.ndarray        # [S, H] stored acting belief before each run's first turn
    actions: np.ndarray       # [B, d] the runs' transitions, run-major, the first B of S*L
    rewards: np.ndarray       # [B]
    dones: np.ndarray         # [B] in {0.0, 1.0}


_COLUMNS = ("_slates", "_clicks", "_actions", "_rewards", "_dones", "_turns", "_hidden")
_MIN_ROWS = 1024


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions, sampled as uniform runs.

    Actions and stored beliefs take ``dtype``, the agent's.  The columns
    grow by doubling until they hold ``capacity`` rows, so memory follows
    the rows written: the CLI serves arrays below 32 MiB from the heap,
    where ``np.zeros`` clears, and so touches, every row up front.
    """

    def __init__(self, capacity: int, slate_size: int, action_dim: int,
                 belief_dim: int, dtype):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.slate_size = int(slate_size)
        self._slates = np.zeros((0, self.slate_size), dtype=np.int32)
        self._clicks = np.zeros((0, self.slate_size), dtype=np.uint8)
        self._actions = np.zeros((0, int(action_dim)), dtype=dtype)
        self._rewards = np.zeros(0)
        self._dones = np.zeros(0, dtype=np.uint8)
        self._turns = np.zeros(0, dtype=np.int64)  # index within the episode
        self._hidden = np.zeros((0, int(belief_dim)), dtype=dtype)
        self._count = 0  # transitions pushed so far
        self._next_turn = 0

    def _grow(self) -> None:
        rows = min(self.capacity, max(2 * len(self._turns), _MIN_ROWS))
        for name in _COLUMNS:
            old = getattr(self, name)
            new = np.zeros((rows, *old.shape[1:]), old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    def push(self, slate, clicks, action, reward: float, done: bool, hidden) -> None:
        """Store one turn and ``hidden``, the belief the action was chosen
        from; the first push and any push after a done one start a new episode."""
        if np.size(slate) != self.slate_size or np.size(clicks) != self.slate_size:
            raise ValueError(f"slate and clicks must each hold {self.slate_size} entries")
        if np.shape(hidden) != self._hidden.shape[1:]:
            raise ValueError(f"hidden must have shape {self._hidden.shape[1:]}, "
                             f"got {np.shape(hidden)}")
        i = self._count % self.capacity
        if i == len(self._turns):
            self._grow()
        self._turns[i] = self._next_turn
        self._slates[i] = slate
        self._clicks[i] = clicks
        self._actions[i] = action
        self._rewards[i] = reward
        self._dones[i] = done
        self._hidden[i] = hidden
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
        slates, clicks, resets = run_windows(self._slates, self._clicks, self._turns,
                                             first, run)
        rows = (first[:, None] + np.arange(run)).reshape(-1)[:batch_size] % self.capacity
        return TransitionBatch(slates=slates, clicks=clicks, resets=resets,
                               hidden=self._hidden[first % self.capacity],
                               actions=self._actions[rows], rewards=self._rewards[rows],
                               dones=self._dones[rows].astype(np.float64))
