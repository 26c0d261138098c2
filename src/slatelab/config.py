"""Plain-text experiment configuration: key=value files with includes.

Syntax: one `key = value` per line, `#` comments, blank lines ignored, and
`include other.cfg` splices another file (relative to the including file)
with later keys overriding earlier ones. Keys prefixed `sim.`, `gems.` or
`mf.` address the corresponding sub-config; everything else is a field of
ExperimentConfig. Unknown keys are errors so typos surface immediately.
Agent/ranker pairing is checked at build: each ranker has exactly one
agent (:data:`RANKER_AGENTS`), so a mismatch fails before any artifact is read.
"""

import dataclasses
import hashlib
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

from .gems import GemsConfig
from .mf import MfConfig
from .simulator import SimConfig

MAX_INCLUDE_DEPTH = 16

# The one agent that drives each ranker: SAC's proto-actions feed GeMS, TopK
# and wknn, REINFORCE samples softmax slates, random and the oracle need none.
RANKER_AGENTS = {"gems": "sac", "topk-mf": "sac", "topk-ideal": "sac", "wknn": "sac",
                 "softmax": "reinforce", "random": "none", "oracle": "none"}


@dataclass
class ExperimentConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    gems: GemsConfig = field(default_factory=GemsConfig)
    mf: MfConfig = field(default_factory=MfConfig)

    # policy composition
    ranker: str = "gems"             # gems|topk-mf|topk-ideal|wknn|softmax|random|oracle
    agent: str = "sac"               # sac | reinforce | none
    wknn_p: int = 10
    wknn_source: str = "mf"          # mf | ideal
    gems_ckpt: str = ""
    mf_embeddings: str = ""
    label: str = ""                  # report label; defaults to agent+ranker

    # belief encoder
    belief_dim: int = 64
    belief_item_source: str = ""     # gems-table|mf|ideal|learned; "" = per-agent default

    # sac
    gamma: float = 0.8
    tau: float = 0.002
    alpha: float = 0.2
    critic_lr: float = 0.001
    actor_lr: float = 0.003
    batch_size: int = 256
    hidden: Tuple[int, ...] = (256, 256)
    update_every: int = 1            # env turns between agent update calls
    buffer_capacity: int = 100_000

    # reinforce
    reinforce_lr: float = 0.001
    baseline_decay: float = 0.9

    # protocol
    training_steps: int = 100_000    # trajectories
    validation_every: int = 1_000
    validation_trajectories: int = 200
    test_trajectories: int = 500
    seeds: Tuple[int, ...] = (0,)
    catalog_seed: int = 0

    # logged-data stage
    logged_trajectories: int = 2_000
    logged_epsilon: float = 0.5

    def __post_init__(self):
        if self.ranker not in RANKER_AGENTS:
            raise ValueError(f"unknown ranker {self.ranker!r}")
        if self.agent not in RANKER_AGENTS.values():
            raise ValueError(f"unknown agent {self.agent!r}")
        if RANKER_AGENTS[self.ranker] != self.agent:
            raise ValueError(f"agent {self.agent!r} cannot drive ranker {self.ranker!r} "
                             f"(its agent is {RANKER_AGENTS[self.ranker]!r})")
        if self.wknn_source not in ("mf", "ideal"):
            raise ValueError(f"unknown wknn_source {self.wknn_source!r}")
        for name in ("update_every", "validation_every", "wknn_p", "validation_trajectories",
                     "test_trajectories"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.ranker == "wknn" and self.wknn_p > self.sim.num_items:
            raise ValueError(f"wknn_p={self.wknn_p} exceeds sim.num_items={self.sim.num_items}")
        if not 0.0 <= self.logged_epsilon <= 1.0:
            raise ValueError(f"logged_epsilon must lie in [0, 1], got {self.logged_epsilon}")
        if self.agent == "sac" and self.buffer_capacity < self.batch_size:
            raise ValueError("buffer_capacity below batch_size: SAC would never update")
        self.hidden = tuple(int(h) for h in self.hidden)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("seeds must name at least one seed")

    @property
    def env_label(self) -> str:
        return f"{self.sim.click_model}-{self.sim.embedding_variant}"

    @property
    def method_label(self) -> str:
        if self.label:
            return self.label
        if self.agent == "none":
            return self.ranker
        return f"{self.agent}+{self.ranker}"


def parse_config_file(path) -> Dict[str, str]:
    """Flat key->value strings, include-expanded, later keys winning."""
    return _parse_file(Path(path), depth=0)


def _parse_file(path: Path, depth: int) -> Dict[str, str]:
    if depth > MAX_INCLUDE_DEPTH:
        raise ValueError(f"include depth exceeds {MAX_INCLUDE_DEPTH} (cycle?) at {path}")
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("include "):
            target = (path.parent / line[len("include "):].strip()).resolve()
            out.update(_parse_file(target, depth + 1))
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(typ, raw: str):
    if typing.get_origin(typ) is typing.Union:
        if raw.lower() in ("none", ""):
            return None
        inner = [t for t in typing.get_args(typ) if t is not type(None)]
        return _coerce(inner[0], raw)
    if typ is int:
        return int(raw)
    if typ is float:
        return float(raw)
    if typ is str:
        return raw
    # Remaining config fields are integer tuples (hidden, seeds).
    if raw == "":
        return ()
    return tuple(int(part) for part in raw.split(","))


def build_config(values: Dict[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from flat strings; unknown keys raise."""
    subs = {"sim": SimConfig, "gems": GemsConfig, "mf": MfConfig}
    sub_types = {n: typing.get_type_hints(c) for n, c in subs.items()}
    top_hints = typing.get_type_hints(ExperimentConfig)
    top_types = {f.name: top_hints[f.name]
                 for f in dataclasses.fields(ExperimentConfig) if f.name not in subs}
    sub_kwargs: Dict[str, dict] = {n: {} for n in subs}
    top_kwargs = {}
    for key, raw in values.items():
        if "." in key:
            prefix, name = key.split(".", 1)
            if prefix not in subs or name not in sub_types[prefix]:
                raise ValueError(f"unknown config key {key!r}")
            sub_kwargs[prefix][name] = _coerce(sub_types[prefix][name], raw)
        elif key in top_types:
            top_kwargs[key] = _coerce(top_types[key], raw)
        else:
            raise ValueError(f"unknown config key {key!r}")
    built = {n: c(**sub_kwargs[n]) for n, c in subs.items()}
    return ExperimentConfig(**built, **top_kwargs)


def load_config(path, overrides: Dict[str, str] | None = None) -> ExperimentConfig:
    values = parse_config_file(path)
    if overrides:
        values.update(overrides)
    return build_config(values)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Deterministic flat dump: one sorted key=value per line."""
    pairs = []
    for prefix, sub in (("sim", cfg.sim), ("gems", cfg.gems), ("mf", cfg.mf)):
        for f in dataclasses.fields(sub):
            pairs.append((f"{prefix}.{f.name}", getattr(sub, f.name)))
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in ("sim", "gems", "mf"):
            continue
        pairs.append((f.name, getattr(cfg, f.name)))
    lines = []
    for key, value in sorted(pairs):
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:12]
