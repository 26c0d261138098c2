"""In-memory span tracing for the benchmark, installed from outside the package.

Probes wrap the public functions and methods of slatelab's layers.  Each
wrapper is installed on every name a caller looks up: a module-level
function is replaced in every slatelab module whose globals hold that same
function object (``slatelab.harness.sac_update`` as well as
``slatelab.sac.sac_update``), and a method is replaced on its class.  A probe
whose target no longer exists is reported as ``missing``.

A span is ``[id, parent_id, name, start_ns, end_ns]``; the parent is the
innermost span open when it started (-1 at the top).  Spans stay in memory
and are written once, at the end of a run, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

MISSING = "missing"


@dataclass(frozen=True)
class Probe:
    name: str        # metric prefix, "<layer>.<function>"
    module: str      # slatelab submodule defining the target
    attr: str        # "function" or "Class.method"
    p90: bool        # declared with a p90 metric (busy probes only)


PROBES: Tuple[Probe, ...] = (
    Probe("simulator.step", "simulator", "Environment.step", True),
    Probe("simulator.disclosed_relevance", "simulator", "Environment.disclosed_relevance", True),
    Probe("logged.epsilon_greedy_slate", "logged", "epsilon_greedy_slate", True),
    Probe("logged.write_dataset", "logged", "write_dataset", False),
    Probe("logged.read_dataset", "logged", "read_dataset", False),
    Probe("mf.fit_mf", "mf", "fit_mf", False),
    Probe("gems.gems_loss", "gems", "gems_loss", True),
    Probe("gems.decode_to_slate", "gems", "decode_to_slate", True),
    Probe("autodiff.backward", "autodiff", "backward", True),
    Probe("optim.adam_step", "optim", "adam_step", True),
    Probe("optim.polyak_update", "optim", "polyak_update", True),
    Probe("replay.sample", "replay", "ReplayBuffer.sample", True),
    Probe("replay.push", "replay", "ReplayBuffer.push", True),
    Probe("belief.recompute_array", "belief", "BeliefEncoder.recompute_array", True),
    Probe("belief.recompute_graph", "belief", "BeliefEncoder.recompute_graph", True),
    Probe("belief.step_hidden", "belief", "BeliefEncoder.step_hidden", True),
    Probe("belief.update_belief", "belief", "BeliefEncoder.update_belief", True),
    Probe("sac.sac_update", "sac", "sac_update", True),
    Probe("sac.critic_loss", "sac", "critic_loss", True),
    Probe("sac.td_target", "sac", "td_target", True),
    Probe("sac.actor_loss", "sac", "actor_loss", True),
    Probe("sac.select_action", "sac", "select_action", True),
    Probe("nn.mlp_forward_array", "nn", "Mlp.forward_array", True),
    Probe("rankers.rank_wknn", "rankers", "rank_wknn", True),
    Probe("rankers.rank_short_term_oracle", "rankers", "rank_short_term_oracle", True),
    Probe("harness.rollout_returns", "harness", "rollout_returns", False),
    Probe("harness.act_single", "harness", "Policy.act_single", True),
    Probe("checkpoint.save_checkpoint", "checkpoint", "save_checkpoint", False),
    Probe("checkpoint.load_checkpoint", "checkpoint", "load_checkpoint", False),
)

# Hooks that only count calls (no span): too fine-grained to time one by one.
TENSOR_INIT = ("autodiff", "Tensor.__init__")
WKNN_CRITIC = ("harness", "Policy._wknn_critic")

COUNT_METRICS = (
    "autodiff.tensors_per_sac_update",
    "autodiff.tensors_per_gems_batch",
    "belief.recomputes_per_sac_update",
    "rankers.critic_calls_per_wknn_slate",
    "checkpoint.bytes_written",
    "trace.overhead_pct",
    "trace.coverage_pct",
)

STAGE_PREFIX = "stage."


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for p in PROBES:
        out.append((f"{p.name}.calls", "count"))
        out.append((f"{p.name}.p50_ms", "ms"))
        if p.p90:
            out.append((f"{p.name}.p90_ms", "ms"))
        out.append((f"{p.name}.self_share", "share"))
    units = {"checkpoint.bytes_written": "bytes", "trace.overhead_pct": "%",
             "trace.coverage_pct": "%"}
    out.extend((name, units.get(name, "count")) for name in COUNT_METRICS)
    return out


class Tracer:
    """Span recorder for one workload run; spans share ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.tensors = 0                     # Tensor.__init__ calls so far
        self.tensors_within: Dict[str, int] = defaultdict(int)
        self.critic_calls = 0
        self.bytes_written = 0

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [len(self.spans), parent, name, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list, tensors_at_open: int) -> None:
        rec[4] = time.perf_counter_ns()
        self._stack.pop()
        self.tensors_within[rec[2]] += self.tensors - tensors_at_open

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            t0 = self.tensors
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec, t0)
        return probe

    @contextlib.contextmanager
    def span(self, name: str):
        """A non-probe span (a CLI stage) around the ``with`` body."""
        t0 = self.tensors
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec, t0)

    def write(self, path) -> None:
        """Gzipped JSON: the run id once, then one row per span."""
        with gzip.open(path, "wt") as f:
            json.dump({"run_id": self.run_id,
                       "columns": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": self.spans}, f)


# -- installation --------------------------------------------------------------


def _slatelab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "slatelab" or name.startswith("slatelab."))]


def _resolve(module: str, attr: str):
    """(owner, attribute name, original) or None when the target is gone."""
    try:
        mod = importlib.import_module(f"slatelab.{module}")
    except ImportError:
        return None
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(mod, cls_name, None)
        if cls is None or meth not in vars(cls):
            return None
        return cls, meth, vars(cls)[meth]
    fn = getattr(mod, attr, None)
    return (mod, attr, fn) if callable(fn) else None


class Installation:
    """Wrappers installed for one run; :meth:`remove` restores every name."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def replace(self, module: str, attr: str, make_wrapper) -> bool:
        target = _resolve(module, attr)
        if target is None:
            return False
        owner, name, original = target
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._undo.append((owner, name, original))
            setattr(owner, name, wrapper)
            return True
        for mod in _slatelab_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
        return True

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def install(tracer: Tracer) -> Installation:
    inst = Installation()
    for p in PROBES:
        if not inst.replace(p.module, p.attr,
                            lambda fn, name=p.name: tracer.wrap(name, fn)):
            inst.missing.append(p.name)

    def count_tensors(fn):
        @functools.wraps(fn)
        def init(*args, **kwargs):
            tracer.tensors += 1
            fn(*args, **kwargs)
        return init

    def count_critic(fn):
        @functools.wraps(fn)
        def critic(*args, **kwargs):
            tracer.critic_calls += 1
            return fn(*args, **kwargs)
        return critic

    def count_bytes(fn):
        @functools.wraps(fn)
        def save(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            tracer.bytes_written += os.path.getsize(path)
            return out
        return save

    # Installed after the probes, so these sit outside the probe wrapper.
    for (module, attr), hook in ((TENSOR_INIT, count_tensors),
                                 (WKNN_CRITIC, count_critic),
                                 (("checkpoint", "save_checkpoint"), count_bytes)):
        if not inst.replace(module, attr, hook):
            inst.missing.append(f"{module}.{attr}")
    return inst


# -- analysis ------------------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[int]:
    """Duration minus the union of child intervals, per span (ns)."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, _, _, start, end in spans:
        covered, cur_s, cur_e = 0, None, None
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(end - start - covered)
    return out


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _ancestor_named(spans, sid: int, name: str) -> bool:
    parent = spans[sid][1]
    while parent >= 0:
        if spans[parent][2] == name:
            return True
        parent = spans[parent][1]
    return False


def layer_metrics(tracer: Tracer, missing: Sequence[str], timed_wall_s: float,
                  overhead_pct: float) -> Dict[str, object]:
    """Per-layer values keyed by metric name; ``missing`` probes read MISSING.

    p50/p90 read 0 for a probe that exists but made no call; p90 reads 0
    below 100 calls, where it would rest on fewer than ten samples.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    durations: Dict[str, List[float]] = defaultdict(list)
    self_ns: Dict[str, int] = defaultdict(int)
    covered_ns = 0
    for rec, own in zip(spans, selfs):
        sid, parent, name, start, end = rec
        if name.startswith(STAGE_PREFIX):
            continue
        durations[name].append((end - start) / 1e6)
        self_ns[name] += own
        if parent < 0 or spans[parent][2].startswith(STAGE_PREFIX):
            covered_ns += end - start
    wall_ns = timed_wall_s * 1e9
    out: Dict[str, object] = {}
    for p in PROBES:
        keys = [f"{p.name}.calls", f"{p.name}.p50_ms"]
        keys += [f"{p.name}.p90_ms"] if p.p90 else []
        keys += [f"{p.name}.self_share"]
        if p.name in missing:
            out.update({k: MISSING for k in keys})
            continue
        d = sorted(durations.get(p.name, ()))
        out[f"{p.name}.calls"] = len(d)
        out[f"{p.name}.p50_ms"] = _quantile(d, 0.5) if d else 0.0
        if p.p90:
            out[f"{p.name}.p90_ms"] = _quantile(d, 0.9) if len(d) >= 100 else 0.0
        out[f"{p.name}.self_share"] = self_ns[p.name] / wall_ns
    calls = {p.name: len(durations.get(p.name, ())) for p in PROBES}

    def per(numerator: float, probe: str) -> float:
        return numerator / calls[probe] if calls[probe] else 0.0

    recomputes = sum(1 for rec in spans
                     if rec[2] in ("belief.recompute_array", "belief.recompute_graph")
                     and _ancestor_named(spans, rec[0], "sac.sac_update"))
    out["autodiff.tensors_per_sac_update"] = per(
        tracer.tensors_within["sac.sac_update"], "sac.sac_update")
    out["autodiff.tensors_per_gems_batch"] = per(
        tracer.tensors_within[STAGE_PREFIX + "pretrain-gems"], "gems.gems_loss")
    out["belief.recomputes_per_sac_update"] = per(recomputes, "sac.sac_update")
    out["rankers.critic_calls_per_wknn_slate"] = per(tracer.critic_calls,
                                                     "rankers.rank_wknn")
    out["checkpoint.bytes_written"] = tracer.bytes_written
    out["trace.overhead_pct"] = overhead_pct
    out["trace.coverage_pct"] = 100.0 * covered_ns / wall_ns
    hook_missing = {"autodiff.Tensor.__init__": ("autodiff.tensors_per_sac_update",
                                                 "autodiff.tensors_per_gems_batch"),
                    "harness.Policy._wknn_critic": ("rankers.critic_calls_per_wknn_slate",),
                    "checkpoint.save_checkpoint": ("checkpoint.bytes_written",)}
    for hook, names in hook_missing.items():
        if hook in missing:
            out.update({n: MISSING for n in names})
    return out
