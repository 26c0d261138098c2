"""The benchmark's probes find their targets in slatelab.

A traced benchmark run reports a probe whose target was renamed or deleted
as ``missing`` instead of failing, so this suite checks every target that
``perfbench/tracing.py`` names.  The module is read, not imported, so no
bytecode cache is written next to it.
"""

import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    sys.modules[module.__name__] = module    # dataclasses look their module up
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


tracing = load_tracing()


def test_every_probe_target_resolves():
    gone = [p.name for p in tracing.PROBES if tracing._resolve(p.module, p.attr) is None]
    assert gone == []


def test_every_counting_hook_target_resolves():
    hooks = (tracing.TENSOR_INIT, tracing.WKNN_CRITIC, ("checkpoint", "save_checkpoint"))
    gone = [f"{m}.{a}" for m, a in hooks if tracing._resolve(m, a) is None]
    assert gone == []
