"""The benchmark's probes find their targets in slatelab.

A traced benchmark run reports a probe whose target was renamed or deleted
as ``missing`` instead of failing, so this suite checks every target that
``perfbench/tracing.py`` names, every slatelab name the benchmark's modules
import, and every slatelab attribute its self-tests patch or delete with
``monkeypatch``.  Those modules are read, not imported, so no bytecode
cache is written next to them.
"""

import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import slatelab.harness
import slatelab.sac

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _resolves(module: str, name: str) -> bool:
    return (hasattr(importlib.import_module(module), name)
            or importlib.util.find_spec(f"{module}.{name}") is not None)


def test_every_slatelab_name_the_benchmark_imports_resolves():
    gone = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("slatelab"):
                gone += [f"{path.name}: {node.module}.{a.name}" for a in node.names
                         if not _resolves(node.module, a.name)]
            elif isinstance(node, ast.Import):
                gone += [f"{path.name}: {a.name}" for a in node.names
                         if a.name.startswith("slatelab")
                         and importlib.util.find_spec(a.name) is None]
    assert gone == []
    # the probe self-test reads the train loop's binding of the update
    assert slatelab.harness.sac_update is slatelab.sac.sac_update


def _slatelab_names(tree: ast.AST) -> dict:
    """Local name -> dotted slatelab name, for every import in a module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("slatelab"):
            names.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("slatelab"):
                    # "import slatelab.cli as cli" binds cli, "import slatelab.cli" slatelab
                    names[a.asname or "slatelab"] = a.name if a.asname else "slatelab"
    return names


def _lookup(dotted: str):
    """The object a dotted slatelab name names, importing submodules on the
    way as attribute access alone would not, or None."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], 2):
        if hasattr(obj, "__path__") and not hasattr(obj, attr):    # a package
            if importlib.util.find_spec(".".join(parts[:i])) is None:
                return None
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


def test_every_slatelab_attribute_the_benchmark_patches_resolves():
    checked, gone = [], []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = _slatelab_names(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("setattr", "delattr")
                    and ast.unparse(node.func.value) == "monkeypatch"):
                continue
            target, *rest = node.args
            if isinstance(target, ast.Constant):        # monkeypatch.setattr("mod.attr", value)
                dotted = target.value
            else:
                head, _, tail = ast.unparse(target).partition(".")
                if head not in names or not (rest and isinstance(rest[0], ast.Constant)):
                    continue
                dotted = ".".join(filter(None, (names[head], tail, rest[0].value)))
            if dotted.startswith("slatelab"):
                checked.append(dotted)
                if _lookup(dotted) is None:
                    gone.append(f"{path.name}: {dotted}")
    assert checked, "no monkeypatch target found: the AST walk no longer matches"
    assert gone == []
