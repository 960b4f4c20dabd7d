"""The benchmark and the demos use only names the library still has.

``bench/`` and ``demos/`` run as scripts, so a public name they use that the
library no longer defines shows up only when they run.  Each script is
parsed, not run: every name it imports from ``grf_tomo`` must resolve, and
so must every attribute it reads from a bound ``grf_tomo`` module
(``gt.load_config``, ``noise.stream_keys``, ``grf_tomo.cli``).
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))


def _member(module, name):
    """``from module import name``: an attribute, else a submodule; or ``None``."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ImportError:
        return None


def _library_uses(tree):
    """Yield ``(line, dotted name, resolved object or None)`` for each use."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "grf_tomo":
                    module = importlib.import_module(alias.name)
                    yield node.lineno, alias.name, module
                    bound[alias.asname or "grf_tomo"] = (
                        module if alias.asname else importlib.import_module("grf_tomo"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "grf_tomo":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = _member(module, alias.name)
                yield node.lineno, f"{node.module}.{alias.name}", value
                if isinstance(value, ModuleType):
                    bound[alias.asname or alias.name] = value

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            module = resolve(node.value)
            if isinstance(module, ModuleType):
                return getattr(module, node.attr, None)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            module = resolve(node.value)
            if isinstance(module, ModuleType):
                yield node.lineno, f"{module.__name__}.{node.attr}", resolve(node)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_library_names_resolve(script):
    uses = list(_library_uses(ast.parse(script.read_text(), filename=str(script))))
    missing = [f"{script.name}:{line}: {name}" for line, name, value in uses if value is None]
    assert not missing, "names the library no longer has:\n" + "\n".join(missing)


def test_guard_sees_the_benchmark_calls():
    # the traced run's library calls are among the uses found, and a deleted
    # name is reported
    tree = ast.parse((ROOT / "bench" / "traced.py").read_text())
    names = {name for _, name, _ in _library_uses(tree)}
    assert {"grf_tomo.histogram_density_2d", "grf_tomo.recon.streaming_moments",
            "grf_tomo.noise.stream_keys", "grf_tomo.cli"} <= names
    gone = ast.parse("import grf_tomo as gt\ngt.run_experiment(cfg)\n"
                     "from grf_tomo.recon import SampleStats\n")
    assert sorted(name for _, name, value in _library_uses(gone) if value is None) == [
        "grf_tomo.recon.SampleStats", "grf_tomo.run_experiment"]
