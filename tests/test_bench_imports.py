"""The benchmark and the demos use only names the library still has.

``bench/`` and ``demos/`` run as scripts, so a public name they use that the
library no longer defines shows up only when they run.  Each script is
parsed, not run: every name it imports from ``grf_tomo`` must resolve, and
so must every attribute it reads from a bound ``grf_tomo`` module
(``gt.load_config``, ``noise.stream_keys``, ``grf_tomo.cli``) and from a
reconstruction plan (``plan.n_sites``).
"""

import ast
import importlib
import inspect
import textwrap
from pathlib import Path
from types import ModuleType

import pytest

from grf_tomo import ReconstructionPlan

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


def _plan_attributes():
    """Class attributes of ``ReconstructionPlan`` and those its ``__init__`` sets."""
    init = ast.parse(textwrap.dedent(inspect.getsource(ReconstructionPlan.__init__)))
    assigned = {node.attr for node in ast.walk(init)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return set(dir(ReconstructionPlan)) | assigned


def _plan_reads(tree):
    """Yield ``(line, "ReconstructionPlan.<attr>", True or None)`` for each plan read.

    A plan is a name called ``plan`` or one assigned a ``ReconstructionPlan(...)`` call.
    """
    plans = {"plan"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            if getattr(func, "id", getattr(func, "attr", None)) == "ReconstructionPlan":
                plans.update(t.id for t in node.targets if isinstance(t, ast.Name))
    known = _plan_attributes()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in plans):
            yield (node.lineno, f"ReconstructionPlan.{node.attr}",
                   True if node.attr in known else None)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_library_names_resolve(script):
    tree = ast.parse(script.read_text(), filename=str(script))
    uses = list(_library_uses(tree)) + list(_plan_reads(tree))
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


def test_guard_sees_the_plan_reads():
    # every plan attribute the benchmark and the demos read is among the
    # reads found, and a table the plan does not have is reported
    reads = {name for script in SCRIPTS
             for _, name, _ in _plan_reads(ast.parse(script.read_text()))}
    assert {f"ReconstructionPlan.{attr}" for attr in (
        "n_sites", "reconstruct", "exact_covariance", "site_j", "site_k1", "site_k2")} <= reads
    gone = ast.parse("plan.no_such_table\nplan.reconstruct\nplan.points\n"
                     "table = gt.ReconstructionPlan(g, k, n, p)\ntable.site_j\ntable._offsets\n")
    assert sorted((line, name) for line, name, value in _plan_reads(gone) if value is None) == [
        (1, "ReconstructionPlan.no_such_table"), (6, "ReconstructionPlan._offsets")]
