"""The benchmark and the demos use only names the library still has.

``bench/`` and ``demos/`` run as scripts, so a public name they use that the
library no longer defines shows up only when they run.  Each script is
parsed, not run: every name it imports from ``grf_tomo`` must resolve, and
so must every attribute it reads from a bound ``grf_tomo`` module
(``gt.load_config``, ``noise.stream_keys``, ``grf_tomo.cli``), from a
reconstruction plan (``plan.n_sites``), from a configuration
(``cfg.realizations``), from a noise model (``cfg.noise.seed``) and from a
Hessian scan report (``report.count``).
"""

import ast
import dataclasses
import importlib
import inspect
import itertools
import textwrap
from pathlib import Path
from types import ModuleType

import pytest

from grf_tomo import ExperimentConfig, NoiseModel, ReconstructionPlan, ZeroSetReport, config

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


def _own_nodes(scope):
    """The nodes of ``scope``, a module or a function, outside its nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _is_config(node):
    """``cfg`` or ``self.cfg``."""
    return (isinstance(node, ast.Name) and node.id == "cfg"
            or isinstance(node, ast.Attribute) and node.attr == "cfg"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _builds_noise(node, names):
    """Whether ``node`` is a ``NoiseModel(...)`` call or ``replace(<noise model>, ...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = getattr(node.func, "id", getattr(node.func, "attr", None))
    return func == "NoiseModel" or (func == "replace" and bool(node.args)
                                    and _is_noise(node.args[0], names))


def _is_noise(node, names):
    """A noise model: ``<config>.noise``, ``<anything>.noise_model``, a name in
    ``names``, or one that :func:`_builds_noise` builds."""
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr == "noise_model" or node.attr == "noise" and _is_config(node.value)
    return _builds_noise(node, names)


def _model_reads(tree):
    """Yield ``(line, "<class>.<attr>", True or None)`` for each configuration
    and noise-model read, and for each field that building a noise model sets.

    A name is a noise model in the function that assigns it one, and in the
    functions nested there; ``noise_model`` is one everywhere.
    """
    known = {cls: set(dir(cls)) | {f.name for f in dataclasses.fields(cls)}
             for cls in (ExperimentConfig, NoiseModel)}
    fields = {f.name for f in dataclasses.fields(NoiseModel)}

    def visit(scope, names):
        nodes = list(_own_nodes(scope))
        names = names | {target.id for node in nodes if isinstance(node, ast.Assign)
                         and _is_noise(node.value, names)
                         for target in node.targets if isinstance(target, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                cls = (ExperimentConfig if _is_config(node.value)
                       else NoiseModel if _is_noise(node.value, names) else None)
                if cls is not None:
                    yield (node.lineno, f"{cls.__name__}.{node.attr}",
                           True if node.attr in known[cls] else None)
            elif _builds_noise(node, names):
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        yield (node.lineno, f"NoiseModel.{keyword.arg}",
                               True if keyword.arg in fields else None)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(node, names)

    yield from visit(tree, frozenset({"noise_model"}))


def _calls(node, name):
    """Whether ``node`` is a call of a function or method called ``name``."""
    return isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) == name


def _report_reads(tree):
    """Yield ``(line, "ZeroSetReport.<attr>", True or None)`` for each scan report read.

    A report is a name assigned a ``hessian_zero_scan(...)`` call, or the
    variable of a loop or comprehension over a name assigned a
    ``hessian_scan_battery(...)`` call.
    """
    reports, batteries = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if _calls(node.value, "hessian_zero_scan"):
                reports |= names
            elif _calls(node.value, "hessian_scan_battery"):
                batteries |= names
    reports |= {node.target.id for node in ast.walk(tree)
                if isinstance(node, (ast.For, ast.comprehension))
                and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Name) and node.iter.id in batteries}
    known = set(dir(ZeroSetReport)) | {f.name for f in dataclasses.fields(ZeroSetReport)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in reports):
            yield (node.lineno, f"ZeroSetReport.{node.attr}",
                   True if node.attr in known else None)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_library_names_resolve(script):
    tree = ast.parse(script.read_text(), filename=str(script))
    uses = (list(_library_uses(tree)) + list(_plan_reads(tree)) + list(_model_reads(tree))
            + list(_report_reads(tree)))
    missing = [f"{script.name}:{line}: {name}" for line, name, value in uses if value is None]
    assert not missing, "names the library no longer has:\n" + "\n".join(missing)


def test_benchmark_documents_load(monkeypatch):
    # every document the benchmark writes passes the schema, so a schema edit
    # that breaks the benchmark's input fails here rather than in a benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    for workload, size, seed in itertools.product(
            workloads.WORKLOADS, (workloads.FULL, workloads.SMOKE), (0, 1, 901)):
        cfg = config.from_dict(workloads.make_config(workload.name, seed, size, root=ROOT))
        assert cfg.checks["ellipse_samples"] == size.ellipse_samples


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


def test_guard_sees_the_config_and_noise_model_reads():
    # the configuration and noise-model reads of the benchmark and the
    # demos are among those found, and a field neither class has is
    # reported, as is a keyword that builds a noise model with no such field
    reads = {name for script in SCRIPTS
             for _, name, _ in _model_reads(ast.parse(script.read_text()))}
    assert {"ExperimentConfig.realizations", "ExperimentConfig.eps", "ExperimentConfig.seed",
            "ExperimentConfig.noise", "NoiseModel.n_views", "NoiseModel.delta_s",
            "NoiseModel.scale", "NoiseModel.seed", "NoiseModel.sample"} <= reads
    gone = ast.parse(textwrap.dedent("""\
        cfg.no_such_field
        cfg.n_views
        cfg.noise.seed
        NoiseModel(eps=0.05, delta_s=0.01, seed=1)
        def check(self):
            model = self.model()
            model.reconstruct
            noise = dataclasses.replace(self.cfg.noise, delta_s=0.01)
            noise.n_views
        def oracle(self):
            model = self.noise_model
            model.no_such_property
        """))
    assert sorted((line, name) for line, name, value in _model_reads(gone) if value is None) == [
        (1, "ExperimentConfig.no_such_field"), (2, "ExperimentConfig.n_views"),
        (4, "NoiseModel.delta_s"), (8, "NoiseModel.delta_s"),
        (12, "NoiseModel.no_such_property")]


def test_guard_sees_the_report_reads():
    # the traced run's reads of a battery's reports and of a single scan's
    # report are found and resolve, and a field the report does not have is
    # reported
    traced = list(_report_reads(ast.parse((ROOT / "bench" / "traced.py").read_text())))
    assert {"ZeroSetReport.degenerate", "ZeroSetReport.count"} <= {name for _, name, _ in traced}
    assert all(value for _, _, value in traced)
    gone = ast.parse(textwrap.dedent("""\
        report = analysis.hessian_zero_scan(geometry, x0, direction)
        report.resolution
        reports = hessian_scan_battery(geometry, x0, directions)
        counts = [r.count for r in reports if r.no_such_field]
        for scan in reports:
            scan.roots, scan.resolution
        """))
    assert sorted((line, name) for line, name, value in _report_reads(gone) if value is None) == [
        (2, "ZeroSetReport.resolution"), (4, "ZeroSetReport.no_such_field"),
        (6, "ZeroSetReport.resolution")]
