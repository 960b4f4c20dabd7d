"""Experiment configuration: JSON loading and validation.

One JSON document drives all commands, with sections ``geometry``,
``kernel``, ``noise``, ``experiment``, and optional ``prediction``,
``checks`` and ``assertions``.  :data:`SCHEMA` declares every field with its
default and constraint, and :data:`ASSERTION_RULES` every ``--assert`` rule.
Validation errors carry the dotted path of the offending field.
"""

from __future__ import annotations

import copy
import json
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .geometry import ConeBeamGeometry, DegenerateProjectionError, TWO_PI
from .kernel import KernelSpec
from .noise import NoiseModel

# The angle-average limit needs the kernel to have more continuous
# derivatives than max(N + gamma + 1, n/2) = 5 for this reconstruction;
# smaller exponents still run (and match the reference experiment) but get
# a warning.
REQUIRED_SMOOTHNESS = 5


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and bool(np.isfinite(v))


def _positive(v):
    return _finite_number(v) and v > 0


def _integer(least):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least


def _list_of(each, least=1):
    return lambda v: isinstance(v, list) and len(v) >= least and all(map(each, v))


def _numbers(count):
    return lambda v: isinstance(v, list) and len(v) == count and all(map(_finite_number, v))


class Field(NamedTuple):
    """One configuration field: its default and the constraint on its value.

    ``default`` is a value, :data:`REQUIRED`, ``None`` for an optional field
    that is left out when absent, or a function of the validated document so
    far.  ``valid`` is a predicate described by ``expected``, or the schema
    of a nested section.
    """

    default: object
    valid: object
    expected: str = "a JSON object"


REQUIRED = object()
PAIR = Field(None, _numbers(2), "[target, tolerance]")
THRESHOLD = Field(None, _finite_number, "a finite number")

CHECKS = {
    "ellipse_samples": Field(10000, _integer(1), "an integer >= 1"),
    "hessian_points": Field(lambda doc: [doc["experiment"]["center"]], _list_of(_numbers(3)),
                            "a nonempty list of finite 3-vectors"),
    "hessian_resolution": Field(2000, _integer(1000), "an integer >= 1000"),
    "degeneracy_tols": Field([1e-2, 5e-3, 2.5e-3, 1.25e-3], _list_of(_positive),
                             "a nonempty list of positive finite numbers"),
    "degeneracy_samples": Field(20000, _integer(10**4), "an integer >= 10000"),
    "weyl": Field({}, {
        "box": Field([0.2, 0.8], lambda v: _numbers(2)(v) and v[0] < v[1],
                     "a [lo, hi] pair of finite numbers with lo < hi"),
        "exponents": Field([-2.0, -2.5, -3.0, -3.5, -4.0, -4.5],
                           _list_of(_finite_number, 2), "at least 2 finite numbers"),
    }),
    "covariance_scan": Field(None, {
        "direction": Field(REQUIRED, lambda v: _numbers(3)(v) and any(v),
                           "a nonzero finite 3-vector"),
        "radii": Field(REQUIRED, _list_of(_finite_number),
                       "a nonempty list of finite numbers"),
    }),
}


class AssertionRule(NamedTuple):
    """One ``--assert`` rule.

    ``shape`` is :data:`PAIR` or :data:`THRESHOLD`; ``passes(value,
    threshold, config)`` compares the value that ``read`` takes from the
    command's metrics; ``requires`` lists what the experiment must have for
    the rule to apply, each as a description and a predicate on the config.
    """

    shape: Field
    passes: Callable
    read: Callable
    requires: tuple = ()


ZERO_OFFSET = ("a zero offset", lambda cfg: cfg.zero_offset_index is not None)
NONZERO_OFFSET = ("a nonzero offset", lambda cfg: np.any(cfg.offsets))
TWO_OFFSETS = ("at least two offsets", lambda cfg: len(cfg.offsets) >= 2)
TWO_TOLS = ("at least two checks.degeneracy_tols",
            lambda cfg: len(cfg.checks["degeneracy_tols"]) >= 2)


def _within(value, pair, config):
    return abs(value - pair[0]) <= pair[1]


def _at_most(value, threshold, config):
    return value <= threshold


def _halving(fractions, slack, config):
    return all(f[i + 1] <= 0.5 * f[i] + slack for f in fractions for i in range(len(f) - 1))


ASSERTION_RULES = {
    "predict": {
        "variance": AssertionRule(PAIR, _within, lambda m: m["variance"]),
        "cross_covariance": AssertionRule(
            PAIR, _within, lambda m: m["cross_covariance_first_pair"], (TWO_OFFSETS,)),
    },
    "simulate": {
        "variance_rel": AssertionRule(THRESHOLD, _at_most, lambda m: abs(
            m["variance_at_center"] / m["predicted_variance"] - 1.0), (ZERO_OFFSET,)),
        "cov_mismatch": AssertionRule(
            THRESHOLD, _at_most, lambda m: m["covariance_mismatch_first_pair"]),
        "pdf1d_mismatch": AssertionRule(
            THRESHOLD, _at_most, lambda m: m["pdf_mismatch_1d"][m["zero_offset_index"]],
            (ZERO_OFFSET,)),
        "pdf2d_mismatch": AssertionRule(
            THRESHOLD, _at_most, lambda m: m["pdf_mismatch_2d"], (TWO_OFFSETS,)),
    },
    "check": {
        "ellipse_residual_scale": AssertionRule(
            THRESHOLD, lambda value, scale, cfg: value < scale * cfg.geometry.radius**4,
            lambda m: m["ellipse_max_abs_residual"]),
        "weyl_slope_max": AssertionRule(THRESHOLD, _at_most, lambda m: m["weyl_slope"]),
        "y2_fraction_linear": AssertionRule(
            THRESHOLD, _halving, lambda m: m["degeneracy_fractions"], (NONZERO_OFFSET, TWO_TOLS)),
    },
}

SCHEMA = {
    "geometry": Field(REQUIRED, {
        "radius": Field(REQUIRED, _positive, "a number > 0"),
        "admissible_fraction": Field(0.9, lambda v: _finite_number(v) and 0 < v < 1,
                                     "a number in (0, 1)"),
    }),
    "kernel": Field(REQUIRED, {
        "half_width": Field(REQUIRED, _positive, "a number > 0"),
        "exponent": Field(REQUIRED, _integer(1), "an integer >= 1"),
    }),
    "noise": Field(REQUIRED, {
        "seed": Field(REQUIRED, lambda v: _integer(0)(v) and v < 2**64,
                      "a 64-bit unsigned integer"),
    }),
    "experiment": Field(REQUIRED, {
        "center": Field(REQUIRED, _numbers(3), "a finite 3-vector"),
        "offsets": Field(REQUIRED, _list_of(_numbers(3)), "a nonempty list of finite 3-vectors"),
        "detector_step": Field(REQUIRED, _positive, "a number > 0"),
        "n_views": Field(REQUIRED, _integer(1), "an integer >= 1"),
        "realizations": Field(REQUIRED, _integer(2), "an integer >= 2"),
        "bins": Field(REQUIRED, _integer(2), "an integer >= 2"),
    }),
    "prediction": Field({}, {
        "panels": Field(2000, _integer(1), "an integer >= 1"),
        "tolerance": Field(1e-4, _positive, "a number > 0"),
    }),
    "checks": Field({}, CHECKS),
    "assertions": Field({}, {
        command: Field(None, {name: rule.shape for name, rule in rules.items()})
        for command, rules in ASSERTION_RULES.items()
    }),
}


@dataclass
class ExperimentConfig:
    """Validated experiment description shared by all commands."""

    geometry: ConeBeamGeometry
    kernel: KernelSpec
    noise: NoiseModel
    center: np.ndarray
    offsets: np.ndarray
    eps: float
    n_views: int
    realizations: int
    bins: int
    seed: int
    panels: int
    tolerance: float
    checks: dict
    assertions: dict
    _document: dict = field(repr=False)

    @property
    def delta_s(self):
        return TWO_PI / self.n_views

    @property
    def zero_offset_index(self):
        """Index of the first all-zero offset, or ``None``."""
        hits = np.nonzero(np.all(self.offsets == 0.0, axis=1))[0]
        return int(hits[0]) if hits.size else None

    def to_dict(self):
        """The validated document, defaults filled in; :func:`from_dict` rebuilds ``self``."""
        return copy.deepcopy(self._document)


def _section(data, schema, path="", doc=None):
    """Validate ``data`` against ``schema``; return a copy with defaults filled in."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'top level'}: expected a JSON object")
    prefix = f"{path}." if path else ""
    for key in data:
        if key not in schema:
            raise ConfigError(f"{prefix}{key}: unknown field; "
                              f"expected one of {', '.join(schema)}")
    out = {}
    doc = out if doc is None else doc
    for key, spec in schema.items():
        sub = prefix + key
        if key in data:
            value = data[key]
        elif spec.default is REQUIRED:
            raise ConfigError(f"{sub}: missing required field")
        elif spec.default is None:
            continue
        else:
            value = spec.default(doc) if callable(spec.default) else copy.deepcopy(spec.default)
        if isinstance(spec.valid, dict):
            value = _section(value, spec.valid, sub, doc)
        elif not spec.valid(value):
            raise ConfigError(f"{sub}: expected {spec.expected}")
        out[key] = value
    return out


def from_dict(data):
    """Build a validated :class:`ExperimentConfig` from plain dictionaries."""
    data = _section(data, SCHEMA)
    geo, ker, exp, pred = (data[k] for k in ("geometry", "kernel", "experiment", "prediction"))
    kernel = KernelSpec(half_width=float(ker["half_width"]), exponent=ker["exponent"])
    if kernel.smoothness <= REQUIRED_SMOOTHNESS:
        warnings.warn(f"kernel.exponent: smoothness {kernel.smoothness} does not exceed the "
                      f"{REQUIRED_SMOOTHNESS} continuous derivatives the limit theory asks "
                      "for; results follow the reference experiment anyway", UserWarning,
                      stacklevel=2)
    n_views = exp["n_views"]
    eps, seed = float(exp["detector_step"]), data["noise"]["seed"]
    config = ExperimentConfig(
        geometry=ConeBeamGeometry(radius=float(geo["radius"]),
                                  admissible_fraction=float(geo["admissible_fraction"])),
        kernel=kernel,
        noise=NoiseModel(eps=eps, delta_s=TWO_PI / n_views, seed=seed),
        center=np.asarray(exp["center"], dtype=float),
        offsets=np.asarray(exp["offsets"], dtype=float),
        eps=eps,
        n_views=n_views,
        realizations=exp["realizations"],
        bins=exp["bins"],
        seed=seed,
        panels=pred["panels"],
        tolerance=float(pred["tolerance"]),
        checks=data["checks"],
        assertions=data["assertions"],
        _document=data,
    )
    for command, rules in config.assertions.items():
        for name in rules:
            for needs, met in ASSERTION_RULES[command][name].requires:
                if not met(config):
                    raise ConfigError(f"assertions.{command}.{name}: the experiment needs "
                                      f"{needs} for this rule")
    _validate_admissibility(config)
    return config


def _validate_admissibility(config):
    # point 0 is the center, point k the center plus offset k - 1
    points = np.vstack([config.center, config.center + config.eps * config.offsets])
    s = np.arange(config.n_views) * config.delta_s
    try:
        config.geometry.check_admissible(points)
        # every view must keep the projection denominator above its floor
        config.geometry.project(points[:, None, :], s[None, :])
    except DegenerateProjectionError as exc:
        raise ConfigError(f"experiment.offsets: {exc}") from exc


def load(path, seed=None, realizations=None):
    """Load and validate a JSON configuration file.

    ``seed`` and ``realizations``, when given, replace the document's
    ``noise.seed`` and ``experiment.realizations`` before the one
    :func:`from_dict` call.  Raises :class:`ConfigError` with the byte offset
    for malformed JSON and with a dotted field path for schema violations.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    if seed is not None or realizations is not None:
        # validated first, so that both sections exist to take the values
        data = _section(data, SCHEMA)
        if seed is not None:
            data["noise"]["seed"] = seed
        if realizations is not None:
            data["experiment"]["realizations"] = realizations
    return from_dict(data)


def preset_path(name):
    """Filesystem path of a bundled preset configuration."""
    from importlib.resources import files

    return files("grf_tomo").joinpath("presets", f"{name}.json")
