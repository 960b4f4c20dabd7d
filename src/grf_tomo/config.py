"""Experiment configuration: JSON loading and validation.

One JSON document drives all commands, with sections ``geometry``,
``kernel``, ``noise``, ``experiment``, and optional ``checks`` and
``assertions``.  :data:`SCHEMA` declares every field with its
default and constraint, and :data:`ASSERTION_RULES` every ``--assert`` rule.
Validation errors carry the dotted path of the offending field.
"""

from __future__ import annotations

import copy
import json
import sys
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .geometry import ConeBeamGeometry, DegenerateProjectionError
from .kernel import KernelSpec
from .noise import NoiseModel
from .recon import _INDEX_BIAS, _MAX_VIEWS

# The angle-average limit needs the kernel to have more continuous
# derivatives than max(N + gamma + 1, n/2) = 5 for this reconstruction;
# smaller exponents still run (and match the reference experiment) but get
# a warning.
REQUIRED_SMOOTHNESS = 5
# warning registries of the smoothness warnings that name a loaded file
_FILE_WARNINGS = {}


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _finite_number(v):
    # exact for an int of any size, so one beyond float range fails here, not in float()
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _positive(v):
    return _finite_number(v) and v > 0


def _integer(least):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least


def _list_of(each):
    return lambda v: isinstance(v, list) and len(v) >= 1 and all(map(each, v))


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
    "degeneracy_samples": Field(20000, _integer(10**4), "an integer >= 10000"),
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
            THRESHOLD, _halving, lambda m: m["degeneracy_fractions"], (NONZERO_OFFSET,)),
    },
}

SCHEMA = {
    "geometry": Field(REQUIRED, {
        "radius": Field(REQUIRED, _positive, "a number > 0"),
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
        "n_views": Field(REQUIRED, lambda v: _integer(1)(v) and v <= _MAX_VIEWS,
                         f"an integer in [1, {_MAX_VIEWS}]"),
        "realizations": Field(REQUIRED, _integer(2), "an integer >= 2"),
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

    # not document fields: the quadrature's start panels and tolerance are no
    # part of the experiment, and the pdf thresholds are calibrated at 21 bins
    panels = 2000
    tolerance = 1e-4
    bins = 21

    geometry: ConeBeamGeometry
    kernel: KernelSpec
    noise: NoiseModel
    center: np.ndarray
    offsets: np.ndarray
    realizations: int
    checks: dict
    assertions: dict
    _document: dict = field(repr=False)

    @property
    def eps(self):
        """Detector step, as the noise model has it."""
        return self.noise.eps

    @property
    def seed(self):
        """Master seed, as the noise model has it."""
        return self.noise.seed

    @property
    def points(self):
        """Evaluation points, one row per offset: ``center + eps * offsets``."""
        return self.center + self.eps * self.offsets

    @property
    def zero_offset_index(self):
        """Index of the first all-zero offset, or ``None``."""
        hits = np.nonzero(np.all(self.offsets == 0.0, axis=1))[0]
        return int(hits[0]) if hits.size else None

    def to_dict(self):
        """The validated document, defaults filled in, with each field that an
        attribute owns read from that attribute; :func:`from_dict` rebuilds ``self``."""
        data = copy.deepcopy(self._document)
        owned = {"geometry": asdict(self.geometry), "kernel": asdict(self.kernel),
                 "noise": {"seed": self.noise.seed},
                 "experiment": {"center": self.center, "offsets": self.offsets,
                                "detector_step": self.eps, "n_views": self.noise.n_views,
                                "realizations": self.realizations}}
        for section, fields in owned.items():
            for key, value in fields.items():
                # an equal value keeps the document's spelling: 10 stays 10, not 10.0
                if not np.array_equal(data[section][key], value):
                    data[section][key] = np.asarray(value).tolist()
        return data


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


def from_dict(data, source=None):
    """Build a validated :class:`ExperimentConfig` from plain dictionaries; the smoothness
    warning names ``source``, a ``(filename, lineno)`` pair, or else the caller."""
    data = _section(data, SCHEMA)
    ker, exp = data["kernel"], data["experiment"]
    kernel = KernelSpec(half_width=float(ker["half_width"]), exponent=ker["exponent"])
    if kernel.smoothness <= REQUIRED_SMOOTHNESS:
        message = (f"kernel.exponent: smoothness {kernel.smoothness} does not exceed the "
                   f"{REQUIRED_SMOOTHNESS} continuous derivatives the limit theory asks "
                   "for; results follow the reference experiment anyway")
        if source is None:
            warnings.warn(message, UserWarning, stacklevel=2)
        else:  # one registry per file, so that each file's warning prints once
            warnings.warn_explicit(message, UserWarning, *source,
                                   registry=_FILE_WARNINGS.setdefault(source[0], {}))
    config = ExperimentConfig(
        geometry=ConeBeamGeometry(radius=float(data["geometry"]["radius"])),
        kernel=kernel,
        noise=NoiseModel(eps=float(exp["detector_step"]), n_views=exp["n_views"],
                         seed=data["noise"]["seed"]),
        center=np.asarray(exp["center"], dtype=float),
        offsets=np.asarray(exp["offsets"], dtype=float),
        realizations=exp["realizations"],
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
    # the geometry's rule bounds every view's denominator; "point k" is entry k.
    # An evaluation point beyond float range is infinite, which the rule refuses
    with np.errstate(over="ignore"):
        points = config.points
    for path, entries in (("experiment.center", config.center),
                          ("experiment.offsets", points),
                          ("checks.hessian_points", config.checks["hessian_points"])):
        try:
            config.geometry.check_admissible(entries)
        except DegenerateProjectionError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    # at cylinder radius rho each view projects a point within max(rho, |x3|)
    # / (1 - rho/R) of the detector origin, so its footprint indices stay
    # below this reach, the 1 covering rounding; the plan packs them in 21 bits
    rho = np.hypot(points[:, 0], points[:, 1])
    with np.errstate(over="ignore"):
        reach = np.maximum(rho, np.abs(points[:, 2])) / (1.0 - rho / config.geometry.radius) \
            / config.eps + kernel.support + 1.0
    far = np.flatnonzero(~(reach < _INDEX_BIAS))
    if far.size:
        raise ConfigError(f"experiment.offsets: point {far[0]}'s detector footprint reaches "
                          f"index {reach[far[0]]:.4g}, beyond the plan's range {_INDEX_BIAS}")
    return config


def load(path, seed=None, realizations=None):
    """Load and validate a JSON configuration file.

    ``seed`` and ``realizations``, when given, are written into the document
    (``noise.seed``, ``experiment.realizations``) as an edit of the file would
    be, before the one :func:`from_dict` call.  Raises :class:`ConfigError` with
    the byte offset for malformed JSON and a dotted path for schema violations.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    for section, key, value in (("noise", "seed", seed),
                                ("experiment", "realizations", realizations)):
        if value is not None and isinstance(data, dict) and isinstance(data.get(section), dict):
            data[section][key] = value
    # the smoothness warning names the file's kernel.exponent line
    line = text[:max(text.find(b'"exponent"'), 0)].count(b"\n") + 1
    return from_dict(data, source=(str(path), line))


def preset_path(name):
    """Filesystem path of a bundled preset configuration."""
    from importlib.resources import files

    return files("grf_tomo").joinpath("presets", f"{name}.json")
