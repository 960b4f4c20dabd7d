"""Experiment configuration: JSON loading and validation.

One JSON document drives all commands, with sections ``geometry``,
``kernel``, ``noise``, ``experiment``, and optional ``prediction``,
``checks``, ``output`` and ``assertions``.  Validation errors carry the
dotted path of the offending field.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import ConeBeamGeometry, TWO_PI
from .kernel import KernelSpec
from .noise import NoiseModel

# The angle-average limit needs the kernel to have more continuous
# derivatives than max(N + gamma + 1, n/2) = 5 for this reconstruction;
# smaller exponents still run (and match the reference experiment) but get
# a warning.
REQUIRED_SMOOTHNESS = 5

# assertion rules the CLI evaluates, per command; predict rules are
# [target, tolerance] pairs, all others single thresholds
ASSERTION_RULES = {
    "predict": ("variance", "cross_covariance"),
    "simulate": ("variance_rel", "cov_mismatch", "pdf1d_mismatch", "pdf2d_mismatch"),
    "check": ("ellipse_residual_scale", "weyl_slope_max", "y2_fraction_linear"),
}


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


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
    panels: int = 2000
    tolerance: float = 1e-4
    checks: dict = field(default_factory=dict)
    assertions: dict = field(default_factory=dict)

    @property
    def delta_s(self):
        return TWO_PI / self.n_views

    def replace(self, **overrides):
        """Copy with some experiment fields replaced (revalidated)."""
        data = self.to_dict()
        for key, value in overrides.items():
            if key == "seed":
                data["noise"]["seed"] = value
            elif key in ("realizations", "bins", "eps", "n_views"):
                section = "detector_step" if key == "eps" else key
                data["experiment"][section] = value
            else:
                raise KeyError(f"unknown override {key!r}")
        return from_dict(data)

    def to_dict(self):
        return {
            "geometry": {
                "radius": self.geometry.radius,
                "admissible_fraction": self.geometry.admissible_fraction,
            },
            "kernel": {
                "half_width": self.kernel.half_width,
                "exponent": self.kernel.exponent,
            },
            "noise": {"seed": self.seed},
            "experiment": {
                "center": list(self.center),
                "offsets": [list(o) for o in self.offsets],
                "detector_step": self.eps,
                "n_views": self.n_views,
                "realizations": self.realizations,
                "bins": self.bins,
            },
            "prediction": {"panels": self.panels, "tolerance": self.tolerance},
            "checks": self.checks,
            "assertions": self.assertions,
        }


def _require(section, key, path, types, predicate=None, describe=""):
    if key not in section:
        raise ConfigError(f"{path}: missing required field")
    value = section[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected {describe or 'a number'}")
    if predicate is not None and not predicate(value):
        raise ConfigError(f"{path}: {describe}")
    return value


def _vector3(obj, path):
    try:
        vec = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a 3-vector") from None
    if vec.shape != (3,) or not np.all(np.isfinite(vec)):
        raise ConfigError(f"{path}: expected a finite 3-vector")
    return vec


def from_dict(data):
    """Build a validated :class:`ExperimentConfig` from plain dictionaries."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    for section in ("geometry", "kernel", "noise", "experiment"):
        if section not in data or not isinstance(data[section], dict):
            raise ConfigError(f"{section}: missing section")

    geo = data["geometry"]
    radius = _require(geo, "radius", "geometry.radius", (int, float),
                      lambda v: v > 0, "must be > 0")
    fraction = geo.get("admissible_fraction", 0.9)
    if not isinstance(fraction, (int, float)) or not 0 < fraction < 1:
        raise ConfigError("geometry.admissible_fraction: must lie in (0, 1)")
    geometry = ConeBeamGeometry(radius=float(radius),
                                admissible_fraction=float(fraction))

    ker = data["kernel"]
    half_width = _require(ker, "half_width", "kernel.half_width", (int, float),
                          lambda v: v > 0, "must be > 0")
    exponent = _require(ker, "exponent", "kernel.exponent", int,
                        lambda v: v >= 1, "must be an integer >= 1")
    kernel = KernelSpec(half_width=float(half_width), exponent=int(exponent))
    if kernel.smoothness <= REQUIRED_SMOOTHNESS:
        warnings.warn(
            f"kernel.exponent: smoothness {kernel.smoothness} does not exceed "
            f"the {REQUIRED_SMOOTHNESS} continuous derivatives the limit "
            "theory asks for; results follow the reference experiment anyway",
            UserWarning,
            stacklevel=2,
        )

    seed = _require(data["noise"], "seed", "noise.seed", int,
                    lambda v: 0 <= v < 2**64, "must be a 64-bit unsigned integer")

    exp = data["experiment"]
    eps = _require(exp, "detector_step", "experiment.detector_step", (int, float),
                   lambda v: v > 0, "must be > 0")
    n_views = _require(exp, "n_views", "experiment.n_views", int,
                       lambda v: v >= 1, "must be an integer >= 1")
    if "view_step" in exp:
        declared = exp["view_step"]
        if not isinstance(declared, (int, float)) or \
                abs(declared * n_views - TWO_PI) > 1e-12:
            raise ConfigError(
                "experiment.view_step: view_step * n_views must equal 2*pi"
            )
    realizations = _require(exp, "realizations", "experiment.realizations", int,
                            lambda v: v >= 2, "must be an integer >= 2")
    bins = _require(exp, "bins", "experiment.bins", int,
                    lambda v: v >= 2, "must be an integer >= 2")
    center = _vector3(exp.get("center"), "experiment.center")
    raw_offsets = exp.get("offsets")
    if not isinstance(raw_offsets, list) or not raw_offsets:
        raise ConfigError("experiment.offsets: expected a nonempty list of 3-vectors")
    offsets = np.stack([
        _vector3(o, f"experiment.offsets[{i}]") for i, o in enumerate(raw_offsets)
    ])

    pred = data.get("prediction", {})
    panels = pred.get("panels", 2000)
    tolerance = pred.get("tolerance", 1e-4)
    if not isinstance(panels, int) or panels < 1:
        raise ConfigError("prediction.panels: must be an integer >= 1")
    if not isinstance(tolerance, (int, float)) or tolerance <= 0:
        raise ConfigError("prediction.tolerance: must be > 0")

    checks = _checks(data.get("checks", {}))
    assertions = _assertions(data.get("assertions", {}))

    delta_s = TWO_PI / n_views
    noise = NoiseModel(eps=float(eps), delta_s=delta_s, seed=int(seed))

    config = ExperimentConfig(
        geometry=geometry,
        kernel=kernel,
        noise=noise,
        center=center,
        offsets=offsets,
        eps=float(eps),
        n_views=int(n_views),
        realizations=int(realizations),
        bins=int(bins),
        seed=int(seed),
        panels=int(panels),
        tolerance=float(tolerance),
        checks=checks,
        assertions=assertions,
    )
    _validate_admissibility(config)
    return config


def _finite_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and np.isfinite(value)


def _checks(checks):
    if not isinstance(checks, dict):
        raise ConfigError("checks: expected a JSON object")
    scan = checks.get("covariance_scan")
    if scan is not None:
        path = "checks.covariance_scan"
        if not isinstance(scan, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        if not np.any(_vector3(scan.get("direction"), f"{path}.direction")):
            raise ConfigError(f"{path}.direction: must be nonzero")
        radii = scan.get("radii")
        if not isinstance(radii, list) or not radii or not all(map(_finite_number, radii)):
            raise ConfigError(f"{path}.radii: expected a nonempty list of finite numbers")
    return checks


def _assertions(assertions):
    if not isinstance(assertions, dict):
        raise ConfigError("assertions: expected a JSON object")
    for command, rules in assertions.items():
        known = ASSERTION_RULES.get(command)
        if known is None:
            raise ConfigError(f"assertions.{command}: unknown command; "
                              f"expected one of {', '.join(ASSERTION_RULES)}")
        if not isinstance(rules, dict):
            raise ConfigError(f"assertions.{command}: expected a JSON object")
        for name, value in rules.items():
            path = f"assertions.{command}.{name}"
            if name not in known:
                raise ConfigError(f"{path}: unknown rule; expected one of {', '.join(known)}")
            if command != "predict":
                if not _finite_number(value):
                    raise ConfigError(f"{path}: expected a finite number")
            elif not (isinstance(value, list) and len(value) == 2
                      and all(map(_finite_number, value))):
                raise ConfigError(f"{path}: expected [target, tolerance]")
    return assertions


def _validate_admissibility(config):
    points = config.center[None, :] + config.eps * config.offsets
    points = np.vstack([config.center[None, :], points])
    rho = np.hypot(points[:, 0], points[:, 1])
    limit = config.geometry.admissible_fraction * config.geometry.radius
    if np.any(rho > limit):
        worst = int(np.argmax(rho))
        raise ConfigError(
            f"experiment.offsets: evaluation point {worst} at cylinder radius "
            f"{rho[worst]:.4g} exceeds the admissible {limit:.4g}"
        )
    # every view must keep the projection denominator above its floor
    s = np.arange(config.n_views) * config.delta_s
    try:
        config.geometry.project(points[:, None, :], s[None, :])
    except Exception as exc:
        raise ConfigError(f"experiment.offsets: {exc}") from exc


def load(path):
    """Load and validate a JSON configuration file.

    Raises :class:`ConfigError` with the byte offset for malformed JSON and
    with a dotted field path for schema violations.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    return from_dict(data)


def preset_path(name):
    """Filesystem path of a bundled preset configuration."""
    from importlib.resources import files

    return files("grf_tomo").joinpath("presets", f"{name}.json")
