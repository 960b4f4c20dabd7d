"""Scan geometries: circular-trajectory cone beam and the classical 2D Radon model.

The cone-beam source moves on a circle of radius ``R`` in the ``z = 0`` plane;
the flat virtual detector passes through the origin and rotates with the
source.  A spatial point is mapped to detector coordinates ``(u, v)`` by
stereographic projection from the source.  All maps are vectorized over
leading axes and pure (no shared mutable state), so concurrent calls are safe.

Angles are in radians and are normalized into ``[0, 2*pi)`` on input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import site_keys, stream_keys, uniform_from_keys

TWO_PI = 2.0 * np.pi
_DENOMINATOR_FLOOR = 1e-9


class DegenerateProjectionError(ValueError):
    """A point is non-finite or inadmissible, or a projection denominator is at or below 1e-9;
    at an admissible point every denominator is at least ``1 - admissible_fraction``."""


def _normalize_angle(s):
    return np.mod(np.asarray(s, dtype=float), TWO_PI)


@dataclass(frozen=True)
class ConeBeamGeometry:
    """Circular cone-beam geometry with a flat detector through the origin.

    Parameters
    ----------
    radius : float
        Source-trajectory radius ``R > 0``, finite.
    admissible_fraction : float, optional
        Reconstruction points must satisfy ``hypot(x1, x2) <= fraction * R``,
        so every projection denominator is at least ``1 - fraction``; checked
        by :meth:`check_admissible`, not per projection.
    """

    radius: float
    admissible_fraction: float = 0.9

    parameter_period = TWO_PI

    def __post_init__(self):
        if isinstance(self.radius, (bool, np.bool_)) or not 0 < self.radius < np.inf:
            raise ValueError(f"radius must be a finite number > 0, got {self.radius!r}")
        if not 0 < self.admissible_fraction < 1:
            raise ValueError("admissible_fraction must lie in (0, 1)")

    def check_admissible(self, points):
        """Raise :class:`DegenerateProjectionError` for a non-finite point or one
        beyond ``fraction * R``.

        At cylinder radius ``rho`` every view's projection denominator is at
        least ``1 - rho/R``; a point where that bound is at or below the 1e-9
        floor is refused too (it binds only for ``fraction >= 1 - 1e-9``), so
        an accepted point projects at any angle.  ``points`` has shape
        (..., 3); the message names the first non-finite point, or else the
        point farthest from the axis, by its index in the flattened array.
        """
        points = np.reshape(np.asarray(points, dtype=float), (-1, 3))
        bad = ~np.isfinite(points).all(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            raise DegenerateProjectionError(
                f"point {k} has a non-finite coordinate: {points[k].tolist()}")
        rho = np.hypot(points[:, 0], points[:, 1])
        limit = self.admissible_fraction * self.radius
        worst = int(np.argmax(rho))
        if rho[worst] > limit or 1.0 - rho[worst] / self.radius <= _DENOMINATOR_FLOOR:
            raise DegenerateProjectionError(
                f"point {worst} at cylinder radius {rho[worst]:.4g} exceeds the "
                f"admissible {limit:.4g}"
            )

    def source_position(self, s):
        """Source point ``(R cos s, R sin s, 0)``; broadcasts over ``s``."""
        s = _normalize_angle(s)
        return np.stack(
            [self.radius * np.cos(s), self.radius * np.sin(s), np.zeros_like(s)],
            axis=-1,
        )

    def _denominator(self, x, s):
        """Projection denominator, ``x`` as an array, and ``cos s`` and ``sin s``."""
        x = np.asarray(x, dtype=float)
        s = _normalize_angle(s)
        cs, sn = np.cos(s), np.sin(s)
        den = 1.0 - (x[..., 0] * cs + x[..., 1] * sn) / self.radius
        if np.any(den <= _DENOMINATOR_FLOOR):
            raise DegenerateProjectionError(
                f"projection denominator {np.min(den):.3e} at or below floor "
                f"{_DENOMINATOR_FLOOR:.1e}"
            )
        return den, x, cs, sn

    def project(self, x, s):
        """Stereographic projection of ``x`` onto the detector at angle ``s``.

        Parameters
        ----------
        x : array_like, shape (..., 3)
            Spatial point(s).
        s : float or array_like
            Source angle(s), broadcastable against ``x[..., 0]``.

        Returns
        -------
        (u, v) : tuple of ndarray
            Detector coordinates.

        Raises
        ------
        DegenerateProjectionError
            If any projection denominator is ``<= 1e-9``.
        """
        den, x, cs, sn = self._denominator(x, s)
        t = 1.0 / den
        u = t * (-x[..., 0] * sn + x[..., 1] * cs)
        v = t * x[..., 2]
        return u, v

    def projection(self, x, s):
        """Detector coordinates stacked into one array of shape (..., 2)."""
        u, v = self.project(x, s)
        return np.stack([u, v], axis=-1)

    def project_gradient(self, x, s):
        """Jacobian of ``(u, v)`` with respect to ``x``, shape (..., 2, 3).

        Analytic differentiation of the projection map, including the chain
        terms through the denominator.
        """
        den, x, cs, sn = self._denominator(x, s)
        t = 1.0 / den
        w = -x[..., 0] * sn + x[..., 1] * cs
        # dT/dx = (T^2/R) * (cos s, sin s, 0)
        tt_r = t * t / self.radius
        shape = np.broadcast_shapes(x[..., 0].shape, np.shape(cs))
        grad = np.zeros(shape + (2, 3))
        grad[..., 0, 0] = -t * sn + w * tt_r * cs
        grad[..., 0, 1] = t * cs + w * tt_r * sn
        grad[..., 1, 0] = x[..., 2] * tt_r * cs
        grad[..., 1, 1] = x[..., 2] * tt_r * sn
        grad[..., 1, 2] = t
        return grad

    def ellipse_sample(self, count, seed):
        """``count`` admissible points, shape (count, 3), and source angles.

        Point ``i`` has ``rho = fraction * R * sqrt(u)``, ``phi`` and angle
        uniform on ``[0, 2*pi)`` and ``x3`` on ``[-3, 3)``, hashed from ``(seed,
        i, coordinate)`` at view -1, which no noise datum has: so the first
        ``n`` points do not depend on ``count``.
        """
        u = 0.5 * (uniform_from_keys(site_keys(-1, np.arange(count)[:, None], np.arange(4)),
                                     stream_keys(seed, 0)) + 1.0)
        rho = self.admissible_fraction * self.radius * np.sqrt(u[:, 0])
        phi = TWO_PI * u[:, 1]
        points = np.stack([rho * np.cos(phi), rho * np.sin(phi), 6.0 * u[:, 2] - 3.0], axis=-1)
        return points, TWO_PI * u[:, 3]

    def ellipse_residual(self, x, s):
        """Defect of the algebraic identity satisfied by the projected orbit.

        For a fixed ``x`` with ``x3 != 0``, the detector track over a full
        turn satisfies ``(x1^2 + x2^2) v^2 - x3^2 u^2 - R^2 (v - x3)^2 = 0``;
        the returned value is that left-hand side, so it vanishes up to
        rounding for admissible inputs.
        """
        u, v = self.project(x, s)
        x = np.asarray(x, dtype=float)
        rho2 = x[..., 0] ** 2 + x[..., 1] ** 2
        out = rho2 * v**2 - x[..., 2] ** 2 * u**2 - self.radius**2 * (v - x[..., 2]) ** 2
        return out if np.ndim(out) else float(out)


class Radon2DGeometry:
    """Classical 2D Radon parametrization, used by the assumption checks.

    Stateless; exposes the same ``projection`` interface as
    :class:`ConeBeamGeometry` with a 1-component data map, which is what
    :func:`~grf_tomo.analysis.hessian_zero_scan` reads.
    """

    parameter_period = TWO_PI

    def projection(self, x, alpha):
        """Signed distance ``x . (cos a, sin a)``, shape (..., 1)."""
        x = np.asarray(x, dtype=float)
        alpha = _normalize_angle(alpha)
        return (x[..., 0] * np.cos(alpha) + x[..., 1] * np.sin(alpha))[..., None]
