"""Executable geometry-assumption checks and equidistribution diagnostics.

Two scan-type checks qualify an expansion point for the covariance limit:

* the Hessian of every scalar projection component combination must vanish
  only on a thin set of source parameters (:func:`hessian_zero_scan`);
* the directional derivative of the projection map must vanish only on a
  null set of parameters for every offset direction
  (:func:`degeneracy_tolerance_scan`).

The equidistribution half of the module provides exponential sums over
shrinking lattices and lattice averages of periodic functions, whose decay
and convergence underpin the angle-average step of the covariance limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import _sorted_unique

# a Hessian scan whose second differences (for a unit direction) all stay at
# or below this is reported degenerate: the Hessian vanishes identically
_DEGENERATE_TOL = 1e-9


@dataclass
class ZeroSetReport:
    """Result of scanning a projection Hessian for zeros.

    ``degenerate`` is set when the scanned quantity stays below tolerance
    everywhere (identically-zero case); ``roots`` then stays empty.
    """

    roots: np.ndarray
    degenerate: bool
    direction: np.ndarray
    max_abs: float

    @property
    def count(self):
        return len(self.roots)


def hessian_zero_scan(geometry, x0, direction, resolution=2000):
    """Locate parameter values where a projection-component Hessian vanishes.

    Scans ``d^2/dy^2 [direction . projection(x0, y)]`` over one parameter
    period, using central second differences with a step of one tenth of the
    grid spacing, and bisects each sign change to a root.  The one-direction
    case of :func:`hessian_scan_battery`.

    Parameters
    ----------
    geometry : object
        Provides ``projection(x, y)`` with shape (..., N) and
        ``parameter_period``.
    x0 : array_like
        Expansion point.
    direction : array_like, shape (N,)
        Nonzero frequency direction; normalized internally (the zero set is
        invariant under positive scaling).
    resolution : int
        Number of scan samples over the period; at least 1000.

    Returns
    -------
    ZeroSetReport
    """
    return hessian_scan_battery(geometry, x0, [direction], resolution)[0]


def hessian_scan_battery(geometry, x0, directions, resolution=2000):
    """Run :func:`hessian_zero_scan` over a set of directions.

    The projections on the scan grid are computed once for all directions,
    and one bisection refines every sign change of every direction, each
    until its bracket is narrower than ``1e-13`` of the period or after 60
    halvings.  Returns the list of reports; the point fails the
    thin-zero-set check if any direction is degenerate.
    """
    units = []
    for direction in directions:
        direction = np.asarray(direction, dtype=float).ravel()
        norm = np.linalg.norm(direction)
        if norm == 0:
            raise ValueError("direction must be nonzero")
        units.append(direction / norm)
    if resolution < 1000:
        raise ValueError("resolution must be >= 1000")

    period = geometry.parameter_period
    x0 = np.asarray(x0, dtype=float)
    step = period / resolution
    h = 0.1 * step
    grid = np.arange(resolution) * step
    ys = np.append(grid, period)
    plus, mid, minus = (geometry.projection(x0, y) for y in (grid + h, grid, grid - h))
    # a column per direction, from matrix-vector products: a matrix product may round otherwise
    d2 = np.empty((resolution, len(units)))
    for col, direction in zip(d2.T, units):
        col[:] = (plus @ direction - 2.0 * (mid @ direction) + minus @ direction) / h**2
    max_abs = np.max(np.abs(d2), axis=0)
    degenerate = max_abs <= _DEGENERATE_TOL
    # wrap around so sign changes across the period boundary are caught; the
    # brackets run direction by direction, each in grid order
    vals = np.vstack([d2, d2[:1]])
    k, i = np.nonzero(((np.sign(vals[:-1]) * np.sign(vals[1:]) < 0) & ~degenerate).T)
    along, a, b, fa = np.array(units)[k], ys[i], ys[i + 1], vals[i, k]

    def fn(y):
        return np.sum(geometry.projection(x0, y) * along, axis=-1)

    live = np.ones(a.size, dtype=bool)
    for _ in range(60):
        if not live.any():
            break
        m = 0.5 * (a + b)
        fm = (fn(m + h) - 2.0 * fn(m) + fn(m - h)) / h**2
        left = fa * fm <= 0
        b = np.where(live & left, m, b)
        a = np.where(live & ~left, m, a)
        fa = np.where(live & ~left, fm, fa)
        live &= ~(b - a < 1e-13 * period)
    roots = 0.5 * (a + b) % period
    # a grid point where the difference is exactly zero is a root that no
    # bracket holds; a degenerate direction has no roots
    return [ZeroSetReport(np.array([]) if flat else
                          _sorted_unique(np.concatenate([roots[k == j], grid[col == 0.0]])),
                          bool(flat), direction, float(peak))
            for j, (direction, col, peak, flat)
            in enumerate(zip(units, d2.T, max_abs, degenerate))]


def degeneracy_tolerance_scan(geometry, x0, offset, tols, samples=20000):
    """Fractions of parameters where the projection derivative kills ``offset``.

    For each ``tol`` in ``tols``, estimates the measure of
    ``{y : |J(x0, y) offset| < tol * |J| |offset|}`` with ``J`` the
    projection Jacobian and Frobenius norms; under the geometry checks this
    fraction must shrink linearly to zero with ``tol``.  Raises
    :class:`ValueError` for a zero offset or fewer than 10^4 samples.

    ``offset`` is one offset of shape (N,), which gives fractions of shape
    (T,), or a (K, N) array of offsets, which gives (K, T).  The Jacobian
    and its Frobenius norms are computed once for all offsets and
    thresholded at each tolerance; each offset's fractions have the bits of
    a call with that offset alone.
    """
    offset = np.asarray(offset, dtype=float)
    rows = np.atleast_2d(offset)
    for k, row in enumerate(rows):
        if np.linalg.norm(row) == 0:
            raise ValueError(f"offset {k} is zero; offsets must be nonzero")
    if samples < 10**4:
        raise ValueError("samples must be >= 10^4")
    ys = np.arange(samples) * (geometry.parameter_period / samples)
    jac = geometry.project_gradient(np.asarray(x0, dtype=float), ys)
    frobenius = np.sqrt(np.sum(jac**2, axis=(-2, -1)))
    fractions = np.empty((len(rows), len(tols)))
    for row, out in zip(rows, fractions):
        directional = np.linalg.norm(jac @ row, axis=-1)
        scale = frobenius * np.linalg.norm(row)
        out[:] = [np.mean(directional < t * scale) for t in tols]
    return fractions[0] if offset.ndim == 1 else fractions


# ---------------------------------------------------------------------------
# exponential sums and lattice averages
# ---------------------------------------------------------------------------


def _lattice(eps, box):
    if not eps > 0:
        raise ValueError("eps must be > 0")
    box = np.asarray(box, dtype=float)
    if box.shape != (2,) or not box[0] < box[1]:
        raise ValueError("box must be one nondegenerate (lo, hi) pair")
    lo, hi = box
    return eps * np.arange(int(np.ceil(lo / eps)), int(np.floor(hi / eps)) + 1)


def weyl_sum(fn, eps, box):
    """Normalized exponential sum ``eps sum_j exp(2 pi i f(eps j)/eps)``.

    ``fn`` receives the flat array of lattice points ``eps j`` in the
    interval ``box = (lo, hi)`` and returns real phases.
    """
    phases = np.asarray(fn(_lattice(eps, box)), dtype=float)
    return eps * complex(np.sum(np.exp(2j * np.pi * phases / eps)))


@dataclass
class WeylDecayResult:
    """Exponential-sum magnitudes over a family of shrinking steps and their decay rate.

    ``slope`` is the least-squares slope of ``log |sum|`` against
    ``log(1/eps)``: a magnitude decaying like ``eps^alpha`` gives slope
    ``-alpha``, so faster decay is more negative.
    """

    eps_values: np.ndarray
    magnitudes: np.ndarray
    slope: float


def weyl_decay_table(fn, box, exponents=(-2.0, -2.5, -3.0, -3.5, -4.0, -4.5)):
    """Evaluate :func:`weyl_sum` over a log-spaced family of steps.

    ``exponents`` are base-10 exponents of the steps.  Returns a
    :class:`WeylDecayResult` with the fitted decay slope.
    """
    eps_values = 10.0 ** np.asarray(exponents, dtype=float)
    magnitudes = np.abs([weyl_sum(fn, e, box) for e in eps_values])
    return WeylDecayResult(eps_values, magnitudes, fit_log_slope(eps_values, magnitudes))


def fit_log_slope(eps_values, magnitudes):
    """Slope of ``log magnitude`` against ``log(1/eps)`` by least squares.

    Decaying magnitudes give negative slopes; ``magnitude = C * eps^alpha``
    fits slope ``-alpha`` exactly.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    magnitudes = np.asarray(magnitudes, dtype=float)
    if eps_values.size < 2:
        raise ValueError("need at least two points to fit a slope")
    if np.any(magnitudes <= 0):
        raise ValueError("magnitudes must be positive for a log fit")
    return float(np.polyfit(np.log(1.0 / eps_values), np.log(magnitudes), 1)[0])


def equidistributed_average(gn, phase_map, eps, box):
    """Lattice average ``eps sum_j g(phase_map(eps j)/eps)`` over the interval ``box``.

    For a 1-periodic ``g`` and a phase map with nondegenerate curvature this
    converges to ``(hi - lo) * integral of g over one period`` as the step
    shrinks.  ``gn`` receives the scaled phases with the same shape the
    phase map produced.
    """
    phases = np.asarray(phase_map(_lattice(eps, box)), dtype=float)
    return eps * float(np.sum(np.asarray(gn(phases / eps), dtype=float)))
