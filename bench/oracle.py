"""Reference computations written apart from the program's own numerics.

Each function here recomputes a quantity the program reports, by a route
that shares only the model's public building blocks with it (the kernel
evaluators, ``ConeBeamGeometry.project``, ``NoiseModel.sample`` and the
variance field).  None of it calls ``CovariancePredictor``,
``Kernel.autocorrelation`` or ``ReconstructionPlan``.

* Kernel autocorrelations come from ``scipy.integrate.quad``, split at the
  kernel's breakpoints.  The autocorrelation is a polynomial between lags
  where two breakpoints meet, so a Chebyshev interpolant through
  ``degree + 1`` quadrature values per piece reproduces it exactly.
* The angle integral of the limiting covariance uses the rectangle rule on
  a uniform grid (the integrand is periodic), with the projection Jacobian
  taken by central differences of ``project``.
* The finite-step reconstruction loops over views, evaluates the kernel
  footprint of every point on a shared detector window, and sums weights
  against ``NoiseModel.sample`` draws or against per-site variances.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os

import numpy as np
from numpy.polynomial import chebyshev
from scipy.integrate import quad

from grf_tomo import noise as noise_mod

ANGLE_NODES = 1 << 15          # rectangle-rule nodes over one turn
JACOBIAN_STEP = 1e-5           # central-difference step of the Jacobian


def quad_autocorrelation(fn, kernel, lag):
    """``int fn(r + lag) fn(r) dr`` by ``quad`` split at the kernel pieces."""
    w = kernel.spec.support
    lo, hi = max(-w, -w - lag), min(w, w - lag)
    if lo >= hi:
        return 0.0
    cuts = np.concatenate([kernel.breakpoints, kernel.breakpoints - lag])
    points = [float(p) for p in np.unique(cuts) if lo < p < hi]
    value, _ = quad(lambda r: fn(r + lag) * fn(r), lo, hi, points=points,
                    limit=200, epsabs=1e-14, epsrel=1e-13)
    return value


class AutocorrelationTable:
    """Exact piecewise-polynomial autocorrelation built from ``quad`` values.

    ``which`` is ``"value"`` or ``"d2"``.  Kernel pieces have degree
    ``2 l + 2`` (value) or ``2 l`` (second derivative), so the
    autocorrelation has degree ``2 * piece + 1`` between knots, the lags at
    which two kernel breakpoints coincide.
    """

    def __init__(self, kernel, which):
        fn = {"value": kernel.value, "d2": kernel.second_derivative}[which]
        piece = 2 * kernel.spec.exponent + (2 if which == "value" else 0)
        degree = 2 * piece + 1
        breaks = kernel.breakpoints
        span = 2.0 * kernel.spec.support
        knots = np.unique(np.abs(breaks[:, None] - breaks[None, :]).round(12))
        self.knots = knots[(knots >= 0.0) & (knots <= span)]
        nodes = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
        self.coefs = []
        for a, b in zip(self.knots[:-1], self.knots[1:]):
            lags = 0.5 * (a + b) + 0.5 * (b - a) * nodes
            vals = [quad_autocorrelation(fn, kernel, lag) for lag in lags]
            self.coefs.append(chebyshev.chebfit(nodes, vals, degree))

    @classmethod
    def cached(cls, kernel, which, directory):
        """The table, kept in ``directory`` under a key that changes with the
        kernel's parameters, its source file or this file."""
        digest = hashlib.sha256(json.dumps([which, kernel.spec.half_width,
                                            kernel.spec.exponent]).encode())
        for obj in (type(kernel), cls):
            with open(inspect.getsourcefile(obj), "rb") as fh:
                digest.update(fh.read())
        path = os.path.join(directory, f"autocorrelation-{digest.hexdigest()[:20]}.json")
        table = cls.__new__(cls)
        try:
            with open(path) as fh:
                data = json.load(fh)
            table.knots = np.array(data["knots"])
            table.coefs = [np.array(c) for c in data["coefs"]]
            return table
        except (OSError, ValueError, KeyError):
            pass
        table = cls(kernel, which)
        os.makedirs(directory, exist_ok=True)
        with open(path + ".tmp", "w") as fh:
            json.dump({"knots": table.knots.tolist(),
                       "coefs": [c.tolist() for c in table.coefs]}, fh)
        os.replace(path + ".tmp", path)
        return table

    def __call__(self, lag):
        x = np.abs(np.asarray(lag, dtype=float))
        out = np.zeros(x.shape)
        piece = np.searchsorted(self.knots, x, side="right") - 1
        for i, (a, b) in enumerate(zip(self.knots[:-1], self.knots[1:])):
            m = piece == i
            if np.any(m):
                out[m] = chebyshev.chebval((2.0 * x[m] - a - b) / (b - a), self.coefs[i])
        return out


def zero_lag_autocorrelations(kernel):
    """``(A2(0), A0(0))``: the only two lags ``C(0)`` needs."""
    return (quad_autocorrelation(kernel.second_derivative, kernel, 0.0),
            quad_autocorrelation(kernel.value, kernel, 0.0))


def _angle_grid(geometry, x0, nodes=ANGLE_NODES):
    s = np.arange(nodes) * (2.0 * np.pi / nodes)
    u, v = geometry.project(x0, s)
    sigma2 = noise_mod.variance_field(s, u, v)
    return s, sigma2 * (2.0 * np.pi / nodes)


def limit_variance(geometry, kernel, x0):
    """``C(0) = A2(0) A0(0) int sigma2(s, u(s), v(s)) ds``."""
    a2, a0 = zero_lag_autocorrelations(kernel)
    _, weights = _angle_grid(geometry, np.asarray(x0, dtype=float))
    return a2 * a0 * float(np.sum(weights))


def limit_covariance(geometry, x0, thetas, tables):
    """``C(theta)`` for each row of ``thetas`` (shape (n, 3)).

    ``tables`` are the ``"d2"`` and ``"value"`` :class:`AutocorrelationTable`.
    """
    x0 = np.asarray(x0, dtype=float)
    a2, a0 = tables
    s, weights = _angle_grid(geometry, x0)
    out = []
    for theta in np.atleast_2d(np.asarray(thetas, dtype=float)):
        h = JACOBIAN_STEP
        up = np.stack(geometry.project(x0 + h * theta, s), axis=-1)
        dn = np.stack(geometry.project(x0 - h * theta, s), axis=-1)
        w = (up - dn) / (2.0 * h)
        out.append(float(np.sum(a2(w[:, 0]) * a0(w[:, 1]) * weights)))
    return np.array(out)


class FiniteStepModel:
    """Per-view kernel footprints of a point set on the discrete detector.

    ``points`` are absolute 3D positions; all share one detector window per
    view, so a site hit by several points appears once.
    """

    def __init__(self, geometry, kernel, noise_model, points):
        self.geometry = geometry
        self.kernel = kernel
        self.noise_model = noise_model
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.eps = noise_model.eps
        self.n_views = noise_model.n_views
        self.prefactor = noise_model.delta_s / self.eps**2

    def view(self, j):
        """Detector indices and weights (L, n1, n2) of view ``j``."""
        s = j * self.noise_model.delta_s
        u, v = self.geometry.project(self.points, s)
        a, b = u / self.eps, v / self.eps
        w = self.kernel.spec.support
        k1 = np.arange(int(np.floor(a.min() - w)), int(np.ceil(a.max() + w)) + 1)
        k2 = np.arange(int(np.floor(b.min() - w)), int(np.ceil(b.max() + w)) + 1)
        d2 = self.kernel.second_derivative(a[:, None] - k1[None, :])
        val = self.kernel.value(b[:, None] - k2[None, :])
        return k1, k2, d2[:, :, None] * val[:, None, :]

    def exact_covariance(self):
        """Covariance of the reconstructions, summed site by site."""
        n = self.points.shape[0]
        out = np.zeros((n, n))
        model = self.noise_model
        for j in range(self.n_views):
            k1, k2, weights = self.view(j)
            amp = model.scale * noise_mod.modulation_field(
                j * model.delta_s, self.eps * k1[:, None], self.eps * k2[None, :])
            flat = weights.reshape(n, -1)
            out += (flat * (amp**2 / 3.0).ravel()) @ flat.T
        return self.prefactor**2 * out

    def reconstruct(self, realization):
        """Reconstruction values at every point for one realization."""
        n = self.points.shape[0]
        out = np.zeros(n)
        for j in range(self.n_views):
            k1, k2, weights = self.view(j)
            eta = self.noise_model.sample(realization, j, k1[:, None], k2[None, :])
            out += weights.reshape(n, -1) @ np.ravel(eta)
        return self.prefactor * out
