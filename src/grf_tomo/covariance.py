"""Closed-form limiting covariance of the reconstructed noise field.

In the small-step limit the reconstruction error around a fixed point ``x0``
is a stationary Gaussian random field in the local offset coordinates.  Its
covariance at offset ``theta`` is an integral over the source angle of the
2D autocorrelation of the per-datum response, evaluated at the image of
``theta`` under the projection Jacobian, weighted by the local noise
variance:

    C(theta) = integral_0^{2pi} A2((J theta)_1) A0((J theta)_2)
               sigma2(s, u(s), v(s)) ds,

where ``J = d(u, v)/dx`` at ``x0``, ``A2`` is the autocorrelation of the
kernel's second derivative and ``A0`` that of the kernel itself.  The
response factorizes this way because the filtering acts along detector rows
only and the interpolation along columns.
"""

from __future__ import annotations

import numpy as np

from .kernel import Kernel
from .noise import variance_field

_GL_ORDER = 4                  # Gauss-Legendre nodes per angle panel


class QuadratureConvergenceError(RuntimeError):
    """Panel refinement failed to reach the requested tolerance."""


class CovariancePredictor:
    """Evaluates the limiting covariance for one expansion point.

    Immutable after construction; concurrent evaluations are safe.

    Parameters
    ----------
    geometry : ConeBeamGeometry
        Scan geometry providing ``project`` and ``project_gradient``.
    kernel : Kernel or KernelSpec
        Interpolation-smoothing kernel of the reconstruction.
    x0 : array_like, shape (3,)
        Expansion point; must be admissible at every source angle.
    panels : int, optional
        Number of Gauss-Legendre panels for the angle integral.
    tolerance : float, optional
        Absolute tolerance verified by panel-doubling refinement.
    """

    def __init__(self, geometry, kernel, x0, panels=2000, tolerance=1e-4):
        if not isinstance(kernel, Kernel):
            kernel = Kernel(kernel)
        self.geometry = geometry
        self.kernel = kernel
        self.x0 = np.asarray(x0, dtype=float).reshape(3)
        self.panels = int(panels)
        self.tolerance = float(tolerance)

        rho = float(np.hypot(self.x0[0], self.x0[1]))
        limit = geometry.admissible_fraction * geometry.radius
        if rho > limit:
            raise ValueError(
                f"x0 at cylinder radius {rho:.3g} exceeds admissible {limit:.3g}"
            )
        # build the kernel's autocorrelation pieces now, so that evaluations
        # only read them
        kernel.autocorrelation(0.0, "d2")
        kernel.autocorrelation(0.0, "value")

    def response_autocorrelation(self, theta):
        """Autocorrelation of the response: ``A2(theta_1) * A0(theta_2)``.

        Exact piecewise-polynomial factors; exact zero once either component
        leaves the correlation support.
        """
        theta = np.asarray(theta, dtype=float)
        out = self.kernel.autocorrelation(theta[..., 0], "d2") \
            * self.kernel.autocorrelation(theta[..., 1], "value")
        return out if np.ndim(out) else float(out)

    # -- covariance -----------------------------------------------------------

    def _covariances(self, offsets):
        """Covariances at the rows of a (K, 3) array of offsets.

        Each panel count builds the angle nodes, the projection Jacobian and
        the variance field once for all entries.  Doubling continues only for
        the entries that have not settled, and each entry's value is its
        first refined value within the tolerance of the one before.
        """
        nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
        values = np.empty(len(offsets))
        pending = np.arange(len(offsets))
        for level in range(4):
            panels = self.panels * 2**level
            edges = np.linspace(0.0, 2.0 * np.pi, panels + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            s = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
            wq = (half[:, None] * weights[None, :]).ravel()
            u, v = self.geometry.project(self.x0, s)
            jac = self.geometry.project_gradient(self.x0, s)   # (m, 2, 3)
            sigma2 = variance_field(s, u, v)
            # one offset at a time keeps memory at one node set; the
            # fixed-order reduction keeps each entry's bits run to run
            fine = np.array([np.add.reduce(self.response_autocorrelation(jac @ offsets[k])
                                           * sigma2 * wq) for k in pending])
            if level:
                settled = np.abs(fine - coarse) <= self.tolerance
                values[pending[settled]] = fine[settled]
                pending, fine = pending[~settled], fine[~settled]
                if not pending.size:
                    return values
            coarse = fine
        raise QuadratureConvergenceError(
            f"angle quadrature did not settle below {self.tolerance:g} "
            f"by {panels} panels at offset {offsets[pending[0]].tolist()}"
        )

    def covariance(self, offset):
        """Covariance ``C(offset)`` for a 3-vector offset in local coordinates.

        Integrates over the source angle with composite Gauss-Legendre
        panels and verifies convergence by panel doubling.

        Raises
        ------
        QuadratureConvergenceError
            If doubling the panel count three times still moves the value by
            more than the tolerance.
        """
        offset = np.asarray(offset, dtype=float).reshape(1, 3)
        return float(self._covariances(offset)[0])

    def variance(self):
        """Covariance at zero offset."""
        return self.covariance(np.zeros(3))

    def covariance_matrix(self, offsets):
        """Matrix ``C(offset_i - offset_j)`` over a list of local offsets.

        Built from pairwise differences only, so it depends on the offsets
        solely through their differences and is symmetric by construction.
        """
        offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
        n = offsets.shape[0]
        if offsets.shape[1] != 3 or n < 1:
            raise ValueError("offsets must have shape (L, 3) with L >= 1")
        i, j = np.triu_indices(n, 1)
        values = self._covariances(np.vstack([np.zeros(3), offsets[i] - offsets[j]]))
        out = np.full((n, n), values[0])
        out[i, j] = out[j, i] = values[1:]
        return out

    def covariance_profile(self, direction, radii):
        """Line scan ``C(r * direction)`` over the given radii."""
        direction = np.asarray(direction, dtype=float).reshape(3)
        return self._covariances(np.asarray(radii)[:, None] * direction)
