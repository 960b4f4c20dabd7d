"""Compactly supported interpolation-smoothing kernel and its autocorrelations.

The kernel is the convolution of the linear-interpolation triangle
``(1 - |t|)_+`` with the normalized smoothing bump
``c * (1 - (t/a)^2)_+^l``.  Both factors have unit mass, so the kernel
integrates to one, is even, and is supported on ``[-(1 + a), 1 + a]``.

Because the triangle's second distributional derivative is a combination of
three point masses, the kernel and its derivatives reduce to differences of
shifted antiderivatives of the smoothing bump.  Everything here is evaluated
from that closed piecewise-polynomial form.  The autocorrelations of the
kernel and of its second derivative are piecewise polynomials too, with knots
where two kernel breakpoints meet; :meth:`Kernel.autocorrelation` evaluates
those pieces, which are interpolated once per kernel from exact per-piece
Gauss-Legendre integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _sorted_unique(values):
    """Sorted distinct values of ``values``, as ``numpy.unique`` gives them.

    ``numpy.unique`` in numpy 2.4 calls ``np.ma.is_masked``, which imports
    ``numpy.ma`` (about 10 ms and 1.2 MB) into every process that calls it,
    and for integers it builds a hash table.  Sorting and keeping each value
    that differs from the one before it returns the same array for input
    without NaN or -0.0 (which of the two zeros ``numpy.unique`` keeps
    depends on the input order); no caller passes either.
    """
    values = np.sort(np.asarray(values).ravel())
    keep = np.ones(values.shape, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of the interpolation-smoothing kernel.

    Parameters
    ----------
    half_width : float
        Half-width ``a`` of the smoothing bump, in detector-pixel units.
        Must be positive and finite.  The kernel support radius is ``1 + half_width``.
    exponent : int
        Smoothness exponent ``l >= 1`` of the bump ``(1 - (t/a)^2)^l``.
        The kernel has ``l + 1`` continuous derivatives.
    """

    half_width: float = 2.5
    exponent: int = 3

    def __post_init__(self):
        if isinstance(self.half_width, (bool, np.bool_)) or not 0 < self.half_width < np.inf:
            raise ValueError(f"half_width must be a finite number > 0, got {self.half_width!r}")
        if isinstance(self.exponent, (bool, np.bool_)) or int(self.exponent) != self.exponent \
                or self.exponent < 1:
            raise ValueError(f"exponent must be an integer >= 1, got {self.exponent!r}")

    @property
    def support(self):
        """Support radius ``1 + a``: the kernel vanishes for ``|t| >= support``."""
        return 1.0 + self.half_width

    @property
    def smoothness(self):
        """Number of continuous derivatives of the kernel (``l + 1``)."""
        return self.exponent + 1


class Kernel:
    """Evaluator for the kernel, its derivatives, and 1D autocorrelations.

    Immutable after construction apart from the autocorrelation pieces,
    which are built on first use; safe for concurrent reads.

    Parameters
    ----------
    spec : KernelSpec
        Kernel parameters.
    """

    def __init__(self, spec=None):
        self.spec = spec if spec is not None else KernelSpec()
        a, l = self.spec.half_width, self.spec.exponent

        # bump = c * (1 - (t/a)^2)^l with c chosen so the bump has unit mass
        norm = _double_factorial(2 * l + 1) / (2.0 * a * _double_factorial(2 * l))
        self._bump = norm * np.polynomial.Polynomial([1.0, 0.0, -1.0 / a**2]) ** l
        bump_int1 = self._bump.integ(1, lbnd=-a)            # vanishes at -a
        self._bump_int2 = bump_int1.integ(1, lbnd=-a)
        self._mass1 = float(bump_int1(a))                   # 1 up to rounding
        self._mass2 = float(self._bump_int2(a))
        self._pieces = {}

    # -- piecewise evaluation of the bump and its running antiderivatives --

    def _bump_eval(self, t):
        a = self.spec.half_width
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        m = np.abs(t) < a
        out[m] = self._bump(t[m])
        return out

    def _bump_cdf2(self, t):
        a = self.spec.half_width
        t = np.asarray(t, dtype=float)
        out = np.where(t >= a, self._mass2 + self._mass1 * (t - a), 0.0)
        m = np.abs(t) < a
        out[m] = self._bump_int2(t[m])
        return out

    # -- public evaluators; scalars in, scalars out ------------------------

    def value(self, t):
        """Kernel value; even in ``t`` bit-for-bit, zero for ``|t| >= support``."""
        t = np.abs(np.asarray(t, dtype=float))
        out = self._bump_cdf2(t + 1.0) - 2.0 * self._bump_cdf2(t) + self._bump_cdf2(t - 1.0)
        out = np.where(t >= self.spec.support, 0.0, out)
        return out if out.ndim else float(out)

    def second_derivative(self, t):
        """Second derivative; even in ``t``, zero for ``|t| >= support``."""
        t = np.abs(np.asarray(t, dtype=float))
        out = self._bump_eval(t + 1.0) - 2.0 * self._bump_eval(t) + self._bump_eval(t - 1.0)
        return out if out.ndim else float(out)

    # -- exact autocorrelations --------------------------------------------

    @property
    def breakpoints(self):
        """Boundaries of the polynomial pieces of the kernel."""
        a = self.spec.half_width
        return _sorted_unique([-1.0 - a, -a, 1.0 - a, a - 1.0, a, 1.0 + a])

    def _integrate_autocorrelation(self, shifts, f):
        """``int f(shift + r) f(r) dr`` per lag by Gauss-Legendre on each
        polynomial piece of the product (exact for polynomials of this degree).

        Lags with the same number of cuts are integrated as one (lags,
        segments, nodes) array, each lag summed along its own contiguous row;
        padding the cut lists to one length would change the summation bits.
        """
        w = self.spec.support
        deg = 2 * self.spec.exponent + 2          # degree of one kernel piece
        nodes, weights = np.polynomial.legendre.leggauss(deg + 2)
        breaks = self.breakpoints
        th = shifts.reshape(-1, 1)
        lo, hi = np.maximum(-w, -w - th), np.minimum(w, w - th)
        cuts = np.concatenate([lo, hi, np.broadcast_to(breaks, (th.size, breaks.size)),
                               breaks - th], axis=1)
        cuts = np.sort(np.clip(cuts, lo, hi), axis=1)
        # the distinct cuts of each lag, as _sorted_unique would give them
        keep = np.concatenate([np.ones_like(lo, dtype=bool), np.diff(cuts, axis=1) > 0], axis=1)
        count = keep.sum(axis=1)
        out = np.zeros(th.size)
        for n in _sorted_unique(count):
            rows = np.nonzero(count == n)[0]
            c = cuts[rows][keep[rows]].reshape(rows.size, n)
            mid = 0.5 * (c[:, :-1] + c[:, 1:])
            half = 0.5 * (c[:, 1:] - c[:, :-1])
            r = mid[..., None] + half[..., None] * nodes
            vals = f(r + th[rows, :, None]) * f(r) * (half[..., None] * weights)
            out[rows] = np.sum(vals.reshape(rows.size, -1), axis=1)
        return out.reshape(shifts.shape)

    def _autocorrelation_pieces(self, which):
        """Knots and stacked Chebyshev coefficients of one autocorrelation.

        Between consecutive knots (the lags ``|b_i - b_j|`` at which two
        kernel breakpoints meet) the autocorrelation is a polynomial of
        degree ``2 d + 1``, ``d`` being the degree of one piece of the
        correlated function, so interpolating the exact integral at
        ``2 d + 2`` Chebyshev points reproduces it.  Built on first use; a
        concurrent first use builds identical pieces twice.
        """
        pieces = self._pieces.get(which)
        if pieces is None:
            f = {"value": self.value, "d2": self.second_derivative}[which]
            d = 2 * self.spec.exponent + (2 if which == "value" else 0)
            b = self.breakpoints
            knots = _sorted_unique(np.abs(b[:, None] - b[None, :]))
            coef = np.stack([
                np.polynomial.Chebyshev.interpolate(
                    self._integrate_autocorrelation, 2 * d + 1, domain=[lo, hi], args=(f,)).coef
                for lo, hi in zip(knots[:-1], knots[1:])
            ], axis=1)                              # (2 d + 2, pieces)
            pieces = self._pieces[which] = (knots, coef)
        return pieces

    def autocorrelation(self, shift, which="value"):
        """Autocorrelation ``int f(shift + r) f(r) dr`` of ``f``.

        Parameters
        ----------
        shift : float or array_like
            Lag(s) at which to evaluate.
        which : {"value", "d2"}
            Correlate the kernel itself or its second derivative.

        Returns
        -------
        float or ndarray
            Exact piecewise-polynomial value per lag; even in ``shift``
            bit-for-bit and exactly zero for ``|shift| >= 2 * support``.
        """
        knots, coef = self._autocorrelation_pieces(which)
        lag = np.abs(np.asarray(shift, dtype=float))
        idx = np.minimum(np.searchsorted(knots, lag, side="right") - 1, knots.size - 2)
        lo, hi = knots[idx], knots[idx + 1]
        # clipping only absorbs rounding and keeps far lags finite
        x = np.clip((2.0 * lag - lo - hi) / (hi - lo), -1.0, 1.0)
        # Clenshaw recurrence, each lag with the coefficients of its piece
        x2 = 2.0 * x
        b1 = b2 = 0.0
        for row in coef[:0:-1]:
            b1, b2 = row[idx] + x2 * b1 - b2, b1
        out = np.where(lag >= knots[-1], 0.0, coef[0][idx] + x * b1 - b2)
        return out if out.ndim else float(out)
