import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.integrate import quad

from grf_tomo import Kernel, KernelSpec
from grf_tomo.kernel import _sorted_unique


def defining_integral(t, half_width, exponent):
    """Independent oracle: adaptive quadrature of the defining convolution."""
    a, l = half_width, exponent
    norm = 105.0 / (2.0 * a * 48.0) if l == 3 else None
    if norm is None:
        top = bot = 1
        for m in range(2 * l + 1, 0, -2):
            top *= m
        for m in range(2 * l, 0, -2):
            bot *= m
        norm = top / (2.0 * a * bot)
    val, _ = quad(
        lambda s: (1.0 - abs(s)) * max(0.0, 1.0 - ((t - s) / a) ** 2) ** l,
        -1.0, 1.0, limit=200, epsabs=1e-13,
    )
    return norm * val


def autocorrelation_by_quad(f, kernel, lag):
    """Independent oracle: adaptive quadrature of ``int f(lag + r) f(r) dr``,
    split where either factor changes polynomial piece."""
    w = kernel.spec.support
    lo, hi = max(-w, -w - lag), min(w, w - lag)
    if lo >= hi:
        return 0.0
    cuts = np.concatenate([kernel.breakpoints, kernel.breakpoints - lag])
    cuts = cuts[(cuts > lo) & (cuts < hi)]
    val, _ = quad(lambda r: f(r + lag) * f(r), lo, hi, points=cuts,
                  limit=200, epsabs=1e-14, epsrel=1e-13)
    return val


# sha256 of the knots and Chebyshev coefficients of both autocorrelations,
# taken from the per-lag integration loop.  The number of cuts varies within
# one knot interval for (1.7, 2); a change to the build must keep all four
GOLDEN_PIECES = {
    (2.5, 3): "6258e6b37ca2fb117dde447d7cd6e396e8527e0f9b62c771f6600c5c34bdb24c",
    (1.7, 2): "e805a152aa9fce6db90a7209fb8abff20dcb8decdbd4e9c87a3dfe8b57adf86f",
    (0.8, 5): "4ee95768fff47814855315f41614ded7a584efd4f20cf709ca70b0f5c31c7f9b",
    (2.5, 1): "19e7f8563fbc02b065311652c2aa4943ecf9a2d2be0feb38fb4f179dd57171d0",
}


def _repeating(dtype, values):
    """Arrays drawn from a small pool of ``values``, so values repeat."""
    return st.lists(values, min_size=1, max_size=6).flatmap(
        lambda pool: arrays(dtype, st.integers(0, 40), elements=st.sampled_from(pool)))


@settings(max_examples=200, deadline=None)
@given(values=_repeating(np.int64, st.integers(-2**63, 2**63 - 1))
       | _repeating(np.float64, st.floats(allow_nan=False).map(lambda v: v + 0.0)))
def test_sorted_unique_matches_numpy_unique(values):
    """``_sorted_unique`` gives the bits and dtype of ``np.unique``.

    NaN and -0.0 are left out (adding 0.0 turns -0.0 into +0.0): which of
    +0.0 and -0.0 ``np.unique`` keeps depends on the input order, and no
    caller passes either.
    """
    expected = np.unique(values)
    got = _sorted_unique(values)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


class TestSpec:
    def test_support_radius(self):
        assert KernelSpec(2.5, 3).support == 3.5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            KernelSpec(half_width=-1.0)
        with pytest.raises(ValueError):
            KernelSpec(exponent=0)
        # an infinite half-width would make a kernel that is 0 everywhere
        for width in (np.inf, np.nan):
            with pytest.raises(ValueError, match="half_width"):
                KernelSpec(half_width=width)
        # True compares as 1, so only a type check keeps it out
        for true in (True, np.True_):
            with pytest.raises(ValueError, match="half_width"):
                KernelSpec(half_width=true)
            with pytest.raises(ValueError, match="exponent"):
                KernelSpec(exponent=true)

    def test_smoothness_is_exponent_plus_one(self):
        assert KernelSpec(2.5, 3).smoothness == 4


class TestValue:
    def test_zero_outside_support(self, kernel):
        assert kernel.value(4.0) == 0.0
        assert kernel.value(-3.5) == 0.0
        assert np.all(kernel.value(np.linspace(3.5, 10, 50)) == 0.0)

    def test_matches_defining_integral(self, kernel):
        for t in [0.0, 0.3, 1.1, 2.0, 3.1]:
            assert_allclose(kernel.value(t), defining_integral(t, 2.5, 3),
                            rtol=0, atol=1e-10)

    def test_unit_mass(self, kernel):
        total, _ = quad(kernel.value, -3.5, 3.5,
                        points=kernel.breakpoints, limit=200, epsabs=1e-12)
        assert abs(total - 1.0) < 1e-8

    @pytest.mark.parametrize("half_width,exponent", [(1.7, 2), (0.8, 5), (2.5, 1)])
    def test_unit_mass_other_parameters(self, half_width, exponent):
        ker = Kernel(KernelSpec(half_width, exponent))
        w = ker.spec.support
        total, _ = quad(ker.value, -w, w, points=ker.breakpoints,
                        limit=200, epsabs=1e-12)
        assert abs(total - 1.0) < 1e-8
        for t in [0.0, 0.4 * w, 0.9 * w]:
            assert_allclose(ker.value(t), defining_integral(t, half_width, exponent),
                            rtol=0, atol=1e-10)

    @settings(deadline=None, max_examples=40)
    @given(half_width=st.floats(0.1, 5.0), exponent=st.integers(1, 8))
    def test_even_with_unit_mass(self, half_width, exponent):
        ker = Kernel(KernelSpec(half_width, exponent))
        t = np.linspace(0.0, 1.1 * ker.spec.support, 257)
        assert np.array_equal(ker.value(t), ker.value(-t))
        # each piece has degree 2 * exponent + 2, which exponent + 2
        # Gauss-Legendre nodes integrate exactly
        nodes, weights = np.polynomial.legendre.leggauss(exponent + 2)
        b = ker.breakpoints
        mid, half = 0.5 * (b[1:] + b[:-1]), 0.5 * (b[1:] - b[:-1])
        mass = np.sum(ker.value(mid[:, None] + half[:, None] * nodes) * half[:, None] * weights)
        assert abs(mass - 1.0) < 1e-13

    def test_even_bitwise(self, kernel):
        t = np.linspace(0.0, 4.0, 1001)
        assert np.array_equal(kernel.value(t), kernel.value(-t))
        assert np.array_equal(kernel.second_derivative(t),
                              kernel.second_derivative(-t))


class TestDerivatives:
    def test_second_derivative_zero_outside_support(self, kernel):
        assert kernel.second_derivative(3.5) == 0.0
        assert kernel.second_derivative(-7.0) == 0.0

    def test_second_derivative_integrates_to_zero(self, kernel):
        total, _ = quad(kernel.second_derivative, -3.5, 3.5,
                        points=kernel.breakpoints, limit=200, epsabs=1e-12)
        assert abs(total) < 1e-8

    def test_second_derivative_matches_central_differences(self, kernel):
        h = 1e-4
        t = np.linspace(-3.4, 3.4, 401)
        fd = (kernel.value(t + h) - 2 * kernel.value(t) + kernel.value(t - h)) / h**2
        assert np.max(np.abs(kernel.second_derivative(t) - fd)) < 1e-5

    def test_no_jump_across_piece_boundaries(self, kernel):
        # continuity of the second derivative at the polynomial seams
        h = 1e-3
        for b in kernel.breakpoints:
            jump = abs(kernel.second_derivative(b + h) - kernel.second_derivative(b - h))
            assert jump < 10.0 * h


class TestAutocorrelation:
    def test_zero_when_supports_disjoint(self, kernel):
        assert kernel.autocorrelation(8.0, "value") == 0.0
        assert kernel.autocorrelation(7.0, "d2") == 0.0
        assert kernel.autocorrelation(-7.5, "value") == 0.0

    def test_even(self, kernel):
        for shift in [0.3, 1.7, 2.9, 5.5]:
            for which in ("value", "d2"):
                assert_allclose(kernel.autocorrelation(shift, which),
                                kernel.autocorrelation(-shift, which),
                                rtol=0, atol=1e-14)

    def test_peak_positive_and_matches_trapezoid(self, kernel):
        # dual-quadrature oracle: refined trapezoid rule on the square
        peak = kernel.autocorrelation(0.0, "value")
        assert peak > 0
        for step in (1e-3, 5e-4):
            r = np.arange(-3.5, 3.5 + step / 2, step)
            trap = np.trapezoid(kernel.value(r) ** 2, r)
            assert abs(trap - peak) < 5e-7

    @pytest.mark.parametrize("half_width,exponent", [(2.5, 3), (1.7, 2), (0.8, 5), (2.5, 1)])
    def test_matches_adaptive_quadrature(self, half_width, exponent):
        # (0.8, 5) has a half-width below 1, where the breakpoints reorder
        ker = Kernel(KernelSpec(half_width, exponent))
        w = ker.spec.support
        b = ker.breakpoints
        knots = np.unique(np.abs(b[:, None] - b[None, :]))
        lags = np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:]),
                               np.random.default_rng(6).uniform(-2.0 * w, 2.0 * w, 8)])
        for which, f in (("value", ker.value), ("d2", ker.second_derivative)):
            oracle = [autocorrelation_by_quad(f, ker, lag) for lag in lags]
            assert_allclose(ker.autocorrelation(lags, which), oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("half_width,exponent", sorted(GOLDEN_PIECES))
    def test_golden_pieces_digest(self, half_width, exponent):
        ker = Kernel(KernelSpec(half_width, exponent))
        digest = hashlib.sha256()
        for which in ("value", "d2"):
            knots, coef = ker._autocorrelation_pieces(which)
            digest.update(knots.tobytes())
            digest.update(coef.tobytes())
        assert digest.hexdigest() == GOLDEN_PIECES[half_width, exponent]

    def test_cauchy_schwarz_bound(self, kernel):
        shifts = np.linspace(-7.0, 7.0, 141)
        for which in ("value", "d2"):
            peak = kernel.autocorrelation(0.0, which)
            vals = kernel.autocorrelation(shifts, which)
            assert np.all(np.abs(vals) <= peak + 1e-12)
