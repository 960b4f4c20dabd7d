import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from grf_tomo import CovariancePredictor, QuadratureConvergenceError
from conftest import CENTER, OFFSET_A, OFFSET_B, SRC, quad2d_response_correlation


@pytest.fixture(scope="module")
def predictor(geometry, kernel):
    return CovariancePredictor(geometry, kernel, CENTER)


@pytest.fixture(scope="module")
def coarse(geometry, kernel):
    # so few panels that entries settle after different numbers of doublings
    return CovariancePredictor(geometry, kernel, CENTER, panels=8, tolerance=1e-4)


PAPER_OFFSETS = np.array([OFFSET_A, OFFSET_B, [0.0, 0.0, 0.0]])

# sha256 of the predictions, taken from the per-entry integration loop.  At 8
# panels two of the four paper entries settle one doubling later than the
# other two; a change to the quadrature must keep all three
GOLDEN_PREDICTION = {
    "matrix": "501d349251d786c6d30327d8da584eefa38344e5cdfd69b985d98e6229f3a937",
    "profile": "233356e5b20c2946f0151f83f74ef32f8e8d9e3fb002ba911b6e9d3b5c00834a",
    "coarse_matrix": "142965095a3caaea66aef9c60c1c9139da5940a818423c02b8a096bacc97870e",
}


def test_golden_prediction_digests(predictor, coarse):
    outputs = {
        "matrix": predictor.covariance_matrix(PAPER_OFFSETS),
        "profile": predictor.covariance_profile([0.3, 1.0, -0.5], np.linspace(-3, 3, 17)),
        "coarse_matrix": coarse.covariance_matrix(PAPER_OFFSETS),
    }
    digests = {key: hashlib.sha256(value.tobytes()).hexdigest()
               for key, value in outputs.items()}
    assert digests == GOLDEN_PREDICTION


_coordinate = st.floats(-3.0, 3.0)
_offset = st.tuples(_coordinate, _coordinate, _coordinate)


@settings(max_examples=30, deadline=None)
@given(offsets=st.lists(_offset, min_size=2, max_size=4),
       radii=st.lists(_coordinate, min_size=1, max_size=4))
def test_batched_entries_match_single_calls(coarse, offsets, radii):
    offsets = np.array(offsets)
    matrix = coarse.covariance_matrix(offsets)
    for a, b in np.ndindex(matrix.shape):
        assert matrix[a, b] == coarse.covariance(offsets[a] - offsets[b])
    assert np.array_equal(matrix, matrix.T)
    # entries may settle at different panel counts, each within the tolerance
    assert np.all(np.abs(matrix) <= matrix[0, 0] + coarse.tolerance)
    direction = offsets[0]
    profile = coarse.covariance_profile(direction, radii)
    assert profile.tolist() == [coarse.covariance(r * direction) for r in radii]


class TestResponseAutocorrelation:
    def test_center_value(self, predictor, kernel):
        expected = kernel.autocorrelation(0.0, "d2") * kernel.autocorrelation(0.0, "value")
        assert expected > 0
        assert_allclose(predictor.response_autocorrelation([0.0, 0.0]),
                        expected, rtol=1e-9)

    def test_even(self, predictor):
        rng = np.random.default_rng(1)
        for theta in rng.uniform(-6, 6, size=(20, 2)):
            assert_allclose(predictor.response_autocorrelation(theta),
                            predictor.response_autocorrelation(-theta),
                            rtol=0, atol=1e-12)

    def test_matches_full_2d_quadrature(self, predictor, kernel):
        rng = np.random.default_rng(3)
        thetas = rng.uniform(-6.5, 6.5, size=(20, 2))
        for theta in thetas:
            oracle = quad2d_response_correlation(kernel, theta)
            assert abs(predictor.response_autocorrelation(theta) - oracle) < 1e-6


class TestCovariance:
    def test_variance_matches_reported_value(self, predictor):
        assert abs(predictor.variance() - 0.485) <= 0.002

    def test_cross_covariance_matches_reported_value(self, predictor):
        value = predictor.covariance(OFFSET_A - OFFSET_B)
        assert abs(value - 0.011) <= 0.002

    def test_even_in_offset(self, predictor):
        rng = np.random.default_rng(4)
        for theta in rng.uniform(-4, 4, size=(10, 3)):
            assert_allclose(predictor.covariance(theta),
                            predictor.covariance(-theta), rtol=0, atol=1e-12)

    def test_bounded_by_center_value(self, predictor):
        rng = np.random.default_rng(5)
        peak = predictor.variance()
        for theta in rng.uniform(-10, 10, size=(100, 3)):
            assert abs(predictor.covariance(theta)) <= peak + 1e-10

    def test_panel_refinement_converged(self, geometry, kernel):
        base = CovariancePredictor(geometry, kernel, CENTER, panels=2000).variance()
        fine = CovariancePredictor(geometry, kernel, CENTER, panels=4000).variance()
        assert abs(fine - base) < 1e-5

    def test_vanishes_for_large_offsets(self, predictor):
        assert predictor.covariance([500.0, 0.0, 0.0]) == 0.0
        assert predictor.covariance([0.0, 400.0, 300.0]) == 0.0

    def test_unreachable_tolerance_raises(self, geometry, kernel):
        strict = CovariancePredictor(geometry, kernel, CENTER,
                                     panels=1, tolerance=0.0)
        with pytest.raises(QuadratureConvergenceError):
            strict.covariance(np.zeros(3))
        # the far entry is exactly zero at every panel count and settles
        with pytest.raises(QuadratureConvergenceError,
                           match=r"by 8 panels at offset \[0\.5, 0\.0, 0\.0\]$"):
            strict.covariance_profile([1.0, 0.0, 0.0], [500.0, 0.5])

    def test_inadmissible_center_rejected(self, geometry, kernel):
        with pytest.raises(ValueError):
            CovariancePredictor(geometry, kernel, [9.5, 0.0, 0.5])


class TestCovarianceMatrix:
    def test_reported_two_point_matrix(self, predictor):
        matrix = predictor.covariance_matrix([OFFSET_A, OFFSET_B])
        assert_allclose(matrix, [[0.485, 0.011], [0.011, 0.485]],
                        rtol=0, atol=2e-3)
        assert matrix[0, 0] == matrix[1, 1]
        assert matrix[0, 1] == matrix[1, 0]

    def test_single_offset(self, predictor):
        matrix = predictor.covariance_matrix([[0.0, 0.0, 0.0]])
        assert matrix.shape == (1, 1)
        assert_allclose(matrix[0, 0], predictor.variance(), rtol=1e-12)

    def test_symmetric_positive_semidefinite(self, predictor):
        offsets = np.array([OFFSET_A, OFFSET_B, [0.0, 0.0, 0.0]])
        matrix = predictor.covariance_matrix(offsets)
        assert np.array_equal(matrix, matrix.T)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert np.min(eigenvalues) >= -1e-8 * matrix[0, 0]

    def test_depends_only_on_offset_differences(self, predictor):
        shift = np.array([1.0, -2.0, 0.5])
        base = predictor.covariance_matrix([OFFSET_A, OFFSET_B])
        moved = predictor.covariance_matrix([OFFSET_A + shift, OFFSET_B + shift])
        assert_allclose(moved, base, rtol=1e-10)


def test_prediction_does_not_import_scipy():
    code = "\n".join([
        "import sys",
        "import grf_tomo.cli",
        "from grf_tomo import ConeBeamGeometry, CovariancePredictor, KernelSpec",
        "p = CovariancePredictor(ConeBeamGeometry(radius=10.0), KernelSpec(), [2.7, -3.1, 0.8])",
        "p.variance()",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
