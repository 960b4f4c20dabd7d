import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grf_tomo import CovariancePredictor, QuadratureConvergenceError
from conftest import CENTER, OFFSET_A, OFFSET_B, quad2d_response_correlation


@pytest.fixture(scope="module")
def predictor(geometry, kernel):
    return CovariancePredictor(geometry, kernel, CENTER)


class TestResponseProfile:
    def test_zero_outside_support(self, predictor):
        assert predictor.response_profile([3.6, 0.0]) == 0.0
        assert predictor.response_profile([0.0, -3.5]) == 0.0

    def test_even(self, predictor):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-3, 3, size=(20, 2)):
            assert_allclose(predictor.response_profile(theta),
                            predictor.response_profile(-theta), rtol=0, atol=0)

    def test_center_value_matches_kernel(self, predictor, kernel):
        assert_allclose(predictor.response_profile([0.0, 0.0]),
                        kernel.second_derivative(0.0) * kernel.value(0.0),
                        rtol=0, atol=0)


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

    def test_panel_refinement_converged(self, predictor):
        base = predictor.covariance(np.zeros(3), panels=2000)
        fine = predictor.covariance(np.zeros(3), panels=4000)
        assert abs(fine - base) < 1e-5

    def test_vanishes_for_large_offsets(self, predictor):
        assert predictor.covariance([500.0, 0.0, 0.0]) == 0.0
        assert predictor.covariance([0.0, 400.0, 300.0]) == 0.0

    def test_unreachable_tolerance_raises(self, geometry, kernel):
        strict = CovariancePredictor(geometry, kernel, CENTER,
                                     panels=1, tolerance=0.0)
        with pytest.raises(QuadratureConvergenceError):
            strict.covariance(np.zeros(3))

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
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
