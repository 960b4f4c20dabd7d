import hashlib
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grf_tomo import (
    degeneracy_tolerance_scan,
    equidistributed_average,
    fit_log_slope,
    hessian_scan_battery,
    hessian_zero_scan,
    weyl_decay_table,
    weyl_sum,
)
from grf_tomo import cli
from conftest import (CENTER, OFFSET_A, OFFSET_B, Radon2DWithGradient,
                      assert_manifest_lists_outputs, hessian_zero_scan_reference,
                      write_reduced_check_config)


RADON = Radon2DWithGradient()


# sha256 of the ``check`` outputs on paper.json at reduced sample counts, with
# a source-plane point and an off-center point added to the Hessian battery;
# ``weyl.csv`` taken from the one-root-at-a-time bisection, ``checks.json``
# when the ellipse sample moved to the keyed hash.  A change to the analysis
# must keep both files
GOLDEN_CHECK = {
    "checks.json": "bbf3b56b4a361dc1a107e008b624d49a157278263f57e0067a0df5f57cfb5714",
    "weyl.csv": "8b0c0619476ae0524f5e6b65641bfd54125e8a0e4c0e1a2f0033d801b8e8be55",
}

# sha256 of the same ``checks.json`` without ``ellipse_identity.max_abs_residual``,
# as canonical ``json.dumps(report, sort_keys=True)``, taken while the ellipse
# sample still came from ``numpy.random``: every other field is independent of
# how that sample is drawn
GOLDEN_CHECK_WITHOUT_RESIDUAL = "6c42c74a65c90fac9d1ac7080e27579e304ece8a693e5b345bd01a2362aaedcd"


def test_golden_check_digests(tmp_path):
    config = write_reduced_check_config(tmp_path / "check.json")
    out = tmp_path / "out"
    assert cli.main(["check", "--config", config, "--out", str(out)]) == 0
    report = json.loads((out / "checks.json").read_text())
    del report["ellipse_identity"]["max_abs_residual"]
    canonical = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest() == GOLDEN_CHECK_WITHOUT_RESIDUAL
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_CHECK}
    assert digests == GOLDEN_CHECK
    assert_manifest_lists_outputs(out)


class TestHessianZeroScan:
    def test_radon_two_roots_for_off_center_point(self):
        x0 = np.array([2.0, 1.0])
        for xi in ([1.0], [3.7], [-0.4]):
            report = hessian_zero_scan(RADON, x0, xi, resolution=2000)
            assert not report.degenerate
            assert report.count == 2
            # zeros occur where the ray direction is orthogonal to x0
            for root in report.roots:
                assert abs(np.cos(root) * x0[0] + np.sin(root) * x0[1]) < 1e-8

    def test_radon_center_point_degenerate(self):
        report = hessian_zero_scan(RADON, [0.0, 0.0], [1.0], resolution=2000)
        assert report.degenerate

    def test_cone_beam_source_plane_degenerate(self, geometry):
        report = hessian_zero_scan(geometry, [1.0, 1.0, 0.0], [0.0, 1.0],
                                   resolution=2000)
        assert report.degenerate
        reports = hessian_scan_battery(
            geometry, [1.0, 1.0, 0.0],
            [[np.cos(a), np.sin(a)] for a in np.arange(8) * np.pi / 4],
        )
        assert any(r.degenerate for r in reports)

    def test_cone_beam_reference_point_stable_root_count(self, geometry):
        low = hessian_zero_scan(geometry, CENTER, [1.0, 0.0], resolution=2000)
        high = hessian_zero_scan(geometry, CENTER, [1.0, 0.0], resolution=4000)
        assert not low.degenerate
        assert low.count == high.count > 0
        battery = hessian_scan_battery(
            geometry, CENTER,
            [[np.cos(a), np.sin(a)] for a in np.arange(8) * np.pi / 4],
        )
        assert not any(r.degenerate for r in battery)

    def test_root_set_invariant_under_direction_scaling(self, geometry):
        base = hessian_zero_scan(geometry, CENTER, [0.3, 0.7], resolution=2000)
        scaled = hessian_zero_scan(geometry, CENTER, [1.5, 3.5], resolution=2000)
        assert base.count == scaled.count
        assert_allclose(base.roots, scaled.roots, atol=1e-9)

    @pytest.mark.parametrize("point", ["center", [1.0, 1.0, 0.0], [1.0, 2.0, -0.5], "radon"])
    def test_battery_matches_scalar_bisection(self, geometry, point):
        # the battery bisects every bracket at once; it may move a root only
        # at the rounding level (the scalar form dots two entries per step)
        if point == "radon":
            geometry, point, directions = RADON, [2.0, 1.0], [[1.0], [3.7], [-0.4]]
        else:
            point = CENTER if point == "center" else point
            directions = [[np.cos(a), np.sin(a)] for a in np.arange(8) * np.pi / 4]
        battery = hessian_scan_battery(geometry, point, directions)
        for direction, report in zip(directions, battery):
            roots, degenerate = hessian_zero_scan_reference(geometry, point, direction)
            assert report.degenerate == degenerate
            assert report.count == roots.size
            assert_allclose(report.roots, roots, rtol=0, atol=1e-7)
            single = hessian_zero_scan(geometry, point, direction)
            assert single.degenerate == report.degenerate
            assert single.max_abs == report.max_abs
            assert single.roots.tobytes() == report.roots.tobytes()
            assert single.direction.tobytes() == report.direction.tobytes()

    def test_rejects_bad_inputs(self, geometry):
        with pytest.raises(ValueError):
            hessian_zero_scan(geometry, CENTER, [0.0, 0.0])
        with pytest.raises(ValueError):
            hessian_zero_scan(geometry, CENTER, [1.0, 0.0], resolution=500)


class TestDirectionDegeneracy:
    def test_radon_fraction_scales_linearly(self):
        offset = np.array([1.0, 2.0])
        tols = [4e-2, 2e-2, 1e-2, 5e-3]
        fractions = degeneracy_tolerance_scan(RADON, [0.0, 0.0], offset, tols,
                                              samples=200000)
        # two simple zeros of a sinusoid: fraction ~ (2/pi) * tol
        for tol, frac in zip(tols, fractions):
            assert_allclose(frac, 2.0 * tol / np.pi, rtol=0.08)
        ratios = fractions[:-1] / fractions[1:]
        assert np.all((1.8 < ratios) & (ratios < 2.2))
        # the scan thresholds one Jacobian; each tolerance alone gives the same bits
        assert np.array_equal(fractions, [
            degeneracy_tolerance_scan(RADON, [0.0, 0.0], offset, [t], samples=200000)[0]
            for t in tols])

    def test_radon_fraction_vanishes_with_tolerance(self):
        frac = degeneracy_tolerance_scan(RADON, [0.0, 0.0], [0.3, -0.4], [1e-6],
                                         samples=50000)[0]
        assert frac < 1e-4

    def test_cone_beam_generic_offset_fraction_zero(self, geometry):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            offset = rng.normal(size=3)
            frac = degeneracy_tolerance_scan(geometry, CENTER, offset, [1e-3],
                                             samples=20000)[0]
            assert frac == 0.0

    def test_cone_beam_ray_aligned_offset(self, geometry):
        # an offset along the ray to one source position is killed there
        sstar = 1.0
        ray = np.asarray(CENTER) - geometry.source_position(sstar)
        tols = [2e-2, 1e-2, 5e-3]
        fractions = degeneracy_tolerance_scan(geometry, CENTER, ray, tols,
                                              samples=200000)
        assert fractions[0] > 0
        ratios = fractions[:-1] / fractions[1:]
        assert np.all((1.6 < ratios) & (ratios < 2.4))

    def test_offset_batch_matches_single_offsets(self, geometry):
        # one Jacobian serves all rows; each row keeps the bits of its own call
        ray = CENTER - geometry.source_position(1.0)
        offsets = np.array([OFFSET_A, OFFSET_B, ray])
        tols = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        batch = degeneracy_tolerance_scan(geometry, CENTER, offsets, tols)
        assert batch.shape == (3, 4)
        assert batch[2, 0] > 0
        for offset, row in zip(offsets, batch):
            single = degeneracy_tolerance_scan(geometry, CENTER, offset, tols)
            assert single.shape == (4,)
            assert single.tobytes() == row.tobytes()

    def test_rejects_bad_inputs(self, geometry):
        with pytest.raises(ValueError):
            degeneracy_tolerance_scan(geometry, CENTER, [0.0, 0.0, 0.0], [1e-3])
        with pytest.raises(ValueError):
            degeneracy_tolerance_scan(geometry, CENTER, [1.0, 0.0, 0.0], [1e-3],
                                      samples=100)
        with pytest.raises(ValueError, match="offset 1 is zero"):
            degeneracy_tolerance_scan(geometry, CENTER, [OFFSET_A, [0.0, 0.0, 0.0]], [1e-2])

    def test_fraction_invariant_under_offset_scaling(self, geometry):
        ray = np.asarray(CENTER) - geometry.source_position(2.0)
        a = degeneracy_tolerance_scan(geometry, CENTER, ray, [1e-2], 20000)[0]
        b = degeneracy_tolerance_scan(geometry, CENTER, 7.5 * ray, [1e-2], 20000)[0]
        assert a == b


class TestWeylSum:
    def test_integer_slope_resonance(self):
        for eps in (1e-2, 1e-3):
            value = weyl_sum(lambda y: 3.0 * y, eps, (0.2, 0.8))
            count = np.floor(0.8 / eps) - np.ceil(0.2 / eps) + 1
            assert_allclose(value, eps * count, rtol=1e-10)
            assert abs(value - 0.6) < 3 * eps

    def test_zero_phase_counts_points(self):
        eps = 1e-3
        value = weyl_sum(lambda y: np.zeros_like(y), eps, (0.2, 0.8))
        count = np.floor(0.8 / eps) - np.ceil(0.2 / eps) + 1
        assert value == eps * count

    def test_magnitude_bounded_by_point_count(self):
        for eps in (1e-2, 1e-3, 1e-4):
            value = weyl_sum(lambda y: np.sin(7.0 * y) / 3.0, eps, (0.2, 0.8))
            count = np.floor(0.8 / eps) - np.ceil(0.2 / eps) + 1
            assert abs(value) <= eps * count + 1e-12

    def test_quadratic_phase_decay_slope(self):
        decay = weyl_decay_table(lambda y: 0.5 * y**2, (0.2, 0.8))
        assert decay.slope <= -1.0 / 3.0 + 0.1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            weyl_sum(lambda y: y, -1.0, (0.0, 1.0))
        with pytest.raises(ValueError):
            weyl_sum(lambda y: y, 1e-2, (1.0, 0.0))
        # the sums run over one interval; a list of boxes is refused
        with pytest.raises(ValueError, match="one nondegenerate"):
            weyl_sum(lambda y: y, 1e-2, [(0.0, 1.0), (0.0, 0.5)])
        with pytest.raises(ValueError, match="one nondegenerate"):
            equidistributed_average(np.cos, lambda y: y, 1e-2, [(0.0, 1.0), (0.0, 0.5)])


class TestFitLogSlope:
    def test_exact_power_law(self):
        eps = 10.0 ** np.array([-2.0, -3.0, -4.0])
        mags = 3.0 * eps**0.5
        assert_allclose(fit_log_slope(eps, mags), -0.5, rtol=1e-12)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_log_slope([1e-2], [1.0])
        with pytest.raises(ValueError):
            fit_log_slope([1e-2, 1e-3], [1.0, 0.0])


class TestEquidistributedAverage:
    def test_constant_function_counts_volume(self):
        eps = 1e-3
        value = equidistributed_average(lambda r: np.ones_like(r),
                                        lambda y: 0.5 * y**2, eps, (0.2, 0.8))
        assert abs(value - 0.6) < 3 * eps
        # a constant integrand makes the average exactly step * point count
        count = np.floor(0.8 / eps) - np.ceil(0.2 / eps) + 1
        assert value == eps * count

    def test_cosine_squared_average(self):
        value = equidistributed_average(lambda r: np.cos(2 * np.pi * r) ** 2,
                                        lambda y: 0.5 * y**2, 1e-4, (0.2, 0.8))
        assert abs(value - 0.3) / 0.3 < 0.02

    def test_oscillatory_mean_vanishes(self):
        # frequency 1: phase slope stays off the integers, fast decay
        value = equidistributed_average(lambda r: np.cos(2 * np.pi * r),
                                        lambda y: 0.5 * y**2, 1e-4, (0.2, 0.8))
        assert abs(value) < 1e-3
        # frequency 2: the slope crosses an integer, so decay is slower
        # (square-root rate) but the average still has to shrink
        seq = [abs(equidistributed_average(lambda r: np.sin(4 * np.pi * r),
                                           lambda y: 0.5 * y**2, eps, (0.2, 0.8)))
               for eps in (1e-2, 1e-3, 1e-4)]
        assert seq[2] < 0.02
        assert seq[2] < seq[0] / 3.0
