"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[acceptance] criterion N: PASS/FAIL`` line (run with
``pytest -s`` to see them live).  The heavy Monte-Carlo run is shared across
the criteria that need it.
"""

import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from grf_tomo import (
    CovariancePredictor,
    Radon2DGeometry,
    ReconstructionPlan,
    degeneracy_tolerance_scan,
    density_mismatch,
    equidistributed_average,
    gaussian_on_bins,
    hessian_scan_battery,
    histogram_density,
    histogram_density_2d,
    load_config,
    weyl_decay_table,
)
from grf_tomo import kernel as kernel_mod
from grf_tomo.config import preset_path
from grf_tomo.recon import streaming_moments
from conftest import (
    CENTER,
    DELTA_S,
    EPS,
    N_VIEWS,
    OFFSET_A,
    OFFSET_B,
    admissible_points,
    detector_response,
    quad2d_response_correlation,
    reconstruct_with_field,
    with_overrides,
)

THREADS = os.cpu_count() or 1


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def replication_cfg():
    return load_config(preset_path("paper"))


@pytest.fixture(scope="module")
def fresh_prediction(replication_cfg):
    # a fresh Kernel builds its autocorrelation pieces on first use, so the
    # timing covers the full cold-start cost
    start = time.perf_counter()
    predictor = CovariancePredictor(
        replication_cfg.geometry, kernel_mod.Kernel(replication_cfg.kernel), replication_cfg.center,
        panels=replication_cfg.panels, tolerance=replication_cfg.tolerance)
    variance = predictor.variance()
    elapsed = time.perf_counter() - start
    return predictor, variance, elapsed


def reconstruct(cfg):
    """Monte-Carlo samples, one row per realization and one column per offset."""
    plan = ReconstructionPlan(cfg.geometry, cfg.kernel, cfg.noise, cfg.points)
    return plan.reconstruct(np.arange(cfg.realizations), threads=THREADS)


def timed_run(cfg):
    """The samples, their unbiased sample covariance and the seconds both took."""
    start = time.perf_counter()
    samples = reconstruct(cfg)
    count, _, com = streaming_moments(samples)
    return samples, com / (count - 1), time.perf_counter() - start


@pytest.fixture(scope="module")
def replication_run(replication_cfg):
    return timed_run(replication_cfg)


@pytest.fixture(scope="module")
def ci_run():
    return timed_run(load_config(preset_path("ci")))


def test_criterion_1_predicted_variance(fresh_prediction):
    _, variance, elapsed = fresh_prediction
    ok = abs(variance - 0.485) <= 0.002 and elapsed < 10.0
    report(1, ok, f"C(0) = {variance:.6f} (target 0.485 +/- 0.002), "
                  f"cold prediction took {elapsed:.2f}s (< 10s)")


def test_criterion_2_predicted_cross_covariance(fresh_prediction):
    predictor = fresh_prediction[0]
    value = predictor.covariance(OFFSET_A - OFFSET_B)
    ok = abs(value - 0.011) <= 0.002
    report(2, ok, f"C(offset difference) = {value:.6f} (target 0.011 +/- 0.002)")


def test_criterion_3_monte_carlo_variance(replication_run, ci_run):
    _, covariance, elapsed = replication_run
    variance = covariance[2, 2]           # zero offset is third in the preset
    rel = abs(variance / 0.485 - 1.0)
    _, ci_covariance, ci_elapsed = ci_run
    ci_variance = ci_covariance[2, 2]
    ci_rel = abs(ci_variance / 0.485 - 1.0)
    ok = (rel <= 0.03 and elapsed < 900.0
          and ci_rel <= 0.08 and ci_elapsed < 60.0)
    report(3, ok,
           f"sample variance {variance:.4f} at 2e4 realizations "
           f"({100 * rel:.2f}% from 0.485, {elapsed:.0f}s); "
           f"CI preset {ci_variance:.4f} "
           f"({100 * ci_rel:.2f}%, {ci_elapsed:.1f}s)")


def test_criterion_4_covariance_matrix_mismatch(replication_run, fresh_prediction):
    _, covariance, _ = replication_run
    predictor = fresh_prediction[0]
    predicted = predictor.covariance_matrix([OFFSET_A, OFFSET_B])
    observed = covariance[:2, :2]
    mismatch = np.sum(np.abs(observed - predicted)) / np.sum(np.abs(predicted))
    ok = mismatch <= 0.06
    report(4, ok, f"covariance l1 mismatch {mismatch:.4f} (<= 0.06); "
                  f"observed diag {observed[0, 0]:.4f}/{observed[1, 1]:.4f}, "
                  f"off-diag {observed[0, 1]:.4f}")


def test_criterion_5_pdf_mismatches(replication_run, fresh_prediction):
    samples = replication_run[0]
    predictor = fresh_prediction[0]
    c0 = predictor.variance()

    hist1 = histogram_density(samples[:, 2], bins=21)
    pdf1 = gaussian_on_bins(0.0, c0, hist1)
    mismatch1 = density_mismatch(hist1.density, pdf1)

    predicted = predictor.covariance_matrix([OFFSET_A, OFFSET_B])
    hist2 = histogram_density_2d(samples[:, :2], bins=21)
    pdf2 = gaussian_on_bins(np.zeros(2), predicted, hist2)
    mismatch2 = density_mismatch(hist2.density, pdf2)

    ok = mismatch1 <= 0.04 and mismatch2 <= 0.12
    report(5, ok, f"1D mismatch {mismatch1:.4f} (<= 0.04, 21 bins), "
                  f"2D mismatch {mismatch2:.4f} (<= 0.12, 21x21 bins)")


def test_criterion_6_geometry_identities(geometry):
    rng = np.random.default_rng(2024)
    pts = admissible_points(geometry, rng, 10**4)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=10**4)
    residual = np.max(np.abs(geometry.ellipse_residual(pts, angles)))
    residual_ok = residual < 1e-10 * geometry.radius**4

    grad = geometry.project_gradient(pts, angles)
    h = 1e-6
    fd = np.empty_like(grad)
    for axis in range(3):
        delta = np.zeros(3)
        delta[axis] = h
        up = np.stack(geometry.project(pts + delta, angles), axis=-1)
        dn = np.stack(geometry.project(pts - delta, angles), axis=-1)
        fd[..., axis] = (up - dn) / (2.0 * h)
    scale = np.max(np.abs(grad), axis=(-2, -1), keepdims=True)
    grad_err = np.max(np.abs(grad - fd) / scale)
    grad_ok = grad_err < 1e-6

    report(6, residual_ok and grad_ok,
           f"max |ellipse residual| {residual:.2e} (< {1e-10 * geometry.radius**4:.0e}), "
           f"Jacobian vs finite differences {grad_err:.2e} (< 1e-6), 1e4 samples")


def test_criterion_7_kernel_integrals(kernel):
    mass, _ = quad(kernel.value, -kernel.spec.support, kernel.spec.support,
                   points=kernel.breakpoints, limit=200, epsabs=1e-12)
    d2_mass, _ = quad(kernel.second_derivative, -kernel.spec.support,
                      kernel.spec.support, points=kernel.breakpoints,
                      limit=200, epsabs=1e-12)
    rng = np.random.default_rng(7)
    worst = 0.0
    factorized = lambda th: kernel.autocorrelation(th[0], "d2") \
        * kernel.autocorrelation(th[1], "value")
    for theta in rng.uniform(-6.5, 6.5, size=(20, 2)):
        worst = max(worst, abs(factorized(theta)
                               - quad2d_response_correlation(kernel, theta)))
    ok = abs(mass - 1.0) < 1e-8 and abs(d2_mass) < 1e-8 and worst < 1e-6
    report(7, ok, f"kernel mass {mass:.12f} (1 +/- 1e-8), second-derivative "
                  f"mass {d2_mass:.2e} (0 +/- 1e-8), factorized vs 2D "
                  f"quadrature max err {worst:.2e} (< 1e-6, 20 points)")


def test_criterion_8_property_suite(geometry, kernel, noise_model, fresh_prediction):
    predictor = fresh_prediction[0]
    rng = np.random.default_rng(8)
    checks = []

    # evenness and Cauchy-Schwarz of the autocorrelations
    shifts = rng.uniform(-7, 7, size=50)
    for which in ("value", "d2"):
        vals = kernel.autocorrelation(shifts, which)
        mirrored = kernel.autocorrelation(-shifts, which)
        peak = kernel.autocorrelation(0.0, which)
        checks.append(np.max(np.abs(vals - mirrored)) < 1e-13)
        checks.append(np.all(np.abs(vals) <= peak + 1e-12))

    # evenness and boundedness of the covariance
    c0 = predictor.variance()
    thetas = rng.uniform(-8, 8, size=(100, 3))
    cov_vals = np.array([predictor.covariance(t) for t in thetas])
    cov_mirror = np.array([predictor.covariance(-t) for t in thetas])
    checks.append(np.max(np.abs(cov_vals - cov_mirror)) < 1e-12)
    checks.append(np.all(np.abs(cov_vals) <= c0 + 1e-10))

    # linearity and unit-impulse response of the reconstruction
    fa = lambda j, k1, k2: noise_model.sample(0, j, k1, k2)
    fb = lambda j, k1, k2: noise_model.sample(1, j, k1, k2)
    fsum = lambda j, k1, k2: fa(j, k1, k2) + fb(j, k1, k2)
    ra = reconstruct_with_field(geometry, kernel, EPS, DELTA_S, N_VIEWS, CENTER, fa)
    rb = reconstruct_with_field(geometry, kernel, EPS, DELTA_S, N_VIEWS, CENTER, fb)
    rsum = reconstruct_with_field(geometry, kernel, EPS, DELTA_S, N_VIEWS, CENTER, fsum)
    checks.append(abs(rsum - (ra + rb)) <= 1e-10 * max(1.0, abs(rsum)))

    u17, v17 = geometry.project(CENTER, 17 * DELTA_S)
    k1s, k2s = int(round(u17 / EPS)) + 1, int(round(v17 / EPS))
    impulse = lambda j, k1, k2: np.where((j == 17) & (k1 == k1s) & (k2 == k2s), 1.0, 0.0)
    rimp = reconstruct_with_field(geometry, kernel, EPS, DELTA_S, N_VIEWS, CENTER, impulse)
    expected = DELTA_S * detector_response(geometry, kernel, EPS, CENTER,
                                           17 * DELTA_S, EPS * k1s, EPS * k2s)
    checks.append(abs(rimp - expected) <= 1e-12 * max(1.0, abs(expected)))

    # bitwise determinism across thread counts
    plan = ReconstructionPlan(geometry, kernel, noise_model,
                              [CENTER, CENTER + EPS * OFFSET_A])
    r = np.arange(200)
    base = plan.reconstruct(r, threads=1)
    checks.append(np.array_equal(base, plan.reconstruct(r, threads=2)))
    checks.append(np.array_equal(base, plan.reconstruct(r, threads=THREADS)))

    ok = all(checks)
    report(8, ok, f"{sum(checks)}/{len(checks)} property checks passed "
                  "(evenness, Cauchy-Schwarz, covariance bound, linearity, "
                  "impulse, thread-count determinism)")


def test_criterion_9_equidistribution():
    decay = weyl_decay_table(lambda y: 0.5 * y**2, (0.2, 0.8))
    slope_ok = decay.slope <= -1.0 / 3.0 + 0.1
    average = equidistributed_average(lambda r: np.cos(2 * np.pi * r) ** 2,
                                      lambda y: 0.5 * y**2, 1e-4, (0.2, 0.8))
    avg_ok = abs(average - 0.3) / 0.3 <= 0.02
    report(9, slope_ok and avg_ok,
           f"decay slope {decay.slope:.3f} (<= {-1/3 + 0.1:.3f}, six steps), "
           f"periodic average {average:.5f} (0.3 +/- 2%)")


def test_criterion_10_assumption_checks(geometry):
    radon = Radon2DGeometry()
    radon_ok = all(
        hessian_scan_battery(radon, x0, [[1.0]], resolution=2000)[0].count == 2
        for x0 in ([2.0, 1.0], [-1.0, 3.0], [0.5, -0.5])
    )

    directions = [[np.cos(a), np.sin(a)] for a in np.arange(8) * np.pi / 4]
    in_plane = [[1.0, 1.0, 0.0], [2.7, -3.1, 0.0], [-4.0, 0.3, 0.0]]
    off_plane = [CENTER, [1.0, 1.0, 0.5], [0.0, 2.0, -1.0]]
    flagged = all(any(r.degenerate for r in
                      hessian_scan_battery(geometry, p, directions))
                  for p in in_plane)
    clean = not any(any(r.degenerate for r in
                        hessian_scan_battery(geometry, p, directions))
                    for p in off_plane)

    ray = np.asarray(CENTER) - geometry.source_position(1.0)
    tols = np.array([2e-2, 1e-2, 5e-3, 2.5e-3])
    fractions = degeneracy_tolerance_scan(geometry, CENTER, ray, tols,
                                          samples=200000)
    ratios = fractions[:-1] / fractions[1:]
    linear_ok = fractions[-1] > 0 and np.all((1.6 < ratios) & (ratios < 2.4))

    ok = radon_ok and flagged and clean and linear_ok
    report(10, ok,
           f"radon root count 2 on battery: {radon_ok}; cone-beam degeneracy "
           f"flag exactly on source-plane points: {flagged and clean}; "
           f"degeneracy fraction halves with tolerance: {np.round(ratios, 2)}")


def test_epsilon_refinement_trend(replication_cfg, fresh_prediction):
    # halving the step with 10^3 realizations must not push the 1D PDF
    # mismatch beyond its stochastic band
    predictor = fresh_prediction[0]
    c0 = predictor.variance()
    n = 1000

    def mismatch_at(eps_value):
        cfg = with_overrides(replication_cfg, eps=eps_value, realizations=n)
        hist = histogram_density(reconstruct(cfg)[:, 2], bins=21)
        return density_mismatch(hist.density, gaussian_on_bins(0.0, c0, hist))

    coarse = mismatch_at(EPS)
    fine = mismatch_at(EPS / 2.0)
    # standard error of the l1 mismatch statistic at n realizations
    band = 3.0 * np.sqrt(2.0 * (1.0 - 2.0 / np.pi) / n)
    ok = fine - coarse <= band
    report("trend", ok,
           f"1D mismatch {coarse:.4f} at step {EPS} vs {fine:.4f} at "
           f"{EPS / 2} ({n} realizations, band {band:.4f})")


def test_monte_carlo_converges_toward_prediction(replication_run, fresh_prediction):
    # the covariance mismatch must shrink as realizations grow (1e3 vs 2e4);
    # the first 10^3 realizations of the shared run are exactly the 10^3 run
    samples = replication_run[0]
    predictor = fresh_prediction[0]
    predicted = predictor.covariance_matrix([OFFSET_A, OFFSET_B])

    def mismatch(samples):
        count, _, com = streaming_moments(samples)
        observed = (com / (count - 1))[:2, :2]
        return np.sum(np.abs(observed - predicted)) / np.sum(np.abs(predicted))

    small = mismatch(samples[:1000])
    big = mismatch(samples)
    ok = big < small
    report("convergence", ok,
           f"covariance mismatch {small:.4f} at 1e3 -> {big:.4f} at 2e4")
