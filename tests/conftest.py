import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from grf_tomo import (ConeBeamGeometry, Kernel, KernelSpec, NoiseModel, Radon2DGeometry,
                      ReconstructionPlan)
from grf_tomo.config import preset_path
from grf_tomo.geometry import _normalize_angle

# reference experiment layout used across the suite
CENTER = np.array([2.7, -3.1, 0.8])
OFFSET_A = np.array([2.159, 3.075, -0.418])
OFFSET_B = np.array([2.546, -2.974, 0.983])
EPS = 0.05
N_VIEWS = 500
DELTA_S = 2.0 * np.pi / N_VIEWS

# a failing property test prints a blob that replays it with
# @reproduce_failure: a printed example can lose the failure, as two floats
# one apart print alike.  Every other setting keeps hypothesis's default
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")

# the pytest pythonpath setting does not reach a subprocess, which gets this
# checkout's sources through PYTHONPATH instead
SRC = str(Path(__file__).resolve().parents[1] / "src")


class Radon2DWithGradient(Radon2DGeometry):
    """The 2D Radon model with the Jacobian that ``degeneracy_tolerance_scan``
    reads; only the tests run that scan on it."""

    def project_gradient(self, x, alpha):
        """Jacobian ``(cos a, sin a)`` of the signed distance, shape (..., 1, 2)."""
        alpha = _normalize_angle(alpha)
        shape = np.broadcast_shapes(np.shape(np.asarray(x)[..., 0]), np.shape(alpha))
        grad = np.zeros(shape + (1, 2))
        grad[..., 0, 0] = np.cos(alpha)
        grad[..., 0, 1] = np.sin(alpha)
        return grad


@pytest.fixture(scope="session")
def geometry():
    return ConeBeamGeometry(radius=10.0)


@pytest.fixture(scope="session")
def kernel():
    return Kernel(KernelSpec(half_width=2.5, exponent=3))


@pytest.fixture(scope="session")
def noise_model():
    return NoiseModel(eps=EPS, n_views=N_VIEWS, seed=20240601)


def write_reduced_check_config(path):
    """Write paper.json with its check sample counts cut, so that ``check``
    runs in about a second, and with a source-plane point and an off-center
    point added to the Hessian battery.  Returns ``str(path)``."""
    with open(preset_path("paper")) as fh:
        data = json.load(fh)
    data["checks"].update(ellipse_samples=2000, degeneracy_samples=10000,
                          hessian_resolution=1000,
                          hessian_points=[data["experiment"]["center"], [1.0, 1.0, 0.0],
                                          [1.0, 2.0, -0.5]])
    path.write_text(json.dumps(data))
    return str(path)


def assert_manifest_lists_outputs(out):
    """The manifest in the output directory ``out`` (a ``pathlib.Path``)
    lists exactly the other files in it, sorted."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(p.name for p in out.iterdir()
                                         if p.name != "manifest.json")


def admissible_points(geometry, rng, count, z_range=(-3.0, 3.0)):
    """Random points inside the admissible cylinder."""
    rho = geometry.admissible_fraction * geometry.radius * np.sqrt(rng.uniform(size=count))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    z = rng.uniform(*z_range, size=count)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)


def quad2d_response_correlation(kernel, theta):
    """Independent oracle: tensor Gauss-Legendre quadrature of the full 2D
    correlation integral of the response, with cells aligned to the
    polynomial seams of both factors."""
    w = kernel.spec.support
    deg = 2 * kernel.spec.exponent + 2
    nodes, weights = np.polynomial.legendre.leggauss(deg + 2)

    def axis_nodes(shift):
        lo, hi = max(-w, -w - shift), min(w, w - shift)
        if lo >= hi:
            return None, None
        cuts = np.unique(np.clip(np.concatenate(
            [[lo, hi], kernel.breakpoints, kernel.breakpoints - shift]), lo, hi))
        mid = 0.5 * (cuts[:-1] + cuts[1:])
        half = 0.5 * (cuts[1:] - cuts[:-1])
        return (mid[:, None] + half[:, None] * nodes[None, :]).ravel(), \
               (half[:, None] * weights[None, :]).ravel()

    r1, w1 = axis_nodes(theta[0])
    r2, w2 = axis_nodes(theta[1])
    if r1 is None or r2 is None:
        return 0.0
    resp = lambda a, b: kernel.second_derivative(a) * kernel.value(b)
    grid = resp(theta[0] + r1[:, None], theta[1] + r2[None, :]) \
        * resp(r1[:, None], r2[None, :])
    return float(w1 @ grid @ w2)


def detector_response(geometry, kernel, eps, x, s, u_prime, v_prime):
    """Response of the filtered interpolation to a unit datum at ``(u', v')``.

    Equals ``(1/eps^2) * d2((u - u')/eps) * value((v - v')/eps)`` where
    ``(u, v)`` is the projection of ``x`` at angle ``s``.  The reconstruction
    is ``delta_s`` times the sum of this response against the noise over all
    data sites.
    """
    u, v = geometry.project(x, s)
    out = kernel.second_derivative((u - u_prime) / eps) \
        * kernel.value((v - v_prime) / eps) / eps**2
    return out if np.ndim(out) else float(out)


def reconstruct_point(geometry, kernel, noise_model, realization, point):
    """Reconstruction value at one point for one realization."""
    plan = ReconstructionPlan(geometry, kernel, noise_model, [point])
    return float(plan.reconstruct([realization])[0, 0])


def reconstruct_with_field(geometry, kernel, eps, delta_s, n_views, point, field):
    """Oracle: view-by-view reconstruction against an arbitrary noise field.

    ``field(j, k1, k2)`` receives broadcastable integer index arrays and
    returns the noise values; the reconstruction is linear in it.
    """
    if not isinstance(kernel, Kernel):
        kernel = Kernel(kernel)
    support = kernel.spec.support
    x = np.asarray(point, dtype=float)
    total = 0.0
    for j in range(n_views):
        u, v = geometry.project(x, j * delta_s)
        # a window one index wider than the support on each side; the kernel
        # and its second derivative are exactly 0 on the extra cells
        k1 = np.arange(int(np.floor(u / eps - support)) - 1, int(np.ceil(u / eps + support)) + 2)
        k2 = np.arange(int(np.floor(v / eps - support)) - 1, int(np.ceil(v / eps + support)) + 2)
        w = kernel.second_derivative(u / eps - k1)[:, None] \
            * kernel.value(v / eps - k2)[None, :]
        total += float(np.sum(w * field(j, k1[:, None], k2[None, :])))
    return delta_s / eps**2 * total


def hessian_zero_scan_reference(geometry, x0, direction, resolution=2000,
                                degenerate_tol=1e-9):
    """Oracle: the one-direction Hessian scan with a scalar bisection, one
    root at a time.  Returns ``(roots, degenerate)``."""
    direction = np.asarray(direction, dtype=float).ravel()
    direction = direction / np.linalg.norm(direction)
    period = geometry.parameter_period
    x0 = np.asarray(x0, dtype=float)

    def second_difference(y):
        fn = lambda t: geometry.projection(x0, t) @ direction
        return (fn(y + h) - 2.0 * fn(y) + fn(y - h)) / h**2

    step = period / resolution
    h = 0.1 * step
    grid = np.arange(resolution) * step
    d2 = second_difference(grid)
    if float(np.max(np.abs(d2))) <= degenerate_tol:
        return np.array([]), True
    vals = np.append(d2, d2[0])
    ys = np.append(grid, period)
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        a, b = ys[i], ys[i + 1]
        fa = second_difference(a)
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = second_difference(m)
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
            if b - a < 1e-13 * period:
                break
        roots.append(0.5 * (a + b) % period)
    roots = np.unique(np.concatenate([np.asarray(roots), grid[d2 == 0.0]]))
    return roots, False
