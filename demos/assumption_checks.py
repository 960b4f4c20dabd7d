#!/usr/bin/env python3
"""Executable checks of the geometric conditions behind the covariance limit.

Three checks qualify an expansion point:

* the projected orbit of a point with x3 != 0 satisfies an exact algebraic
  identity (it is an ellipse on the detector), verified here on random
  admissible points;
* the Hessian of each scalar projection component must vanish at only
  finitely many source angles; a point in the source plane (x3 = 0) fails
  this with an identically vanishing component, and the scan flags it;
* the directional derivative of the projection map may vanish only on a
  parameter set of measure zero, estimated by the fraction of angles where
  it nearly vanishes, which must shrink linearly with the tolerance.

Run:
    python demos/assumption_checks.py
"""

import numpy as np

from grf_tomo import (
    Radon2DGeometry,
    degeneracy_tolerance_scan,
    hessian_scan_battery,
    hessian_zero_scan,
    load_config,
)
from grf_tomo.config import preset_path

# geometry and center of the bundled paper preset
config = load_config(preset_path("paper"))
geometry = config.geometry
center = config.center

# --- projected-orbit identity ------------------------------------------------
count = 5000
res = geometry.ellipse_residual(*geometry.ellipse_sample(count, seed=7))
print(f"projected-orbit identity over {count} random points: "
      f"max |residual| = {np.max(np.abs(res)):.2e} (scale R^4 = {geometry.radius**4:.0f})")

# --- Hessian zero scans --------------------------------------------------
directions = [[np.cos(a), np.sin(a)] for a in np.arange(8) * np.pi / 4]
for point in (center.tolist(), [1.0, 1.0, 0.0]):
    reports = hessian_scan_battery(geometry, point, directions)
    flagged = [r for r in reports if r.degenerate]
    if flagged:
        print(f"\npoint {point}: DEGENERATE for detector direction "
              f"{flagged[0].direction.round(3)} (lies in the source plane)")
    else:
        counts = sorted({r.count for r in reports})
        print(f"\npoint {point}: nondegenerate; Hessian roots per direction: "
              f"{counts}")

# the classical 2D model: always exactly two roots for an off-center point
report = hessian_zero_scan(Radon2DGeometry(), [2.0, 1.0], [1.0])
print(f"\n2D parallel-beam model at (2, 1): {report.count} Hessian zeros at "
      f"angles {np.round(report.roots, 4)}")

# --- directional-degeneracy fractions -------------------------------------
tols = [2e-2, 1e-2, 5e-3, 2.5e-3]

generic = np.random.default_rng(7).normal(size=3)
frac_generic = degeneracy_tolerance_scan(geometry, center, generic, tols,
                                         samples=100000)
ray = center - geometry.source_position(1.0)
frac_ray = degeneracy_tolerance_scan(geometry, center, ray, tols,
                                     samples=100000)
print("\ndegenerate-angle fraction vs tolerance:")
print("  tolerance   generic offset   ray-aligned offset")
for t, fg, fr in zip(tols, frac_generic, frac_ray):
    print(f"  {t:9.4f}   {fg:14.6f}   {fr:18.6f}")
print("(the ray-aligned fraction halves with the tolerance: isolated zeros, "
      "measure zero in the limit)")
