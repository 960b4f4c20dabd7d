#!/usr/bin/env python3
"""Closed-form covariance of the reconstruction error field.

The reconstruction error of derivative-backprojection cone-beam tomography,
viewed in a patch of a few detector pixels around a fixed point, behaves like
a stationary Gaussian random field.  This demo evaluates its covariance
function from the closed-form angle integral: the value at zero offset (the
pointwise error variance), the covariance matrix over a set of local offsets,
and a line scan showing how correlation falls off with offset distance.

Run:
    python demos/predict_covariance.py
"""

import numpy as np

from grf_tomo import CovariancePredictor, Kernel, load_config
from grf_tomo.config import preset_path

# geometry, kernel, center and offsets of the bundled paper preset
config = load_config(preset_path("paper"))
geometry = config.geometry
kernel = Kernel(config.kernel)
center = config.center

predictor = CovariancePredictor(geometry, kernel, center)

print(f"expansion point x0 = {center}, trajectory radius R = {geometry.radius}")
print(f"pointwise error variance C(0) = {predictor.variance():.6f}")
print()

matrix = predictor.covariance_matrix(config.offsets)
print("covariance matrix over three local offsets (units of the detector step):")
for row in matrix:
    print("   " + "  ".join(f"{v: .6f}" for v in row))
print()

# correlation decays once the projected offset leaves the kernel support
direction = np.array([1.0, 0.0, 0.0])
radii = np.linspace(0.0, 8.0, 17)
values = predictor.covariance_profile(direction, radii)
print("line scan C(r * e1):")
print("   r      C(r)      C(r)/C(0)")
for r, v in zip(radii, values):
    print(f"  {r:4.1f}  {v: .6f}   {v / values[0]: .4f}")
