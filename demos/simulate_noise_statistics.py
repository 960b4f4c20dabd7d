#!/usr/bin/env python3
"""Monte-Carlo noise reconstruction versus the covariance prediction.

Draws a few thousand realizations of structured detector noise, reconstructs
each one at three nearby points, and compares the sample statistics and the
histogram of reconstructed values against the predicted zero-mean Gaussian.
The noise draws are keyed by (seed, realization, data index), so the run is
reproducible bit-for-bit at any thread count.

Run:
    python demos/simulate_noise_statistics.py
"""

import numpy as np

from grf_tomo import (
    CovariancePredictor,
    Kernel,
    ReconstructionPlan,
    gaussian_on_bins,
    histogram_density,
    density_mismatch,
    load_config,
)
from grf_tomo.config import preset_path

# geometry, kernel, points, detector step, views and seed of the bundled
# paper preset, at fewer realizations
config = load_config(preset_path("paper"), realizations=4000)
geometry = config.geometry
kernel = Kernel(config.kernel)
points = config.points

realizations = config.realizations
plan = ReconstructionPlan(geometry, kernel, config.noise, points)
print(f"reconstructing {realizations} noise realizations at {len(points)} points")
print(f"({plan.n_sites} detector sites touched per realization)")
samples = plan.reconstruct(np.arange(realizations), threads=4)

predictor = CovariancePredictor(geometry, kernel, config.center)
predicted = predictor.covariance_matrix(config.offsets)
exact = plan.exact_covariance()        # finite-step moments, no MC error
observed = np.cov(samples.T, ddof=1)

print("\nvariances (offset index: observed / exact finite-step / limit):")
for k in range(3):
    print(f"  {k}:  {observed[k, k]:.4f} / {exact[k, k]:.4f} / {predicted[k, k]:.4f}")
print(f"cross-covariance (0,1): {observed[0, 1]:.4f} / {exact[0, 1]:.4f} / "
      f"{predicted[0, 1]:.4f}")
mismatch = np.sum(np.abs(observed - predicted)) / np.sum(np.abs(predicted))
print(f"covariance l1 mismatch vs the limit: {mismatch:.3f}")

# histogram at the patch center against the predicted Gaussian
hist = histogram_density(samples[:, 2], bins=config.bins)
pdf = gaussian_on_bins(0.0, predicted[2, 2], hist)
print(f"\n1D density mismatch at the center: "
      f"{density_mismatch(hist.density, pdf):.3f}")
print("bin center   observed   predicted")
for c, o, p in zip(hist.centers[0], hist.density, pdf):
    bar = "#" * int(round(40 * o / pdf.max()))
    print(f"  {c: 7.3f}    {o:7.4f}    {p:7.4f}  {bar}")
