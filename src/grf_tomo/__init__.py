"""Noise statistics of discrete cone-beam local tomography.

Simulates noise propagation through derivative-backprojection reconstruction
on a circular cone-beam geometry, predicts the limiting Gaussian-field
covariance of the reconstruction error in closed form, and provides
executable checks of the geometric assumptions plus equidistribution
diagnostics.
"""

import os

# Every BLAS call here is small (2x3 matvecs, a (3 x sites) by (sites x 3)
# product, 2x2 Cholesky solves), so an OpenBLAS worker pool only adds start-up
# time and a thread.  Set before numpy is first imported; a value the user has
# set is kept, and it has no effect if numpy was imported first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import (
    ZeroSetReport,
    degeneracy_tolerance_scan,
    equidistributed_average,
    fit_log_slope,
    hessian_scan_battery,
    hessian_zero_scan,
    weyl_decay_table,
    weyl_sum,
)
from .config import ConfigError, ExperimentConfig, load as load_config
from .covariance import CovariancePredictor, QuadratureConvergenceError
from .geometry import ConeBeamGeometry, DegenerateProjectionError, Radon2DGeometry
from .kernel import Kernel, KernelSpec
from .noise import NoiseModel, modulation_field, variance_field
from .recon import (
    ReconstructionPlan,
    density_mismatch,
    gaussian_on_bins,
    histogram_density,
    histogram_density_2d,
)

__version__ = "0.1.0"

__all__ = [
    "ConeBeamGeometry",
    "ConfigError",
    "CovariancePredictor",
    "DegenerateProjectionError",
    "ExperimentConfig",
    "Kernel",
    "KernelSpec",
    "NoiseModel",
    "QuadratureConvergenceError",
    "Radon2DGeometry",
    "ReconstructionPlan",
    "ZeroSetReport",
    "degeneracy_tolerance_scan",
    "density_mismatch",
    "equidistributed_average",
    "fit_log_slope",
    "gaussian_on_bins",
    "hessian_scan_battery",
    "hessian_zero_scan",
    "histogram_density",
    "histogram_density_2d",
    "load_config",
    "modulation_field",
    "variance_field",
    "weyl_decay_table",
    "weyl_sum",
]
