"""Seeded workload configurations for the grf-tomo benchmark.

Every workload starts from the program's bundled paper preset and changes
only what the benchmark seed decides (noise seed, scan direction, extra
evaluation points) and the run size.  The program receives nothing but the
JSON file written here.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass

import numpy as np

PRESET = os.path.join("src", "grf_tomo", "presets", "paper.json")

# Family-wise false-alarm budget of the statistical checks: a Gaussian
# z-bound of 6 per entry; see README.md for the resulting rates.
Z_BOUND = 6.0


@dataclass(frozen=True)
class Size:
    """Run size of the workloads; ``SMOKE`` keeps every code path but shrinks it."""

    scan_radii: int = 200
    paper_realizations: int = 1024
    wide_points: int = 12
    wide_realizations: int = 512
    ellipse_samples: int = 10000
    degeneracy_samples: int = 20000
    hessian_resolution: int = 2000


FULL = Size()
SMOKE = Size(scan_radii=8, paper_realizations=64, wide_realizations=64,
             ellipse_samples=1000, degeneracy_samples=10000,
             hessian_resolution=1000)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str


WORKLOADS = (
    Workload("predict_scan", "predict",
             "paper preset plus a 200-radius covariance scan: kernel, covariance "
             "and geometry do all the work, recon and noise none"),
    Workload("simulate_paper", "simulate",
             "paper preset, 3 points on 46,226 sites: cold predictor build, then "
             "reconstruction that is two thirds noise hashing, so it shows kernel, "
             "hashing and thread scaling"),
    Workload("simulate_wide", "simulate",
             "12 seeded points near the paper center share sites, so weighted "
             "terms outnumber draws and reduction, plan and L x L prediction dominate"),
    Workload("check_paper", "check",
             "geometry and equidistribution checks only: runs analysis and none of "
             "kernel, covariance, recon or noise, so their optimisations move nothing"),
)
BY_NAME = {w.name: w for w in WORKLOADS}

# The workloads BENCHMARK.json declares, whose end-to-end metrics carry
# bounds.  Two leave each run the most time the harness allows; between them
# they run every layer (README.md).  predict_scan and simulate_wide stay
# runnable and checked.
DECLARED = ("simulate_paper", "check_paper")


def load_preset(root="."):
    with open(os.path.join(root, PRESET)) as fh:
        return json.load(fh)


def _rng(seed, workload):
    tag = [WORKLOADS.index(BY_NAME[workload]), int(seed)]
    return np.random.default_rng(np.random.SeedSequence(tag))


def simulate_thresholds(realizations):
    """``--assert`` thresholds that hold at any seed for ``realizations``.

    The relative standard error of a sample variance is ``sqrt(2/(n-1))``;
    the variance and covariance rules allow the finite-step bias against the
    limit plus ``Z_BOUND`` such errors, widened for the skew of a sample
    variance and for summing four entries.  The density rules scale as
    ``1/sqrt(n)``.  A Gaussian surrogate over 40 seeds at 20 replicas each
    stays below every threshold by a factor of 1.3 or more (README.md).
    """
    se = math.sqrt(2.0 / (realizations - 1))
    return {
        "variance_rel": round(0.01 + 1.2 * Z_BOUND * se, 4),
        "cov_mismatch": round(0.1 + 2.0 * Z_BOUND * se, 4),
        "pdf1d_mismatch": round(8.0 / math.sqrt(realizations), 4),
        "pdf2d_mismatch": round(28.0 / math.sqrt(realizations), 4),
    }


def make_config(workload, seed, size=FULL, root="."):
    """The JSON document the program receives for ``workload`` at ``seed``."""
    cfg = copy.deepcopy(load_preset(root))
    rng = _rng(seed, workload)
    cfg["noise"]["seed"] = int(rng.integers(0, 2**63))
    exp = cfg["experiment"]
    checks = cfg["checks"]
    checks["ellipse_samples"] = size.ellipse_samples
    checks["degeneracy_samples"] = size.degeneracy_samples
    checks["hessian_resolution"] = size.hessian_resolution

    if workload == "predict_scan":
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        checks["covariance_scan"] = {
            "direction": direction.tolist(),
            "radii": np.linspace(0.0, 8.0, size.scan_radii).tolist(),
        }
    elif workload == "simulate_paper":
        exp["realizations"] = size.paper_realizations
        cfg["assertions"]["simulate"] = simulate_thresholds(size.paper_realizations)
    elif workload == "simulate_wide":
        offsets = rng.uniform(-3.0, 3.0, size=(size.wide_points - 1, 3)).round(3)
        exp["offsets"] = offsets.tolist() + [[0.0, 0.0, 0.0]]
        exp["realizations"] = size.wide_realizations
        cfg["assertions"]["simulate"] = simulate_thresholds(size.wide_realizations)
    elif workload != "check_paper":
        raise KeyError(workload)
    return cfg


def write_config(path, workload, seed, size=FULL, root="."):
    cfg = make_config(workload, seed, size, root)
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    return cfg
