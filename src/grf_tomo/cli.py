"""Command-line entry point: ``grf-tomo predict | simulate | check``.

Every command is a function ``cmd_*(config, threads) -> (files, metrics)``
that touches no file: ``files`` maps each output name, in writing order, to a
JSON object or a CSV table ``(header, rows)``.  :func:`main` then adds a
manifest that echoes the configuration and lists the other files, and writes
them all, so a failed run writes nothing.  A run can be reproduced bit-for-bit
from the manifest alone (the manifest carries timestamps and is the only
output that varies between identical runs).

Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 assertion failure in ``--assert`` mode.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys

import numpy as np

from . import __version__, analysis
from .config import ASSERTION_RULES, ConfigError, load as load_config, preset_path
from .covariance import CovariancePredictor, QuadratureConvergenceError
from .geometry import Radon2DGeometry
from .kernel import Kernel
from .recon import (
    ReconstructionPlan,
    density_mismatch,
    gaussian_on_bins,
    histogram_density,
    streaming_moments,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ASSERT = 4


def _write(path, payload):
    """Write a JSON object, or a CSV table given as ``(header, rows)``."""
    with open(path, "w", newline="") as fh:
        if isinstance(payload, dict):
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            header, rows = payload
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([format(float(v), ".17g") for v in row] for row in rows)


def _prediction(config):
    predictor = CovariancePredictor(config.geometry, Kernel(config.kernel), config.center,
                                    panels=config.panels, tolerance=config.tolerance)
    return predictor, predictor.covariance_matrix(config.offsets)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def cmd_predict(config, threads):
    predictor, matrix = _prediction(config)
    files = {
        "cov_pred.json": {"offsets": config.offsets.tolist(), "variance": matrix[0, 0],
                          "matrix": matrix.tolist()},
        "cov_pred.csv": (["row", "col", "covariance"],
                         [(i, j, matrix[i, j]) for i, j in np.ndindex(matrix.shape)]),
    }

    scan_cfg = config.checks.get("covariance_scan")
    if scan_cfg:
        direction = np.asarray(scan_cfg["direction"], dtype=float)
        radii = np.asarray(scan_cfg["radii"], dtype=float)
        values = predictor.covariance_profile(direction, radii)
        files["cov_scan.csv"] = (["radius", "covariance"], list(zip(radii, values)))

    metrics = {"variance": matrix[0, 0]}
    if matrix.shape[0] > 1:
        metrics["cross_covariance_first_pair"] = matrix[0, 1]
    return files, metrics


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(config, threads):
    # predicting first frees the predictor's temporaries before the plan and
    # the worker buffers exist, and a quadrature that does not converge
    # fails before any Monte Carlo runs; the plan reuses the predictor's kernel
    predictor, predicted = _prediction(config)
    plan = ReconstructionPlan(config.geometry, predictor.kernel, config.noise, config.points)
    samples = plan.reconstruct(np.arange(config.realizations), threads=threads)
    del plan  # its tables are not kept while the histograms are built
    count, mean, com = streaming_moments(samples)
    covariance = com / (count - 1)

    # each offset's 1-D marginal, then the first pair's 2-D marginal
    n_offsets = len(config.offsets)
    marginals = [([k], f"offset_{k}", f"hist1d_{k}.csv") for k in range(n_offsets)]
    if n_offsets >= 2:
        marginals.append(([0, 1], "first_pair", "hist2d.csv"))
    files, histograms, mismatch = {}, {}, {}
    for cols, name, file_name in marginals:
        hist = histogram_density(samples[:, cols], config.bins)
        pdf = gaussian_on_bins(np.zeros(len(cols)), predicted[np.ix_(cols, cols)], hist)
        mismatch[name] = density_mismatch(hist.density, pdf)
        edges = [e.tolist() for e in hist.edges]
        histograms[name] = {"edges": edges if len(cols) > 1 else edges[0],
                            "observed_density": hist.density.tolist(),
                            "predicted_density": pdf.tolist()}
        axes = ["bin_center"] if len(cols) == 1 else [f"bin_center_{a}" for a in (1, 2)]
        centers = hist.centers
        files[file_name] = (axes + ["observed_density", "predicted_density"],
                            [(*(c[i] for c, i in zip(centers, cell)),
                              hist.density[cell], pdf[cell]) for cell in np.ndindex(pdf.shape)])

    pair = predicted[:2, :2]
    pair_mismatch = float(np.sum(np.abs(covariance[:2, :2] - pair)) / np.sum(np.abs(pair)))

    zero_idx = config.zero_offset_index
    metrics = {
        "realizations": count,
        "covariance_mismatch_first_pair": pair_mismatch,
        "pdf_mismatch_1d": [mismatch[f"offset_{k}"] for k in range(n_offsets)],
        "pdf_mismatch_2d": mismatch.get("first_pair"),
        "zero_offset_index": zero_idx,
    }
    if zero_idx is not None:
        metrics["variance_at_center"] = covariance[zero_idx, zero_idx]
        metrics["predicted_variance"] = predicted[zero_idx, zero_idx]

    files["stats.json"] = {
        "offsets": config.offsets.tolist(),
        "n_realizations": count,
        "sample_mean": mean.tolist(),
        "sample_variance": np.diag(covariance).tolist(),
        "sample_covariance": covariance.tolist(),
        "predicted_covariance": predicted.tolist(),
        "histograms": histograms,
        "metrics": metrics,
    }
    return files, metrics


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


# the direction battery of every Hessian zero-set scan: 8 angles 45 degrees apart
_HESSIAN_DIRECTIONS = np.stack([np.cos(np.arange(8) * (np.pi / 4)),
                                np.sin(np.arange(8) * (np.pi / 4))], axis=-1)
# the tolerance scan of the degeneracy fractions, and the box of the Weyl
# decay table (base-10 step exponents -2 to -4.5, weyl_decay_table's default)
_DEGENERACY_TOLS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
_WEYL_BOX = (0.2, 0.8)


def cmd_check(config, threads):
    geometry = config.geometry
    checks = config.checks
    report = {}

    # algebraic projection identity on random admissible points
    n_ellipse = checks["ellipse_samples"]
    residual = geometry.ellipse_residual(*geometry.ellipse_sample(n_ellipse, config.seed))
    report["ellipse_identity"] = {
        "samples": n_ellipse,
        "max_abs_residual": float(np.max(np.abs(residual))),
        "scale": float(geometry.radius**4),
    }

    # Hessian zero-set scans over a direction battery
    resolution = checks["hessian_resolution"]
    battery = []
    for point in checks["hessian_points"]:
        reports = analysis.hessian_scan_battery(
            geometry, point, _HESSIAN_DIRECTIONS, resolution=resolution)
        degenerate = [r.direction.tolist() for r in reports if r.degenerate]
        entry = {
            "point": list(map(float, point)),
            "degenerate": bool(degenerate),
            "root_counts": [r.count for r in reports],
        }
        if degenerate:
            entry["message"] = (
                f"projection Hessian vanishes identically along directions {degenerate}"
                + ("; the point lies in the source plane (x3 = 0), where the limit "
                   "covariance is not defined" if point[2] == 0 else ""))
        battery.append(entry)
    report["hessian_scans"] = battery

    # directional-degeneracy fractions with a tolerance scan
    offsets = config.offsets[np.any(config.offsets, axis=1)]
    fractions = analysis.degeneracy_tolerance_scan(
        geometry, config.center, offsets, _DEGENERACY_TOLS, samples=checks["degeneracy_samples"])
    scans = [{"offset": offset.tolist(), "tolerances": list(_DEGENERACY_TOLS),
              "fractions": row.tolist()} for offset, row in zip(offsets, fractions)]
    report["degeneracy_fractions"] = scans

    # Radon-model sanity: two Hessian roots for any off-center point
    report["radon2d_root_count"] = analysis.hessian_zero_scan(
        Radon2DGeometry(), np.array([2.0, 1.0]), np.array([1.0]), resolution=resolution).count

    # exponential-sum decay for a quadratic phase with nonresonant slope
    decay = analysis.weyl_decay_table(lambda y: 0.5 * y**2, _WEYL_BOX)
    average = analysis.equidistributed_average(
        lambda r: np.cos(2 * np.pi * r) ** 2, lambda y: 0.5 * y**2, 1e-4, _WEYL_BOX)
    report["weyl"] = {"slope": decay.slope, "eps": decay.eps_values.tolist(),
                      "magnitudes": decay.magnitudes.tolist(),
                      "periodic_average": average}

    metrics = {
        "ellipse_max_abs_residual": report["ellipse_identity"]["max_abs_residual"],
        "weyl_slope": decay.slope,
        "degeneracy_fractions": [scan["fractions"] for scan in scans],
    }
    return {"weyl.csv": (["eps", "magnitude"], list(zip(decay.eps_values, decay.magnitudes))),
            "checks.json": report}, metrics


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grf-tomo",
        description="Noise statistics of discrete cone-beam local tomography",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("predict", "closed-form covariance prediction"),
        ("simulate", "Monte-Carlo reconstruction statistics"),
        ("check", "geometry and equidistribution checks"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None,
                         help="JSON configuration (default: bundled full-replication preset (paper.json))")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the master seed")
        cmd.add_argument("--threads", type=_positive_int, default=os.cpu_count(),
                         help="worker threads (results are thread-count independent)")
        cmd.add_argument("--realizations", type=int, default=None,
                         help="override the realization count")
        cmd.add_argument("--out", default="grf_tomo_output",
                         help="output directory")
        cmd.add_argument("--assert", dest="enforce", action="store_true",
                         help="exit 4 when configured assertion thresholds fail")
    return parser


_COMMANDS = {"predict": cmd_predict, "simulate": cmd_simulate, "check": cmd_check}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config or preset_path("paper"), seed=args.seed,
                             realizations=args.realizations)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from exc
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        files, metrics = _COMMANDS[args.command](config, args.threads)
    # DegenerateProjectionError and np.linalg.LinAlgError are ValueErrors
    except (QuadratureConvergenceError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    # every configured rule of the command, each a record in the manifest
    assertions = []
    for name, threshold in config.assertions.get(args.command, {}).items():
        rule = ASSERTION_RULES[args.command][name]
        value = rule.read(metrics)
        assertions.append({"rule": f"assertions.{args.command}.{name}", "value": value,
                           "threshold": threshold,
                           "passed": bool(rule.passes(value, threshold, config))})
    files["manifest.json"] = {
        "tool": "grf-tomo",
        "version": __version__,
        "command": args.command,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": config.seed,
        "threads": args.threads,
        "config": config.to_dict(),
        "outputs": sorted(files),
        "metrics": metrics,
        "assertions": assertions,
    }
    for name, payload in files.items():
        path = os.path.join(args.out, name)
        _write(path, payload)
        print(f"wrote {path}")
    for key, value in metrics.items():
        print(f"{key}: {value}")

    failed = [r for r in assertions if not r["passed"]]
    for record in failed:
        print(f"assertion failed: {record['rule']}: {record['value']}", file=sys.stderr)
    return EXIT_ASSERT if failed and args.enforce else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
