"""Command-line entry point: ``grf-tomo predict | simulate | check``.

Every command reads one JSON configuration, writes its numeric outputs as
JSON/CSV files into the output directory, and finishes with a manifest that
echoes the configuration and lists every file written, so a run can be
reproduced bit-for-bit from the manifest alone (the manifest itself carries
timestamps and is the only output that varies between identical runs).

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
from .geometry import DegenerateProjectionError, Radon2DGeometry
from .kernel import Kernel
from .recon import (
    density_mismatch,
    gaussian_on_bins,
    histogram_density,
    histogram_density_2d,
    run_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ASSERT = 4


def _fmt(value):
    return format(float(value), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(out_dir, command, config, args, outputs, metrics, assertions):
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, {
        "tool": "grf-tomo",
        "version": __version__,
        "command": command,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": config.seed,
        "threads": args.threads,
        "config": config.to_dict(),
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "metrics": metrics,
        "assertions": assertions,
    })
    return path


def _prediction(config):
    predictor = CovariancePredictor(config.geometry, Kernel(config.kernel), config.center,
                                    panels=config.panels, tolerance=config.tolerance)
    return predictor, predictor.covariance_matrix(config.offsets)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def cmd_predict(config, args, out_dir):
    predictor, matrix = _prediction(config)
    outputs = []

    path = os.path.join(out_dir, "cov_pred.json")
    _write_json(path, {
        "offsets": config.offsets.tolist(),
        "variance": matrix[0, 0],
        "matrix": matrix.tolist(),
    })
    outputs.append(path)

    path = os.path.join(out_dir, "cov_pred.csv")
    rows = [(i, j, matrix[i, j]) for i in range(matrix.shape[0])
            for j in range(matrix.shape[1])]
    _write_csv(path, ["row", "col", "covariance"], rows)
    outputs.append(path)

    scan_cfg = config.checks.get("covariance_scan")
    if scan_cfg:
        direction = np.asarray(scan_cfg["direction"], dtype=float)
        radii = np.asarray(scan_cfg["radii"], dtype=float)
        values = predictor.covariance_profile(direction, radii)
        path = os.path.join(out_dir, "cov_scan.csv")
        _write_csv(path, ["radius", "covariance"], zip(radii, values))
        outputs.append(path)

    metrics = {"variance": matrix[0, 0]}
    if matrix.shape[0] > 1:
        metrics["cross_covariance_first_pair"] = matrix[0, 1]
    return outputs, metrics


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(config, args, out_dir):
    # predicting first frees the predictor's temporaries before the plan and
    # the worker buffers exist, and a quadrature that does not converge
    # fails before any Monte Carlo runs
    _, predicted = _prediction(config)
    stats = run_experiment(config, threads=args.threads)
    outputs = []
    histograms = {}
    pdf_mismatch_1d = []
    for k in range(stats.offsets.shape[0]):
        hist = histogram_density(stats.samples[:, k], config.bins)
        pdf = gaussian_on_bins(0.0, predicted[k, k], hist)
        mismatch = density_mismatch(hist.density, pdf)
        pdf_mismatch_1d.append(mismatch)
        histograms[f"offset_{k}"] = {
            "edges": hist.edges[0].tolist(),
            "observed_density": hist.density.tolist(),
            "predicted_density": pdf.tolist(),
        }
        path = os.path.join(out_dir, f"hist1d_{k}.csv")
        _write_csv(path, ["bin_center", "observed_density", "predicted_density"],
                   zip(hist.centers[0], hist.density, pdf))
        outputs.append(path)

    mismatch_2d = None
    if stats.offsets.shape[0] >= 2:
        hist2 = histogram_density_2d(stats.samples[:, :2], config.bins)
        pdf2 = gaussian_on_bins(np.zeros(2), predicted[:2, :2], hist2)
        mismatch_2d = density_mismatch(hist2.density, pdf2)
        histograms["first_pair"] = {
            "edges": [e.tolist() for e in hist2.edges],
            "observed_density": hist2.density.tolist(),
            "predicted_density": pdf2.tolist(),
        }
        cx, cy = hist2.centers
        rows = [(cx[i], cy[j], hist2.density[i, j], pdf2[i, j])
                for i in range(len(cx)) for j in range(len(cy))]
        path = os.path.join(out_dir, "hist2d.csv")
        _write_csv(path, ["bin_center_1", "bin_center_2",
                          "observed_density", "predicted_density"], rows)
        outputs.append(path)

    pair = predicted[:2, :2]
    pair_mismatch = float(np.sum(np.abs(stats.covariance[:2, :2] - pair)) / np.sum(np.abs(pair)))

    zero_idx = config.zero_offset_index
    metrics = {
        "realizations": stats.n_realizations,
        "covariance_mismatch_first_pair": pair_mismatch,
        "pdf_mismatch_1d": pdf_mismatch_1d,
        "pdf_mismatch_2d": mismatch_2d,
        "zero_offset_index": zero_idx,
    }
    if zero_idx is not None:
        metrics["variance_at_center"] = stats.variance[zero_idx]
        metrics["predicted_variance"] = predicted[zero_idx, zero_idx]

    path = os.path.join(out_dir, "stats.json")
    _write_json(path, {
        "offsets": stats.offsets.tolist(),
        "n_realizations": stats.n_realizations,
        "sample_mean": stats.mean.tolist(),
        "sample_variance": stats.variance.tolist(),
        "sample_covariance": stats.covariance.tolist(),
        "predicted_covariance": predicted.tolist(),
        "histograms": histograms,
        "metrics": metrics,
    })
    outputs.append(path)
    return outputs, metrics


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _hessian_directions(count=8):
    angles = np.arange(count) * (2.0 * np.pi / count)
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def cmd_check(config, args, out_dir):
    geometry = config.geometry
    checks = config.checks
    rng = np.random.default_rng(config.seed)
    outputs = []
    report = {}

    # algebraic projection identity on random admissible points
    n_ellipse = checks["ellipse_samples"]
    rho = geometry.admissible_fraction * geometry.radius * np.sqrt(rng.uniform(size=n_ellipse))
    phi = rng.uniform(0, 2 * np.pi, size=n_ellipse)
    pts = np.stack([rho * np.cos(phi), rho * np.sin(phi),
                    rng.uniform(-3, 3, size=n_ellipse)], axis=-1)
    svals = rng.uniform(0, 2 * np.pi, size=n_ellipse)
    residual = geometry.ellipse_residual(pts, svals)
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
            geometry, point, _hessian_directions(), resolution=resolution)
        degenerate = [r.direction.tolist() for r in reports if r.degenerate]
        entry = {
            "point": list(map(float, point)),
            "degenerate": bool(degenerate),
            "root_counts": [r.count for r in reports],
        }
        if degenerate:
            entry["message"] = (
                "projection Hessian vanishes identically along directions "
                f"{degenerate}; the point lies in the source plane "
                "(x3 = 0), where the limit covariance is not defined"
            )
        battery.append(entry)
    report["hessian_scans"] = battery

    # directional-degeneracy fractions with a tolerance scan
    tols = checks["degeneracy_tols"]
    offsets = config.offsets[np.any(config.offsets, axis=1)]
    fractions = analysis.degeneracy_tolerance_scan(
        geometry, config.center, offsets, tols, samples=checks["degeneracy_samples"])
    scans = [{"offset": offset.tolist(), "tolerances": list(map(float, tols)),
              "fractions": row.tolist()} for offset, row in zip(offsets, fractions)]
    report["degeneracy_fractions"] = scans

    # Radon-model sanity: two Hessian roots for any off-center point
    radon = analysis.hessian_zero_scan(
        Radon2DGeometry(), np.array([2.0, 1.0]), np.array([1.0]),
        resolution=resolution)
    report["radon2d_root_count"] = radon.count

    # exponential-sum decay for a quadratic phase with nonresonant slope
    box = checks["weyl"]["box"]
    decay = analysis.weyl_decay_table(lambda y: 0.5 * y**2, box,
                                      exponents=checks["weyl"]["exponents"])
    slope = decay.slope
    path = os.path.join(out_dir, "weyl.csv")
    _write_csv(path, ["eps", "magnitude"], zip(decay.eps_values, decay.magnitudes))
    outputs.append(path)
    average = analysis.equidistributed_average(
        lambda r: np.cos(2 * np.pi * r) ** 2, lambda y: 0.5 * y**2, 1e-4, box)
    report["weyl"] = {"slope": slope, "eps": decay.eps_values.tolist(),
                      "magnitudes": decay.magnitudes.tolist(),
                      "periodic_average": average}

    path = os.path.join(out_dir, "checks.json")
    _write_json(path, report)
    outputs.append(path)

    metrics = {
        "ellipse_max_abs_residual": report["ellipse_identity"]["max_abs_residual"],
        "weyl_slope": slope,
        "degeneracy_fractions": [scan["fractions"] for scan in scans],
    }
    return outputs, metrics


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
        config = load_config(args.config or preset_path("paper"))
        overrides = {key: getattr(args, key) for key in ("seed", "realizations")
                     if getattr(args, key) is not None}
        config = config.replace(**overrides) if overrides else config
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from exc
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        outputs, metrics = _COMMANDS[args.command](config, args, args.out)
    except (QuadratureConvergenceError, DegenerateProjectionError,
            FloatingPointError, np.linalg.LinAlgError, ValueError) as exc:
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
    outputs.append(_manifest(args.out, args.command, config, args, outputs, metrics,
                             assertions))
    for path in outputs:
        print(f"wrote {path}")
    for key, value in metrics.items():
        print(f"{key}: {value}")

    failed = [r for r in assertions if not r["passed"]]
    for record in failed:
        print(f"assertion failed: {record['rule']}: {record['value']}", file=sys.stderr)
    return EXIT_ASSERT if failed and args.enforce else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
