"""Correctness checks of every workload's outputs against bench/oracle.py.

A checker takes the results of one command, either parsed from the CLI's
files (:func:`load_cli_results`) or returned by the traced run, and returns
a list of :class:`Finding`.  A run is correct when every finding passes.
Each finding has a fixed name, so the self-test can show that a given
corruption trips the check meant to catch it.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

import oracle
from grf_tomo import Kernel, ReconstructionPlan, config as config_mod
from workloads import Z_BOUND

# Agreement of C(theta) with the oracle: the program's configured panel
# tolerance plus this margin for its tabulated autocorrelations.
LIMIT_MARGIN = 1e-5
# Reconstruction values at single realizations, program against oracle;
# both sum about 10^5 terms of size 10^-3 in different orders.
RECON_ATOL = 1e-9
# |lattice average - 0.3| for cos^2(2 pi r) over the box [0.2, 0.8] at
# eps = 1e-4; the average converges like sqrt(eps) and reads 0.3026.
PERIODIC_AVERAGE_TOL = 5e-3
PERIODIC_AVERAGE_EXACT = 0.3
# Scan radii checked against the oracle, as fractions of the scan length.
SCAN_PICKS = (0.0, 0.1, 0.25, 0.5)
# Realization indices reconstructed by the oracle.
RECON_PICKS = (0, 1, 37)
# Oracle autocorrelation tables take about 5 s of quad calls; they are kept
# here, inside the checkout, keyed by the sources they depend on.
ORACLE_CACHE = os.path.join(".bench_work", "oracle")


@dataclass
class Finding:
    name: str
    ok: bool
    detail: str

    def __str__(self):
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def load_cli_results(command, out_dir):
    """The numbers a checker needs, read from the CLI's output files."""
    if command == "predict":
        pred = _read_json(os.path.join(out_dir, "cov_pred.json"))
        _, table = _read_csv(os.path.join(out_dir, "cov_pred.csv"))
        results = {"matrix": pred["matrix"], "variance": pred["variance"],
                   "matrix_csv": table.tolist()}
        scan = os.path.join(out_dir, "cov_scan.csv")
        if os.path.exists(scan):
            _, rows = _read_csv(scan)
            results["scan_radii"] = rows[:, 0].tolist()
            results["scan_values"] = rows[:, 1].tolist()
        return results
    if command == "simulate":
        stats = _read_json(os.path.join(out_dir, "stats.json"))
        return {"n": stats["n_realizations"], "mean": stats["sample_mean"],
                "variance": stats["sample_variance"],
                "covariance": stats["sample_covariance"],
                "predicted": stats["predicted_covariance"]}
    if command == "check":
        report = _read_json(os.path.join(out_dir, "checks.json"))
        _, weyl = _read_csv(os.path.join(out_dir, "weyl.csv"))
        report["weyl_csv"] = weyl.tolist()
        return report
    raise KeyError(command)


class Checker:
    """Checks results of one workload configuration (a JSON dictionary).

    Oracle pieces are computed on first use, so a command pays only for
    the ones its checks need.
    """

    def __init__(self, cfg_dict):
        with warnings.catch_warnings():
            # the paper kernel's smoothness warning; the CLI prints it already
            warnings.simplefilter("ignore", UserWarning)
            self.cfg = config_mod.from_dict(cfg_dict)
        self.kernel = Kernel(self.cfg.kernel)
        self._tables = None
        self._c0 = None
        self._exact = None

    # -- shared oracle pieces ----------------------------------------------

    @property
    def c0(self):
        if self._c0 is None:
            self._c0 = oracle.limit_variance(self.cfg.geometry, self.kernel, self.cfg.center)
        return self._c0

    def limit(self, thetas):
        if self._tables is None:
            self._tables = tuple(
                oracle.AutocorrelationTable.cached(self.kernel, which, ORACLE_CACHE)
                for which in ("d2", "value"))
        return oracle.limit_covariance(self.cfg.geometry, self.cfg.center, thetas,
                                       self._tables)

    @property
    def points(self):
        return self.cfg.center + self.cfg.eps * self.cfg.offsets

    def model(self):
        return oracle.FiniteStepModel(self.cfg.geometry, self.kernel,
                                      self.cfg.noise, self.points)

    @property
    def exact(self):
        if self._exact is None:
            self._exact = self.model().exact_covariance()
        return self._exact

    # -- per command ---------------------------------------------------------

    def check(self, command, results):
        return {"predict": self.check_predict, "simulate": self.check_simulate,
                "check": self.check_check}[command](results)

    def _limit_bound(self):
        return self.cfg.tolerance + LIMIT_MARGIN

    def _matrix_properties(self, prefix, matrix):
        diag = np.diag(matrix)
        bound = np.sqrt(np.outer(diag, diag))
        return [
            Finding(f"{prefix}.symmetric", bool(np.array_equal(matrix, matrix.T)),
                    "C_ij == C_ji bit for bit"),
            Finding(f"{prefix}.constant_diagonal", bool(np.all(diag == diag[0])),
                    f"diagonal spread {np.ptp(diag):.3g}"),
            Finding(f"{prefix}.cauchy_schwarz", bool(np.all(np.abs(matrix) <= bound)),
                    f"max |C_ij| / sqrt(C_ii C_jj) = {np.max(np.abs(matrix) / bound):.6f}"),
        ]

    def _oracle_finding(self, name, got, want):
        got, want = np.atleast_1d(got), np.atleast_1d(want)
        err = float(np.max(np.abs(got - want)))
        return Finding(name, err <= self._limit_bound(),
                       f"max |program - oracle| = {err:.3g} "
                       f"(bound {self._limit_bound():.3g}) at {len(got)} values")

    def check_predict(self, results):
        matrix = np.asarray(results["matrix"], dtype=float)
        offsets = self.cfg.offsets
        out = self._matrix_properties("predict", matrix)
        out.append(self._oracle_finding("predict.variance_oracle", matrix[0, 0], self.c0))
        if len(offsets) > 1:
            out.append(self._oracle_finding(
                "predict.pair_oracle", matrix[0, 1], self.limit(offsets[:1] - offsets[1:2])))
        if "matrix_csv" in results:
            table = np.asarray(results["matrix_csv"])
            same = np.array_equal(table[:, 2], matrix.ravel()) and np.array_equal(
                table[:, :2], np.argwhere(np.ones_like(matrix)).astype(float))
            out.append(Finding("predict.csv_matches_json", bool(same),
                               "cov_pred.csv rows equal cov_pred.json matrix"))
        scan = self.cfg.checks.get("covariance_scan")
        if scan:
            radii = np.asarray(scan["radii"], dtype=float)
            got_r = np.asarray(results["scan_radii"], dtype=float)
            values = np.asarray(results["scan_values"], dtype=float)
            out.append(Finding("predict.scan_radii", bool(np.array_equal(got_r, radii)),
                               f"{len(got_r)} radii as configured ({len(radii)})"))
            picks = sorted({int(f * (len(radii) - 1)) for f in SCAN_PICKS})
            thetas = radii[picks, None] * np.asarray(scan["direction"], dtype=float)
            out.append(self._oracle_finding("predict.scan_oracle", values[picks],
                                            self.limit(thetas)))
            zero = np.nonzero(radii == 0.0)[0]
            if zero.size:
                gap = abs(values[zero[0]] - matrix[0, 0])
                out.append(Finding("predict.scan_origin", gap <= 1e-12,
                                   f"|scan(0) - C_00| = {gap:.3g}"))
        return out

    def check_simulate(self, results):
        n = int(results["n"])
        mean = np.asarray(results["mean"], dtype=float)
        var = np.asarray(results["variance"], dtype=float)
        cov = np.asarray(results["covariance"], dtype=float)
        exact = self.exact
        d = np.diag(exact)
        out = [
            Finding("simulate.realizations", n == self.cfg.realizations,
                    f"{n} realizations (configured {self.cfg.realizations})"),
            Finding("simulate.variance_is_diagonal", bool(np.array_equal(var, np.diag(cov))),
                    "sample_variance == diag(sample_covariance)"),
            Finding("simulate.covariance_symmetric", bool(np.array_equal(cov, cov.T)),
                    "sample covariance symmetric bit for bit"),
        ]
        z_mean = np.abs(mean) / np.sqrt(d / n)
        out.append(Finding("simulate.mean_z", bool(np.all(z_mean <= Z_BOUND)),
                           f"max |mean| / SE = {np.max(z_mean):.2f} (bound {Z_BOUND})"))
        se = np.sqrt((np.outer(d, d) + exact**2) / (n - 1))
        z_cov = np.abs(cov - exact) / se
        out.append(Finding("simulate.covariance_z", bool(np.all(z_cov <= Z_BOUND)),
                           f"max |S_ij - exact_ij| / SE = {np.max(z_cov):.2f} "
                           f"(bound {Z_BOUND}) over {cov.size} entries"))
        predicted = np.asarray(results["predicted"], dtype=float)
        out += self._matrix_properties("simulate.predicted", predicted)
        out.append(self._oracle_finding("simulate.predicted_variance_oracle",
                                        predicted[0, 0], self.c0))
        out.append(self.check_reconstruct())
        if "thread_identical" in results:
            out.append(Finding("simulate.thread_identity", bool(results["thread_identical"]),
                               "CLI outputs at --threads 1 and 2 byte-identical"))
        if "reconstruct_thread_identical" in results:
            out.append(Finding("simulate.reconstruct_thread_identity",
                               bool(results["reconstruct_thread_identical"]),
                               results["thread_detail"]))
        return out

    def check_reconstruct(self):
        plan = ReconstructionPlan(self.cfg.geometry, self.kernel, self.cfg.noise, self.points)
        picks = np.array([r for r in RECON_PICKS if r < self.cfg.realizations])
        got = plan.reconstruct(picks, threads=1)
        model = self.model()
        want = np.stack([model.reconstruct(int(r)) for r in picks])
        err = float(np.max(np.abs(got - want)))
        return Finding("simulate.reconstruct_oracle", err <= RECON_ATOL,
                       f"max |plan - oracle| = {err:.3g} (bound {RECON_ATOL:g}) "
                       f"at realizations {picks.tolist()}")

    def check_check(self, results):
        out = [Finding("check.radon_roots", results["radon2d_root_count"] == 2,
                       f"{results['radon2d_root_count']} Radon Hessian roots (expect 2)")]
        bad = [s["point"] for s in results["hessian_scans"]
               if s["point"][2] != 0.0 and s["degenerate"]]
        out.append(Finding("check.hessian_nondegenerate", not bad,
                           f"degenerate scans at x3 != 0: {bad}"))
        rising = []
        for scan in results["degeneracy_fractions"]:
            order = np.argsort(scan["tolerances"])[::-1]
            frac = np.asarray(scan["fractions"])[order]
            if np.any(np.diff(frac) > 0):
                rising.append(scan["offset"])
        out.append(Finding("check.degeneracy_monotone", not rising,
                           f"fractions rising as the tolerance shrinks at {rising}"))
        avg = results["weyl"]["periodic_average"]
        out.append(Finding("check.periodic_average",
                           abs(avg - PERIODIC_AVERAGE_EXACT) <= PERIODIC_AVERAGE_TOL,
                           f"{avg:.6f} vs exact {PERIODIC_AVERAGE_EXACT} "
                           f"(tolerance {PERIODIC_AVERAGE_TOL:g})"))
        resid = results["ellipse_identity"]["max_abs_residual"]
        bound = 1e-10 * self.cfg.geometry.radius**4
        out.append(Finding("check.ellipse_residual", resid < bound,
                           f"max |residual| {resid:.3g} (bound {bound:.0e})"))
        if "weyl_csv" in results:
            table = np.asarray(results["weyl_csv"])
            same = np.array_equal(table[:, 0], results["weyl"]["eps"]) and \
                np.array_equal(table[:, 1], results["weyl"]["magnitudes"])
            out.append(Finding("check.weyl_csv_matches_json", bool(same),
                               "weyl.csv rows equal checks.json"))
        return out
