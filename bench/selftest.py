"""Self-test: every check passes on real outputs and rejects corrupted ones.

    python3 bench/run.py --self-test

Runs each workload once at the smoke size, checks its outputs, then writes
corrupted copies of the output files and shows that the check meant to
catch each corruption fails.  Also confirms that BENCHMARK.json matches the
tables in run.py.  Exits 1 when anything does not behave as stated.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil

import numpy as np

import checks
import oracle
import run as bench
import workloads


def _edit_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:            # the CLI's own JSON layout
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _edit_csv(path, column, factor):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[column] = format(float(row[column]) * factor, ".17g")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _scale(key, factor):
    def edit(data):
        data[key] = (np.asarray(data[key]) * factor).tolist()
    return edit


def _shift_mean(data):
    n = data["n_realizations"]
    se = np.sqrt(np.asarray(data["sample_variance"]) / n)
    data["sample_mean"][0] += 7.0 * se[0]


def _shift_cross(data):
    cov = np.asarray(data["sample_covariance"])
    se = np.sqrt((cov[0, 0] * cov[1, 1] + cov[0, 1] ** 2) / (data["n_realizations"] - 1))
    for i, j in ((0, 1), (1, 0)):
        data["sample_covariance"][i][j] += 7.0 * se


def _set(path, value):
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


# (workload, description, file, edit, checks that must fail)
CORRUPTIONS = [
    ("predict_scan", "covariance matrix scaled by 1.01", "cov_pred.json",
     lambda d: (_scale("matrix", 1.01)(d), _scale("variance", 1.01)(d)),
     {"predict.variance_oracle"}),
    ("predict_scan", "one cross covariance moved by 1e-3", "cov_pred.json",
     lambda d: d["matrix"][0].__setitem__(1, d["matrix"][0][1] + 1e-3),
     {"predict.symmetric", "predict.csv_matches_json"}),
    ("predict_scan", "covariance scan scaled by 1.01", "cov_scan.csv", 1.01,
     {"predict.scan_oracle", "predict.scan_origin"}),
    ("simulate_paper", "sample covariance scaled by 1.01", "stats.json",
     _scale("sample_covariance", 1.01),
     {"simulate.variance_is_diagonal", "simulate.thread_identity"}),
    ("simulate_paper", "sample covariance and variance scaled by 2.5", "stats.json",
     lambda d: (_scale("sample_covariance", 2.5)(d), _scale("sample_variance", 2.5)(d)),
     {"simulate.covariance_z"}),
    ("simulate_paper", "sample mean moved by 7 standard errors", "stats.json",
     _shift_mean, {"simulate.mean_z"}),
    ("simulate_paper", "predicted covariance scaled by 1.01", "stats.json",
     _scale("predicted_covariance", 1.01), {"simulate.predicted_variance_oracle"}),
    ("simulate_wide", "one cross covariance moved by 7 standard errors", "stats.json",
     _shift_cross, {"simulate.covariance_z"}),
    ("check_paper", "Radon root count 3", "checks.json",
     _set(["radon2d_root_count"], 3), {"check.radon_roots"}),
    ("check_paper", "Hessian scan degenerate at x3 != 0", "checks.json",
     _set(["hessian_scans", 0, "degenerate"], True), {"check.hessian_nondegenerate"}),
    ("check_paper", "degeneracy fraction rising as the tolerance shrinks", "checks.json",
     _set(["degeneracy_fractions", 0, "fractions"], [0.0, 0.0, 0.01, 0.02]),
     {"check.degeneracy_monotone"}),
    ("check_paper", "periodic average 0.31", "checks.json",
     _set(["weyl", "periodic_average"], 0.31), {"check.periodic_average"}),
    ("check_paper", "ellipse residual 1e-5", "checks.json",
     _set(["ellipse_identity", "max_abs_residual"], 1e-5), {"check.ellipse_residual"}),
]


class WrongSeedOracle(checks.Checker):
    """Oracle reconstructing with the next noise seed; the program keeps its own."""

    def model(self):
        noise = dataclasses.replace(self.cfg.noise, seed=self.cfg.noise.seed + 1)
        return oracle.FiniteStepModel(self.cfg.geometry, self.kernel, noise, self.points)


def _report(ok, text):
    print(f"{'PASS' if ok else 'FAIL'} {text}")
    return ok


def main(root):
    size = workloads.SMOKE
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        ok = _report(json.load(fh) == bench.spec(),
                     "BENCHMARK.json matches the tables in bench/run.py")
    runs = {}
    try:
        for w in workloads.WORKLOADS:
            run = runs[w.name] = bench.Run(root, w.name, 1, size, "selftest")
            op = run.op = run.cli("op0")
            run.threads1 = run.cli("threads1", threads=1) if run.command == "simulate" else None
            findings = bench.check_outputs(run, op.out, run.threads1) if op.code == 0 else []
            bad = [str(f) for f in findings if not f.ok]
            ok &= _report(op.code == 0 and not bad,
                          f"{w.name}: {len(findings)} checks pass on real outputs {bad}")

        for name, label, filename, edit, expected in CORRUPTIONS:
            run = runs[name]
            corrupt = os.path.join(run.dir, "corrupt")
            shutil.rmtree(corrupt, ignore_errors=True)
            shutil.copytree(run.op.out, corrupt)
            path = os.path.join(corrupt, filename)
            if filename.endswith(".csv"):
                _edit_csv(path, 1, edit)
            else:
                _edit_json(path, edit)
            failing = {f.name for f in bench.check_outputs(run, corrupt, run.threads1)
                       if not f.ok}
            ok &= _report(expected <= failing,
                          f"{name}: {label} rejected by {sorted(failing)}")

        paper = runs["simulate_paper"]
        other = bench.Run(root, "simulate_paper", 2, size, "selftest")
        try:
            op2 = other.cli("op0")
            failing = {f.name for f in bench.check_outputs(paper, op2.out, paper.threads1)
                       if not f.ok}
        finally:
            other.close()
        ok &= _report("simulate.thread_identity" in failing,
                      f"simulate_paper: stats.json from seed 2 rejected by {sorted(failing)}")

        finding = WrongSeedOracle(paper.cfg).check_reconstruct()
        ok &= _report(not finding.ok,
                      f"simulate_paper: reconstruction with another noise seed rejected "
                      f"({finding.detail})")
    finally:
        for run in runs.values():
            run.close()
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1
