"""Traced run: the CLI's public calls in command order, each in a span.

Run as a fresh process (``python3 bench/traced.py ...``) with ``src`` on
``PYTHONPATH``.  It first repeats what one CLI command does, call by call,
under a root span ``command``.  Then, under a root span ``probes``, it
times each layer on fixed inputs: the layers the command skipped, once, and
the per-unit rates, in rounds until the run length is used up.  The 1- and
2-thread reconstructions and the hashing measurement come last, so they do
not disturb the command-order spans.

Spans are kept in memory and written as JSON at the end, together with the
command's results for the checkers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

PROBE_BATCH = 256          # realizations per reconstruction probe
HASH_CHUNK = 32            # realizations hashed together, as in a plan batch
EVAL_POINTS = 1 << 20      # kernel and projection probe sizes
AUTOCORR_LAGS = 32         # lags per autocorrelation probe, per function
ENTRY_CALLS = 5            # warm covariance(offset) calls per round
PROBE_SCAN = 16            # radii of the profile probe where the command has none
# the CLI's battery: eight directions evenly spaced on the unit circle
HESSIAN_DIRECTIONS = np.stack([np.cos(np.arange(8) * np.pi / 4),
                               np.sin(np.arange(8) * np.pi / 4)], axis=-1)


class SpanRecorder:
    """In-memory spans with name, start, end, parent, workload and counts."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **counts):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "workload": self.workload, "start": None, "end": None}
        record.update(counts)
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans):
    """Duration minus the time covered by direct children, per span id."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - start, value


# ---------------------------------------------------------------------------
# the three commands, in the order grf_tomo.cli calls the library
# ---------------------------------------------------------------------------


def _predictor(gt, rec, cfg):
    with rec.span("kernel.autocorr_build"):
        return gt.CovariancePredictor(cfg.geometry, gt.Kernel(cfg.kernel), cfg.center,
                                      panels=cfg.panels, tolerance=cfg.tolerance)


def _matrix(rec, predictor, offsets):
    n = len(offsets)
    with rec.span("covariance.matrix", entries=1 + n * (n - 1) // 2):
        return predictor.covariance_matrix(offsets)


def _profile(rec, predictor, direction, radii):
    with rec.span("covariance.profile", entries=len(radii)):
        return predictor.covariance_profile(direction, radii)


def run_predict(gt, rec, cfg, threads):
    predictor = _predictor(gt, rec, cfg)
    matrix = _matrix(rec, predictor, cfg.offsets)
    results = {"matrix": matrix.tolist(), "variance": matrix[0, 0]}
    scan = cfg.checks.get("covariance_scan")
    if scan:
        radii = np.asarray(scan["radii"], dtype=float)
        values = _profile(rec, predictor, np.asarray(scan["direction"], dtype=float), radii)
        results.update(scan_radii=radii.tolist(), scan_values=values.tolist())
    return results, {"predictor": predictor}


def _plan(gt, rec, cfg, points):
    with rec.span("recon.plan_build", points=len(points)) as record:
        plan = gt.ReconstructionPlan(cfg.geometry, cfg.kernel, cfg.noise, points)
        record["sites"] = int(plan.n_sites)
    return plan


def _stats(gt, rec, samples, predicted, bins):
    from grf_tomo.recon import streaming_moments

    with rec.span("recon.stats"):
        count, mean, com = streaming_moments(samples)
        cov = com / (count - 1)
        for k in range(samples.shape[1]):
            hist = gt.histogram_density(samples[:, k], bins)
            gt.density_mismatch(hist.density, gt.gaussian_on_bins(0.0, predicted[k, k], hist))
        if samples.shape[1] >= 2:
            hist2 = gt.histogram_density_2d(samples[:, :2], bins)
            gt.density_mismatch(hist2.density,
                                gt.gaussian_on_bins(np.zeros(2), predicted[:2, :2], hist2))
    return count, mean, cov


def run_simulate(gt, rec, cfg, threads):
    points = cfg.center + cfg.eps * cfg.offsets
    plan = _plan(gt, rec, cfg, points)
    with rec.span("recon.reconstruct", draws=int(plan.n_sites) * cfg.realizations):
        samples = plan.reconstruct(np.arange(cfg.realizations), threads=threads)
    predictor = _predictor(gt, rec, cfg)
    predicted = _matrix(rec, predictor, cfg.offsets)
    count, mean, cov = _stats(gt, rec, samples, predicted, cfg.bins)
    results = {"n": count, "mean": mean.tolist(), "variance": np.diag(cov).tolist(),
               "covariance": cov.tolist(), "predicted": predicted.tolist()}
    return results, {"predictor": predictor, "plan": plan}


def run_check(gt, rec, cfg, threads):
    from grf_tomo import analysis

    geometry, checks = cfg.geometry, cfg.checks
    rng = np.random.default_rng(cfg.seed)
    n = int(checks.get("ellipse_samples", 10000))
    rho = geometry.admissible_fraction * geometry.radius * np.sqrt(rng.uniform(size=n))
    phi = rng.uniform(0, 2 * np.pi, size=n)
    pts = np.stack([rho * np.cos(phi), rho * np.sin(phi), rng.uniform(-3, 3, size=n)], axis=-1)
    svals = rng.uniform(0, 2 * np.pi, size=n)
    with rec.span("geometry.ellipse_residual", points=n):
        residual = geometry.ellipse_residual(pts, svals)
    report = {"ellipse_identity": {"max_abs_residual": float(np.max(np.abs(residual)))}}

    resolution = int(checks.get("hessian_resolution", 2000))
    scans = []
    with rec.span("analysis.hessian_battery"):
        for point in checks.get("hessian_points") or [list(cfg.center)]:
            reports = analysis.hessian_scan_battery(
                geometry, point, HESSIAN_DIRECTIONS, resolution=resolution)
            scans.append({"point": list(map(float, point)),
                          "degenerate": any(r.degenerate for r in reports)})
    report["hessian_scans"] = scans

    tols = checks.get("degeneracy_tols", [1e-2, 5e-3, 2.5e-3, 1.25e-3])
    samples = int(checks.get("degeneracy_samples", 20000))
    fractions = []
    with rec.span("analysis.degeneracy_scan"):
        for offset in cfg.offsets:
            if np.any(offset):
                frac = analysis.degeneracy_tolerance_scan(
                    geometry, cfg.center, offset, tols, samples=samples)
                fractions.append({"offset": offset.tolist(), "tolerances": list(tols),
                                  "fractions": frac.tolist()})
    report["degeneracy_fractions"] = fractions

    with rec.span("analysis.hessian_battery"):
        radon = analysis.hessian_zero_scan(gt.Radon2DGeometry(), np.array([2.0, 1.0]),
                                           np.array([1.0]), resolution=resolution)
    report["radon2d_root_count"] = radon.count

    weyl = checks.get("weyl", {})
    box = weyl.get("box", [0.2, 0.8])
    with rec.span("analysis.weyl"):
        decay = analysis.weyl_decay_table(
            lambda y: 0.5 * y**2, box,
            exponents=weyl.get("exponents", [-2.0, -2.5, -3.0, -3.5, -4.0, -4.5]))
        average = analysis.equidistributed_average(
            lambda r: np.cos(2 * np.pi * r) ** 2, lambda y: 0.5 * y**2, 1e-4, box)
    report["weyl"] = {"slope": decay.slope, "eps": decay.eps_values.tolist(),
                      "magnitudes": decay.magnitudes.tolist(), "periodic_average": average}
    return report, {}


COMMANDS = {"predict": run_predict, "simulate": run_simulate, "check": run_check}


# ---------------------------------------------------------------------------
# layer probes
# ---------------------------------------------------------------------------


def fill_in(gt, rec, cfg, command, threads, state):
    """Time, once, the layers the command did not run, on its configuration."""
    if command == "check":
        state["predictor"] = _predictor(gt, rec, cfg)
        _matrix(rec, state["predictor"], cfg.offsets)
    if command != "predict":
        first = cfg.offsets[0] if np.any(cfg.offsets[0]) else np.array([1.0, 0.0, 0.0])
        _profile(rec, state["predictor"], first / np.linalg.norm(first),
                 np.linspace(0.0, 8.0, PROBE_SCAN))
    if command != "simulate":
        points = cfg.center + cfg.eps * cfg.offsets
        state["plan"] = plan = _plan(gt, rec, cfg, points)
        with rec.span("recon.reconstruct", draws=int(plan.n_sites) * PROBE_BATCH):
            samples = plan.reconstruct(np.arange(PROBE_BATCH), threads=threads)
        _stats(gt, rec, samples, state["predictor"].covariance_matrix(cfg.offsets), cfg.bins)
    if command != "check":
        run_check(gt, rec, cfg, threads)


def probe_round(gt, cfg, state, threads):
    """One round of per-unit rates; returns a dictionary of measurements."""
    from grf_tomo import noise

    kernel, geometry = gt.Kernel(cfg.kernel), cfg.geometry
    out = {}
    lags = np.linspace(0.0, 2.0 * kernel.spec.support, AUTOCORR_LAGS, endpoint=False)
    t_value, _ = _timed(kernel.autocorrelation, lags, "value")
    t_d2, _ = _timed(kernel.autocorrelation, lags, "d2")
    out["kernel.autocorr_us_per_lag"] = (t_value + t_d2) / (2 * AUTOCORR_LAGS) * 1e6

    t = np.linspace(-4.0, 4.0, EVAL_POINTS)
    t_value, _ = _timed(kernel.value, t)
    t_d2, _ = _timed(kernel.second_derivative, t)
    out["kernel.eval_ns_per_point"] = (t_value + t_d2) / (2 * EVAL_POINTS) * 1e9

    s = np.linspace(0.0, 2.0 * np.pi, EVAL_POINTS, endpoint=False)
    elapsed, _ = _timed(geometry.project, cfg.center, s)
    out["geometry.project_ns_per_point"] = elapsed / EVAL_POINTS * 1e9
    elapsed, _ = _timed(geometry.project_gradient, cfg.center, s)
    out["geometry.project_gradient_ns_per_point"] = elapsed / EVAL_POINTS * 1e9

    predictor = state["predictor"]
    offset = cfg.offsets[0] - cfg.offsets[1] if len(cfg.offsets) > 1 else cfg.offsets[0]
    entry = [_timed(predictor.covariance, offset)[0] for _ in range(ENTRY_CALLS)]
    out["covariance.entry_ms"] = float(np.median(entry)) * 1e3

    plan = state["plan"]
    batch = np.arange(PROBE_BATCH)
    draws = PROBE_BATCH * plan.n_sites
    elapsed, _ = _timed(plan.exact_covariance)
    out["recon.exact_covariance_ms"] = elapsed * 1e3
    t1, one = _timed(plan.reconstruct, batch, threads=1)
    t2, two = _timed(plan.reconstruct, batch, threads=threads)
    out["recon.reconstruct_ns_per_draw_t1"] = t1 / draws * 1e9
    out["recon.thread_speedup"] = t1 / t2
    out["thread_identical"] = bool(np.array_equal(one, two))

    keys = noise.site_keys(plan.site_j, plan.site_k1, plan.site_k2)[:, None]
    start = time.perf_counter()
    for lo in range(0, PROBE_BATCH, HASH_CHUNK):
        streams = noise.stream_keys(cfg.seed, batch[lo:lo + HASH_CHUNK])
        noise.uniform_from_keys(keys, streams[None, :])
    hashing = time.perf_counter() - start
    out["noise.hash_ns_per_draw"] = hashing / draws * 1e9
    out["recon.reduce_ns_per_draw"] = (t1 - hashing) / draws * 1e9
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--command", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    rec = SpanRecorder(args.workload)
    with rec.span("command"):
        with rec.span("cli.import"):
            import grf_tomo as gt
            import grf_tomo.cli  # noqa: F401  (the CLI imports it before any work)
        with rec.span("config.load"):
            cfg = gt.load_config(args.config)
        results, state = COMMANDS[args.command](gt, rec, cfg, args.threads)

    rounds = []
    with rec.span("probes"):
        fill_in(gt, rec, cfg, args.command, args.threads, state)
        while not rounds or time.perf_counter() - started < args.seconds:
            rounds.append(probe_round(gt, cfg, state, args.threads))
    if args.command == "simulate":
        results["reconstruct_thread_identical"] = all(r["thread_identical"] for r in rounds)
        results["thread_detail"] = (f"reconstruct of {PROBE_BATCH} realizations at 1 and "
                                    f"{args.threads} threads bit-identical, {len(rounds)} rounds")

    with open(args.out, "w") as fh:
        json.dump({"spans": rec.spans, "rounds": rounds, "results": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
