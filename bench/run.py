"""grf-tomo benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload simulate_paper --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all            # every workload, both modes
    python3 bench/run.py --workload all --smoke    # the same at reduced size
    python3 bench/run.py --self-test               # each check rejects corruption
    python3 bench/run.py --write-spec              # regenerate BENCHMARK.json

With ``--trace 0`` a run repeats rounds of one set-up probe process and
one ``grf-tomo`` process at ``--threads 2 --assert`` until ``--seconds``
have passed, then checks the outputs and prints the end-to-end metrics.
With ``--trace 1`` it runs bench/traced.py once in a fresh process and
prints the per-layer metrics.  The last line of standard output is always
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

THREADS = 2                 # nproc of the reference machine
PROCESS_TIMEOUT = 150.0     # seconds before a child process is killed
RUN_SECONDS = 55
WORK = ".bench_work"        # scratch space inside the checkout

END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("kernel.autocorr_build_s", "s", "lower"),
    ("kernel.autocorr_us_per_lag", "us", "lower"),
    ("kernel.eval_ns_per_point", "ns", "lower"),
    ("geometry.project_ns_per_point", "ns", "lower"),
    ("geometry.project_gradient_ns_per_point", "ns", "lower"),
    ("geometry.ellipse_residual_s", "s", "lower"),
    ("covariance.entries", "count", "lower"),
    ("covariance.entry_ms", "ms", "lower"),
    ("covariance.matrix_s", "s", "lower"),
    ("covariance.profile_s", "s", "lower"),
    ("recon.points", "count", "lower"),
    ("recon.sites", "count", "lower"),
    ("recon.draws", "count", "lower"),
    ("recon.plan_build_s", "s", "lower"),
    ("recon.reconstruct_s", "s", "lower"),
    ("recon.reconstruct_ns_per_draw_t1", "ns", "lower"),
    ("recon.thread_speedup", "ratio", "higher"),
    ("recon.reduce_ns_per_draw", "ns", "lower"),
    ("recon.exact_covariance_ms", "ms", "lower"),
    ("recon.stats_s", "s", "lower"),
    ("noise.hash_ns_per_draw", "ns", "lower"),
    ("analysis.hessian_battery_s", "s", "lower"),
    ("analysis.degeneracy_scan_s", "s", "lower"),
    ("analysis.weyl_s", "s", "lower"),
    ("trace.total_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# per-layer times: summed durations of the spans with this name
SPAN_TIMES = {
    "cli.import_s": "cli.import",
    "config.load_s": "config.load",
    "kernel.autocorr_build_s": "kernel.autocorr_build",
    "geometry.ellipse_residual_s": "geometry.ellipse_residual",
    "covariance.matrix_s": "covariance.matrix",
    "covariance.profile_s": "covariance.profile",
    "recon.plan_build_s": "recon.plan_build",
    "recon.reconstruct_s": "recon.reconstruct",
    "recon.stats_s": "recon.stats",
    "analysis.hessian_battery_s": "analysis.hessian_battery",
    "analysis.degeneracy_scan_s": "analysis.degeneracy_scan",
    "analysis.weyl_s": "analysis.weyl",
}
ROUND_RATES = [
    "kernel.autocorr_us_per_lag", "kernel.eval_ns_per_point",
    "geometry.project_ns_per_point", "geometry.project_gradient_ns_per_point",
    "covariance.entry_ms", "recon.reconstruct_ns_per_draw_t1", "recon.thread_speedup",
    "recon.reduce_ns_per_draw", "recon.exact_covariance_ms", "noise.hash_ns_per_draw",
]


def spec():
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": workloads.BY_NAME[n].why} for n in workloads.DECLARED],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Process:
    """Wall time and this child's own rusage, from ``os.wait4`` on its pid."""

    def __init__(self, argv, log_path, env):
        start = time.perf_counter()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
            timer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        self.wall = time.perf_counter() - start
        self.code = os.waitstatus_to_exitcode(status)
        proc.returncode = self.code           # reaped here; keep Popen from waiting
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0     # kilobytes on Linux
        self.started = start
        self.log_path = log_path

    def tail(self, lines=5):
        with open(self.log_path, errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])


class Run:
    """Work directory and child-process environment of one benchmark run."""

    def __init__(self, root, workload, seed, size, tag):
        self.root = root
        self.workload = workloads.BY_NAME[workload]
        self.seed = seed
        self.dir = os.path.join(root, WORK, f"{workload}-s{seed}-{tag}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.json")
        self.cfg = workloads.write_config(self.config_path, workload, seed, size, root)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    @property
    def command(self):
        return self.workload.command

    def cli(self, name, threads=THREADS):
        out = os.path.join(self.dir, name)
        argv = [sys.executable, "-m", "grf_tomo.cli", self.command,
                "--config", self.config_path, "--out", out,
                "--threads", str(threads), "--assert"]
        proc = Process(argv, out + ".log", self.env)
        proc.out = out
        return proc

    def setup_probe(self, name):
        argv = [sys.executable, os.path.join(BENCH, "setup_probe.py"),
                self.command, self.config_path]
        return Process(argv, os.path.join(self.dir, name + ".log"), self.env)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def output_files(out_dir):
    return sorted(f for f in os.listdir(out_dir) if f != "manifest.json")


def same_outputs(a, b):
    """Numeric outputs of two runs are byte-identical (manifests differ by timestamp)."""
    names = output_files(a)
    if names != output_files(b):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def fingerprint():
    """Machine and toolchain description recorded with every result."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {"nproc": os.cpu_count(), "cpu": cpu, "l2": caches.get("L2"),
            "l3": caches.get("L3"), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def checks_module():
    import checks    # imports scipy and grf_tomo, so only once timing is over

    return checks


def check_outputs(run, out_dir, threads1=None):
    """Findings on one CLI output directory; ``threads1`` is a 1-thread rerun."""
    checks = checks_module()
    results = checks.load_cli_results(run.command, out_dir)
    if threads1 is not None:
        results["thread_identical"] = threads1.code == 0 and same_outputs(out_dir, threads1.out)
    return checks.Checker(run.cfg).check(run.command, results)


def end_to_end(run, seconds):
    probes, ops = [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        probes.append(run.setup_probe(f"setup{len(probes)}"))
        ops.append(run.cli(f"op{len(ops)}"))
    failed = sum(p.code != 0 for p in ops + probes)
    for p in ops + probes:
        if p.code != 0:
            print(f"exit {p.code}: {p.log_path}\n{p.tail()}")

    findings = []
    good = [p for p in ops if p.code == 0]
    if good:
        findings = check_outputs(run, good[0].out)
        findings.append(checks_module().Finding(
            "outputs_repeat", all(same_outputs(good[0].out, p.out) for p in good[1:]),
            f"{len(good)} processes wrote byte-identical outputs"))
    # A process's peak RSS takes one of a few values, set by how its threads'
    # batch buffers overlap, so the largest over the run is the steady one.
    metrics = {
        "wall_s": statistics.median(p.wall for p in ops),
        "cpu_s": statistics.median(p.cpu for p in ops),
        "setup_s": statistics.median(p.wall for p in probes),
        "peak_rss_mb": max(p.rss_mb for p in ops),
    }
    print("samples: " + json.dumps({
        "wall_s": [round(p.wall, 4) for p in ops], "cpu_s": [round(p.cpu, 4) for p in ops],
        "peak_rss_mb": [round(p.rss_mb, 1) for p in ops],
        "setup_s": [round(p.wall, 4) for p in probes]}))
    correct = bool(good) and all(f.ok for f in findings)
    return correct, len(ops) + len(probes), failed, metrics, findings


def traced(run, seconds):
    from traced import self_times

    out = os.path.join(run.dir, "trace.json")
    argv = [sys.executable, os.path.join(BENCH, "traced.py"), "--workload", run.workload.name,
            "--command", run.command, "--config", run.config_path,
            "--seconds", str(seconds), "--threads", str(THREADS), "--out", out]
    proc = Process(argv, out + ".log", run.env)
    if proc.code != 0:
        print(f"traced run exited {proc.code}\n{proc.tail(20)}")
        return False, 1, 1, {}, []
    with open(out) as fh:
        data = json.load(fh)
    spans, rounds = data["spans"], data["rounds"]
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def root(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span["name"]

    def total(name, where):
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name and root(s) == where)

    def count(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name and root(s) == "command")

    metrics = {}
    for metric, name in SPAN_TIMES.items():
        metrics[metric] = total(name, "command") or total(name, "probes")
    for metric in ROUND_RATES:
        metrics[metric] = statistics.median(r[metric] for r in rounds)
    metrics["covariance.entries"] = count("covariance.matrix", "entries") + \
        count("covariance.profile", "entries")
    metrics["recon.points"] = count("recon.plan_build", "points")
    metrics["recon.sites"] = count("recon.plan_build", "sites")
    metrics["recon.draws"] = count("recon.reconstruct", "draws")
    command_span = next(s for s in spans if s["name"] == "command")
    metrics["trace.total_s"] = command_span["end"] - proc.started

    os.makedirs(os.path.join(run.root, WORK, "spans"), exist_ok=True)
    for s in spans:
        s["self"] = own[s["id"]]
    path = os.path.join(run.root, WORK, "spans", f"{run.workload.name}-seed{run.seed}.json")
    with open(path, "w") as fh:
        json.dump({"spans": spans, "rounds": rounds, "fingerprint": fingerprint()}, fh, indent=1)

    findings = checks_module().Checker(run.cfg).check(run.command, data["results"])
    attempted, failed = 1 + len(rounds), 0
    if run.command == "simulate":
        # the CLI's own outputs at 1 and 2 threads, once the spans are taken
        pair = [run.cli("threads2"), run.cli("threads1", threads=1)]
        attempted += 2
        failed += sum(p.code != 0 for p in pair)
        if pair[0].code == 0:
            findings += [f for f in check_outputs(run, pair[0].out, pair[1])
                         if f.name == "simulate.thread_identity"]
        else:
            findings.append(checks_module().Finding(
                "simulate.cli", False, f"exit {pair[0].code}: {pair[0].tail()}"))
    return all(f.ok for f in findings), attempted, failed, metrics, findings


def measure(root, workload, seed, seconds, trace, size, quiet=False):
    run = Run(root, workload, seed, size, "trace" if trace else "e2e")
    try:
        correct, attempted, failed, metrics, findings = \
            (traced if trace else end_to_end)(run, seconds)
    finally:
        run.close()
    for f in findings:
        if not (quiet and f.ok):
            print(f"  {f}")
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()}}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def source_ready(root):
    return os.path.isfile(os.path.join(root, "src", "grf_tomo", "__init__.py")) and \
        os.path.isfile(os.path.join(root, workloads.PRESET))


def build(root):
    """Byte-compile the package so the first timed process pays no compile cost."""
    return compileall.compile_dir(os.path.join(root, "src", "grf_tomo"), quiet=1)


def run_all(root, seed, seconds, size):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            print(f"== {w.name} ({'traced' if trace else 'end to end'})")
            result = measure(root, w.name, seed, seconds, trace, size, quiet=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
                combined["metrics"][f"{w.name}.{name}"] = m
    return combined


def _terminate(signum, frame):
    raise SystemExit(128 + signum)     # unwinds through Process, which kills its child


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="grf-tomo benchmark")
    parser.add_argument("--workload", default="all",
                        choices=["all"] + [w.name for w in workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"run length (default {RUN_SECONDS}, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workload sizes, every code path kept")
    parser.add_argument("--self-test", action="store_true",
                        help="show that every check rejects a corrupted output")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the tables in this file")
    args = parser.parse_args(argv)
    root = os.getcwd()

    if args.write_spec:
        with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if not source_ready(root):
        print("bench: run from the root of a grf-tomo checkout "
              f"(no src/grf_tomo or {workloads.PRESET} under {root})", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(root, "src"))
    if not build(root):
        print("bench: byte-compiling src/grf_tomo failed", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main(root)

    size = workloads.SMOKE if args.smoke else workloads.FULL
    seconds = args.seconds if args.seconds is not None else (1 if args.smoke else RUN_SECONDS)
    print("fingerprint: " + json.dumps(fingerprint()))
    if args.workload == "all":
        result = run_all(root, args.seed, seconds, size)
    else:
        result = measure(root, args.workload, args.seed, seconds, args.trace, size)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
