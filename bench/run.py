"""Benchmark of the rmnml command-line tool.

Run from the root of a checkout::

    python3 bench/run.py --workload codelength-small --seed 0 --seconds 32 --trace 0
    python3 bench/run.py --compare before.jsonl after.jsonl

One closed loop with one client: this process drives ``rmnml.cli.main``
in process (``validate-quick`` runs each op in a fresh interpreter, as a
user does), one op at a time.  BLAS threads are capped at 1 before numpy
is imported, so the load stays within two cores.  Op inputs come from
``--seed`` and every output is checked; an op that raises, exits non-zero
or fails a check counts as failed.  Each CLI call of a measured op is
bracketed by a few milliseconds of fixed calibration work, so that op
times can also be read at a reference host speed (see END_TO_END).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` reruns the
fixed op list under spans and counters placed around rmnml's public
functions and prints the per-layer metrics.  Either way the expected-error
probes run once, outside every metric.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--out FILE`` appends the full record (environment, every metric,
probes, ops, spans) to a JSON-lines file; ``--compare A B`` prints, per
workload and metric, each side's median and quartiles and their ratio.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 60.0

WORKLOADS = ("codelength-small", "roundtrip-large", "validate-quick")


class Plan(NamedTuple):
    """How one workload is run.

    ``ops`` is the fixed list that opens the measured window; its time is
    ``wall_s`` and the traced run repeats it.  More ops follow until
    ``--seconds`` have passed.  ``cold`` fresh interpreters each import
    rmnml.cli and run one op, spread over the window by time.
    ``validate-quick`` runs every op in a fresh interpreter, so each of its
    ops is a cold op and gives an import time.
    """

    ops: int
    warmup: int
    cold: int
    in_process: bool


PLANS = {
    "codelength-small": Plan(ops=100, warmup=2, cold=20, in_process=True),
    "roundtrip-large": Plan(ops=6, warmup=1, cold=12, in_process=True),
    "validate-quick": Plan(ops=3, warmup=0, cold=0, in_process=False),
}
TINY_PLANS = {
    "codelength-small": Plan(4, 1, 1, True),
    "roundtrip-large": Plan(2, 1, 1, True),
    "validate-quick": Plan(1, 0, 0, False),
}

# name, unit, meaning.  These are the result line's metrics with --trace 0.
# Each vCPU of the host switches between a fast and a slow mode, about 1.8x
# apart, every second or so, and the share of slow time drifts over minutes,
# moving a run's median op time by 20-40%.  So every CLI call of a measured
# op is bracketed by a few milliseconds of fixed calibration work, and the
# gated op times are scaled to a reference host speed (workloads.invoke and
# scaled_seconds).  The plain times are printed beside them.
END_TO_END = (
    ("setup_s", "s", "import of rmnml.cli in a fresh interpreter, median"),
    ("cold_op_scaled_s", "s", "first op in a fresh process, import excluded, "
                              "scaled to the reference host speed, median"),
    ("op_p50_scaled_s", "s", "op time scaled to the reference host speed "
                             "(import excluded), median over the measured window"),
    ("peak_rss_mb", "MB", "peak resident memory of the op process "
                          "(validate-quick: of its largest child)"),
)
# Printed, not in the result line.  The 90th percentile stands only with at
# least ten ops beyond it, which codelength-small alone has; elsewhere it
# reads nan.  The failed share is 0 whenever the program is correct; the
# result line's "attempted" and "failed" carry it.
P90_MIN_OPS = 100
REPORT_ONLY = (
    ("cold_op_s", "s", "first op in a fresh process, import excluded, median"),
    ("wall_s", "s", "wall time of the fixed op list, after warm-up"),
    ("op_p50_s", "s", "median op time over the measured window"),
    ("op_p90_s", "s", f"90th-percentile op time, given {P90_MIN_OPS} or more ops"),
    ("ops_failed_ratio", "ratio", "failed ops / attempted ops"),
)

# workload, end-to-end metrics it should move, per-layer metrics
LAYER_GROUPS = (
    ("codelength-small", "op_p50_scaled_s, op_p50_s, op_p90_s, wall_s", (
        "complexity.pc_hgd_s", "complexity.hgd_sigma_integral_s",
        "quadrature.integrate_1d_calls", "quadrature.integrand_evals",
        "gaussian.xi_calls", "gaussian.xi_derivatives_calls", "gaussian.mle_s",
        "gaussian.mle.xi_calls")),
    ("roundtrip-large", "op_p50_scaled_s, op_p50_s, wall_s, peak_rss_mb", (
        "cli.load_dataset_s", "cli.write_dataset_s", "gaussian.sample_s",
        "gaussian.dataset_init_s", "gaussian.frechet_mean_s", "gaussian.log_lik_s",
        "complexity.chart_gap_s", "hyperbolic.lorentz_points",
        "hyperbolic.sqrt_det_metric_calls", "hyperbolic.dist_many_calls",
        "hyperbolic.dist_many_rows")),
    ("validate-quick", "wall_s", (
        "validation.check_xi_s", "validation.check_fisher_s",
        "validation.check_reparameterization_s", "validation.check_kraft_s",
        "validation.check_mc_pipeline_s", "fisher.fisher_integral_s",
        "fisher.fisher_numeric_s", "coding.cell_codelengths_s",
        "quadrature.integrand_evals")),
    ("every workload", "setup_s", (
        "setup.import_numpy_s", "setup.import_scipy_s", "setup.import_rmnml_s")),
    ("every workload", "wall_s of the traced run", ("trace.overhead_s",)),
)
LAYER_METRICS = tuple(dict.fromkeys(m for _, _, group in LAYER_GROUPS for m in group))
# The result line's metrics with --trace 1: every count, and the times that
# every workload produces.  A span a workload never enters reads exactly 0
# on every run of it, and scipy's import share reads 0 once scipy is
# imported lazily; those stay in the printed report and the --out record.
RESULT_LAYER_METRICS = tuple(
    m for m in LAYER_METRICS
    if not m.endswith("_s") or m in ("gaussian.dataset_init_s", "setup.import_numpy_s",
                                     "setup.import_rmnml_s", "trace.overhead_s"))

# name, CLI arguments: known defects, run once per invocation under a
# wall-clock cap and reported outside every metric, so that a fix changes
# their outcome without touching any gate.
PROBES = (
    ("pc-dim-16", ["pc", "--dim", "16", "--n", "1000"]),
    ("pc-dim-8", ["pc", "--dim", "8", "--n", "1000"]),
    ("nan-coordinate", ["codelength", "--data", "{nan_dataset}"]),
    ("frechet-stall", ["codelength", "--data", "{frechet_stall}"]),
)
PROBE_CAP_S, TINY_PROBE_CAP_S = 4.0, 2.0
IMPORTTIME_RUNS, TINY_IMPORTTIME_RUNS = 3, 1


def unit_of(metric: str) -> str:
    units = {name: unit for name, unit, _ in END_TO_END + REPORT_ONLY}
    return units.get(metric, "s" if metric.endswith("_s") else "count")


# -- environment ------------------------------------------------------------

def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(thread_env) -> dict:
    files = sorted((SRC / "rmnml").rglob("*.py"))
    digest = hashlib.sha256()
    lines, deps = 0, set()
    for path in files:
        text = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + text)
        lines += text.count(b"\n")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                deps.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                deps.add(node.module.split(".")[0])
    deps -= set(sys.stdlib_module_names) | {"rmnml", "__future__"}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_thread_cap": thread_env,
        "blas_thread_cap_note": "set by the harness before numpy is imported; "
                                "RM_NML_THREADS is not used",
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_dependencies": sorted(deps),
        "src_dependency_count": len(deps),
        "timers": "process-local only (perf_counter, getrusage); host speed "
                  "gauged by timing calibration_work around each call; no perf "
                  "counters, no cache dropping, no CPU pinning",
        "load": "closed loop, 1 client, one op at a time; single-threaded, "
                "so nothing waits on a queue, lock or other process and no "
                "waiting time is reported",
    }


# -- the measured run -------------------------------------------------------

class Runner:
    """Runs one workload's ops and keeps every op's outcome."""

    def __init__(self, args, workdir: Path, env: dict):
        import rmnml.cli
        import workloads

        self.args, self.env = args, env
        self.main = rmnml.cli.main
        self.w = workloads
        self.workload = workloads.WORKLOADS[args.workload](workdir, args.tiny)
        self.plan = (TINY_PLANS if args.tiny else PLANS)[args.workload]
        use_ref = args.seed == workloads.REFERENCE_SEED and not args.tiny
        self.reference = workloads.load_reference(args.workload) if use_ref else {}
        self.ops: list[dict] = []
        self.summaries: dict[str, dict] = {}
        self.spans: list[dict] = []
        self.missing: set[str] = set()

    def finish(self, op, phase, seconds, calls, extra=None) -> dict:
        if op.key == f"op-{self.args.corrupt_op}" and calls and calls[-1]["code"] == 0:
            self.workload.corrupt(calls)
        summary, errors = self.workload.check(op, calls)
        if op.key in self.reference:
            errors += self.w.compare_reference(summary, self.reference[op.key])
        op.cleanup()
        self.summaries[op.key] = summary
        record = {"key": op.key, "phase": phase, "seconds": seconds,
                  "ok": not errors, "errors": errors, **(extra or {})}
        self.ops.append(record)
        return record

    def run_child_op(self, op, phase, trace=False) -> dict:
        """Run ``op`` in a fresh interpreter (``child.py``) and check it."""
        spec = json.dumps({"argvs": op.argvs, "key": op.key, "trace": trace})
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), spec],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            wall = time.perf_counter() - start
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            error = None
            if Path(result["module"]).resolve().parent.parent != SRC.resolve():
                error = f"child imported {result['module']}"
        except subprocess.TimeoutExpired:
            wall, error = time.perf_counter() - start, "child timed out"
        except (IndexError, json.JSONDecodeError):
            tail = (proc.stderr.strip().splitlines() or [""])[-1]
            error = f"child exited {proc.returncode}: {tail}"[:300]
        if error:
            op.cleanup()
            record = {"key": op.key, "phase": phase, "seconds": wall, "ok": False,
                      "errors": [error]}
            self.ops.append(record)
            return record
        self.spans += result.get("spans", [])
        self.missing.update(result.get("missing", []))
        return self.finish(op, phase, wall, result["calls"], {
            "import_s": result["import_s"], "op_s": result["op_s"],
            "scaled_s": result.get("op_scaled_s"),
            "rss_mb": result["rss_mb"], "totals": result.get("totals")})

    def run_op(self, stream, index, phase, tracer=None) -> dict:
        """Run one op; ``tracer`` traces it (in process) or asks the child to."""
        op = self.workload.make(self.args.seed, stream, index)
        if not self.plan.in_process:
            return self.run_child_op(op, phase, trace=tracer is not None)
        if tracer is None:
            seconds, calls = self.w.invoke(self.main, op.argvs, calibrate=True)
            return self.finish(op, phase, seconds, calls,
                               {"scaled_s": self.w.scaled_seconds(calls)})
        (seconds, calls), totals = tracer.run_op(
            op.key, lambda: self.w.invoke(self.main, op.argvs))
        return self.finish(op, phase, seconds, calls, {"totals": totals})

    def measure(self) -> dict:
        import resource

        plan, trace = self.plan, self.args.trace
        for j in range(plan.warmup):
            self.run_op("warm", j, "warm")

        # the traced run times the fixed list alone; otherwise ops go on
        # until the next one would end past --seconds, and the cold ops are
        # due at even times over the window, so that they see the same
        # stretch of machine time as the ops do
        seconds = 0.0 if trace else self.args.seconds
        due = [] if trace else [(j + 0.5) * seconds / plan.cold for j in range(plan.cold)]
        coldrecs, measured = [], []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(coldrecs) < len(due) and elapsed >= due[len(coldrecs)]:
                op = self.workload.make(self.args.seed, "cold", len(coldrecs))
                coldrecs.append(self.run_child_op(op, "cold"))
                continue
            index = len(measured)
            if index >= plan.ops and elapsed + measured[-1]["seconds"] > seconds:
                break
            phase = "list" if index < plan.ops else "fill"
            measured.append(self.run_op("op", index, phase))
        for j in range(len(coldrecs), len(due)):
            op = self.workload.make(self.args.seed, "cold", j)
            coldrecs.append(self.run_child_op(op, "cold"))
        wall = sum(r["seconds"] for r in measured[:plan.ops])
        if plan.in_process:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            coldrecs = measured
            rss = max(r.get("rss_mb", 0.0) for r in measured)
        times = [r["seconds"] for r in measured]

        if not trace:
            setup = [r["import_s"] for r in coldrecs if "import_s" in r]
            cold = [r["op_s"] for r in coldrecs if "op_s" in r]
            cold_scaled = [r["scaled_s"] for r in coldrecs if r.get("scaled_s")]
            return {
                "setup_s": statistics.median(setup) if setup else float("nan"),
                "cold_op_scaled_s": (statistics.median(cold_scaled) if cold_scaled
                                     else float("nan")),
                "op_p50_scaled_s": statistics.median(
                    r["scaled_s"] for r in measured if r.get("scaled_s")),
                "peak_rss_mb": rss,
                "cold_op_s": statistics.median(cold) if cold else float("nan"),
                "wall_s": wall,
                "op_p50_s": statistics.median(times),
                "op_p90_s": (statistics.quantiles(times, n=10)[8]
                             if len(times) >= P90_MIN_OPS else float("nan")),
                "measured_ops": len(measured),
                "setup_samples": len(setup),
                "cold_samples": len(cold),
            }

        from tracer import Tracer

        tracer = Tracer()
        if plan.in_process:
            tracer.install()
        try:
            traced = [self.run_op("op", i, "traced", tracer) for i in range(plan.ops)]
        finally:
            tracer.uninstall()
        self.spans += tracer.spans
        self.missing.update(tracer.missing)
        layers = {}
        for name in LAYER_METRICS:
            if name.startswith(("setup.", "trace.")):
                continue
            values = [(r.get("totals") or {}).get(name, 0) for r in traced]
            layers[name] = statistics.median(values)
        layers["trace.overhead_s"] = sum(r["seconds"] for r in traced) - wall
        layers["traced_ops"] = len(traced)
        return layers


def importtime(env, runs: int) -> dict:
    """Self import time of numpy, scipy and rmnml, from -X importtime."""
    samples = {"numpy": [], "scipy": [], "rmnml": []}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rmnml.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            package = parts[2].strip().split(".")[0]
            if package in totals and parts[0].split(":")[1].strip().isdigit():
                totals[package] += int(parts[0].split(":")[1]) * 1e-6
        for package, value in totals.items():
            samples[package].append(value)
    return {f"setup.import_{p}_s": statistics.median(v) for p, v in samples.items()}


def run_probes(env, workdir: Path, cap: float) -> list[dict]:
    """Start every probe at once; stop each at the cap."""
    import workloads

    nan_dataset = workdir / "nan-coordinate.json"
    points = [[1.0 + 0.01 * i * i, 0.0, 0.0] for i in range(20)]
    for row in points:
        row[1] = (row[0] * row[0] - 1.0) ** 0.5
    points.append([1.0, float("nan"), 0.0])
    nan_dataset.write_text(json.dumps({"chart": "lorentz", "dim": 2, "points": points}))
    frechet_stall = workdir / "frechet-stall.json"
    workloads.write_frechet_stall(frechet_stall)
    running = []
    for name, argv in PROBES:
        argv = [a.format(nan_dataset=nan_dataset, frechet_stall=frechet_stall)
                for a in argv]
        err = open(workdir / f"{name}.err", "w+")
        proc = subprocess.Popen([sys.executable, "-m", "rmnml.cli", *argv], cwd=ROOT,
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        running.append((name, argv, proc, err, time.perf_counter()))
    finished = {}
    deadline = time.perf_counter() + cap
    while len(finished) < len(running) and time.perf_counter() < deadline:
        for name, _, proc, _, start in running:
            if name not in finished and proc.poll() is not None:
                finished[name] = time.perf_counter() - start
        time.sleep(0.005)
    results = []
    for name, argv, proc, err, start in running:
        if name in finished:
            outcome, seconds = f"exit {proc.returncode}", finished[name]
        else:
            proc.kill()
            outcome, seconds = "timed out", cap
        proc.wait()
        err.seek(0)
        lines = err.read().strip().splitlines()
        err.close()
        results.append({"name": name, "argv": ["rmnml", *argv], "outcome": outcome,
                        "exit_code": proc.returncode if name in finished else None,
                        "seconds": seconds, "message": (lines[-1] if lines else "")[:200]})
    return results


# -- printing ---------------------------------------------------------------

def print_report(args, env_record, values, probes, failures, ops_total, ops_failed):
    print(f"rmnml benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}{' tiny' if args.tiny else ''}")
    for key in ("nproc", "python", "numpy", "scipy", "blas_thread_cap", "commit",
                "src_sha256", "src_lines", "src_dependency_count", "timers", "load"):
        print(f"  env {key}: {env_record[key]}")
    print(f"  ops attempted={ops_total} failed={ops_failed}")
    if not args.trace:
        print(f"  measured ops={values['measured_ops']}, setup samples="
              f"{values['setup_samples']}, cold samples={values['cold_samples']}")
        print("end-to-end metrics:")
        for name, unit, meaning in END_TO_END + REPORT_ONLY:
            print(f"  {name:<18} {values[name]:>14.6g} {unit:<6} {meaning}")
    else:
        print(f"per-layer metrics (self time or count, median per op over "
              f"{values['traced_ops']} traced ops):")
        for workload, moves, group in LAYER_GROUPS:
            print(f"  [{workload} -> {moves}]")
            for name in group:
                print(f"    {name:<40} {values[name]:>14.10g} {unit_of(name)}")
        if values["missing"]:
            print(f"  not found in the program (read 0): {', '.join(values['missing'])}")
    print("expected errors (known defects; outside every metric and gate):")
    for p in probes:
        print(f"  {p['name']:<15} {p['outcome']:<10} after {p['seconds']:.2f} s  "
              f"{' '.join(p['argv'])}  {p['message']}")
    for line in failures[:10]:
        print(f"  FAILED {line}")


def run(args) -> int:
    if not (SRC / "rmnml" / "cli.py").is_file():
        print(f"error: no rmnml package at {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    thread_env = {var: str(THREAD_CAP) for var in THREAD_VARS}
    os.environ.update(thread_env)  # before numpy is imported below
    # children read and write cached bytecode, as an installed package does
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args, workdir, env)
        if Path(sys.modules["rmnml"].__file__).resolve().parent.parent != SRC.resolve():
            print(f"error: imported rmnml from {sys.modules['rmnml'].__file__}, "
                  f"not from {SRC}", file=sys.stderr)
            return 2
        values = runner.measure()
        probes = run_probes(env, workdir, TINY_PROBE_CAP_S if args.tiny else PROBE_CAP_S)
        if args.trace:
            values.update(importtime(env, TINY_IMPORTTIME_RUNS if args.tiny
                                     else IMPORTTIME_RUNS))
            values["missing"] = sorted(runner.missing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = len(runner.ops)
    failed = sum(not r["ok"] for r in runner.ops)
    values["ops_failed_ratio"] = failed / attempted if attempted else 1.0
    failures = [f"{r['key']} ({r['phase']}): {'; '.join(r['errors'])}"
                for r in runner.ops if not r["ok"]]
    env_record = environment(thread_env)
    names = RESULT_LAYER_METRICS if args.trace else tuple(n for n, _, _ in END_TO_END)
    metrics = {n: {"value": values[n], "unit": unit_of(n)} for n in names}

    if args.record_reference:
        keys = [r["key"] for r in runner.ops if r["phase"] in ("cold", "list")]
        path = runner.w.REFERENCE_PATH
        reference = json.loads(path.read_text()) if path.exists() else {}
        reference[args.workload] = {k: runner.summaries[k] for k in keys}
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    if args.out:
        every = (LAYER_METRICS if args.trace else
                 tuple(n for n, _, _ in END_TO_END + REPORT_ONLY))
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
                  "correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {n: {"value": values[n], "unit": unit_of(n)}
                              for n in every},
                  "environment": env_record, "expected_errors": probes,
                  "ops": runner.ops, "spans": runner.spans}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    print_report(args, env_record, values, probes, failures, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# -- compare ----------------------------------------------------------------

def _stats(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def compare(path_a: str, path_b: str) -> int:
    sides = []
    for path in (path_a, path_b):
        table: dict[tuple[str, str], list[float]] = {}
        with open(path) as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    for name, metric in record["metrics"].items():
                        table.setdefault((record["workload"], name), []).append(
                            metric["value"])
        sides.append(table)
    a, b = sides
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<17} {'metric':<40} {'unit':<5} "
          f"{'A median [q1, q3] (runs)':<36} {'B median [q1, q3] (runs)':<36} B/A")
    for key in sorted(set(a) | set(b)):
        cells = []
        for table in (a, b):
            if key in table:
                med, q1, q3 = _stats(table[key])
                cells.append(f"{med:.6g} [{q1:.4g}, {q3:.4g}] ({len(table[key])})")
            else:
                cells.append("-")
        ratio = "-"
        if key in a and key in b:
            base = _stats(a[key])[0]
            ratio = (f"{_stats(b[key])[0] / base:.4f} (base {base:.6g})" if base
                     else f"undefined (base {base:.6g})")
        print(f"{key[0]:<17} {key[1]:<40} {unit_of(key[1]):<5} {cells[0]:<36} "
              f"{cells[1]:<36} {ratio}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files and exit")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--corrupt-op", type=int, default=None, metavar="I",
                        help="corrupt the output of measured op I before its "
                             "check (self-test of the checks)")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the reference")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
