"""Workload inputs, op invocation and output checks.

Every op is one or more ``rmnml`` CLI invocations.  Its inputs come from
``(seed, stream, index)`` alone, so the same seed gives the same ops in
any run, on any commit.  Checks hold for any seed; at ``REFERENCE_SEED``
the outputs are also compared with ``reference.json``, recorded at the
commit that introduced the benchmark.
"""

from __future__ import annotations

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_SEED = 1
REFERENCE_PATH = Path(__file__).with_name("reference.json")
#: Relative tolerance of the reference comparison and closed-form checks.
REL_TOL = 1e-8
#: The hyperboloid residual a sampled row may carry (rmnml's own tolerance).
ON_MANIFOLD_TOL = 1e-9

REPORT_FLOATS = ("neg_max_loglik", "log_pc", "total",
                 "chart_gap_lorentz_graph", "chart_gap_poincare")


@dataclass
class Op:
    """One closed-loop request: CLI argument lists run in order."""

    key: str
    argvs: list[list[str]]
    expect: dict = field(default_factory=dict)
    files: list[Path] = field(default_factory=list)

    def cleanup(self):
        for path in self.files:
            path.unlink(missing_ok=True)


#: calibration_work's time on the reference host: a call's scaled time is
#: ``seconds * CALIBRATION_REF_S / calibration_s``.
CALIBRATION_REF_S = 0.005


def calibration_work() -> float:
    """Fixed work, independent of rmnml, in the program's mix of Python
    float arithmetic, JSON and numpy; about 5 ms on a 2-vCPU Xeon host."""
    acc = 0.0
    for i in range(1, 5001):
        x = 1.0 + i * 1e-4
        acc += math.log(x) * math.sqrt(x)
    rows = [[1.0 + i * 1e-3, i * 0.5, -i * 0.25] for i in range(800)]
    acc += len(json.loads(json.dumps(rows)))
    grid = np.linspace(1.0, 2.0, 25_000)
    return acc + float(np.sum(np.log1p(grid) * np.sqrt(grid)))


def time_calibration() -> float:
    """Seconds one calibration_work call takes now: the host's speed in the
    moment."""
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def invoke(main, argvs, calibrate=False) -> tuple[float, list[dict]]:
    """Run each argument list through ``main`` in this process.

    Returns the time spent in the calls and one record per call with the
    exit code, the captured output, the exception, if any, and the call's
    ``seconds``.  Stops at the first call that does not exit 0.  With
    ``calibrate``, each call is bracketed by two time_calibration() calls
    and its record holds their mean as ``calibration_s``.
    """
    calls = []
    after = time_calibration() if calibrate else None
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op
            code, error = None, f"{type(exc).__name__}: {exc}"
        record = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                  "error": error, "seconds": time.perf_counter() - start}
        if calibrate:
            before, after = after, time_calibration()
            record["calibration_s"] = (before + after) / 2
        calls.append(record)
        if code != 0:
            break
    return sum(call["seconds"] for call in calls), calls


def scaled_seconds(calls) -> float:
    """The calls' time at the reference host speed: each call's time scaled
    by the host speed measured around it (``invoke(..., calibrate=True)``)."""
    return sum(call["seconds"] * CALIBRATION_REF_S / call["calibration_s"]
               for call in calls)


#: Independent input streams: cold ops, warm-up ops, measured ops.
STREAMS = {"cold": 0, "warm": 1, "op": 2}


def _rng(seed: int, stream: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, STREAMS[stream], index])


def _exp_origin(v: np.ndarray) -> np.ndarray:
    """Rows of tangent vectors at the origin mapped onto the hyperboloid."""
    r = np.linalg.norm(v, axis=1)
    scale = np.sinh(r) / np.where(r > 0.0, r, 1.0)
    return np.column_stack([np.cosh(r), scale[:, None] * v])


def _cloud(rng, n: int, dim: int, spread_scale: float) -> np.ndarray:
    """n points scattered about a random centre within distance 1 of the origin."""
    center = rng.standard_normal(dim)
    center *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(center), 1e-12)
    spread = rng.uniform(0.3, 1.2) * spread_scale
    return _exp_origin(center + spread * rng.standard_normal((n, dim)))


def write_frechet_stall(path: Path):
    """A D = 5, n = 500 dataset on which rmnml's Frechet mean stalls.

    Its spread puts the largest Hessian eigenvalue of the mean's objective
    at about 2, the edge of stability for the fixed unit step, so the
    iteration oscillates without the objective ever rising and the step
    halving never starts.
    """
    _write_points(path, _cloud(_rng(501, "op", 107), 500, 5, 1.0))


def _write_points(path: Path, coords: np.ndarray):
    with open(path, "w") as handle:
        json.dump({"chart": "lorentz", "dim": coords.shape[1] - 1,
                   "points": coords.tolist()}, handle)


def _domain_args(rng) -> list[str]:
    radius = rng.uniform(2.5, 4.0)
    lo, hi = rng.uniform(0.08, 0.3), rng.uniform(2.0, 3.5)
    return ["--radius", repr(float(radius)), "--sigma", f"{lo!r}:{hi!r}"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(b), 1.0)


def check_report(text: str, x0: np.ndarray, dim: int) -> tuple[dict, list[str]]:
    """Checks on a ``codelength`` JSON report that hold for any input."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return {}, [f"codelength output is not JSON: {exc}"]
    missing = [k for k in REPORT_FLOATS + ("n", "dim", "boundary_flag")
               if k not in report]
    if missing:
        return report, [f"codelength output lacks {missing}"]
    errors = []
    if report["n"] != x0.size or report["dim"] != dim:
        errors.append(f"n, dim = {report['n']}, {report['dim']}; "
                      f"expected {x0.size}, {dim}")
    if not all(isinstance(report[k], (int, float)) and math.isfinite(report[k])
               for k in REPORT_FLOATS):
        return report, errors + ["a code-length field is not finite"]
    parts = report["neg_max_loglik"] + report["log_pc"]
    if abs(report["total"] - parts) > 1e-12 * max(abs(report["neg_max_loglik"]),
                                                   abs(report["log_pc"]), 1.0):
        errors.append(f"total {report['total']!r} != neg_max_loglik + log_pc "
                      f"= {parts!r}")
    # chart gaps in closed form: sqrt det g is (1 + x0)^D in the Poincare
    # chart and 1 / x0 in the Lorentz graph chart
    gaps = {"chart_gap_poincare": -dim * float(np.sum(np.log1p(x0))),
            "chart_gap_lorentz_graph": float(np.sum(np.log(x0)))}
    for key, value in gaps.items():
        if not _close(report[key], value):
            errors.append(f"{key} {report[key]!r} != closed form {value!r}")
    if not isinstance(report["boundary_flag"], bool):
        errors.append("boundary_flag is not a boolean")
    return report, errors


def _summary(report: dict) -> dict:
    return {k: report[k] for k in REPORT_FLOATS + ("boundary_flag",) if k in report}


def _call_errors(calls, expected: int) -> list[str]:
    if len(calls) == expected and all(c["code"] == 0 for c in calls):
        return []
    last = calls[-1]
    reason = last["error"] or (last["stderr"].strip().splitlines() or [""])[-1]
    return [f"call {len(calls)} exited {last['code']}: {reason}"[:300]]


class CodelengthSmall:
    """``codelength`` on n = 500 datasets; nearly all work is in the sigma
    integral, which does not depend on the data."""

    name = "codelength-small"
    dims = (1, 2, 3, 5)  # the candidates select-dim would try

    def __init__(self, workdir: Path, tiny: bool):
        self.workdir = workdir
        self.n = 40 if tiny else 500

    def make(self, seed: int, stream: str, index: int) -> Op:
        rng = _rng(seed, stream, index)
        # cold ops all run D = 2 on the CLI's default domain, so that they
        # compare ops of one cost; every other op gets the next dimension
        # and a fresh domain
        cold = stream == "cold"
        dim = 2 if cold else self.dims[index % len(self.dims)]
        # spread / sqrt(D) gives every dimension the same typical distance
        # from the mean, which keeps the Frechet mean's Hessian eigenvalue
        # below 1.4, clear of the stall at 2 (see write_frechet_stall)
        coords = _cloud(rng, self.n, dim, 1.0 / math.sqrt(dim))
        domain = [] if cold else _domain_args(rng)
        path = self.workdir / f"{stream}-{index}.json"
        _write_points(path, coords)
        return Op(f"{stream}-{index}",
                  [["codelength", "--data", str(path), *domain]],
                  {"x0": coords[:, 0], "dim": dim}, [path])

    def check(self, op: Op, calls) -> tuple[dict, list[str]]:
        errors = _call_errors(calls, 1)
        if errors:
            return {}, errors
        report, errors = check_report(calls[0]["stdout"], op.expect["x0"],
                                      op.expect["dim"])
        return _summary(report), errors

    @staticmethod
    def corrupt(calls):
        report = json.loads(calls[-1]["stdout"])
        report["total"] += 1.0
        calls[-1]["stdout"] = json.dumps(report)


class RoundtripLarge:
    """``sample`` of 1e4 points to a file, then ``codelength`` of that file;
    most work is per point.  1e4 rather than more keeps an op near 0.7 s,
    so that a run holds tens of ops and the host-speed calibration around
    each call stays close to it in time."""

    name = "roundtrip-large"
    dim = 2

    def __init__(self, workdir: Path, tiny: bool):
        self.workdir = workdir
        self.n = 400 if tiny else 10_000

    def make(self, seed: int, stream: str, index: int) -> Op:
        rng = _rng(seed, stream, index)
        spatial = rng.standard_normal(self.dim)
        spatial *= math.sinh(rng.uniform(0.0, 1.5)) / np.linalg.norm(spatial)
        mu = [math.hypot(1.0, float(np.linalg.norm(spatial))), *map(float, spatial)]
        path = self.workdir / f"{stream}-{index}.json"
        sample = ["sample", "--dim", str(self.dim), "--n", str(self.n),
                  "--sigma", repr(float(rng.uniform(0.5, 1.5))),
                  "--mu", ",".join(map(repr, mu)),
                  "--seed", str(int(rng.integers(2**31))), "--out", str(path)]
        codelength = ["codelength", "--data", str(path), *_domain_args(rng)]
        return Op(f"{stream}-{index}", [sample, codelength], {}, [path])

    def check(self, op: Op, calls) -> tuple[dict, list[str]]:
        errors = _call_errors(calls, 2)
        if errors:
            return {}, errors
        try:
            with open(op.files[0]) as handle:
                raw = json.load(handle)
            coords = np.asarray(raw["points"], dtype=float)
        except (OSError, ValueError, KeyError) as exc:
            return {}, [f"sampled file does not reload: {exc}"]
        if raw.get("chart") != "lorentz" or raw.get("dim") != self.dim or \
                coords.shape != (self.n, self.dim + 1):
            return {}, [f"sampled file holds {raw.get('chart')} points of shape "
                        f"{coords.shape}, dim {raw.get('dim')}"]
        x0 = coords[:, 0]
        residual = np.sum(coords[:, 1:] ** 2, axis=1) - x0 * x0 + 1.0
        if not (np.all(x0 > 0) and
                np.all(np.abs(residual) <= ON_MANIFOLD_TOL * np.maximum(1.0, x0 * x0))):
            return {}, ["a sampled row is off the hyperboloid"]
        report, errors = check_report(calls[1]["stdout"], x0, self.dim)
        return {"sample_x0_mean": float(np.mean(x0)), **_summary(report)}, errors

    corrupt = CodelengthSmall.corrupt


class ValidateQuick:
    """``validate --quick`` in a fresh interpreter per op: oracle quadrature
    at tight tolerance, Fisher integrals and Monte Carlo."""

    name = "validate-quick"

    def __init__(self, workdir: Path, tiny: bool):
        pass

    def make(self, seed: int, stream: str, index: int) -> Op:
        return Op(f"{stream}-{index}", [["validate", "--quick"]])

    def check(self, op: Op, calls) -> tuple[dict, list[str]]:
        suites = {}
        for line in calls[-1]["stdout"].splitlines():
            parts = line.split()
            if len(parts) >= 2 and parts[1] in ("PASS", "FAIL"):
                suites[parts[0]] = parts[1]
        errors = _call_errors(calls, 1)
        if not suites:
            errors.append("validate printed no suite lines")
        errors += [f"suite {name} did not pass" for name, status in suites.items()
                   if status != "PASS"]
        return suites, errors

    @staticmethod
    def corrupt(calls):
        calls[-1]["stdout"] = calls[-1]["stdout"].replace("PASS", "FAIL", 1)


WORKLOADS = {cls.name: cls for cls in (CodelengthSmall, RoundtripLarge, ValidateQuick)}


def load_reference(workload: str) -> dict:
    try:
        with open(REFERENCE_PATH) as handle:
            return json.load(handle).get(workload, {})
    except FileNotFoundError:
        return {}


def compare_reference(summary: dict, expected: dict) -> list[str]:
    """Differences between an op's outputs and its recorded reference."""
    errors = []
    for key, want in expected.items():
        got = summary.get(key)
        if isinstance(want, float) and isinstance(got, (int, float)) \
                and not isinstance(got, bool):
            ok = _close(got, want)
        else:
            ok = got == want
        if not ok:
            errors.append(f"{key} = {got!r}, reference {want!r}")
    return errors
