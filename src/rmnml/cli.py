"""Command-line interface.

Subcommands: ``pc``, ``codelength``, ``sample``, ``select-dim``,
``validate``, ``coding-demo``.  Exit codes: 0 on success, 1 when a
validation suite fails, 2 on usage or input errors, 3 when a numerical
stage fails (quadrature, estimation, or a value beyond the float range)
or an array does not fit in memory (``sample`` holds its n draws as
(n, D+1) floats: 80 GB at n = D = 1e5), and 141 (the shell's 128 +
SIGPIPE) when the reader of stdout has closed it, with no traceback.  An
integer flag whose float64 array would pass numpy's largest, 2^63 - 1
bytes, is a usage error that names the flag (or both, for ``sample``'s
n (D+1) coordinates).  Every output file a command names is checked once,
after its flags and before it reads or computes: one that cannot be
written, or names the other output or a file the run reads, is an input
error; so is a domain whose log complexity is negative, found before any
data is fitted.  Datasets are
JSON files ``{"chart": "lorentz", "dim": D, "points": [[x0, ..., xD], ...]}``;
``"chart": "poincare"`` with D-component points is accepted on input and
converted.  :func:`main` builds each command's parser, with its subparser
alone, at the command's first call and binds its ``cmd_*`` handler then, so
replacing a handler after that call has no effect.  Its import takes about
62 ms for numpy, 2 ms for argparse and 3 ms for rmnml (README's table).
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from . import hyperbolic as hy, validation
from .complexity import (DEFAULT_RADIUS, DEFAULT_SIGMA_MAX, DEFAULT_SIGMA_MIN, ParamDomain,
                         chart_gap, check_log_pc, pc_hgd, rm_nml_codelength)
from .gaussian import Dataset, EstimationError, RgdParams, log_pdf_vol_many, sample
from .quadrature import QuadratureError

USAGE_ERROR = 2
VALIDATION_ERROR = 1
NUMERICAL_ERROR = 3
BROKEN_PIPE = 141


class InputError(ValueError):
    """Bad configuration or malformed input file (exit code 2)."""


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and message of a failed run or select-dim candidate: 2 for a
    usage or input error, 3 for a numerical stage; any other exception is raised."""
    if isinstance(exc, ValueError):
        return USAGE_ERROR, str(exc)
    if isinstance(exc, QuadratureError):
        return NUMERICAL_ERROR, (f"numerical integration failed: {exc} "
                                 f"(best estimate {exc.best_estimate!r})")
    if isinstance(exc, EstimationError):
        return NUMERICAL_ERROR, f"maximum likelihood estimation failed: {exc}"
    if isinstance(exc, OverflowError):
        return NUMERICAL_ERROR, f"numerical overflow: {exc}"
    if isinstance(exc, MemoryError):
        return NUMERICAL_ERROR, f"out of memory: {exc}"
    raise exc


def parse_sigma_range(text: str) -> tuple[float, float]:
    """Parse the ``a:b`` form of the --sigma flag."""
    parts = text.split(":")
    if len(parts) != 2:
        raise InputError(f"--sigma expects the form MIN:MAX, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise InputError(f"--sigma expects numbers, got {text!r}") from exc
    if not 0 < lo < hi:
        raise InputError(f"--sigma needs 0 < MIN < MAX, got {text!r}")
    return lo, hi


#: Types of the JSON values a coordinate may hold: numbers, and null (read as NaN).
_COORDINATE_TYPES = frozenset({int, float, type(None)})


def _coordinate_array(points: list, width: int) -> np.ndarray | None:
    """The (n, width) float array of ``points``, or None unless every row has
    ``width`` values and each is a JSON number or null.  C-level passes only:
    the row lengths, the value types (numpy alone reads true and "1" as 1.0),
    then one conversion of the flattened values."""
    try:
        if set(map(len, points)) != {width}:
            return None
        flat = [*itertools.chain.from_iterable(points)]
        if not _COORDINATE_TYPES.issuperset(map(type, flat)):
            return None
        return np.array(flat, dtype=float).reshape(-1, width)
    except (TypeError, OverflowError):  # a row with no length, an int past the float range
        return None


def load_dataset(path: str) -> Dataset:
    """Read a dataset file, converting Poincare input to Lorentz storage."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: expected a JSON object with fields "
                         f"'chart', 'dim' and 'points'")
    for field in ("chart", "dim", "points"):
        if field not in raw:
            raise InputError(f"{path}: missing field {field!r}")
    chart, dim, points = raw["chart"], raw["dim"], raw["points"]
    if chart not in ("lorentz", "poincare"):
        raise InputError(f"{path}: field 'chart' must be 'lorentz' or "
                         f"'poincare', got {chart!r}")
    if type(dim) is not int or dim < 1:  # JSON true is an int subclass
        raise InputError(f"{path}: field 'dim' must be a positive integer")
    if not isinstance(points, list) or not points:
        raise InputError(f"{path}: field 'points' must be a non-empty list")
    expected = dim + 1 if chart == "lorentz" else dim
    coords = _coordinate_array(points, expected)
    if coords is None:
        # name the first bad row: a wrong length before a non-numeric field
        for i, row in enumerate(points):
            if not isinstance(row, list) or len(row) != expected:
                raise InputError(f"{path}: point {i} must have {expected} "
                                 f"components for chart {chart!r}")
        i = next(i for i, row in enumerate(points) if _coordinate_array([row], expected) is None)
        raise InputError(f"{path}: point {i} has a non-numeric field")
    try:
        if chart == "poincare":
            coords = hy.poincare_to_lorentz(coords)
        return Dataset(coords)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write_file(path: str, text: str, newline: str | None = None, mode: str = "w"):
    """Write ``text`` to the file ``path``; an OSError is an InputError naming it."""
    try:
        with open(path, mode, newline=newline) as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_dataset(path: str, data: Dataset):
    """Write ``data`` as a Lorentz dataset file in one ``%`` formatting pass.

    Each coordinate is written with 17 significant digits (``%.17g``), which
    read back to the same binary64 value, and costs less than ``json.dumps``'s
    shortest repr.  An integer-valued coordinate below 1e17, such as x0 = 1 at
    the origin, is written as a JSON integer (``1``), which reads back to the
    same float.  The one coordinate that does not read back bit for bit is
    -0.0: it is written as ``-0`` and reads back as 0.0, an equal float.
    """
    n, width = data.coords.shape
    row = "[" + ", ".join(["%.17g"] * width) + "]"
    points = ", ".join([row] * n) % tuple(data.coords.ravel().tolist())
    _write_file(path, f'{{"chart": "lorentz", "dim": {data.dim}, "points": [{points}]}}\n')


def _check_outputs(args, *inputs: tuple[str, str]):
    """Raise InputError if an output the run names, ``--out`` then ``--csv``,
    names a file before it (the ``(flag, path)`` ``inputs`` the run reads, then
    the other output) or cannot be written.  Paths are compared after
    ``os.path.realpath``, so a symlink is caught but a hard link is not; the
    probe appends nothing, and removes a file it made.  With no output named,
    no path is resolved."""
    outputs = [(flag, path) for flag in ("--out", "--csv")
               if (path := getattr(args, flag[2:], None)) is not None]
    if not outputs:
        return
    seen = {}
    for i, (flag, path) in enumerate([*inputs, *outputs]):
        first = seen.setdefault(os.path.realpath(path), (flag, path))
        if i >= len(inputs) and first != (flag, path):
            raise InputError(f"{first[0]} {first[1]} and {flag} {path} name the same file; "
                             f"give each its own path")
    for _, path in outputs:
        existed = os.path.lexists(path)
        _write_file(path, "", mode="a")
        if not existed:
            os.remove(path)


def _emit(payload: dict, out: str | None, csv_out: str | None = None):
    # the output files were checked before the work: the CSV, then the JSON
    text = json.dumps(payload, indent=2)
    if csv_out:
        import csv
        flat = {k: v for k, v in payload.items() if not isinstance(v, (dict, list))}
        table = io.StringIO(newline="")
        writer = csv.DictWriter(table, fieldnames=list(flat))
        writer.writeheader()
        writer.writerow(flat)
        _write_file(csv_out, table.getvalue(), newline="")
    if out:
        _write_file(out, text + "\n")
    else:
        print(text)


def _check_int(flag: str, value: int, least: int):
    """Raise InputError unless the integer flag's ``value`` is at least ``least``
    and below about 1.8e308, where a float still holds it."""
    if value < least:
        rule = {0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer of at least {least}")
        raise InputError(f"{flag} must be {rule}, got {value}")
    try:
        float(value)
    except OverflowError:
        raise InputError(f"{flag} must be below about 1.8e308, the largest float; "
                         f"got an integer of {len(str(value))} digits") from None


#: Float64 values in numpy's largest array, np.iinfo(np.intp).max bytes.
_FLOATS_MAX = np.iinfo(np.intp).max // 8


def _check_floats(flags: str, count: int, what: str):
    """Raise InputError naming ``flags`` if ``what``, ``count`` float64 values,
    pass numpy's largest array.  The flags have passed :func:`_check_int`, so
    ``count`` is at most 2^1024 - 2^970, which float max gives to 6 digits."""
    if count > _FLOATS_MAX:
        raise InputError(f"{flags} must keep {what} within numpy's largest array, "
                         f"{_FLOATS_MAX} float64 values; "
                         f"got {min(count, sys.float_info.max):.6g}")


def _domain_from(args) -> ParamDomain:
    lo, hi = parse_sigma_range(args.sigma)
    return ParamDomain(args.radius, lo, hi)


def cmd_pc(args) -> int:
    _check_int("--dim", args.dim, 1)
    _check_int("--n", args.n, 2)
    domain = _domain_from(args)
    _check_outputs(args)
    result = check_log_pc(pc_hgd(args.dim, args.n, domain))
    _emit({
        "k": result.k,
        "n": result.n,
        "term_kn": result.term_kn,
        "term_volume": result.term_volume,
        "term_fisher": result.term_fisher,
        "total_log_pc": result.total_log_pc,
    }, args.out, args.csv)
    return 0


def _load_scored(path: str, dim: int | None = None) -> Dataset:
    """The dataset at ``path``, which must hold dimension ``dim`` if given, and at
    least the 2 points a code-length needs."""
    data = load_dataset(path)
    if dim is not None and data.dim != dim:
        raise InputError(f"{path}: declared candidate dimension {dim} "
                         f"but the file holds dimension {data.dim}")
    if data.n < 2:
        raise InputError(f"{path}: the code-length needs at least 2 "
                         f"points, got {data.n}")
    return data


def cmd_codelength(args) -> int:
    domain = _domain_from(args)
    _check_outputs(args, ("--data", args.data))
    data = _load_scored(args.data)
    report = rm_nml_codelength(data, domain)
    _emit({
        "n": data.n,
        "dim": data.dim,
        "neg_max_loglik": report.neg_max_loglik,
        "log_pc": report.log_pc,
        "total": report.total,
        "boundary_flag": report.boundary_flag,
        "chart_gap_lorentz_graph": chart_gap(data, hy.CHART_LORENTZ_GRAPH),
        "chart_gap_poincare": chart_gap(data, hy.CHART_POINCARE),
    }, args.out, args.csv)
    return 0


def cmd_sample(args) -> int:
    if not 0 < args.sigma_value < math.inf:
        raise InputError(f"--sigma must be positive and finite, got {args.sigma_value}")
    _check_int("--dim", args.dim, 1)
    _check_int("--n", args.n, 1)
    _check_int("--seed", args.seed, 0)
    _check_floats("--dim", args.dim + 1, "the D + 1 coordinates of a point")
    _check_floats("--n", args.n, "the n radii")
    _check_floats("--n and --dim", args.n * (args.dim + 1), "the n (D + 1) coordinates")
    mu = hy.origin(args.dim)
    if args.mu is not None:
        try:
            mu = np.asarray([float(v) for v in args.mu.split(",")])
        except ValueError as exc:
            raise InputError(f"--mu expects comma-separated numbers, got {args.mu!r}") from exc
        if mu.size != args.dim + 1:
            raise InputError(f"--mu needs {args.dim + 1} comma-separated Lorentz components")
    try:
        params = RgdParams(mu, args.sigma_value)
    except hy.GeometryError as exc:
        raise InputError(f"--mu is not on the manifold: {exc}") from exc
    _check_outputs(args)  # before the draws, which may take seconds
    write_dataset(args.out, sample(args.n, params, args.seed))
    return 0


def cmd_select_dim(args) -> int:
    candidates = []
    for spec_text in args.candidate:
        head, sep, path = spec_text.partition("=")
        if not sep:
            raise InputError(f"--candidate expects DIM=PATH, got {spec_text!r}")
        try:
            dim = int(head)
        except ValueError as exc:
            raise InputError(f"--candidate dimension must be an integer, "
                             f"got {head!r}") from exc
        candidates.append((dim, path))
    if len(candidates) < 2:
        raise InputError("select-dim needs at least 2 --candidate entries")
    domain = _domain_from(args)
    _check_outputs(args, *(("--candidate", path) for _, path in candidates))

    scores, codes = [], []

    def attempt(entry: dict, step, *step_args):
        """``step(*step_args)``, or None with its failure in the candidate's ``entry``."""
        try:
            return step(*step_args)
        except Exception as exc:
            code, entry["error"] = _failure(exc)
            codes.append(code)

    # every candidate is loaded first: code-lengths of different n do not compare
    loaded = []
    for dim, path in sorted(candidates):
        scores.append({"dim": dim, "path": path, "total": None, "error": None})
        data = attempt(scores[-1], _load_scored, path, dim)
        if data is not None:
            loaded.append((scores[-1], data))
    if len({data.n for _, data in loaded}) > 1:
        raise InputError("select-dim compares code-lengths of the same points, but "
                         + ", ".join(f"dim {entry['dim']} holds n = {data.n}"
                                     for entry, data in loaded))

    for entry, data in loaded:
        report = attempt(entry, rm_nml_codelength, data, domain)
        if report is not None:
            entry.update({
                "total": report.total,
                "neg_max_loglik": report.neg_max_loglik,
                "log_pc": report.log_pc,
                "boundary_flag": report.boundary_flag,
            })

    best = select_best(scores)
    if best is None:  # the largest code among the failures: 3 if one was numerical
        print("error: every candidate failed: " + "; ".join(
            f"dim {e['dim']}: {e['error']}" for e in scores), file=sys.stderr)
        return max(codes)
    _emit({"selected_dim": best["dim"], "scores": scores}, args.out, None)
    return 0


def select_best(scores: list[dict]) -> dict | None:
    """Entry with the smallest total, ties broken toward the smaller dimension;
    None when every candidate failed."""
    survivors = [e for e in scores if e.get("error") is None]
    return min(survivors, key=lambda e: (e["total"], e["dim"]), default=None)


def cmd_validate(args) -> int:
    results = validation.run_all(quick=args.quick)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}  [{r.seconds:.2f} s]")
    return 0 if all(r.passed for r in results) else VALIDATION_ERROR


def cmd_coding_demo(args) -> int:
    from . import coding
    if not args.sigma_value > 0:
        raise InputError(f"--sigma must be positive, got {args.sigma_value}")
    _check_int("--grid", args.grid, 1)
    _check_floats("--grid", args.grid + 1, "the grid + 1 edges")
    _check_floats("--grid", args.grid * args.grid, "the grid^2 cells")
    _check_outputs(args)
    partition = coding.partition_ball(args.radius, args.grid, args.grid)
    params = RgdParams(hy.origin(2), args.sigma_value)
    code = coding.prefix_code(partition, lambda points: log_pdf_vol_many(points, params))
    payload = {
        "radius": args.radius,
        "grid": args.grid,
        "sigma": args.sigma_value,
        "cells": len(partition),
        "kraft_sum": code.kraft_sum,
        "average_length_bits": code.average_bits,
        "expected_lower_bound_bits": code.lower_bound_bits,
    }
    _emit(payload, args.out, None)
    return 0


def _add_domain(command, *outputs):
    command.add_argument("--radius", type=float, default=DEFAULT_RADIUS)
    command.add_argument("--sigma", default=f"{DEFAULT_SIGMA_MIN!r}:{DEFAULT_SIGMA_MAX!r}",
                         help="sigma range MIN:MAX")
    for flag in outputs:  # the output files, after the domain
        command.add_argument(flag, default=None)


def _add_pc(sub):
    pc = sub.add_parser("pc", help="asymptotic log parametric complexity")
    pc.add_argument("--dim", type=int, required=True)
    pc.add_argument("--n", type=int, required=True)
    _add_domain(pc, "--out", "--csv")
    pc.set_defaults(func=cmd_pc)


def _add_codelength(sub):
    cl = sub.add_parser("codelength", help="NML code-length of a dataset")
    cl.add_argument("--data", required=True)
    _add_domain(cl, "--out", "--csv")
    cl.set_defaults(func=cmd_codelength)


def _add_sample(sub):
    sm = sub.add_parser("sample", help="draw a dataset from the model")
    sm.add_argument("--dim", type=int, required=True)
    sm.add_argument("--n", type=int, required=True)
    sm.add_argument("--sigma", dest="sigma_value", type=float, required=True)
    sm.add_argument("--mu", default=None,
                    help="Lorentz components of the mean, comma separated")
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--out", required=True)
    sm.set_defaults(func=cmd_sample)


def _add_select_dim(sub):
    sd = sub.add_parser("select-dim", help="pick the dimension with the "
                        "smallest code-length over files of the same n")
    sd.add_argument("--candidate", action="append", required=True,
                    metavar="DIM=PATH")
    _add_domain(sd, "--out")
    sd.set_defaults(func=cmd_select_dim)


def _add_validate(sub):
    va = sub.add_parser("validate", help="run the oracle self-checks")
    va.add_argument("--quick", action="store_true",
                    help="reduced Monte Carlo budgets")
    va.set_defaults(func=cmd_validate)


def _add_coding_demo(sub):
    cd = sub.add_parser("coding-demo", help="prefix-code lengths on a polar grid")
    cd.add_argument("--radius", type=float, default=3.0)
    cd.add_argument("--grid", type=int, default=32)
    cd.add_argument("--sigma", dest="sigma_value", type=float, default=1.0)
    cd.add_argument("--out", default=None)
    cd.set_defaults(func=cmd_coding_demo)


_COMMANDS = {"pc": _add_pc, "codelength": _add_codelength, "sample": _add_sample,
             "select-dim": _add_select_dim, "validate": _add_validate,
             "coding-demo": _add_coding_demo}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``rmnml`` parser of subcommand ``command``, or of all of ``_COMMANDS`` in order
    for None, cached; its usage names every command.  ``__wrapped__`` builds a fresh one."""
    parser = argparse.ArgumentParser(
        prog="rmnml",
        description="Coordinate-invariant NML code-lengths on hyperbolic space.")
    sub = parser.add_subparsers(dest="command", required=True, metavar=None if command is None
                                else "{" + ",".join(_COMMANDS) + "}")
    for add in _COMMANDS.values() if command is None else [_COMMANDS[command]]:
        add(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # exit cannot raise again (the note on SIGPIPE in the signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return BROKEN_PIPE
    except Exception as exc:
        code, message = _failure(exc)
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
