"""Output A/B harness: run the CLI's standing sweep on this checkout and on
another one, and report which runs give the same bytes.

Run from anywhere, with the path of the other checkout (a clone of the
parent commit, say)::

    python3 tests/ab_outputs.py ../parent

The runs are the explicit and drawn argv tables of ``tests/test_sweep.py``,
a seeded set of ``pc``, ``sample``, ``codelength`` and ``select-dim`` calls
drawn over the accepted ranges (:func:`_seeded`, seed ``SEED``), with
``--out`` and ``--csv`` files among them, and the parser table
``PARSER_ARGVS`` of ``tests/test_cli.py``, all taken from this checkout.  Each tree runs the whole list in one subprocess, in
process through its own ``rmnml.cli.main`` and the sweep's ``_run``
(warnings as errors, argparse's exits caught), in the same working
directory, which starts from the same files for both.  A run is
byte-identical when its exit code, stdout, stderr and the files it wrote
or changed are; ``validate``'s wall times are masked first.  For every
other run the report gives the largest relative change of each float
field, by JSON key where the text is JSON and by position otherwise, every
run whose class under the sweep's ``_classify`` changed, and every run that
differs in more than its float fields; and each run that differs in its
float fields alone, with its largest relative change.

A spy counts, for each run, the calls of the moment kernel
``rmnml.gaussian.radial_moments`` and the sigma rows they take, through
every module of the package that binds the kernel by name, and the report
lists the runs whose counts differ.  The counts are not part of a run's
bytes.

Beside the runs it compares the library's public surface: each name of
``rmnml.__all__`` and each public class of a module of the package, with
a class's constructor parameters (annotations left out) and each public
attribute (a field, property or class constant) and method, namedtuple's
``_make``, ``_replace``, ``_asdict``, ``_fields`` and ``_field_defaults``
included.

pytest does not collect this file, and it needs nothing beyond the tests'
own dependencies.  It exits 0 whatever it finds.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
#: validate's wall time per suite, which no two runs share.
_WALL = re.compile(r"\[\d+\.\d+ s\]")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")
#: namedtuple's own API, public though its names start with an underscore.
_NAMEDTUPLE_API = {"_make", "_replace", "_asdict", "_fields", "_field_defaults"}
#: Seed of the drawn calls of :func:`_seeded`.
SEED = 17


def _tables(work: Path) -> tuple[list[list[str]], tuple[str, ...]]:
    """Every argv and the subcommands, from this checkout's tests; the sweep's
    table writes the files it names into ``work``."""
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    import numpy as np
    import test_cli
    import test_sweep

    runs = [argv for argv, _ in test_sweep._explicit(work)]
    runs += test_sweep._drawn(work, np.random.default_rng(test_sweep.SEED))
    runs += _seeded(work, np.random.default_rng(SEED))
    return runs + test_cli.PARSER_ARGVS, test_cli.COMMANDS


def _domain(rng) -> list[str]:
    """``--radius`` and ``--sigma`` drawn over the accepted ranges."""
    sigma_min = 10 ** rng.uniform(-3.0, 0.5)
    return ["--radius", repr(10 ** rng.uniform(-2.0, 1.5)),
            "--sigma", f"{sigma_min!r}:{sigma_min * 10 ** rng.uniform(0.05, 2.5)!r}"]


def _outputs(work: Path, stem: str, rng, flags=("--out", "--csv")) -> list[str]:
    """Each of ``flags`` with a file ``stem`` in ``work``, each drawn one time in three."""
    suffixes = {"--out": ".json", "--csv": ".csv"}
    return [part for flag in flags if rng.uniform() < 1 / 3
            for part in (flag, str(work / f"{stem}{suffixes[flag]}"))]


def _seeded(work: Path, rng) -> list[list[str]]:
    """``pc`` calls, then groups of ``sample`` files of one n, each file's
    ``codelength``, and each group's ``select-dim``, drawn from ``rng`` over
    the accepted ranges; every file they name is in ``work``."""
    import numpy as np

    runs = [["pc", "--dim", str(int(10 ** rng.uniform(0.0, 3.5))),
             "--n", str(int(10 ** rng.uniform(0.5, 6.0))), *_domain(rng),
             *_outputs(work, f"seeded_pc{i}", rng)] for i in range(40)]
    groups = []
    for group in range(12):
        n, sigma = int(rng.choice([20, 100, 500])), 10 ** rng.uniform(-1.5, 0.3)
        dims = np.sort(rng.choice([1, 2, 3, 5, 8], size=int(rng.integers(2, 5)), replace=False))
        files = []
        for dim in dims.tolist():
            path = str(work / f"seeded{group}_{dim}.json")
            r, u = rng.uniform(0.0, 3.0), rng.standard_normal(dim)
            mu = np.concatenate([[math.cosh(r)], math.sinh(r) * u / np.linalg.norm(u)])
            runs.append(["sample", "--dim", str(dim), "--n", str(n), "--sigma", repr(sigma),
                         "--seed", str(int(rng.integers(2**31))),
                         *(["--mu", ",".join(map(repr, mu.tolist()))] if rng.uniform() < 0.5
                           else []), "--out", path])
            files.append((dim, path))
        groups.append(files)
    for group, files in enumerate(groups):
        runs += [["codelength", "--data", path, *_domain(rng),
                  *_outputs(work, f"seeded_codelength{group}_{dim}", rng)]
                 for dim, path in files]
        runs.append(["select-dim", *(part for dim, path in files
                                     for part in ("--candidate", f"{dim}={path}")),
                     *_domain(rng), *_outputs(work, f"seeded_select{group}", rng, ("--out",))])
    return runs


def _signature(value) -> str:
    """``value``'s call signature without annotations, or "" if it has none."""
    try:
        sig = inspect.signature(value)
    except (TypeError, ValueError):  # a builtin type, such as an exception's
        return ""
    return str(sig.replace(parameters=[p.replace(annotation=p.empty)
                                       for p in sig.parameters.values()],
                           return_annotation=sig.empty))


def _surface(rmnml) -> dict[str, dict[str, str]]:
    """Each name of ``rmnml.__all__`` and each public class of a module of the
    package: its kind and signature, and for a class each public member's kind."""
    values = {name: getattr(rmnml, name) for name in rmnml.__all__}
    exported = {id(value) for value in values.values()}
    for info in pkgutil.iter_modules(rmnml.__path__):
        module = importlib.import_module(f"{rmnml.__name__}.{info.name}")
        values.update((f"{info.name}.{name}", value) for name, value in vars(module).items()
                      if isinstance(value, type) and value.__module__ == module.__name__
                      and not name.startswith("_") and id(value) not in exported)
    surface = {}
    for name, value in values.items():
        entry = {"": f"{type(value).__name__}{_signature(value)}"}
        if isinstance(value, type):
            # a dataclass field without a default is no attribute of its class
            for member in set(getattr(value, "__dataclass_fields__", ())) | set(dir(value)):
                if member.startswith("_") and member not in _NAMEDTUPLE_API:
                    continue
                static = inspect.getattr_static(value, member, None)
                entry[member] = "method" if callable(static) or isinstance(
                    static, (classmethod, staticmethod)) else "attribute"
        surface[name] = entry
    return surface


def _surface_changes(mine: dict, theirs: dict) -> list[str]:
    """Each name or member that one surface has and the other lacks or types differently."""
    lines = []
    for name in sorted(set(mine) | set(theirs)):
        a, b = mine.get(name), theirs.get(name)
        if a is None or b is None:
            lines.append(f"  {name}: {'lost' if a is None else 'new'}")
            continue
        if a[""] != b[""]:
            lines.append(f"  {name}: {b['']} -> {a['']}")
        changed = sorted(f"{m} ({b[m]} -> {a[m]})" for m in a.keys() & b.keys() - {""}
                         if a[m] != b[m])
        for label, members in (("gained", sorted(a.keys() - b.keys())),
                               ("lost", sorted(b.keys() - a.keys())), ("changed", changed)):
            if members:
                lines.append(f"  {name} {label}: {', '.join(members)}")
    return lines


def _kernel_spy(rmnml) -> list[int]:
    """Count the moment kernel's calls and sigma rows: replace it in each module
    of the package that binds it, and return the running [calls, rows]."""
    import numpy as np
    from rmnml import gaussian

    kernel, counts = gaussian.radial_moments, [0, 0]

    def counted(dim, sigma):
        counts[0] += 1
        counts[1] += int(np.size(sigma))
        return kernel(dim, sigma)

    for info in pkgutil.iter_modules(rmnml.__path__):
        module = importlib.import_module(f"{rmnml.__name__}.{info.name}")
        if getattr(module, "radial_moments", None) is kernel:
            module.radial_moments = counted
    return counts


def _worker():
    """Run the argv list read from stdin in the current directory, and print
    one JSON list: the rmnml module's path, the public surface of the
    package, then one record per run."""
    sys.path.append(str(TESTS))  # after the tree's src, which PYTHONPATH names
    import rmnml
    import test_sweep

    counts = _kernel_spy(rmnml)
    stats, digests = {}, {}

    def changed() -> dict[str, str]:
        """The text of each file made or changed since the last call."""
        texts = {}
        for entry in os.scandir("."):
            stat = entry.is_file() and (entry.stat().st_mtime_ns, entry.stat().st_size)
            if stat and stats.get(entry.name) != stat:
                stats[entry.name] = stat
                data = Path(entry.name).read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                if digests.get(entry.name) != digest:
                    digests[entry.name] = digest
                    texts[entry.name] = data.decode("utf-8", "replace")
        return texts

    changed()
    records = []
    for argv in json.load(sys.stdin):
        before = counts.copy()
        code, out, err = test_sweep._run(argv)
        kernel = [now - then for now, then in zip(counts, before)]
        try:
            found = test_sweep._classify(argv, code, out, err)[0]
        except Exception as exc:  # an outcome outside every class
            found = f"unclassified ({type(exc).__name__})"
        if argv[:1] == ["validate"]:
            out = _WALL.sub("[- s]", out)
        records.append({"code": code, "out": out, "err": err, "files": changed(),
                        "class": found, "kernel": kernel})
    json.dump([rmnml.__file__, _surface(rmnml), *records], sys.stdout)


def _run_tree(tree: Path, argvs: list[list[str]], work: Path) -> tuple[dict, list[dict]]:
    """The public surface of ``tree``'s rmnml, and the records of ``argvs``
    it runs in ``work``."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker"],
                          input=json.dumps(argvs), capture_output=True, text=True,
                          cwd=work, env={**os.environ, "PYTHONPATH": str(tree / "src")})
    if proc.returncode != 0:
        sys.exit(f"the run on {tree} failed:\n{proc.stderr}")
    module, surface, *records = json.loads(proc.stdout)
    if not Path(module).resolve().is_relative_to((tree / "src").resolve()):
        sys.exit(f"the run on {tree} imported rmnml from {module}")
    return surface, records


def _fields(text: str, prefix: str) -> tuple[object, dict[str, float]]:
    """The text with its numbers taken out, and the numbers by field name:
    the JSON key path for a JSON text (list indices as []), else the position."""
    try:
        payload = json.loads(text)
    except ValueError:
        numbers = [float(n) for n in _NUMBER.findall(text)]
        return _NUMBER.sub("#", text), {f"{prefix}#{i}": v for i, v in enumerate(numbers)}
    numbers = {}

    def walk(value, path, index):
        if isinstance(value, dict):
            return {k: walk(v, f"{path}.{k}", f"{index}.{k}") for k, v in value.items()}
        if isinstance(value, list):
            return [walk(v, f"{path}[]", f"{index}[{i}]") for i, v in enumerate(value)]
        if type(value) is float:
            numbers[f"{index}\0{path}"] = value
            return "#"
        return value

    return walk(payload, prefix, prefix), numbers


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _differences(argv, mine: dict, theirs: dict) -> tuple[dict[str, float], list[str]]:
    """The relative change of each float field, and the parts that differ in
    more than their floats."""
    changes, other = {}, []
    if mine["code"] != theirs["code"]:
        other.append(f"exit {theirs['code']} -> {mine['code']}")
    texts = [("stdout", mine["out"], theirs["out"]), ("stderr", mine["err"], theirs["err"])]
    texts += [(f"file {name}", mine["files"].get(name), theirs["files"].get(name))
              for name in sorted(set(mine["files"]) | set(theirs["files"]))]
    for part, a, b in texts:
        if a == b:
            continue
        if a is None or b is None:
            other.append(f"{part} written by one tree only")
            continue
        (shape_a, fields_a), (shape_b, fields_b) = (_fields(t, f"{argv[0]} {part.split()[0]}")
                                                    for t in (a, b))
        if shape_a != shape_b or fields_a.keys() != fields_b.keys():
            other.append(f"{part} differs in more than its floats")
            continue
        for key, value in fields_a.items():
            name = key.split("\0")[-1]
            changes[name] = max(changes.get(name, 0.0), _relative(value, fields_b[key]))
    return changes, other


def main(argv: list[str]) -> int:
    if argv == ["--worker"]:
        _worker()
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        sys.exit("usage: python3 tests/ab_outputs.py PATH_TO_OTHER_CHECKOUT")
    other = Path(argv[0]).resolve()
    base = Path(tempfile.mkdtemp(prefix="ab_outputs_"))
    try:
        work = base / "work"
        work.mkdir()
        argvs, commands = _tables(work)
        shutil.copytree(work, base / "seed")
        results, surfaces = {}, {}
        for name, tree in (("this", ROOT), ("other", other)):
            shutil.rmtree(work)
            shutil.copytree(base / "seed", work)
            surfaces[name], results[name] = _run_tree(tree, argvs, work)
    finally:
        shutil.rmtree(base)

    runs, same = Counter(), Counter()
    largest, moved = defaultdict(lambda: (0.0, [])), Counter()
    reclassed, others, floats_only, recounted = [], [], [], []
    for args, mine, theirs in zip(argvs, results["this"], results["other"]):
        command = args[0] if args[:1] and args[0] in commands else "(top level)"
        runs[command] += 1
        (calls, rows), (their_calls, their_rows) = mine.pop("kernel"), theirs.pop("kernel")
        if (calls, rows) != (their_calls, their_rows):
            recounted.append(f"  calls {their_calls} -> {calls}, sigma rows {their_rows} -> "
                             f"{rows}: {' '.join(args)}")
        if mine == theirs:
            same[command] += 1
            continue
        if mine["class"] != theirs["class"]:
            reclassed.append(f"  {theirs['class']} -> {mine['class']}: {' '.join(args)}")
        changes, other_parts = _differences(args, mine, theirs)
        for field, change in changes.items():
            if change > 0.0:
                largest[field] = max(largest[field], (change, args))
                moved[field] += 1
        if other_parts:
            others.append(f"  {' '.join(args)}: {'; '.join(other_parts)}")
        else:
            floats_only.append((max(changes.values(), default=0.0), args))

    print(f"this: {ROOT}\nother: {other}")
    print(f"runs: {sum(runs.values())}, byte-identical: {sum(same.values())} (exit code, "
          f"stdout, stderr and written files; validate's wall times masked)")
    for command in runs:
        print(f"  {command:<12} {same[command]:4d} of {runs[command]:4d} identical")
    print("largest relative change of each float field that moved, other -> this, "
          "and the run that has it:")
    print("\n".join(f"  {field:<36} {largest[field][0]:9.3g} in {moved[field]:3d} runs; "
                    f"{' '.join(largest[field][1])}" for field in sorted(largest)) or "  none")
    print(f"runs that differ in their float fields alone: {len(floats_only)}, "
          f"by their largest relative change:")
    for change, args in sorted(floats_only, reverse=True):
        print(f"  {change:9.3g}  {' '.join(args)}")
    print(f"runs whose class changed, other -> this: {len(reclassed)}", *reclassed, sep="\n")
    print(f"runs that differ in more than their float fields: {len(others)}", *others,
          sep="\n")
    print(f"runs whose moment-kernel calls or sigma rows differ, other -> this: "
          f"{len(recounted)}", *recounted, sep="\n")
    surface = _surface_changes(surfaces["this"], surfaces["other"])
    print(f"public surface: {len(surfaces['this'])} names; changes, other -> this: "
          f"{len(surface)}", *surface, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
