"""Output A/B harness: run the CLI's standing sweep on this checkout and on
another one, and report which runs give the same bytes.

Run from anywhere, with the path of the other checkout (a clone of the
parent commit, say)::

    python3 tests/ab_outputs.py ../parent

The runs are the explicit and drawn argv tables of ``tests/test_sweep.py``
and the parser table ``PARSER_ARGVS`` of ``tests/test_cli.py``, all taken
from this checkout.  Each tree runs the whole list in one subprocess, in
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

pytest does not collect this file, and it needs nothing beyond the tests'
own dependencies.  It exits 0 whatever it finds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
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


def _tables(work: Path) -> tuple[list[list[str]], tuple[str, ...]]:
    """Every argv and the subcommands, from this checkout's tests; the sweep's
    table writes the files it names into ``work``."""
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    import numpy as np
    import test_cli
    import test_sweep

    runs = [argv for argv, _ in test_sweep._explicit(work)]
    runs += test_sweep._drawn(work, np.random.default_rng(test_sweep.SEED))
    return runs + test_cli.PARSER_ARGVS, test_cli.COMMANDS


def _worker():
    """Run the argv list read from stdin in the current directory, and print
    one JSON list: the rmnml module's path, then one record per run."""
    sys.path.append(str(TESTS))  # after the tree's src, which PYTHONPATH names
    import rmnml
    import test_sweep

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
    records = [rmnml.__file__]
    for argv in json.load(sys.stdin):
        code, out, err = test_sweep._run(argv)
        try:
            found = test_sweep._classify(argv, code, out, err)[0]
        except Exception as exc:  # an outcome outside every class
            found = f"unclassified ({type(exc).__name__})"
        if argv[:1] == ["validate"]:
            out = _WALL.sub("[- s]", out)
        records.append({"code": code, "out": out, "err": err, "files": changed(),
                        "class": found})
    json.dump(records, sys.stdout)


def _run_tree(tree: Path, argvs: list[list[str]], work: Path) -> list[dict]:
    """The records of ``argvs`` run by ``tree``'s rmnml in ``work``."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker"],
                          input=json.dumps(argvs), capture_output=True, text=True,
                          cwd=work, env={**os.environ, "PYTHONPATH": str(tree / "src")})
    if proc.returncode != 0:
        sys.exit(f"the run on {tree} failed:\n{proc.stderr}")
    module, *records = json.loads(proc.stdout)
    if not Path(module).resolve().is_relative_to((tree / "src").resolve()):
        sys.exit(f"the run on {tree} imported rmnml from {module}")
    return records


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
        results = {}
        for name, tree in (("this", ROOT), ("other", other)):
            shutil.rmtree(work)
            shutil.copytree(base / "seed", work)
            results[name] = _run_tree(tree, argvs, work)
    finally:
        shutil.rmtree(base)

    runs, same = Counter(), Counter()
    largest, moved = defaultdict(lambda: (0.0, [])), Counter()
    reclassed, others, floats_only = [], [], []
    for args, mine, theirs in zip(argvs, results["this"], results["other"]):
        command = args[0] if args[:1] and args[0] in commands else "(top level)"
        runs[command] += 1
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
