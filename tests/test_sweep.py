"""A standing sweep of the CLI over the documented ranges of ``pc``,
``codelength``, ``sample``, ``coding-demo`` and ``select-dim``, with one
``validate --quick``, each command's ``-h`` and one usage error (ROADMAP
item 13).

Every run goes through ``cli.main`` in process, with warnings as errors.  Each
outcome must fall in exactly one class of ``CLASSES``: an exit code and, for a
failure, a pattern that its one stderr line matches, naming a stage or a bound.
Each documented bound is an explicit example, with one ulp (one, for an
integer flag) on either side of it, and asserts the class it has today; draws
from a fixed seed fill the ranges between.  An open item's class is named by
its item, so that when the item lands its count goes to 0.
"""

import contextlib
import io
import json
import math
import re
import sys
import warnings
from collections import Counter

import numpy as np

from rmnml import cli, coding, complexity, hyperbolic as hy

#: Fixed before the first run; not to be changed to hide a case.
SEED = 28

#: Each class: its exit code and the pattern of the stderr line after "error: ".
CLASSES = {
    "finite": (0, None),
    "help": (0, None),
    # argparse's usage line, then this one line
    "usage": (2, r"rmnml( \S+)?: error: "),
    "flag": (2, r"(--(dim|n|seed|grid|sigma|candidate)( and --dim| dimension)? "
                r"(must|needs|expects)|select-dim needs at least 2 --candidate) "),
    "domain bound": (2, r"(radius_R|sigma_min|sigma_max|sigma|radius) (must|= \S+ is past) "),
    "too few points": (2, r"\S+: the code-length needs at least 2 points, got \d+"),
    "data bound": (2, r"point \d+ lies \S+ from the origin, past the data bound of 350"),
    "draws past 710": (2, r"sigma = \S+ with mu at distance \S+ draws points past 710 "),
    "code past int64": (2, r"code-lengths up to \S+ nats, past 2\^63 bits, do not fit an int64"),
    "negative log complexity": (2, r"the log complexity \S+ is negative, .* at D = \d+ "
                                   r"and n = \d+ "),
    "item 1: off-manifold": (2, r"arccosh argument below 1: points are off-manifold"),
    # a warning that escapes the run: no exit code
    "item 1: frame overflow": (None, r"invalid value encountered in divide"),
    "unreadable file": (2, r"cannot read \S+: "),
    "candidate dimension": (2, r"\S+: declared candidate dimension \d+ but the file holds "
                               r"dimension \d+"),
    "unequal n": (2, r"select-dim compares code-lengths of the same points, but dim \d+ "
                     r"holds n = \d+"),
    "every candidate failed": (2, r"every candidate failed: dim \d+: "),
    "every candidate failed, one numerically": (3, r"every candidate failed: dim \d+: "),
    "out of memory": (3, r"out of memory: Unable to allocate "),
    "overflow": (3, r"numerical overflow: the (log density|log-likelihood) at sigma = \S+ "
                    r"overflows: .* (below|above) about sigma = \S+"),
    "item 3: thin layer": (3, r"numerical integration failed: .*: the integrand peaks at "
                              r"sigma = \S+, in a layer \S+ wide in log sigma \(best estimate "),
}

FLOAT_INT = 2**1024 - 2**970  # the least integer that no float holds
FLOATS_MAX = 2**60 - 1  # float64 values in numpy's largest array, 2^63 - 1 bytes
SQUARE_MAX = math.sqrt(sys.float_info.max)


def _ulps(x: float) -> list[float]:
    """``x`` and the floats one ulp below and above it."""
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


def _least_radius(grid: int) -> float:
    """The least radius that ``coding.partition_ball`` takes on a grid x grid
    partition, by bisection over the bit patterns of the positive floats."""
    def takes(bits: int) -> bool:
        try:
            coding.partition_ball(float(np.int64(bits).view(np.float64)), grid, grid)
        except ValueError:
            return False
        return True

    lo, hi = np.array([1e-300, 1e-100]).view(np.int64).tolist()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if takes(mid) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


def _run(argv: list[str]) -> tuple[int | None, str, str]:
    """The exit code, stdout and stderr of one run, argparse's exits included;
    a warning, raised as an error, gives no exit code and its text as the
    stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except RuntimeWarning as warning:
                return None, out.getvalue(), f"error: {warning}\n"
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def _match(message: str, codes) -> str:
    """The one class among those of exit ``codes`` whose pattern ``message`` matches."""
    found = [name for name, (exit_code, pattern) in CLASSES.items()
             if pattern is not None and exit_code in codes and re.match(pattern, message)]
    assert len(found) == 1, (message, found)
    return found[0]


def _classify(argv: list[str], code: int | None, out: str, err: str) -> tuple[str, list[str]]:
    """The one class of the outcome, with its results checked finite, and the
    classes of the select-dim candidates that failed in a run that exits 0,
    each a class of exit 2 or 3."""
    failed = []
    if code == 0 and out.startswith("usage: rmnml"):  # -h
        assert err == "", argv
        return "help", failed
    if code == 0:
        assert err == "", argv
        if argv[0] == "sample":
            values = cli.load_dataset(argv[argv.index("--out") + 1]).coords.ravel().tolist()
        elif argv[0] == "validate":
            assert all("  PASS  " in line for line in out.splitlines()), out
            values = []
        else:
            payload = json.loads(out)
            values = [v for v in payload.values() if type(v) in (int, float)]
            for entry in payload.get("scores", []):
                if entry["error"] is None:
                    values.append(entry["total"])
                else:
                    failed.append(_match(entry["error"], (2, 3)))
        assert all(math.isfinite(v) for v in values), argv
        return "finite", failed
    if err.startswith("usage: rmnml"):
        return _match(err.splitlines()[-1], (code,)), failed
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return _match(err[7:], (code,)), failed


def _explicit(tmp) -> list[tuple[list[str], str]]:
    """Each documented bound and one ulp on either side, with its class today."""
    near, far, one = (str(tmp / name) for name in ("near.json", "far.json", "one.json"))
    cases = [
        # integer flags: the least value, and the least integer no float holds
        (["pc", "--dim", "0", "--n", "10"], "flag"),
        (["pc", "--dim", "1", "--n", "10"], "finite"),
        (["pc", "--dim", "2", "--n", "1"], "flag"),
        (["pc", "--dim", "2", "--n", "2"], "finite"),
        (["pc", "--dim", str(FLOAT_INT - 1), "--n", "10"], "domain bound"),
        (["pc", "--dim", str(FLOAT_INT), "--n", "10"], "flag"),
        (["pc", "--dim", "2", "--n", str(FLOAT_INT - 1)], "finite"),
        (["pc", "--dim", "2", "--n", str(FLOAT_INT)], "flag"),
        (["sample", "--dim", "0", "--n", "5", "--sigma", "1", "--out", near], "flag"),
        (["sample", "--dim", "2", "--n", "0", "--sigma", "1", "--out", near], "flag"),
        (["sample", "--dim", "2", "--n", "5", "--sigma", "1", "--seed", "-1", "--out", near],
         "flag"),
        (["sample", "--dim", str(FLOAT_INT - 1), "--n", "5", "--sigma", "1", "--out", near],
         "flag"),
        (["sample", "--dim", str(FLOAT_INT), "--n", "5", "--sigma", "1", "--out", near], "flag"),
        (["sample", "--dim", "2", "--n", str(FLOAT_INT - 1), "--sigma", "1", "--out", near],
         "flag"),
        (["sample", "--dim", "2", "--n", str(FLOAT_INT), "--sigma", "1", "--out", near], "flag"),
        (["sample", "--dim", "2", "--n", "5", "--sigma", "1", "--seed", str(FLOAT_INT - 1),
          "--out", near], "finite"),
        (["sample", "--dim", "2", "--n", "5", "--sigma", "1", "--seed", str(FLOAT_INT),
          "--out", near], "flag"),
        (["coding-demo", "--grid", "0"], "flag"),
        (["coding-demo", "--grid", "1"], "finite"),
        (["coding-demo", "--grid", str(FLOAT_INT - 1)], "flag"),
        (["coding-demo", "--grid", str(FLOAT_INT)], "flag"),
        # arrays past numpy's largest, FLOATS_MAX float64 values: sample's n
        # (D + 1) coordinates and coding-demo's grid^2 cells; below the bound
        # the allocation fails at once (coding-demo is not run there: its
        # grid + 1 edges would fit in memory)
        (["sample", "--dim", "2", "--n", str(FLOATS_MAX // 3), "--sigma", "1", "--out", near],
         "out of memory"),
        (["sample", "--dim", "2", "--n", str(FLOATS_MAX // 3 + 1), "--sigma", "1",
          "--out", near], "flag"),
        (["sample", "--dim", str(FLOATS_MAX - 1), "--n", "1", "--sigma", "1", "--out", near],
         "out of memory"),
        (["sample", "--dim", str(FLOATS_MAX), "--n", "1", "--sigma", "1", "--out", near],
         "flag"),
        (["coding-demo", "--grid", str(2**30)], "flag"),
        (["coding-demo", "--grid", str(2**63)], "flag"),
    ]
    # the domain: radius_R in [float min, 1e15], sigma_min from the floor
    # 1.22e-77, and sigma_max up to the kernel's ceiling float max / (20 (D-1))
    for radius, classes in ((complexity.RADIUS_MAX, ("finite", "finite", "domain bound")),
                            (sys.float_info.min, ("domain bound", "negative log complexity",
                                                  "negative log complexity"))):
        cases += [(["pc", "--dim", "2", "--n", "10", "--radius", repr(r)], c)
                  for r, c in zip(_ulps(radius), classes)]
    cases += [(["pc", "--dim", "2", "--n", "10", "--sigma", f"{s!r}:1"], c) for s, c in
              zip(_ulps(complexity.SIGMA_FLOOR), ("domain bound", "finite", "finite"))]
    ceiling = sys.float_info.max / 20.0
    cases += [(["pc", "--dim", "2", "--n", "10", "--sigma", f"1:{s!r}"], c)
              for s, c in zip(_ulps(ceiling), ("finite", "finite", "domain bound"))]
    cases.append((["pc", "--dim", "2", "--n", "10", "--sigma", "1:inf"], "domain bound"))
    # item 3: the mass of the sigma integral in a layer too thin for the rule
    cases.append((["pc", "--dim", "10000000000", "--n", "100", "--sigma", "1e-6:1e-5"],
                  "item 3: thin layer"))
    # and at D = 8,108, where |log I| is about 5.5e5, past 2^19: a layer 1.2e-4 wide
    cases.append((["pc", "--dim", "8108", "--n", "100",
                   "--sigma", "2.6189740760777145e-30:9.179511751317846e-30"],
                  "item 3: thin layer"))
    # sample: sigma from sqrt(float min), where sigma^2 is still normal; a
    # wide sigma draws points past the float range of Lorentz coordinates
    cases += [(["sample", "--dim", "2", "--n", "5", "--sigma", repr(s), "--out", near], c)
              for s, c in zip(_ulps(math.sqrt(sys.float_info.min)),
                              ("domain bound", "finite", "finite"))]
    cases.append((["sample", "--dim", "2", "--n", "5", "--sigma", "1000", "--out", near],
                  "draws past 710"))
    # coding-demo: the ball up to acosh(float max / 2 pi); at D = 2, log xi
    # overflows past sqrt(float max), and d^2 / (2 sigma^2) at the rim d = 3
    # below 3 / (sqrt 2 sqrt(float max)); inside both bounds the lengths
    # already pass 2^63 bits
    cases += [(["coding-demo", "--grid", "2", "--radius", repr(r)], c)
              for r, c in zip(_ulps(coding.MAX_RADIUS), ("finite", "finite", "domain bound"))]
    # and down to the least radius whose smallest cell volume is a normal
    # float, on the default 32 x 32 grid; the rings keep their digits above it
    cases += [(["coding-demo", "--radius", r], "finite") for r in ("1e-6", "1e-9")]
    cases += [(["coding-demo", "--radius", repr(r)], c)
              for r, c in zip(_ulps(_least_radius(32)), ("domain bound", "finite", "finite"))]
    cases += [(["coding-demo", "--grid", "2", "--sigma", repr(s)], c)
              for s, c in zip(_ulps(SQUARE_MAX), ("code past int64", "code past int64",
                                                  "overflow"))]
    cases += [(["coding-demo", "--grid", "2", "--sigma", repr(s)], c)
              for s, c in zip(_ulps(3.0 / (math.sqrt(2.0) * SQUARE_MAX)),
                              ("overflow", "code past int64", "code past int64"))]
    # codelength: files of 50 points near the origin, one of 1 point, and
    # item 1's far cluster at r = 16
    mu = f"{math.cosh(16.0)!r},{math.sinh(16.0)!r},0"
    cases += [
        (["sample", "--dim", "2", "--n", "50", "--sigma", "0.5", "--seed", "1", "--out", near],
         "finite"),
        (["sample", "--dim", "2", "--n", "200", "--sigma", "0.5", "--seed", "1", "--mu", mu,
          "--out", far], "finite"),
        (["sample", "--dim", "2", "--n", "1", "--sigma", "0.5", "--out", one], "finite"),
        (["codelength", "--data", one], "too few points"),
        (["codelength", "--data", far, "--radius", "30"], "item 1: off-manifold"),
    ]
    # n log xi at D = 2 and n = 50 overflows past about sqrt(float max) / 5
    cases += [(["codelength", "--data", near, "--sigma", f"{s!r}:1e300"], c)
              for s, c in zip(_ulps(SQUARE_MAX / 5.0), ("finite", "finite", "overflow"))]
    # the data bound: a point with x0 = cosh 350, and one ulp either side;
    # inside it, the frame of the Frechet mean loses its digits (item 1)
    edge = ("item 1: frame overflow", "item 1: frame overflow", "data bound")
    for i, (x0, c) in enumerate(zip(_ulps(math.cosh(hy.DATA_RADIUS)), edge)):
        path = tmp / f"edge{i}.json"
        points = [[1.0, 0.0], [x0, math.sqrt(x0 * x0 - 1.0)]]
        path.write_text(json.dumps({"chart": "lorentz", "dim": 1, "points": points}))
        cases.append((["codelength", "--data", str(path), "--radius", "400",
                       "--sigma", "1:400"], c))
    cases += _select_dim(tmp, near, far, one)
    cases.append((["validate", "--quick"], "finite"))
    # the parser: each command's help and the top level's, and a bad int
    cases += [([*command, "-h"], "help") for command in
              ([], ["pc"], ["codelength"], ["sample"], ["select-dim"], ["validate"],
               ["coding-demo"])]
    cases.append((["pc", "--dim", "two", "--n", "10"], "usage"))
    return cases


def _select_dim(tmp, near: str, far: str, one: str) -> list[tuple[list[str], str]]:
    """select-dim over the files of :func:`_explicit`, at its documented bounds."""
    near1, near3, pair, missing = (str(tmp / name) for name in
                                   ("near1.json", "near3.json", "pair.json", "missing.json"))
    (tmp / "pair.json").write_text(json.dumps({"chart": "lorentz", "dim": 1, "points": [
        [1.0, 0.0], [math.cosh(0.5), math.sinh(0.5)]]}))
    both = ["select-dim", "--candidate", f"1={near1}", "--candidate", f"2={near}"]
    cases = [
        (["sample", "--dim", "1", "--n", "50", "--sigma", "0.5", "--seed", "2", "--out", near1],
         "finite"),
        (["sample", "--dim", "3", "--n", "50", "--sigma", "0.5", "--seed", "3", "--out", near3],
         "finite"),
        ([*both, "--candidate", f"3={near3}"], "finite"),
        # the candidate flags
        (["select-dim", "--candidate", f"2={near}"], "flag"),
        (["select-dim", "--candidate", near, "--candidate", f"3={near3}"], "flag"),
        (["select-dim", "--candidate", f"two={near}", "--candidate", f"3={near3}"], "flag"),
        # a missing file, a file of another dimension and one of too few points
        # fail their candidate alone; when every candidate fails, the largest
        # exit code among the failures
        (["select-dim", "--candidate", f"2={near}", "--candidate", f"3={missing}"], "finite"),
        (["select-dim", "--candidate", f"2={near}", "--candidate", f"3={near}"], "finite"),
        (["select-dim", "--candidate", f"2={near}", "--candidate", f"2={one}"], "finite"),
        (["select-dim", "--candidate", f"2={one}", "--candidate", f"3={missing}"],
         "every candidate failed"),
        (["select-dim", "--candidate", f"2={near}", "--candidate", f"3={near3}",
          "--sigma", f"{math.nextafter(SQUARE_MAX / 5.0, math.inf)!r}:1e300"],
         "every candidate failed, one numerically"),
        # candidates of different n
        (["select-dim", "--candidate", f"2={near}", "--candidate", f"2={far}"], "unequal n"),
    ]
    # the domain's sigma floor, and the kernel's ceiling at D = 2, which
    # fails that candidate alone
    cases += [([*both, "--sigma", f"{s!r}:1"], c) for s, c in
              zip(_ulps(complexity.SIGMA_FLOOR), ("domain bound", "finite", "finite"))]
    cases += [([*both, "--sigma", f"1:{s!r}"], "finite")
              for s in _ulps(sys.float_info.max / 20.0)]
    # the data bound, in a candidate beside one near the origin
    edge = ("item 1: frame overflow", "item 1: frame overflow", "finite")
    cases += [(["select-dim", "--candidate", f"1={tmp / f'edge{i}.json'}", "--candidate",
                f"1={pair}", "--radius", "400", "--sigma", "1:400"], c)
              for i, c in enumerate(edge)]
    return cases


def _drawn(tmp, rng) -> list[list[str]]:
    """Seeded runs over the documented ranges, between the bounds."""
    runs = []
    for _ in range(300):
        dim, n = int(10 ** rng.uniform(0.0, 4.5)), int(10 ** rng.uniform(0.3, 6.0))
        sigma_min = 10 ** rng.uniform(-4.0, 0.5)
        runs.append(["pc", "--dim", str(dim), "--n", str(n), "--radius",
                     repr(10 ** rng.uniform(-3.0, 2.0)),
                     "--sigma", f"{sigma_min!r}:{sigma_min * 10 ** rng.uniform(0.01, 3.0)!r}"])
    files = []
    for i in range(60):
        dim = int(rng.choice([1, 2, 3, 5, 10]))
        r, u = rng.uniform(0.0, 12.0), rng.standard_normal(dim)
        mu = hy.polar(r, u / np.linalg.norm(u))
        path = str(tmp / f"drawn{i}.json")
        runs.append(["sample", "--dim", str(dim), "--n", str(int(rng.choice([1, 2, 5, 50, 300]))),
                     "--sigma", repr(10 ** rng.uniform(-3.0, 0.6)), "--seed", str(i),
                     "--mu", ",".join(map(repr, mu.tolist())), "--out", path])
        files.append(path)
    for path in files * 2:
        sigma_min = 10 ** rng.uniform(-3.0, 0.3)
        runs.append(["codelength", "--data", path, "--radius", repr(10 ** rng.uniform(-1.0, 1.5)),
                     "--sigma", f"{sigma_min!r}:{sigma_min * 10 ** rng.uniform(0.1, 2.0)!r}"])
    for _ in range(30):
        runs.append(["coding-demo", "--radius", repr(rng.uniform(0.1, 10.0)),
                     "--grid", str(int(rng.integers(1, 25))),
                     "--sigma", repr(10 ** rng.uniform(-2.0, 2.0))])
    return runs


def test_every_outcome_falls_in_one_class(tmp_path):
    explicit, drawn, candidates = Counter(), Counter(), Counter()
    for argv, expected in _explicit(tmp_path):
        found, failed = _classify(argv, *_run(argv))
        assert found == expected, (argv, found)
        explicit[found] += 1
        candidates.update(failed)
    for argv in _drawn(tmp_path, np.random.default_rng(SEED)):
        drawn[_classify(argv, *_run(argv))[0]] += 1
    # candidates: the failed select-dim candidates of runs that exit 0
    print("\nexplicit  drawn  candidates  class")
    print("\n".join(f"{explicit[name]:8d} {drawn[name]:6d} {candidates[name]:11d}  {name}"
                    for name in CLASSES))
    # every draw passes argparse: a draw it rejects is a fault of the draws
    assert drawn["help"] == drawn["usage"] == 0
    # the open items among the draws, as they are today
    assert {name: drawn[name] for name in CLASSES if name.startswith("item")} == {
        "item 1: off-manifold": 1, "item 1: frame overflow": 0, "item 3: thin layer": 1}
