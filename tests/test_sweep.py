"""A standing sweep of the CLI over the documented ranges of ``pc``,
``codelength``, ``sample`` and ``coding-demo`` (ROADMAP item 13).

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
    "flag": (2, r"--(dim|n|seed|grid|sigma) (must|needs|expects) "),
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
    # an integer flag past numpy's index range that a float still holds: the
    # message names no flag (an open defect, in CHANGES.md)
    "numpy size limit": (2, r"Maximum allowed (dimension|size) exceeded"),
    "overflow": (3, r"numerical overflow: the (log density|log-likelihood) at sigma = \S+ "
                    r"overflows: .* (below|above) about sigma = \S+"),
    "item 3: thin layer": (3, r"numerical integration failed: .*: the integrand peaks at "
                              r"sigma = \S+, in a layer \S+ wide in log sigma \(best estimate "),
}

FLOAT_INT = 2**1024 - 2**970  # the least integer that no float holds
SQUARE_MAX = math.sqrt(sys.float_info.max)


def _ulps(x: float) -> list[float]:
    """``x`` and the floats one ulp below and above it."""
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


def _run(argv: list[str]) -> tuple[int | None, str, str]:
    """The exit code, stdout and stderr of one run; a warning, raised as an
    error, gives no exit code and its text as the stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except RuntimeWarning as warning:
                return None, out.getvalue(), f"error: {warning}\n"
    return code, out.getvalue(), err.getvalue()


def _classify(argv: list[str], code: int | None, out: str, err: str) -> str:
    """The one class of the outcome, with its results checked finite."""
    if code == 0:
        assert err == "", argv
        if argv[0] == "sample":
            values = cli.load_dataset(argv[argv.index("--out") + 1]).coords.ravel().tolist()
        else:
            values = [v for v in json.loads(out).values() if type(v) in (int, float)]
        assert all(math.isfinite(v) for v in values), argv
        return "finite"
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    found = [name for name, (exit_code, pattern) in CLASSES.items()
             if pattern is not None and exit_code == code and re.match(pattern, err[7:])]
    assert len(found) == 1, (argv, code, err, found)
    return found[0]


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
         "numpy size limit"),
        (["sample", "--dim", str(FLOAT_INT), "--n", "5", "--sigma", "1", "--out", near], "flag"),
        (["sample", "--dim", "2", "--n", str(FLOAT_INT - 1), "--sigma", "1", "--out", near],
         "numpy size limit"),
        (["sample", "--dim", "2", "--n", str(FLOAT_INT), "--sigma", "1", "--out", near], "flag"),
        (["sample", "--dim", "2", "--n", "5", "--sigma", "1", "--seed", str(FLOAT_INT - 1),
          "--out", near], "finite"),
        (["sample", "--dim", "2", "--n", "5", "--sigma", "1", "--seed", str(FLOAT_INT),
          "--out", near], "flag"),
        (["coding-demo", "--grid", "0"], "flag"),
        (["coding-demo", "--grid", "1"], "finite"),
        (["coding-demo", "--grid", str(FLOAT_INT - 1)], "numpy size limit"),
        (["coding-demo", "--grid", str(FLOAT_INT)], "flag"),
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
    explicit, drawn = Counter(), Counter()
    for argv, expected in _explicit(tmp_path):
        found = _classify(argv, *_run(argv))
        assert found == expected, (argv, found)
        explicit[found] += 1
    for argv in _drawn(tmp_path, np.random.default_rng(SEED)):
        drawn[_classify(argv, *_run(argv))] += 1
    print("\nexplicit  drawn  class")
    print("\n".join(f"{explicit[name]:8d} {drawn[name]:6d}  {name}" for name in CLASSES))
    # the open items among the draws, as they are today
    assert {name: drawn[name] for name in CLASSES if name.startswith("item")} == {
        "item 1: off-manifold": 1, "item 1: frame overflow": 0, "item 3: thin layer": 1}
