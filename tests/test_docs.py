"""The README's quick start and the package's public names."""

import ast
import re
from pathlib import Path

import rmnml

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = Path(rmnml.__file__).resolve().parent


def test_readme_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), "README.md quick start", "exec"), {})


def test_public_names_resolve_once():
    names = rmnml.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(rmnml, name)] == []


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(), str(path)))


def _bindings(names: set[str], skip: str | None = None) -> list[str]:
    """Each def, class, import or assignment of one of ``names`` in the
    package's modules but ``skip``, as "module.py:line name"."""
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.stem == skip:
            continue
        for node in _nodes(path):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = {target.id for target in targets if isinstance(target, ast.Name)}
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in bound & names]
    return found


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_oracles_stay_in_validation():
    # one kernel per quantity: the library reads xi, the moments and the
    # Fisher information from the moment kernel, and the paper's closed form,
    # the Monte-Carlo and quadrature oracles, with the adaptive Gauss-Kronrod
    # rule and its QK15 table, the radial weight and cutoff of the quadrature
    # oracle, and the exact D = 1 normalizer with its gap, belong to the
    # validation suites
    oracles = {"xi", "xi_derivatives", "xi_quadrature_oracle", "FisherBlock",
               "fisher_numeric", "fisher_integral", "adaptive_gauss_kronrod",
               "_kronrod_sums", "_KRONROD_X", "_KRONROD_W", "_GAUSS_W", "_NODES_15",
               "_KRONROD_15", "_GAUSS_15", "radial_cutoff", "log_radial_weight",
               "log_exact_complexity_d1", "exact_d1_gap", "_STIRLING"}
    assert _bindings(oracles, skip="validation") == []


def test_no_monte_carlo_complexity_or_erfc_kernel():
    # the exact D = 1 normalizer replaced the Monte-Carlo complexity of
    # N(theta, 1), and the closed form reads math.erfc: the Monte-Carlo
    # estimate and Cody's erfc with its tables are bound nowhere
    assert _bindings({"pc_mc_gauss1d", "_erfc", "_erfc_block", "_exp_minus_square",
                      "_cody_ratio", "_ERFC_A", "_ERFC_B", "_ERFC_C", "_ERFC_D", "_ERFC_P",
                      "_ERFC_Q", "_ONE_OVER_SQRT_PI", "_ERFC_BLOCK", "_ERFC_ZERO_FROM"}) == []


def test_one_boost_for_every_isometry():
    # hyperbolic.boost is the one code that applies the boost to mu, and
    # hyperbolic.exp_normal the one geodesic exponential: the (D+1)^2
    # matrix and the second exponential are gone from the package
    assert _bindings({"isometry_to", "exp_map"}) == []
    assert len(rmnml.__all__) == 21


def _callers(name: str) -> set[str]:
    """"module.name" of each top-level def or class of the package that calls ``name``."""
    return {f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            for path in sorted(SOURCES.glob("*.py"))
            for top in ast.parse(path.read_text(), str(path)).body
            if any(isinstance(node, ast.Call) and _called_name(node) == name
                   for node in ast.walk(top))}


def test_one_polar_kernel():
    # hyperbolic.polar builds every point (cosh r, sinh r u) at the origin:
    # the draws, the prefix code's sub-grid, the MLE's clamp and the
    # geodesic exponential; the old helpers are gone, and no other function
    # takes the sinh of a radius
    assert _bindings({"_lorentz_of_polar", "normal_chart"}) == []
    assert _callers("sinh") == {"hyperbolic.polar"}
    assert "hyperbolic.exp_normal" not in _callers("cosh")


def test_fisher_factors_read_only_through_the_log_formula():
    # gaussian.log_fisher_factors is the one function that turns the moments
    # into Fisher factors; the rest of the library calls it, not the kernel
    modules = {caller.split(".")[0] for caller in _callers("radial_moments")}
    assert modules <= {"gaussian", "validation"}


def test_no_fisher_module():
    assert not (SOURCES / "fisher.py").exists()


def test_one_radial_kernel_and_one_log_likelihood_sum():
    # radial_moments is the one plain kernel, reading the cached rule of
    # gauss_legendre, and _log_lik_sum the one sum of log densities with its
    # overflow check: mle reaches the log density only through it.  The
    # Fisher oracle reads log xi at its three sigmas from one kernel call and
    # forms its densities itself (test_fisher.py holds them to the library's)
    assert _bindings({"_radial_rule", "radial_moments_plain"}) == []
    assert _callers("_log_pdf_vol") == {"gaussian.log_pdf_vol_many", "gaussian._log_lik_sum"}


def test_sigma_solve_keeps_no_bracket():
    # log E[d^2] is convex in log sigma, so the sigma solve is clipped
    # Newton with no bracket, bisection or bracket width
    assert _bindings({"_SIGMA_BRACKET_TOL"}) == []


def test_one_check_of_the_log_complexity():
    # complexity.check_log_pc alone refuses a negative log complexity: pc
    # calls it on its result, and rm_nml_codelength before it fits the data
    assert _bindings({"_score", "_check_log_pc"}) == []
    assert _callers("check_log_pc") == {"cli.cmd_pc", "complexity.rm_nml_codelength"}
    assert len(rmnml.__all__) == 21


def test_each_failure_named_once_and_classified_once():
    # the fit lets the log-likelihood's own OverflowError through, so
    # EstimationError means only that a solver did not converge, and
    # cli._failure alone maps an exception to its exit code and message
    assert _bindings({"_numerical_message", "_NUMERICAL_FAILURES"}) == []
    mle = next(node for node in _nodes(SOURCES / "gaussian.py")
               if isinstance(node, ast.FunctionDef) and node.name == "mle")
    assert not any(isinstance(node, ast.Try) for node in ast.walk(mle))
    assert _callers("EstimationError") == {"gaussian.frechet_mean", "gaussian._solve_sigma"}
    assert _callers("_failure") == {"cli.main", "cli.cmd_select_dim"}
    assert len(rmnml.__all__) == 21


def test_one_gauss_legendre_log_sum():
    # quadrature.log_gauss_legendre is the one log-sum, one log per node count
    # from one integrand call: the sigma rule's levels and the ball volume
    assert _bindings({"_log_gauss_legendre_levels"}) == []
    assert _callers("log_gauss_legendre") == {"quadrature.integrate_1d",
                                              "hyperbolic.log_ball_volume"}


def test_no_generated_records():
    # every record is a NamedTuple or a plain class, so importing the
    # package generates no dataclass methods
    assert _bindings({"dataclass", "dataclasses"}) == []
    assert [f"{path.name}:{node.lineno}" for path in sorted(SOURCES.glob("*.py"))
            for node in _nodes(path)
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"] == []


def test_select_dim_verdict_is_returned():
    # select_best returns None when every candidate failed; cmd_select_dim
    # names the failures and exits with their largest code
    select_best = next(node for node in _nodes(SOURCES / "cli.py")
                       if isinstance(node, ast.FunctionDef) and node.name == "select_best")
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(select_best))


def test_one_output_check_per_writing_command():
    # cli._check_outputs alone checks the files a run writes: each command
    # that writes one calls it once, and _emit only writes
    assert _bindings({"_check_writable"}) == []
    writers = {"cmd_pc", "cmd_codelength", "cmd_sample", "cmd_select_dim", "cmd_coding_demo"}
    assert _callers("_check_outputs") == {f"cli.{name}" for name in writers}
    calls = {node.name: sum(isinstance(call, ast.Call) and _called_name(call) == "_check_outputs"
                            for call in ast.walk(node))
             for node in _nodes(SOURCES / "cli.py")
             if isinstance(node, ast.FunctionDef) and node.name in writers}
    assert calls == dict.fromkeys(writers, 1)
    emit = next(node for node in _nodes(SOURCES / "cli.py")
                if isinstance(node, ast.FunctionDef) and node.name == "_emit")
    assert {_called_name(node) for node in ast.walk(emit) if isinstance(node, ast.Call)} & {
        "_check_outputs", "lexists", "realpath", "remove"} == set()
