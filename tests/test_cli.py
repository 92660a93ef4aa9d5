import argparse
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import rmnml
from rmnml import cli, coding, complexity, hyperbolic as hy, quadrature
from rmnml.cli import (InputError, build_parser, load_dataset, main, parse_sigma_range,
                       select_best, write_dataset)
from rmnml.complexity import ParamDomain, _log_sigma_integrand, pc_hgd, rm_nml_codelength
from rmnml.gaussian import Dataset, EstimationError, RgdParams, mle, sample
from rmnml.quadrature import QuadratureError
from rmnml.validation import xi

from conftest import log_ball_volume_oracle, lorentz_to_poincare, polar_point


def run(argv):
    return main(argv)


class TestPcCommand:
    def test_json_matches_library_bit_exact(self, tmp_path, capsys):
        out = tmp_path / "pc.json"
        code = run(["pc", "--dim", "2", "--n", "1000", "--radius", "3",
                    "--sigma", "0.3:2", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        ref = pc_hgd(2, 1000, ParamDomain(3.0, 0.3, 2.0))
        assert payload["k"] == ref.k
        assert payload["term_kn"] == ref.term_kn
        assert payload["term_volume"] == ref.term_volume
        assert payload["term_fisher"] == ref.term_fisher
        assert payload["total_log_pc"] == ref.total_log_pc

    def test_dimension_one_analytic_reduction(self, capsys):
        code = run(["pc", "--dim", "1", "--n", "100", "--radius", "1.5",
                    "--sigma", "0.5:2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected = (math.log(100 / (2 * math.pi))
                    + math.log(3.0)
                    + math.log(math.sqrt(2.0) * 1.5))
        assert payload["total_log_pc"] == pytest.approx(expected, rel=1e-10)

    def test_missing_dim_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["pc", "--n", "100"])
        assert excinfo.value.code == 2

    def test_bad_sigma_range(self, capsys):
        assert run(["pc", "--dim", "2", "--n", "100", "--sigma", "2:1"]) == 2
        assert "sigma" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("dim", [0, -1])
    def test_non_positive_dim_is_usage_error(self, dim, capsys):
        assert run(["pc", "--dim", str(dim), "--n", "10"]) == 2
        assert capsys.readouterr().err == f"error: --dim must be a positive integer, got {dim}\n"

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise QuadratureError("tolerance not reached", best_estimate=1.5)

        monkeypatch.setattr("rmnml.cli.pc_hgd", failing)
        assert run(["pc", "--dim", "2", "--n", "100"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical integration failed")
        assert "1.5" in err

    def test_node_cap_exit_code_names_best_estimate(self, monkeypatch, capsys):
        monkeypatch.setattr(quadrature, "_GL_NODES_MAX", quadrature._GL_NODES_MIN)
        assert run(["pc", "--dim", "2", "--n", "100"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical integration failed")
        assert "best estimate" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("dim, radius", [(2, 800.0), (400, 3.0), (8, 0.001),
                                             (20, 0.1), (60, 0.5), (5, 0.001)])
    def test_ball_volume_matches_log_oracle(self, dim, radius, capsys):
        # domains where an alternating binomial sum for the volume overflows
        # or loses its digits; at n = 100 a ball of radius 0.001 leaves a
        # negative log complexity, which pc refuses, so the kernel is checked
        volume = hy.log_ball_volume(dim, radius)
        assert volume == pytest.approx(log_ball_volume_oracle(dim, radius), rel=1e-10)
        code = run(["pc", "--dim", str(dim), "--n", "100", "--radius", str(radius)])
        if radius == 0.001:
            assert code == 2
            assert "is negative" in capsys.readouterr().err
            return
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(v) for v in payload.values())
        assert payload["term_volume"] == volume

    @pytest.mark.parametrize("command", [["pc", "--dim", "2", "--n", "100"],
                                         ["codelength", "--data", "d.json"]],
                             ids=["pc", "codelength"])
    def test_rel_tol_is_not_an_option(self, command, capsys):
        # the sigma rule's tolerance is a constant of rmnml.quadrature
        with pytest.raises(SystemExit) as excinfo:
            run([*command, "--rel-tol", "1e-8"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --rel-tol" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["0.01:10", "0.01:20", "0.005:10"])
    def test_thin_layer_at_sigma_min_converges(self, sigma, capsys):
        # at D = 1e4 the log integrand falls from sigma_min at a slope of about
        # -D in log sigma; the doubling rule first agrees with itself at 2,048
        # nodes
        assert run(["pc", "--dim", "10000", "--n", "100", "--sigma", sigma]) == 0
        payload = json.loads(capsys.readouterr().out)
        lo, hi = map(float, sigma.split(":"))
        reference = quadrature.log_gauss_legendre(
            lambda u: _log_sigma_integrand(10000, u), math.log(lo), math.log(hi), 4096)[0]
        assert payload["term_fisher"] == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("argv, bound", [
        (["--dim", "2", "--radius", "inf"], "radius_R"),
        (["--dim", "3", "--radius", "inf"], "radius_R"),
        (["--dim", "2", "--radius", "nan"], "radius_R"),
        (["--dim", "2", "--sigma", "0.1:inf"], "sigma_max"),
        (["--dim", "2", "--sigma", "1e-200:1"], "sigma_min"),
        (["--dim", "3", "--sigma", "1e-78:1"], "sigma_min"),
        (["--dim", "2", "--radius", "2e15"], "radius_R"),
    ])
    def test_domain_outside_accepted_range_is_usage_error(self, argv, bound, capsys):
        assert run(["pc", "--n", "100", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bound} must be")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("radius", ["5e-324", "1e-320"])
    def test_subnormal_radius_is_usage_error(self, radius, capsys):
        # below the smallest normal float the log ball volume loses digits: at
        # D = 5 and R = 1e-320 it read -3682.47486, not the small ball's -3682.47535
        assert run(["pc", "--dim", "5", "--n", "100", "--radius", radius]) == 2
        assert capsys.readouterr().err == (
            f"error: radius_R must be at least 2.23e-308, below which the log ball "
            f"volume loses digits; got {radius}\n")

    def test_tiny_radius_is_the_small_ball(self, capsys):
        # as R -> 0 the ball volume is the Euclidean pi^(D/2) R^D / Gamma(D/2 + 1);
        # so small a ball leaves a negative log complexity, which pc refuses
        small = 2.5 * math.log(math.pi) - math.lgamma(3.5) + 5.0 * math.log(1e-300)
        assert hy.log_ball_volume(5, 1e-300) == pytest.approx(small, rel=1e-12)
        assert run(["pc", "--dim", "5", "--n", "100", "--radius", "1e-300"]) == 2
        assert capsys.readouterr().err.startswith("error: the log complexity -3432.77 is negative")

    @pytest.mark.parametrize("argv, total, bound, given", [
        (["--dim", "2", "--n", "1000", "--radius", "0.01", "--sigma", "1:1.01"],
         "-3.80559", "-7.60482 with k = 3", "-11.4104"),
        (["--dim", "2", "--n", "10", "--radius", "0.1", "--sigma", "0.5:0.6"],
         "-2.37208", "-0.697062 with k = 3", "-3.06914"),
        (["--dim", "5", "--n", "100", "--radius", "1e-300"],
         "-3432.77", "-8.30188 with k = 6", "-3441.08"),
    ], ids=["thin-sigma", "small-ball", "tiny-ball"])
    def test_negative_log_complexity_is_usage_error(self, argv, total, bound, given,
                                                    tmp_path, capsys):
        # no NML normalizer has a log below 0: the run names the bound that
        # the domain's Fisher volume must reach at that n, and writes nothing
        out = tmp_path / "pc.json"
        assert run(["pc", *argv, "--out", str(out)]) == 2
        dim, n = argv[1], argv[3]
        assert capsys.readouterr().err == (
            f"error: the log complexity {total} is negative, which no NML normalizer's is: "
            f"at D = {dim} and n = {n} the asymptotic formula needs term_volume + "
            f"term_fisher >= (k/2) log(2 pi / n) = {bound}, and this domain gives "
            f"{given}\n")
        assert not out.exists()

    def test_n_below_two_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "pc.json"
        assert run(["pc", "--dim", "2", "--n", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --n must be an integer of at least 2, got 1\n"
        # from 2**1024 no float holds --n or --dim, and the run names the flag
        for flag, other in (("--n", "--dim"), ("--dim", "--n")):
            argv = ["pc", other, "2", flag, str(2**1024), "--out", str(out)]
            assert run(argv) == 2
            assert capsys.readouterr().err == (f"error: {flag} must be below about 1.8e308, the "
                                               "largest float; got an integer of 309 digits\n")
        assert not out.exists()

    @pytest.mark.parametrize("dim, sigma", [(3, "1e-12:1"), (1, "1.3e-77:1"),
                                            (2, "1.3e-77:1"), (3, "1.3e-77:1"),
                                            (5, "1.3e-77:1")])
    def test_small_sigma_min_finite(self, dim, sigma, capsys):
        assert run(["pc", "--dim", str(dim), "--n", "100", "--sigma", sigma]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(v) for v in payload.values())
        # as sigma -> 0 the model is Euclidean: E[d^2] = D sigma^2 and
        # Var(d^2) = 2 D sigma^4, so the integrand is sqrt(2D) sigma^-(D+1);
        # its integral from sigma_min is sqrt(2D) sigma_min^-D / D up to a
        # relative sigma_min^D
        sigma_min = float(sigma.split(":")[0])
        limit = 0.5 * math.log(2 * dim) - math.log(dim) - dim * math.log(sigma_min)
        assert payload["term_fisher"] == pytest.approx(limit, rel=1e-10)

    def test_large_sigma_max_finite(self, capsys):
        # at large sigma, E[d^2] = (D-1)^2 sigma^4 and Var(d^2) = 4 (D-1)^2 sigma^6,
        # so the sigma integrand tends to 2 (D-1)^(D+1) / D^(D/2), which is 1 at
        # D = 2; below sigma = 1 it adds O(1 / sigma_min^2) = O(100)
        assert run(["pc", "--dim", "2", "--n", "100", "--sigma", "0.1:1e10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(v) for v in payload.values())
        assert payload["term_fisher"] == pytest.approx(math.log(1e10), abs=1e-6)

    @pytest.mark.parametrize("dim", [2, 50, 1000])
    def test_sigma_max_at_the_float_range(self, dim, capsys):
        # past the window's r = 19 the moments are the normal limit, so
        # c_mu = (D-1)^2 / D and I_sigma = 4 (D-1)^2, and the integral of
        # sqrt(c_mu^D I_sigma) up to sigma_max = 1e300 is that constant times
        # sigma_max, up to a relative 1e-298
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["pc", "--dim", str(dim), "--n", "100", "--sigma", "0.1:1e300"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(v) for v in payload.values())
        limit = 0.5 * (dim * math.log((dim - 1) ** 2 / dim)
                       + math.log(4 * (dim - 1) ** 2)) + math.log(1e300)
        assert payload["term_fisher"] == pytest.approx(limit, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 50, 1000])
    def test_sigma_max_past_the_kernel_ceiling_is_usage_error(self, dim, tmp_path, capsys):
        # past float max / (20 (D-1)) the kernel's scaled r^2 - m^2 overflows,
        # and pc printed RuntimeWarnings and a nan best estimate (exit 3).  pc
        # and codelength run at the bound and name it just past it; D = 1 has
        # no bound
        bound = sys.float_info.max / (20.0 * (dim - 1)) if dim > 1 else sys.float_info.max
        data = tmp_path / "data.json"
        cases = [(bound, 0)] + ([(math.nextafter(bound, math.inf), 2)] if dim > 1 else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sample", "--dim", str(dim), "--n", "50", "--sigma", "0.5",
                        "--seed", "1", "--out", str(data)]) == 0
            for sigma_max, expected in cases:
                for argv in (["pc", "--dim", str(dim), "--n", "50"],
                             ["codelength", "--data", str(data)]):
                    code = run([*argv, "--sigma", f"0.1:{sigma_max!r}"])
                    out, err = capsys.readouterr()
                    assert code == expected, err
                    if expected:
                        assert err == (f"error: sigma_max = {sigma_max!r} is past the largest "
                                       f"sigma the moment kernel holds at D = {dim}: float "
                                       f"max / (20 (D - 1)) = {bound!r}\n")
                    else:
                        assert all(math.isfinite(v) for v in json.loads(out).values())

    def test_window_on_the_mode_at_dimension_1e10(self, capsys):
        # one Newton step for the mode left the kernel's window off it here,
        # and the run printed overflow warnings and a nan best estimate.  The
        # sigma integrand's mass sits in a thin layer at sigma_min, where the
        # doubling rule may still stop short of its tolerance (exit 3).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["pc", "--dim", "10000000000", "--n", "100", "--sigma", "1e-6:1e-5"])
        captured = capsys.readouterr()
        assert code in (0, cli.NUMERICAL_ERROR)
        assert "nan" not in captured.out + captured.err

    def test_thin_layer_failure_names_the_layer(self, capsys):
        # the log integrand falls from sigma_min at a slope of about -1e10 in
        # log sigma, so its mass sits in a layer about 1e-10 wide, which the
        # 2,048-node rule does not resolve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["pc", "--dim", "10000000000", "--n", "100", "--sigma", "1e-6:1e-5"])
        err = capsys.readouterr().err
        assert code == cli.NUMERICAL_ERROR
        found = re.search(r"peaks at sigma = (\S+), in a layer (\S+) wide in log sigma", err)
        assert found is not None, err
        assert float(found.group(1)) == pytest.approx(1e-6, rel=1e-5)
        u = math.log(1e-6) + np.array([0.0, 1e-9])
        values = _log_sigma_integrand(10**10, u)
        width = 1e-9 / abs(values[1] - values[0])  # 1 / |slope| at sigma_min
        assert width / 3 <= float(found.group(2)) <= 3 * width

    # at D = 1e4 and 3e4 the sigma integrand falls about as sigma^-(D+1),
    # and the doubling rule in log sigma must still agree by 1,024 nodes
    @pytest.mark.parametrize("dim", [8, 16, 10_000, 30_000])
    def test_high_dimension_finite_and_fast(self, dim, capsys):
        start = time.perf_counter()
        assert run(["pc", "--dim", str(dim), "--n", "1000"]) == 0
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(v) for v in payload.values())
        assert elapsed < 1.0

    def test_csv_mirror(self, tmp_path):
        out = tmp_path / "pc.json"
        csv_out = tmp_path / "pc.csv"
        run(["pc", "--dim", "2", "--n", "100", "--sigma", "0.3:2",
             "--out", str(out), "--csv", str(csv_out)])
        header, row = csv_out.read_text().strip().splitlines()
        assert "total_log_pc" in header.split(",")
        payload = json.loads(out.read_text())
        idx = header.split(",").index("total_log_pc")
        assert float(row.split(",")[idx]) == pytest.approx(
            payload["total_log_pc"], rel=1e-12)


class TestSampleCommand:
    def test_seed_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["sample", "--dim", "2", "--n", "50", "--sigma", "1.0",
             "--seed", "7", "--out", str(a)])
        run(["sample", "--dim", "2", "--n", "50", "--sigma", "1.0",
             "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_sigma_is_usage_error(self, tmp_path, capsys):
        code = run(["sample", "--dim", "2", "--n", "10", "--sigma", "0",
                    "--out", str(tmp_path / "x.json")])
        assert code == 2

    # "--mu=..." keeps argparse from reading "-1,0,0" as an option
    @pytest.mark.parametrize("mu, reason", [
        ("1.1,0,0", "--mu is not on the manifold: point is off the hyperboloid"),
        ("-1,0,0", "--mu is not on the manifold: x0 must be positive"),
        ("1,0", "--mu needs 3 comma-separated Lorentz components"),
        ("x,0,0", "--mu expects comma-separated numbers, got 'x,0,0'"),
    ], ids=["off-sheet", "x0-negative", "wrong-length", "non-numeric"])
    def test_bad_mu_is_usage_error(self, mu, reason, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["sample", "--dim", "2", "--n", "5", "--sigma", "1", f"--mu={mu}",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {reason}")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    # a negative --seed is named before numpy's "expected non-negative integer",
    # and from 2**1024, where no float holds the value, before numpy's "Maximum
    # allowed dimension exceeded"
    @pytest.mark.parametrize("flag, value, rule", [
        ("--dim", "0", "a positive integer, got 0"),
        ("--dim", "-1", "a positive integer, got -1"),
        ("--seed", "-1", "a non-negative integer, got -1"),
        ("--n", "0", "a positive integer, got 0"),
        *[(flag, str(2**1024), "below about 1.8e308, the largest float; got an integer "
                               "of 309 digits") for flag in ("--dim", "--n", "--seed")]],
        ids=["0", "-1", "seed--1", "n-0", "dim-2**1024", "n-2**1024", "seed-2**1024"])
    def test_non_positive_dim_is_usage_error(self, flag, value, rule, tmp_path, capsys):
        options = {"--dim": "2", "--n": "5", "--sigma": "1", "--seed": "0", flag: value}
        out = tmp_path / "x.json"
        assert run(["sample", *itertools.chain(*options.items()), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be {rule}\n"
        assert not out.exists()

    # an array past numpy's largest, 2^60 - 1 float64 values, is named by its
    # flag before numpy's "array is too big" or "Maximum allowed dimension
    # exceeded"; both flags when only the n (D + 1) coordinates pass
    @pytest.mark.parametrize("dim, n, message", [
        (str(2**60 - 1), "5", "--dim must keep the D + 1 coordinates of a point within "
                              "numpy's largest array, 1152921504606846975 float64 values; "
                              "got 1.15292e+18"),
        ("2", str(2**63), "--n must keep the n radii within numpy's largest array, "
                          "1152921504606846975 float64 values; got 9.22337e+18"),
        ("2", str(2**60 // 3 + 1), "--n and --dim must keep the n (D + 1) coordinates "
                                   "within numpy's largest array, 1152921504606846975 "
                                   "float64 values; got 1.15292e+18")],
        ids=["dim", "n", "n-and-dim"])
    def test_array_past_numpy_names_the_flag(self, dim, n, message, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["sample", "--dim", dim, "--n", n, "--sigma", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_sample_statistics(self, tmp_path):
        out = tmp_path / "big.json"
        run(["sample", "--dim", "2", "--n", "100000", "--sigma", "1.0",
             "--seed", "3", "--out", str(out)])
        data = load_dataset(str(out))
        d2 = hy.dist_many(hy.origin(2), data.coords) ** 2
        # quadrature oracle for E[d^2] and its spread (precomputed forms
        # exercised in the gaussian tests); generous 3-sigma band
        from rmnml.validation import adaptive_gauss_kronrod, log_radial_weight, radial_cutoff
        cutoff = radial_cutoff(2, 1.0)
        w = lambda r, k=0: r ** k * np.exp(log_radial_weight(2, r, 1.0))
        z = adaptive_gauss_kronrod(lambda r: w(r), 0.0, cutoff, 1e-12)
        m2 = adaptive_gauss_kronrod(lambda r: w(r, 2), 0.0, cutoff, 1e-12) / z
        m4 = adaptive_gauss_kronrod(lambda r: w(r, 4), 0.0, cutoff, 1e-12) / z
        stderr = math.sqrt((m4 - m2 ** 2) / data.n)
        assert abs(float(d2.mean()) - m2) <= 3 * stderr

    @pytest.mark.parametrize("dim, sigma, seed, code", [(5, 20.0, 0, 2), (2, 26.0, 0, 2),
                                                        (2, 22.0, 1, 0)])
    def test_sigma_at_float_range(self, dim, sigma, seed, code, tmp_path, capsys):
        out = tmp_path / "far.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sample", "--dim", str(dim), "--n", "1000", "--sigma", str(sigma),
                        "--seed", str(seed), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith(f"error: sigma = {sigma!r} with mu at distance 0 ")
            assert len(err.strip().splitlines()) == 1
        else:
            assert err == ""
            assert load_dataset(str(out)).n == 1000

    @pytest.mark.parametrize("sigma", ["inf", "1e200", "1.7e308"])
    def test_unrepresentable_sigma_is_usage_error(self, sigma, tmp_path, capsys):
        out = tmp_path / "x.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sample", "--dim", "2", "--n", "10", "--sigma", sigma,
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if sigma == "inf":
            assert err == "error: --sigma must be positive and finite, got inf\n"
        else:
            assert err.startswith(f"error: sigma = {float(sigma)!r} with mu at distance 0 ")
            assert err.count("\n") == 1
        assert not out.exists()

    def test_out_of_memory_exit_code(self, monkeypatch, tmp_path, capsys):
        # sample draws an (n, D) Gaussian block for the directions, 80 GB at
        # n = D = 1e5
        default_rng = np.random.default_rng

        class Exhausted:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def uniform(self, *args):
                return self.rng.uniform(*args)

            def standard_normal(self, size):
                raise MemoryError("Unable to allocate 74.5 GiB for an array with "
                                  "shape (100000, 100000) and data type float64")

        monkeypatch.setattr(np.random, "default_rng", Exhausted)
        out = tmp_path / "x.json"
        assert run(["sample", "--dim", "2", "--n", "3", "--sigma", "1",
                    "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 74.5 GiB for an array with "
            "shape (100000, 100000) and data type float64\n")
        assert not out.exists()

    def test_custom_mu(self, tmp_path):
        mu = polar_point(0.8, [1.0, 0.0])
        mu_text = ",".join(repr(float(v)) for v in mu)
        out = tmp_path / "mu.json"
        assert run(["sample", "--dim", "2", "--n", "2000", "--sigma", "0.3",
                    "--mu", mu_text, "--seed", "1", "--out", str(out)]) == 0
        data = load_dataset(str(out))
        d = hy.dist_many(mu, data.coords)
        assert float(np.median(d)) < 1.0


def _strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which JSON lacks."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestWriteDataset:
    # r = 38.5 puts x0 in [1e16, 1e17), where %.17g prints a JSON integer
    RADII = (0.0, 1e-8, 1.0, 38.5, 700.0)

    # D = 1000 at n = 1e4 would hold 1e7 Python floats at once; the other
    # sizes cover the same template
    @pytest.mark.parametrize("dim, n", [(dim, n) for dim in (1, 2, 5) for n in (1, 3, 10_000)]
                             + [(1000, 1), (1000, 3)])
    def test_reads_back_as_json_dumps_does(self, dim, n, tmp_path):
        rng = np.random.default_rng([dim, n])
        path = tmp_path / "data.json"
        for r in self.RADII:
            u = rng.standard_normal((n, dim))
            coords = hy.polar(r, u / np.linalg.norm(u, axis=1, keepdims=True))
            write_dataset(str(path), Dataset(coords))
            text = path.read_text()
            payload = _strict_json(text)
            assert (payload["chart"], payload["dim"], len(payload["points"])) == (
                "lorentz", dim, n)
            if r == 38.5:
                assert f"[{int(coords[0, 0])}, " in text
            # json.dumps's shortest repr is the reference.  It keeps -0.0 (at
            # r = 0), which reads back as 0.0 here (test below), so + 0.0 maps
            # it there and leaves the bits of every other value as they are
            reference = np.array(json.loads(json.dumps(coords.tolist())))
            assert np.array_equal(load_dataset(str(path)).coords.view(np.uint64),
                                  (reference + 0.0).view(np.uint64))

    def test_negative_zero_reads_back_as_zero(self, tmp_path):
        # %.17g writes -0.0 as -0, a JSON integer: the one coordinate that does
        # not read back bit for bit, but as 0.0, an equal float
        path = tmp_path / "zero.json"
        write_dataset(str(path), Dataset(np.array([[1.0, -0.0, 0.0]])))
        assert path.read_text() == '{"chart": "lorentz", "dim": 2, "points": [[1, -0, 0]]}\n'
        coords = load_dataset(str(path)).coords
        assert coords.tolist() == [[1.0, 0.0, 0.0]]
        assert not np.signbit(coords).any()


@pytest.mark.parametrize("command", [["sample", "--dim", "2", "--n", "10", "--out", "x.json"],
                                     ["coding-demo", "--grid", "4"]],
                         ids=["sample", "coding-demo"])
def test_sigma_whose_square_underflows_is_usage_error(command, tmp_path, monkeypatch, capsys):
    # below sqrt(float min) sigma^2 leaves the normal floats: sample's table
    # was all nan, and coding-demo divided by zero
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*command, "--sigma", "1e-200"]) == 2
    assert capsys.readouterr().err == ("error: sigma must be at least 1.49e-154, where "
                                       "sigma^2 underflows; got 1e-200\n")
    assert not (tmp_path / "x.json").exists()


class TestCodelengthCommand:
    def test_round_trip_from_sample(self, tmp_path, capsys):
        path = tmp_path / "data.json"
        run(["sample", "--dim", "2", "--n", "200", "--sigma", "0.8",
             "--seed", "5", "--out", str(path)])
        code = run(["codelength", "--data", str(path), "--sigma", "0.1:3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] > 0
        assert math.isfinite(payload["total"])
        assert payload["total"] == payload["neg_max_loglik"] + payload["log_pc"]
        data = load_dataset(str(path))
        ref = rm_nml_codelength(data, ParamDomain(3.0, 0.1, 3.0))
        assert payload["total"] == ref.total
        assert "chart_gap_lorentz_graph" in payload
        assert "chart_gap_poincare" in payload

    @pytest.mark.parametrize("dim, bound", [(1, "1.34e+154"), (2, "2.68e+153")])
    def test_log_lik_overflow_names_the_stage(self, dim, bound, tmp_path, capsys):
        # past sigma = 1.3e154 sqrt(2/n) / (D-1), -n log xi, about
        # n (D-1)^2 sigma^2 / 2, overflows at D >= 2; at D = 1, log xi is
        # about log sigma, and the fit is finite; the complexity on the same
        # domain is finite
        path = tmp_path / "data.json"
        assert run(["sample", "--dim", str(dim), "--n", "50", "--sigma", "0.5",
                    "--seed", "1", "--out", str(path)]) == 0
        capsys.readouterr()
        code = run(["codelength", "--data", str(path), "--sigma", "1e200:1e300"])
        err = capsys.readouterr().err
        pc_code = run(["pc", "--dim", str(dim), "--n", "50", "--sigma", "1e200:1e300"])
        pc_out, pc_err = capsys.readouterr()
        if dim == 1:
            # there that complexity is finite but negative, about -456, and
            # codelength refuses the domain, as pc does, before it fits
            assert (code, pc_code) == (2, 2)
            assert err.startswith("error: the log complexity -456.305 is negative")
            assert err == pc_err
            fit = mle(load_dataset(str(path)), ParamDomain(3.0, 1e200, 1e300))
            assert fit.params.sigma == 1e200 and fit.sigma_clamped
            assert fit.max_log_lik == pytest.approx(-23071.797856600690, rel=1e-15)
            return
        assert code == 3
        assert err == ("error: numerical overflow: the log-likelihood at sigma = 1e+200 "
                       f"overflows: at D = 2 and n = 50 it is finite only below about "
                       f"sigma = {bound}\n")
        assert pc_code == 0
        assert all(math.isfinite(v) for v in json.loads(pc_out).values())

    def test_isometric_dataset_same_total(self, tmp_path, capsys):
        base = sample(80, RgdParams(hy.origin(2), 0.7), seed=9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_dataset(str(a), base)
        write_dataset(str(b), Dataset(hy.boost(polar_point(0.9, [0.6, 0.8]), base.coords)))
        run(["codelength", "--data", str(a)])
        total_a = json.loads(capsys.readouterr().out)["total"]
        run(["codelength", "--data", str(b)])
        total_b = json.loads(capsys.readouterr().out)["total"]
        assert total_b == pytest.approx(total_a, abs=1e-6)

    def test_sampled_dimension_sixteen(self, tmp_path, capsys):
        path = tmp_path / "d16.json"
        assert run(["sample", "--dim", "16", "--n", "300", "--sigma", "0.5",
                    "--seed", "4", "--out", str(path)]) == 0
        assert run(["codelength", "--data", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim"] == 16
        assert all(math.isfinite(v) for k, v in payload.items() if k != "boundary_flag")

    def test_widely_spread_sample_finite(self, tmp_path, capsys):
        # points up to about 136 from the origin: the chord form of the
        # distance cancelled there and sent the Frechet mean to overflow
        path = tmp_path / "spread.json"
        assert run(["sample", "--dim", "5", "--n", "500", "--sigma", "2.9",
                    "--seed", "3", "--out", str(path)]) == 0
        assert run(["codelength", "--data", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(v) for k, v in payload.items() if k != "boundary_flag")

    @pytest.mark.parametrize("r", [8, 12, 14, 16, 20])
    def test_far_cluster_terminates(self, r, tmp_path, capsys):
        # the same 200 draws moved along an axis to distance r: the frame of
        # the Frechet mean rounds by about eps cosh^2 r, so the Newton step
        # stalls near 3e-9, 8e-6 and 4e-4 at r = 8, 12 and 14, and the
        # distances carry the same floor; at r = 16 and 20 the distance
        # kernel rejects the data as off-manifold.  At r = 20 the Minkowski
        # norm of the Euclidean mean rounds to 0, so the Frechet mean starts
        # from a data point
        near, far = tmp_path / "near.json", tmp_path / "far.json"
        mu = f"{math.cosh(r)!r},{math.sinh(r)!r},0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for path, args in ((near, []), (far, ["--mu", mu])):
                assert run(["sample", "--dim", "2", "--n", "200", "--sigma", "0.5",
                            "--seed", "1", *args, "--out", str(path)]) == 0
            assert run(["codelength", "--data", str(near), "--radius", "30"]) == 0
            reference = json.loads(capsys.readouterr().out)["neg_max_loglik"]
            code = run(["codelength", "--data", str(far), "--radius", "30"])
        out, err = capsys.readouterr()
        if r >= 16:
            assert code == 2 and "off-manifold" in err
            return
        assert code == 0
        payload = json.loads(out)
        assert all(math.isfinite(v) for k, v in payload.items() if k != "boundary_flag")
        if r < 14:  # at r = 14, neg_max_loglik moves by 1e-2 as mu moves by 1e-12
            floor = 200 * sys.float_info.epsilon * math.cosh(r) ** 2 / 0.5 ** 2
            assert abs(payload["neg_max_loglik"] - reference) < floor

    def test_points_past_data_bound_are_usage_error(self, tmp_path, capsys):
        # mu about 400 from the origin: sample draws within the float range
        # and exits 0, but squares of these coordinates overflow, so the
        # code-length stops at the data bound before the Frechet mean runs
        path = tmp_path / "far.json"
        mu = "2.610734844882072e+173,2.610734844882072e+173,0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sample", "--dim", "2", "--n", "200", "--sigma", "0.5",
                        "--seed", "1", "--mu", mu, "--out", str(path)]) == 0
            start = time.perf_counter()
            assert run(["codelength", "--data", str(path), "--radius", "500"]) == 2
            assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: point ")
        assert "past the data bound of 350: the estimators need x0 <= cosh 350" in err

    def test_sigma_clamped_at_sigma_max_is_flagged(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        write_dataset(str(path), sample(200, RgdParams(hy.origin(2), 5.0), seed=1))
        assert run(["codelength", "--data", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["boundary_flag"] is True

    def test_negative_log_complexity_is_usage_error(self, tmp_path, capsys):
        # codelength and each select-dim candidate refuse the log complexity
        # that pc refuses on the same domain
        path = tmp_path / "d2.json"
        write_dataset(str(path), sample(10, RgdParams(hy.origin(2), 0.55), seed=3))
        domain = ["--radius", "0.1", "--sigma", "0.5:0.6"]
        message = "the log complexity -2.37208 is negative"
        assert run(["codelength", "--data", str(path), *domain]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert run(["select-dim", "--candidate", f"2={path}", "--candidate", f"3={path}",
                    *domain]) == 2
        assert f"every candidate failed: dim 2: {message}" in capsys.readouterr().err

    def test_refused_domain_is_not_fitted(self, tmp_path, capsys, monkeypatch):
        # the log complexity is checked before the fit, so a refused domain
        # costs no fit, whatever the data
        path = tmp_path / "d2.json"
        write_dataset(str(path), sample(10, RgdParams(hy.origin(2), 0.55), seed=3))
        fits = []
        monkeypatch.setattr(complexity, "mle", lambda *args: fits.append(args))
        domain = ["--radius", "0.1", "--sigma", "0.5:0.6"]
        assert run(["codelength", "--data", str(path), *domain]) == 2
        assert capsys.readouterr().err.startswith("error: the log complexity -2.37208 is negative")
        assert run(["select-dim", "--candidate", f"2={path}", "--candidate", f"3={path}",
                    *domain]) == 2
        assert fits == []

    def test_codelength_refuses_what_pc_refuses(self, tmp_path, capsys):
        # on small domains, codelength exits 2 with pc's message exactly when
        # pc does, and otherwise prints pc's total as its log_pc, bit for bit
        rng = np.random.default_rng(27)
        paths = {}
        for dim, n in itertools.product((1, 2, 3), (2, 10, 100)):
            paths[dim, n] = tmp_path / f"d{dim}n{n}.json"
            write_dataset(str(paths[dim, n]), sample(n, RgdParams(hy.origin(dim), 0.5),
                                                      seed=dim * n))
        refused = 0
        for _ in range(100):
            dim, n = int(rng.choice([1, 2, 3])), int(rng.choice([2, 10, 100]))
            sigma_min = 10.0 ** rng.uniform(-1.5, 0.3)
            sigma_max = sigma_min * (1.0 + 10.0 ** rng.uniform(-3.0, 0.0))
            domain = ["--radius", repr(10.0 ** rng.uniform(-3.0, 0.0)),
                      "--sigma", f"{sigma_min!r}:{sigma_max!r}"]
            pc_code = run(["pc", "--dim", str(dim), "--n", str(n), *domain])
            pc_out, pc_err = capsys.readouterr()
            code = run(["codelength", "--data", str(paths[dim, n]), *domain])
            out, err = capsys.readouterr()
            if pc_code == 2 and "is negative" in pc_err:
                refused += 1
                assert (code, err) == (2, pc_err)
            else:
                assert (pc_code, code) == (0, 0)
                assert json.loads(out)["log_pc"] == json.loads(pc_out)["total_log_pc"]
        assert 0 < refused < 100

    def test_single_point_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        write_dataset(str(path), Dataset(hy.origin(2)[None, :]))
        assert run(["codelength", "--data", str(path)]) == 2

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"chart": "lorentz",\n  "dim": 2,\n  "points": [[1, 0, ]]}\n')
        assert run(["codelength", "--data", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_invalid_point_reports_index(self, tmp_path, capsys):
        payload = {"chart": "lorentz", "dim": 2,
                   "points": [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]}
        path = tmp_path / "offmanifold.json"
        path.write_text(json.dumps(payload))
        assert run(["codelength", "--data", str(path)]) == 2
        assert "point 1" in capsys.readouterr().err

    def test_far_point_off_the_hyperboloid_is_named(self, tmp_path, capsys):
        # the point is off the manifold; the data bound must not be blamed
        path = tmp_path / "far-off.json"
        path.write_text(json.dumps({"chart": "lorentz", "dim": 2,
                                    "points": [[1e160, 5e159, 0.0], [1.0, 0.0, 0.0]]}))
        assert run(["codelength", "--data", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "point 0 is invalid: point is off the hyperboloid" in err

    def test_non_finite_point_reports_index(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"chart": "lorentz", "dim": 2,
                                    "points": [[1.0, 0.0, 0.0], [1.0, math.nan, 0.0]]}))
        assert run(["codelength", "--data", str(path)]) == 2
        assert "point 1 is invalid: coordinates must be finite" in capsys.readouterr().err

    def test_poincare_input_accepted(self, tmp_path, capsys):
        lorentz = sample(40, RgdParams(hy.origin(2), 0.6), seed=13)
        poincare_points = [lorentz_to_poincare(row).tolist() for row in lorentz.coords]
        path = tmp_path / "poincare.json"
        path.write_text(json.dumps({"chart": "poincare", "dim": 2,
                                    "points": poincare_points}))
        run(["codelength", "--data", str(path)])
        total_p = json.loads(capsys.readouterr().out)["total"]
        ref = rm_nml_codelength(lorentz, ParamDomain(3.0, 0.1, 3.0))
        assert total_p == pytest.approx(ref.total, abs=1e-9)


class TestSelectDim:
    def test_tie_breaks_toward_smaller_dim(self):
        scores = [
            {"dim": 3, "total": 10.0, "error": None},
            {"dim": 2, "total": 10.0, "error": None},
            {"dim": 5, "total": 11.0, "error": None},
        ]
        assert select_best(scores)["dim"] == 2

    def test_no_survivor_is_none(self):
        scores = [{"dim": 2, "total": None, "error": "cannot read a.json"},
                  {"dim": 3, "total": None, "error": "cannot read b.json"}]
        assert select_best(scores) is None

    def test_single_survivor_selected(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        write_dataset(str(good), sample(50, RgdParams(hy.origin(2), 0.8), seed=17))
        missing = tmp_path / "missing.json"
        code = run(["select-dim", "--candidate", f"2={good}",
                    "--candidate", f"3={missing}"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected_dim"] == 2
        by_dim = {e["dim"]: e for e in payload["scores"]}
        assert by_dim[3]["error"] is not None
        assert by_dim[2]["error"] is None

    def test_dimension_mismatch_recorded_per_candidate(self, tmp_path, capsys):
        path = tmp_path / "d2.json"
        write_dataset(str(path), sample(50, RgdParams(hy.origin(2), 0.8), seed=19))
        code = run(["select-dim", "--candidate", f"1={path}",
                    "--candidate", f"2={path}"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected_dim"] == 2

    def test_all_failed_is_usage_error(self, tmp_path, capsys):
        code = run(["select-dim", "--candidate", "2=/nonexistent/a.json",
                    "--candidate", "3=/nonexistent/b.json"])
        assert code == 2
        # the message names each candidate and its error
        err = capsys.readouterr().err
        assert "every candidate failed: dim 2: cannot read /nonexistent/a.json" in err
        assert "; dim 3: cannot read /nonexistent/b.json" in err

    @pytest.mark.parametrize("option, value, bound", [
        ("--radius", "-1", "radius_R must be in (0, 1e+15]"),
        ("--sigma", "1e-300:1", "sigma_min must be at least 1.22e-77"),
    ], ids=["radius", "sigma"])
    def test_bad_domain_names_the_bound(self, tmp_path, capsys, option, value, bound):
        path = tmp_path / "d2.json"
        write_dataset(str(path), sample(50, RgdParams(hy.origin(2), 0.8), seed=19))
        code = run(["select-dim", "--candidate", f"2={path}",
                    "--candidate", f"3={path}", option, value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert bound in captured.err
        assert "every candidate failed" not in captured.err

    @staticmethod
    def numerical_failures(monkeypatch, failing):
        # one candidate's numerical stage fails; the others score as before
        errors = {2: QuadratureError("still disagree at 1024 nodes", best_estimate=-1.5),
                  3: EstimationError("no convergence after 50 iterations")}

        def codelength(data, domain, *args):
            if data.dim in failing:
                raise errors[data.dim]
            return rm_nml_codelength(data, domain, *args)

        monkeypatch.setattr(cli, "rm_nml_codelength", codelength)

    def candidates(self, tmp_path):
        argv = ["select-dim"]
        for dim in (2, 3):
            path = tmp_path / f"d{dim}.json"
            write_dataset(str(path), sample(50, RgdParams(hy.origin(dim), 0.8), seed=dim))
            argv += ["--candidate", f"{dim}={path}"]
        return argv

    def test_numerical_failure_keeps_other_scores(self, tmp_path, capsys, monkeypatch):
        argv = self.candidates(tmp_path)
        self.numerical_failures(monkeypatch, failing={3})
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected_dim"] == 2
        by_dim = {e["dim"]: e for e in payload["scores"]}
        assert by_dim[2]["error"] is None and math.isfinite(by_dim[2]["total"])
        assert by_dim[3]["total"] is None
        assert by_dim[3]["error"] == ("maximum likelihood estimation failed: "
                                      "no convergence after 50 iterations")

    def test_all_numerical_failures_exit_3_naming_each(self, tmp_path, capsys, monkeypatch):
        argv = self.candidates(tmp_path)
        self.numerical_failures(monkeypatch, failing={2, 3})
        assert run(argv) == cli.NUMERICAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: every candidate failed: dim 2: numerical integration failed: "
            "still disagree at 1024 nodes (best estimate -1.5); dim 3: maximum "
            "likelihood estimation failed: no convergence after 50 iterations\n")

    def test_out_of_memory_on_load_keeps_other_scores(self, tmp_path, capsys,
                                                      monkeypatch):
        # a candidate's own load failure goes into its entry, as a scoring
        # failure does
        argv = self.candidates(tmp_path)
        load = cli.load_dataset

        def exhausted(path):
            if path.endswith("d3.json"):
                raise MemoryError("Unable to allocate 8.00 GiB for an array")
            return load(path)

        monkeypatch.setattr(cli, "load_dataset", exhausted)
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected_dim"] == 2
        by_dim = {e["dim"]: e for e in payload["scores"]}
        assert math.isfinite(by_dim[2]["total"])
        assert by_dim[3]["total"] is None
        assert by_dim[3]["error"] == "out of memory: Unable to allocate 8.00 GiB for an array"

    @pytest.mark.parametrize("argv", [["pc", "--dim", "2", "--n", "10"],
                                      ["codelength", "--data", "d.json"],
                                      ["select-dim", "--candidate", "2=d.json"]],
                             ids=["pc", "codelength", "select-dim"])
    def test_default_domain_is_the_library_default(self, argv):
        assert cli._domain_from(build_parser().parse_args(argv)) == ParamDomain()

    def test_single_point_candidate_gets_the_codelength_message(self, tmp_path, capsys):
        # each candidate is scored through codelength's own checks
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        write_dataset(str(one), sample(1, RgdParams(hy.origin(3), 0.8), seed=4))
        write_dataset(str(two), sample(50, RgdParams(hy.origin(2), 0.8), seed=4))
        assert run(["select-dim", "--candidate", f"2={two}", "--candidate", f"3={one}"]) == 0
        by_dim = {e["dim"]: e for e in json.loads(capsys.readouterr().out)["scores"]}
        assert by_dim[3]["error"] == f"{one}: the code-length needs at least 2 points, got 1"
        assert run(["codelength", "--data", str(one)]) == 2
        assert capsys.readouterr().err == f"error: {by_dim[3]['error']}\n"

    def test_candidates_of_different_n_are_usage_error(self, tmp_path, capsys):
        # a D = 2 file of 500 points against a D = 3 file of 50 selected 3
        two, three = tmp_path / "d2.json", tmp_path / "d3.json"
        write_dataset(str(two), sample(500, RgdParams(hy.origin(2), 1.0), seed=1))
        write_dataset(str(three), sample(50, RgdParams(hy.origin(3), 1.0), seed=1))
        missing = tmp_path / "missing.json"
        assert run(["select-dim", "--candidate", f"3={three}", "--candidate", f"2={two}",
                    "--candidate", f"5={missing}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: select-dim compares code-lengths of the same points, "
                                "but dim 2 holds n = 500, dim 3 holds n = 50\n")

    @pytest.mark.parametrize("spec, message", [
        ("2", "--candidate expects DIM=PATH, got '2'"),
        ("x=d.json", "--candidate dimension must be an integer, got 'x'"),
    ], ids=["no-equals", "non-integer"])
    def test_malformed_candidate_is_usage_error(self, spec, message, capsys):
        assert run(["select-dim", "--candidate", spec, "--candidate", "3=d.json"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_needs_two_candidates(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        write_dataset(str(path), sample(10, RgdParams(hy.origin(2), 1.0), seed=2))
        assert run(["select-dim", "--candidate", f"2={path}"]) == 2


class TestValidateCommand:
    def test_quick_run_passes_within_budget(self, capsys):
        import time
        start = time.perf_counter()
        code = run(["validate", "--quick"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out
        assert elapsed < 10.0

    def test_each_suite_line_ends_with_its_wall_time(self, capsys):
        assert run(["validate", "--quick"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        for line in lines:
            # the "name  STATUS  detail" prefix that bench/workloads.py parses
            assert line.split()[1] == "PASS"
            assert re.search(r"  \[\d+\.\d\d s\]$", line), line

    def test_suite_names_are_the_benchmarks(self, capsys):
        # the benchmark's validate-quick check wants each suite name that
        # bench/reference.json records to print PASS, so a renamed suite
        # fails here first
        reference = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
        ops = json.loads(reference.read_text())["validate-quick"]
        assert run(["validate", "--quick"]) == 0
        printed = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines())
        assert ops and all(printed == suites for suites in ops.values())
        assert len(printed) == 5 and set(printed.values()) == {"PASS"}


class TestCodingDemo:
    def test_reports_kraft_and_bounds(self, capsys):
        code = run(["coding-demo", "--radius", "2.0", "--grid", "16",
                    "--sigma", "1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kraft_sum"] <= 1.0
        assert payload["cells"] == 256
        assert (payload["expected_lower_bound_bits"]
                <= payload["average_length_bits"]
                <= payload["expected_lower_bound_bits"] + 2.0)

    def test_normalizer_matches_closed_form_xi(self, capsys):
        # the demo takes log xi from the moment kernel; the closed-form xi
        # must give the same code
        assert run(["coding-demo", "--radius", "2", "--grid", "16", "--sigma", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        partition = coding.partition_ball(2.0, 16, 16)

        def log_pdf(points):
            d = np.arccosh(np.maximum(points[..., 0], 1.0))
            return -d * d / 2.0 - math.log(xi(2, 1.0))

        code = coding.prefix_code(partition, log_pdf)
        assert payload["cells"] == len(partition)
        assert payload["kraft_sum"] == code.kraft_sum
        assert payload["average_length_bits"] == pytest.approx(code.average_bits, rel=1e-12)
        assert payload["expected_lower_bound_bits"] == pytest.approx(
            code.lower_bound_bits, rel=1e-12)

    def test_wide_sigma_stays_finite(self, capsys):
        # xi(40) is past the float range; the log density is not
        assert run(["coding-demo", "--sigma", "40"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(v) for v in payload.values())
        assert payload["kraft_sum"] <= 1.0

    @pytest.mark.parametrize("sigma, code, message", [
        ("1e12", 2, None), ("1e100", 2, None),
        ("1e160", 3, "numerical overflow: the log density at sigma = 1e+160 overflows: at "
                     "D = 2 it is finite only below about sigma = 1.34e+154"),
        ("1.5e-154", 3, "numerical overflow: the log density at sigma = 1.5e-154 overflows: "
                        "d^2 / (2 sigma^2) at the farthest distance, d = 3, is finite only "
                        "above about sigma = 1.58e-154"),
        ("1.6e-154", 2, "code-lengths up to 1.75781e+308 nats, past 2^63 bits, do not fit "
                        "an int64")], ids=["1e12", "1e100", "1e160", "1.5e-154", "1.6e-154"])
    def test_unrepresentable_code_is_usage_error(self, sigma, code, message, capsys):
        # past sigma = 1.34e154, sigma^2 overflows, and below 3 / (sqrt 2
        # sqrt(float max)) = 1.58e-154 so does d^2 / (2 sigma^2) at the rim,
        # before any code-length is formed: the log-density stage stops the
        # run with exit 3.  Just above that, the lengths pass 2^63 bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["coding-demo", "--sigma", sigma]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if message is not None:
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("radius", ["711", "inf"])
    def test_radius_past_float_range_is_usage_error(self, radius, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["coding-demo", "--radius", radius]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: radius must be positive and at most 708.638")
        assert err.count("\n") == 1

    def test_far_radius_inside_float_range_codes(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["coding-demo", "--radius", "705"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(v) for v in payload.values())

    @pytest.mark.parametrize("grid, rule", [
        ("0", "be a positive integer, got 0"),
        (str(2**1024), "be below about 1.8e308, the largest float; got an integer of 309 digits"),
        *[(str(grid), f"keep the {part} within numpy's largest array, 1152921504606846975 "
                      f"float64 values; got {count}")
          for grid, part, count in [(2**30, "grid^2 cells", "1.15292e+18"),
                                    (2**62, "grid + 1 edges", "4.61169e+18"),
                                    (2**63, "grid + 1 edges", "9.22337e+18")]]],
        ids=["0", "2**1024", "2**30", "2**62", "2**63"])
    def test_grid_names_the_flag(self, grid, rule, tmp_path, capsys):
        # coding.partition_ball's "n_r and n_angle must be >= 1", and numpy's
        # "Maximum allowed size exceeded" and "array is too big", named no
        # flag; 2**63 ended in an IndexError traceback from an empty linspace
        out = tmp_path / "code.json"
        assert run(["coding-demo", "--grid", grid, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --grid must {rule}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan"])
    def test_non_positive_sigma_is_usage_error(self, sigma, capsys):
        assert run(["coding-demo", "--sigma", sigma]) == 2
        assert capsys.readouterr().err == f"error: --sigma must be positive, got {float(sigma)}\n"


def test_parse_sigma_range_errors():
    assert parse_sigma_range("0.5:2") == (0.5, 2.0)
    for bad in ("1", "a:b", "2:1", "0:1", "1:2:3"):
        with pytest.raises(InputError):
            parse_sigma_range(bad)


def test_dataset_file_validations(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("5")
    with pytest.raises(InputError, match="JSON object"):
        load_dataset(str(path))
    path.write_text(json.dumps({"dim": 2, "points": [[1, 0, 0]]}))
    with pytest.raises(InputError, match="chart"):
        load_dataset(str(path))
    path.write_text(json.dumps({"chart": "klein", "dim": 2, "points": [[1, 0, 0]]}))
    with pytest.raises(InputError, match="chart"):
        load_dataset(str(path))
    path.write_text(json.dumps({"chart": "lorentz", "dim": 2, "points": []}))
    with pytest.raises(InputError, match="field 'points' must be a non-empty list"):
        load_dataset(str(path))
    path.write_text(json.dumps({"chart": "lorentz", "dim": 2, "points": [[1, 0]]}))
    with pytest.raises(InputError, match="components"):
        load_dataset(str(path))
    path.write_text(json.dumps({"chart": "lorentz", "dim": 2,
                                "points": [[1, 0, "x"]]}))
    with pytest.raises(InputError, match="numeric"):
        load_dataset(str(path))
    # null reads as NaN and fails the manifold check; an integer past the
    # float range is not a number numpy can read
    path.write_text(json.dumps({"chart": "lorentz", "dim": 1,
                                "points": [[1.0, 0.0], [None, 0.0]]}))
    with pytest.raises(InputError, match="point 1 is invalid"):
        load_dataset(str(path))
    path.write_text(json.dumps({"chart": "lorentz", "dim": 1,
                                "points": [[1.0, 0.0], [1.0, 10 ** 400]]}))
    with pytest.raises(InputError, match="point 1 has a non-numeric"):
        load_dataset(str(path))


@pytest.mark.parametrize("dim", [True, False, 2.0])
def test_non_integer_dim_is_usage_error(dim, tmp_path, capsys):
    # JSON true and false are Python bools, a subclass of int
    path = tmp_path / "data.json"
    points = [[1.0, 0.0], [math.cosh(0.5), math.sinh(0.5)]]
    path.write_text(json.dumps({"chart": "lorentz", "dim": dim, "points": points}))
    assert run(["codelength", "--data", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: field 'dim' must be a "
                                       f"positive integer\n")


@pytest.mark.parametrize("points, bad", [
    ([[True, False], [1.0, 0.0]], 0),
    ([[1.0, 0.0], ["1", "0"]], 1),
    # numpy reads this row as float64, [1.0, 0.0], with no error
    ([[1.0, 0.0], [math.cosh(0.5), math.sinh(0.5)], [True, 0.0]], 2),
])
def test_boolean_and_string_coordinates_are_usage_errors(points, bad, tmp_path, capsys):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"chart": "lorentz", "dim": 1, "points": points}))
    assert run(["codelength", "--data", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: point {bad} has a non-numeric field\n"


def _session(capsys):
    """One in-process sequence of main calls in the current directory:
    (exit code, stdout, stderr) per call, then the bytes of every file made."""
    argvs = [
        ["pc", "--dim", "2", "--n", "100", "--sigma", "0.2:2"],
        ["sample", "--dim", "2", "--n", "60", "--sigma", "0.8", "--seed", "3",
         "--out", "d2.json"],
        ["sample", "--dim", "3", "--n", "60", "--sigma", "0.8", "--out", "d3.json"],
        ["sample", "--dim", "1", "--n", "60", "--sigma", "1.5", "--seed", "4",
         "--mu", f"{math.cosh(1.0)!r},{math.sinh(1.0)!r}", "--out", "d1.json"],
        ["codelength", "--data", "d2.json", "--radius", "2", "--out", "cl.json",
         "--csv", "cl.csv"],
        ["codelength", "--radius", "2"],
        ["select-dim", "--candidate", "3=d3.json", "--candidate", "2=d2.json",
         "--candidate", "1=d1.json", "--sigma", "0.2:2"],
        ["select-dim", "--candidate", "2=d2.json", "--candidate", "3=d3.json"],
        ["coding-demo", "--grid", "6", "--sigma", "0.7"],
        ["codelength", "--data", "d2.json"],
    ]
    calls = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        calls.append((code, *capsys.readouterr()))
    files = {p.name: p.read_bytes() for p in sorted(Path.cwd().iterdir())}
    return calls, files


def test_reused_parser_matches_fresh_parser(tmp_path, monkeypatch, capsys):
    assert build_parser() is build_parser()
    sessions = []
    for fresh in (False, True):
        workdir = tmp_path / str(fresh)
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        if fresh:
            monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        sessions.append(_session(capsys))
    (calls, files), fresh_run = sessions
    assert (calls, files) == fresh_run
    assert [c[0] for c in calls] == [0, 0, 0, 0, 0, 2, 0, 0, 0, 0]
    assert sorted(files) == ["cl.csv", "cl.json", "d1.json", "d2.json", "d3.json"]
    # no value carries over: the second select-dim scores 2 files on the
    # default domain, and the last codelength prints on the default domain
    default_pc = pc_hgd(2, 60, ParamDomain()).total_log_pc
    first, second = (json.loads(c[1]) for c in calls[6:8])
    assert [e["dim"] for e in first["scores"]] == [1, 2, 3]
    assert [e["dim"] for e in second["scores"]] == [2, 3]
    assert second["scores"][0]["log_pc"] == default_pc
    assert calls[4][1] == "" and "--data" in calls[5][2]
    assert json.loads(calls[9][1])["log_pc"] == default_pc
    assert json.loads(files["cl.json"])["log_pc"] != default_pc


#: The subcommands, in the order of the full parser's help.
COMMANDS = ("pc", "codelength", "sample", "select-dim", "validate", "coding-demo")

#: argv whose parse the per-command and full parsers must agree on: valid runs,
#: ``--flag=value`` forms, abbreviations, bad ints and floats, missing required
#: flags, unrecognized arguments and -h, for every command; then the top level:
#: -h, and a missing or unknown command.
PARSER_ARGVS = [
    ["pc", "--dim", "2", "--n", "10"],
    ["pc", "--dim=2", "--n=10", "--sigma=0.2:3", "--radius=2", "--out=pc.json"],
    ["pc", "--dim", "2", "--n", "10", "--rad", "2", "--sig", "0.2:3", "--cs", "pc.csv"],
    ["pc", "--dim", "two", "--n", "10"],
    ["pc", "--dim", "2", "--n", "1e3"],
    ["pc", "--dim", "2", "--n", "10", "--radius", "x"],
    ["pc", "--dim", "2"],
    ["pc", "--dim", "2", "--n", "10", "extra"],
    ["pc", "--dim", "2", "--n", "10", "--bogus", "1"],
    ["pc", "-h"],
    ["codelength", "--data", "missing.json"],
    ["codelength", "--dat=missing.json", "--rad", "3", "--sigma=1:2"],
    ["codelength", "--data"],
    ["codelength", "--radius", "2"],
    ["codelength", "--help"],
    ["sample", "--dim", "2", "--n", "5", "--sig", "0.5", "--out", "s.json"],
    ["sample", "--dim", "2", "--n", "5", "--sigma=0.5", "--mu=1,0,0", "--see", "3",
     "--out=s.json"],
    ["sample", "--dim", "2", "--n", "5", "--s", "1", "--out", "s.json"],
    ["sample", "--dim", "2", "--n", "5.0", "--sigma", "1", "--out", "s.json"],
    ["sample", "--dim", "2", "--n", "5", "--sigma", "half", "--out", "s.json"],
    ["sample", "--dim", "2", "--n", "5", "--sigma", "1"],
    ["sample", "-h"],
    ["select-dim", "--candidate", "1=a.json", "--cand", "2=b.json", "--sigma=0.2:3"],
    ["select-dim", "--candidate"],
    ["select-dim", "--radius", "nope", "--candidate", "1=a.json"],
    ["select-dim"],
    ["select-dim", "-h"],
    ["validate"],
    ["validate", "--q"],
    ["validate", "--quick", "--slow"],
    ["validate", "--quick=1"],
    ["validate", "-h"],
    ["coding-demo"],
    ["coding-demo", "--grid", "4", "--sigma=2", "--rad", "1.5"],
    ["coding-demo", "--grid", "1.5"],
    ["coding-demo", "--sigma", "x"],
    ["coding-demo", "--out"],
    ["coding-demo", "-h"],
    ["-h"], ["--help"], ["-h", "pc"], [], ["plot"], ["Pc"], ["--dim", "2"], ["--", "pc"],
]


def _parse(parser, argv, capsys):
    """The namespace of ``argv`` or argparse's exit code, with stdout and stderr."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    return (outcome, *capsys.readouterr())


@pytest.mark.parametrize("argv", [a for a in PARSER_ARGVS if a[:1] and a[0] in COMMANDS])
def test_command_parser_matches_full_parser(argv, capsys):
    command = _parse(build_parser.__wrapped__(argv[0]), argv, capsys)
    assert command == _parse(build_parser.__wrapped__(), argv, capsys)
    assert build_parser(argv[0]) is build_parser(argv[0])


@pytest.mark.parametrize("argv", [a for a in PARSER_ARGVS if not a[:1] or a[0] not in COMMANDS])
def test_no_command_gets_the_full_parser(argv, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                        or build_parser(command))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert built == [None]
    assert (exc.value.code, out, err) == _parse(build_parser.__wrapped__(), argv, capsys)
    # the usage line or the help names every command
    assert "{pc,codelength,sample,select-dim,validate,coding-demo}" in out + err


def test_a_run_builds_its_own_subparser_alone(tmp_path, monkeypatch, capsys):
    added, add_parser = [], argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    path = tmp_path / "d.json"
    write_dataset(str(path), sample(50, RgdParams(hy.origin(2), 0.5), 1))
    assert main(["codelength", "--data", str(path)]) == 0
    assert added == ["codelength"]
    added.clear()
    with pytest.raises(SystemExit):
        main(["-h"])
    assert tuple(added) == tuple(cli._COMMANDS) == COMMANDS


def test_csv_and_coding_load_only_in_the_runs_that_use_them(tmp_path):
    # csv for a --csv file, rmnml.coding for coding-demo and validate's Kraft suite
    code = "\n".join([
        "import contextlib, io, json, sys",
        "from rmnml.cli import main",
        "loaded = [['csv' in sys.modules, 'rmnml.coding' in sys.modules]]",
        "for argv in json.loads(sys.argv[1]):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert main(argv) == 0, argv",
        "    loaded.append(['csv' in sys.modules, 'rmnml.coding' in sys.modules])",
        "print(json.dumps(loaded))",
    ])
    data, table = str(tmp_path / "d.json"), str(tmp_path / "pc.csv")
    runs = {
        "sample, codelength, pc, --csv, coding-demo": (
            [["sample", "--dim", "2", "--n", "50", "--sigma", "0.5", "--out", data],
             ["codelength", "--data", data], ["pc", "--dim", "2", "--n", "10"],
             ["pc", "--dim", "2", "--n", "10", "--csv", table], ["coding-demo", "--grid", "4"]],
            [[False, False]] * 4 + [[True, False], [True, True]]),
        "validate": ([["validate", "--quick"]], [[False, False], [False, True]]),
    }
    src = os.path.dirname(os.path.dirname(rmnml.__file__))
    for name, (argvs, expected) in runs.items():
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                              capture_output=True, text=True, timeout=120, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert json.loads(proc.stdout) == expected, name


@pytest.mark.parametrize("chart", ["lorentz", "poincare"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_rejected(tmp_path, chart, bad):
    row = [1.0, 0.0, 0.0] if chart == "lorentz" else [0.0, 0.0]
    points = [list(row), list(row), list(row)]
    points[1][1] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"chart": chart, "dim": 2, "points": points}))
    with pytest.raises(InputError, match="point 1 is invalid"):
        load_dataset(str(path))


def test_poincare_load_matches_per_point_conversion(tmp_path):
    rng = np.random.default_rng(5)
    points = rng.uniform(-0.7, 0.7, size=(200, 3)) * rng.uniform(0.0, 1.0, size=(200, 1))
    path = tmp_path / "poincare.json"
    path.write_text(json.dumps({"chart": "poincare", "dim": 3, "points": points.tolist()}))
    # the test-side stereographic projection carries each loaded row back
    back = np.stack([lorentz_to_poincare(x) for x in load_dataset(str(path)).coords])
    np.testing.assert_allclose(back, points, rtol=1e-12)


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # the Gauss-Legendre rules are built on first use, not at import
    code = "import sys, rmnml.cli; print('numpy.polynomial' in sys.modules)"
    src = os.path.dirname(os.path.dirname(rmnml.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["pc", "codelength"])
def test_cli_run_leaves_numpy_polynomial_unloaded(command, tmp_path):
    # the Gauss-Legendre rules are built with numpy alone
    code = "\n".join([
        "import sys",
        "from rmnml.cli import main",
        "command, path = sys.argv[1:]",
        "if command == 'pc':",
        "    assert main(['pc', '--dim', '2', '--n', '100']) == 0",
        "else:",
        "    assert main(['sample', '--dim', '2', '--n', '500', '--sigma', '1',",
        "                 '--seed', '1', '--out', path]) == 0",
        "    assert main(['codelength', '--data', path]) == 0",
        "print('numpy.polynomial' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(rmnml.__file__))
    proc = subprocess.run([sys.executable, "-c", code, command, str(tmp_path / "data.json")],
                          capture_output=True, text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.splitlines()[-1] == "False"


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, rmnml.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(rmnml.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command, flag", [
    ("sample", "--out"), ("pc", "--out"), ("pc", "--csv"), ("codelength", "--out"),
    ("codelength", "--csv"), ("select-dim", "--out"), ("coding-demo", "--out")])
def test_unwritable_output_path_is_usage_error(command, flag, tmp_path, capsys):
    data = tmp_path / "data.json"
    write_dataset(str(data), sample(20, RgdParams(hy.origin(2), 0.7), seed=3))
    args = {
        "sample": ["--dim", "2", "--n", "10", "--sigma", "1"],
        "pc": ["--dim", "2", "--n", "100"],
        "codelength": ["--data", str(data)],
        "select-dim": ["--candidate", f"2={data}", "--candidate", f"3={data}"],
        "coding-demo": ["--grid", "4"],
    }[command]
    target = tmp_path / "missing" / "result"
    # a writable --csv beside an unwritable --out: --out is checked first,
    # so the run leaves no file
    table = tmp_path / "ok.csv"
    if flag == "--out" and command in ("pc", "codelength"):
        args = [*args, "--csv", str(table)]
    assert run([command, *args, flag, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: [Errno 2] No such file or directory")
    assert not target.parent.exists()
    assert not table.exists()


@pytest.mark.parametrize("command", ["pc", "codelength"])
def test_unwritable_csv_prints_nothing(command, tmp_path, capsys):
    # a run that fails must not leave a complete result on stdout
    data = tmp_path / "data.json"
    write_dataset(str(data), sample(20, RgdParams(hy.origin(2), 0.7), seed=3))
    args = ["--dim", "2", "--n", "10"] if command == "pc" else ["--data", str(data)]
    target = tmp_path / "missing" / "x.csv"
    assert run([command, *args, "--csv", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: [Errno 2]")


@pytest.mark.parametrize("command", ["pc", "codelength"])
@pytest.mark.parametrize("csv_name", ["o.json", "./o.json"])
def test_out_and_csv_naming_one_file_is_usage_error(command, csv_name, tmp_path, capsys,
                                                     monkeypatch):
    # the JSON would overwrite the CSV just written: the resolved paths are
    # compared before any file is written or anything is printed
    monkeypatch.chdir(tmp_path)
    write_dataset("data.json", sample(20, RgdParams(hy.origin(2), 0.7), seed=3))
    args = ["--dim", "2", "--n", "10"] if command == "pc" else ["--data", "data.json"]
    assert run([command, *args, "--out", "o.json", "--csv", csv_name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --out o.json and --csv {csv_name} name the same file; "
                            f"give each its own path\n")
    assert sorted(os.listdir(tmp_path)) == ["data.json"]


def test_sample_checks_its_output_before_drawing(tmp_path, capsys, monkeypatch):
    def no_draws(*args):
        raise AssertionError("sample ran before the output path was checked")

    monkeypatch.setattr(cli, "sample", no_draws)
    target = tmp_path / "missing" / "x.json"
    assert run(["sample", "--dim", "2", "--n", "300000", "--sigma", "1",
                "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {target}: [Errno 2] No such file or directory")


def test_sample_check_leaves_an_existing_file_as_it_was(tmp_path):
    # the check appends nothing; a run that then fails keeps the old file
    out = tmp_path / "x.json"
    out.write_text("old contents\n")
    assert run(["sample", "--dim", "2", "--n", "10", "--sigma", "1e200",
                "--out", str(out)]) == 2
    assert out.read_text() == "old contents\n"


#: The work each command that writes a file does first, spied on as (module, name).
_FIRST_WORK = {"sample": (cli, "sample"), "pc": (cli, "pc_hgd"),
               "codelength": (cli, "load_dataset"), "select-dim": (cli, "load_dataset"),
               "coding-demo": (coding, "partition_ball")}


def _forbid_work(monkeypatch, command: str):
    """Fail the test if ``command``'s first work runs."""
    def no_work(*args):
        raise AssertionError(f"{command} worked before its output path was checked")

    monkeypatch.setattr(*_FIRST_WORK[command], no_work)


@pytest.mark.parametrize("command, flag", [
    ("sample", "--out"), ("pc", "--out"), ("pc", "--csv"), ("codelength", "--out"),
    ("codelength", "--csv"), ("select-dim", "--out"), ("coding-demo", "--out")])
def test_every_output_is_checked_before_the_work(command, flag, tmp_path, capsys,
                                                  monkeypatch):
    data = tmp_path / "data.json"
    write_dataset(str(data), sample(20, RgdParams(hy.origin(2), 0.7), seed=3))
    _forbid_work(monkeypatch, command)
    args = {
        "sample": ["--dim", "2", "--n", "10", "--sigma", "1"],
        "pc": ["--dim", "2", "--n", "100"],
        "codelength": ["--data", str(data)],
        "select-dim": ["--candidate", f"2={data}", "--candidate", f"3={data}"],
        "coding-demo": ["--grid", "4"],
    }[command]
    target = tmp_path / "missing" / "result"
    assert run([command, *args, flag, str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: cannot write {target}: [Errno 2] No such file or directory")
    assert sorted(os.listdir(tmp_path)) == ["data.json"]


@pytest.mark.parametrize("command, flag", [
    ("codelength", "--out"), ("codelength", "--csv"), ("select-dim", "--out")])
@pytest.mark.parametrize("spelling", ["as given", "dot", "symlink"])
def test_an_output_may_not_name_the_input(command, flag, spelling, tmp_path, capsys,
                                          monkeypatch):
    # the check compares resolved paths before anything is read or written,
    # so the run leaves its input's bytes as they were
    monkeypatch.chdir(tmp_path)
    write_dataset("d.json", sample(20, RgdParams(hy.origin(2), 0.7), seed=3))
    write_dataset("e.json", sample(20, RgdParams(hy.origin(3), 0.7), seed=4))
    if spelling == "symlink":
        os.symlink("d.json", "link.json")
    before = {name: Path(name).read_bytes() for name in ("d.json", "e.json")}
    output = {"as given": "d.json", "dot": "./d.json", "symlink": "link.json"}[spelling]
    if command == "codelength":
        args, named = ["--data", "d.json"], "--data d.json"
    else:
        args, named = ["--candidate", "2=d.json", "--candidate", "3=e.json"], "--candidate d.json"
    assert run([command, *args, flag, output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {named} and {flag} {output} name the same file; "
                            f"give each its own path\n")
    assert {name: Path(name).read_bytes() for name in before} == before
    assert set(os.listdir(tmp_path)) - {"link.json"} == set(before)


@pytest.mark.parametrize("command", ["sample", "pc", "coding-demo"])
def test_an_empty_output_name_is_refused_before_the_work(command, capsys, monkeypatch):
    # an empty name is no file to write: every command refuses it, not only
    # sample, and before the work
    _forbid_work(monkeypatch, command)
    args = {"sample": ["--dim", "2", "--n", "10", "--sigma", "1"],
            "pc": ["--dim", "2", "--n", "100"], "coding-demo": ["--grid", "4"]}[command]
    assert run([command, *args, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write : [Errno 2] No such file or directory")


def test_a_run_naming_no_output_resolves_no_path(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data.json"
    write_dataset(str(data), sample(20, RgdParams(hy.origin(2), 0.7), seed=3))
    resolved, realpath = [], os.path.realpath
    monkeypatch.setattr(os.path, "realpath",
                        lambda path: resolved.append(path) or realpath(path))
    assert run(["codelength", "--data", str(data)]) == 0
    assert resolved == []


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader of stdout is gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(rmnml.__file__))
    try:
        proc = subprocess.run([sys.executable, "-m", "rmnml.cli", "pc", "--dim", "2", "--n", "100"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert proc.returncode == cli.BROKEN_PIPE == 141
    # no traceback, and no "Exception ignored" from the flush at exit
    assert proc.stderr == ""
