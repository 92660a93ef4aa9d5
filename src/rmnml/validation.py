"""Oracles of the library's kernels, and the self-check suites of ``validate``.

Each suite reruns one of the independent oracles (quadrature, Monte
Carlo, reparameterization, Kraft, an exact normalizer) against the
production kernels and reports a pass/fail line.  The oracles live here
only: the paper's closed-form :func:`xi` and its derivatives and
:func:`xi_quadrature_oracle`, with its :func:`log_radial_weight` and
:func:`radial_cutoff`, for :func:`rmnml.gaussian.radial_moments`; the
Monte-Carlo Fisher estimate :func:`fisher_numeric` for
:func:`rmnml.gaussian.log_fisher_factors`; the integral in sigma
:func:`fisher_integral` for the complexity's rule in log sigma; and
:func:`log_exact_complexity_d1`, the exact finite-n normalizer of the
D = 1 model N(mu, sigma^2), with its gap to the asymptotic formula
:func:`exact_d1_gap`, for :func:`rmnml.complexity.pc_hgd`.  The Kraft suite
codes with :func:`rmnml.gaussian.log_pdf_vol_many`, the density of the
code-length.  Tests confirm that the suites detect errors by patching the
names ``xi``, ``radial_moments``, ``log_pdf_vol_many``, ``pc_hgd`` and
``exact_d1_gap`` here.  The two quadrature
oracles use :func:`adaptive_gauss_kronrod`, the oracle rule, defined here
with its QK15 table so that the production kernels share nothing with it.
The rule refines a stack of integrals together, one integrand call per
level for the open panels of them all, while each integral keeps its own
seed panels, budget, redo and sums, so that each result is the float of
its one-integral call.  The xi suite's 25 integrals take one rule call
and 9,720 integrand evaluations; the reparameterization suite's 20 take
one call per dimension, 3 in all, and 2,580, which the moment kernel reads
96 sigmas per call.  :func:`fisher_numeric` reads normal coordinates about
mu through :func:`rmnml.hyperbolic.exp_normal`, and log xi at its three
sigmas from one :func:`rmnml.gaussian.radial_moments` call per estimate.
The closed form reads erfc from ``math.erfc``, one term at a time.
"""

from __future__ import annotations

import math
import time
from itertools import compress
from typing import NamedTuple

import numpy as np

from . import hyperbolic as hy
from .complexity import ParamDomain, pc_hgd
from .gaussian import RgdParams, log_fisher_factors, log_pdf_vol_many, radial_moments, sample
from .quadrature import QuadratureError

#: Step of the central differences in :func:`fisher_numeric`.
_FD_STEP = 1e-4

#: sigma rows per moment-kernel call in :func:`fisher_integral`: a call of
#: 96 rows took 14-22 ns per node, and one of 104 to 960 rows 24-33.
_FISHER_ROWS = 96

#: Panel splits :func:`adaptive_gauss_kronrod` may make on one integral before it gives up.
_MAX_SUBDIVISIONS = 100_000
#: Equal panels :func:`adaptive_gauss_kronrod` starts from.
_SEED_PANELS = 8
#: A panel with |K15 - G7| at most this share of its integral of |f| is at
#: the rounding floor of its sums, and is accepted.
_ROUNDING_FLOOR = 50.0 * np.finfo(float).eps

# The 15-point Kronrod rule on [-1, 1] and the 7-point Gauss rule it extends
# (Piessens et al., QUADPACK, 1983, routine QK15), as printed there: the
# nonnegative nodes, descending, with their Kronrod weights, and the Gauss
# weights of the nodes 1, 3, 5 and 7 of that list.  A literal table, so the
# oracle rule shares nothing with rmnml.quadrature.gauss_legendre.
_KRONROD_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
              0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
              0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
              0.207784955007898467600689403773245, 0.0)
_KRONROD_W = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
              0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
              0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
              0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_GAUSS_W = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
            0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
#: The 15 nodes in ascending order and their Kronrod weights; the Gauss
#: nodes are every second one, from the second, with the weights _GAUSS_15.
_NODES_15 = np.array([-x for x in _KRONROD_X[:7]] + list(_KRONROD_X[::-1]))
_KRONROD_15 = np.array(_KRONROD_W[:7] + _KRONROD_W[::-1])
_GAUSS_15 = np.array(_GAUSS_W[:3] + _GAUSS_W[::-1])
for _table in (_NODES_15, _KRONROD_15, _GAUSS_15):
    _table.setflags(write=False)


def adaptive_gauss_kronrod(f, a, b, rel_tol: float = 1e-10):
    """Integrate ``f`` over ``[a, b]`` to the relative tolerance ``rel_tol``.

    ``a`` and ``b`` are floats, and ``f`` is called on a 1-D float array of
    abscissae and returns an array of the same shape; or they are 1-D
    arrays of one length, a stack of integrals refined together, and ``f``
    is called as ``f(x, index)``, ``index`` giving each abscissa's integral.
    Float ends give a float, and a stack an array of its length.

    Adaptive Gauss-Kronrod, refined level by level from 8 equal panels per
    integral: each pass evaluates the 15 Kronrod nodes of every open panel
    of the stack in one call of ``f``, and |K15 - G7| is a panel's error
    estimate.  A panel is accepted once that estimate is at most its
    width's share of ``rel_tol`` times its integral's running total (the
    accepted panels plus the open panels' K15, recomputed at each level),
    or once it is at the rounding floor, 50 eps times the panel's integral
    of |f|.  A panel too narrow to split is accepted as it is.  If an
    integral's total ends below the magnitude its budget came from, its
    refinement is redone with the budget capped at the final total (at most
    twice), so the summed estimates of its panels accepted on their budget
    are at most ``rel_tol`` times its |result|.  Each integral of a stack
    keeps its own seed panels, total, budget, redo and split budget, and its
    panels' sums are taken on its own (15, m) block of values, so each
    result is the float of its one-integral call.  Raises
    :class:`rmnml.quadrature.QuadratureError`, carrying that integral's
    best estimate, once an integral has made more than
    ``_MAX_SUBDIVISIONS`` panel splits.

    Blind spot: no node touches a panel's ends, and the outermost K15 node
    sits about 0.43% of a seed panel's width from each end, so narrower mass
    at an end of ``[a, b]`` can be missed.  The tests'
    ``log_ball_volume_oracle(1000, 1e4)``, a spike about 1e-3 wide at r = R
    with the nearest node 5.3 away, sums to exactly 0.
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    lo, hi = (np.atleast_1d(np.asarray(end, dtype=float)) for end in (a, b))
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("the ends must be floats or 1-D arrays of one length")
    invalid = np.flatnonzero(~(lo < hi))
    if invalid.size:
        raise ValueError(f"invalid interval: [{lo[invalid[0]]}, {hi[invalid[0]]}]")
    integrand = (lambda x, index: f(x)) if scalar else f
    edges = np.linspace(lo, hi, _SEED_PANELS + 1, axis=-1)
    length, total = hi - lo, np.empty(lo.size)
    cap = np.full(lo.size, math.inf)
    todo = np.arange(lo.size)
    for _ in range(3):
        seeds = edges[todo]
        panels = np.stack((seeds[:, :-1].ravel(), seeds[:, 1:].ravel()))
        sums, errors = _refine(integrand, panels, np.repeat(todo, _SEED_PANELS), rel_tol,
                               cap, length)
        total[todo] = sums[todo]
        # an integral whose total fell below the magnitude that set its
        # budget is redone with the budget capped at the final total
        # (deterministic, at most twice)
        todo = todo[~(errors[todo] <= rel_tol * np.abs(total[todo]))]
        if not todo.size:
            break
        cap[todo] = np.abs(total[todo])
    return float(total[0]) if scalar else total


def _kronrod_sums(f, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray, runs: list):
    """K15, G7 and the K15 of |f| on each panel [lo, hi], from one call of ``f``.

    ``owner`` is each panel's integral, and ``runs`` the (start, stop) of
    each integral's run of panels.  An integral's nodes are laid out, and
    its weighted sums taken, as one (15, m) block, as its one-integral call
    takes them: the matrix product rounds a column by its place in the
    block.
    """
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi) + np.multiply.outer(_NODES_15, half)
    nodes = _NODES_15.size
    values = f(np.concatenate([x[:, start:stop] for start, stop in runs], axis=None),
               np.repeat(owner, nodes))
    magnitude = np.abs(values)
    kron, gauss, mass = sums = np.empty((3, lo.size))
    for start, stop in runs:
        block, shape = slice(nodes * start, nodes * stop), (nodes, stop - start)
        block_values = values[block].reshape(shape)
        np.matmul(_KRONROD_15, block_values, out=kron[start:stop])
        np.matmul(_GAUSS_15, block_values[1::2], out=gauss[start:stop])
        np.matmul(_KRONROD_15, magnitude[block].reshape(shape), out=mass[start:stop])
    sums *= half
    return sums


def _refine(f, panels: np.ndarray, owner: np.ndarray, rel_tol: float, cap: np.ndarray,
            length: np.ndarray):
    # Level by level: one call of f evaluates the 15 nodes of every open
    # panel, held as one (2, m) array of rows lo and hi, with each panel's
    # integral in ``owner``, in runs that keep their order as panels split.
    # An integral's budget follows its own running total, so its accepted
    # set depends neither on the order within a level nor on the rest of
    # the stack, and math.fsum rounds each sum once.  Returns each
    # integral's total and the summed estimates of its panels accepted on
    # their budget, nan for an integral that ``owner`` does not name.
    totals, errors = np.full(cap.size, math.nan), np.full(cap.size, math.nan)
    accepted = [[] for _ in range(cap.size)]
    estimates = [[] for _ in range(cap.size)]
    splits = np.zeros(cap.size, dtype=int)
    while True:
        lo, hi = panels
        starts = np.flatnonzero(np.diff(owner, prepend=-1)).tolist()
        runs = list(zip(starts, starts[1:] + [owner.size]))
        ids = owner[starts].tolist()
        kron, gauss, mass = _kronrod_sums(f, lo, hi, owner, runs)
        diff = np.abs(kron - gauss)
        kron_list = kron.tolist()
        for j, (start, stop) in zip(ids, runs):
            totals[j] = math.fsum(accepted[j] + kron_list[start:stop])
        budget = rel_tol * np.minimum(np.abs(totals), cap) / length
        within = diff <= budget[owner] * (hi - lo)
        mid = 0.5 * (lo + hi)
        # at the rounding floor, or too narrow to split in floating point
        done = within | (diff <= _ROUNDING_FLOOR * mass) | ~((lo < mid) & (mid < hi))
        done_list, within_list, diff_list = done.tolist(), within.tolist(), diff.tolist()
        for j, (start, stop) in zip(ids, runs):
            accepted[j] += compress(kron_list[start:stop], done_list[start:stop])
            estimates[j] += compress(diff_list[start:stop], within_list[start:stop])
        split = ~done
        count = np.bincount(owner[split], minlength=cap.size)
        for j in ids:
            if not count[j]:
                errors[j] = math.fsum(estimates[j])
        if not count.any():
            return totals, errors
        splits += count
        spent = np.flatnonzero(splits > _MAX_SUBDIVISIONS)
        if spent.size:
            raise QuadratureError(
                f"tolerance not reached after {_MAX_SUBDIVISIONS} subdivisions",
                best_estimate=float(totals[spent[0]]))
        # one row per split panel: its left half's ends, then its right half's
        panels = np.stack((lo, mid, mid, hi)).T[split].reshape(-1, 2).T
        owner = np.repeat(owner[split], 2)


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    #: Wall time of the suite, set by :func:`run_all`.
    seconds: float = 0.0


def _fsum_rows(a: np.ndarray) -> np.ndarray:
    """math.fsum over the last axis: each sum is exactly rounded."""
    sums = map(math.fsum, a.reshape(-1, a.shape[-1]).tolist())
    return np.fromiter(sums, float).reshape(a.shape[:-1])


def _xi_terms(dim: int, sigma: np.ndarray):
    """Prefactor K and per-term arrays of the xi expansion.

    xi(sigma) = K * sigma * sum_i a_i with
    a_i = (-1)^i C(D-1, i) exp(sigma^2 p_i^2 / 2) erfc(-p_i sigma / sqrt 2),
    p_i = (D - 1) - 2i.  ``a`` has the shape of ``sigma`` plus a last axis
    of the D terms.
    """
    K = (math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
         * math.sqrt(math.pi / 2.0) / 2.0 ** (dim - 2))
    i = np.arange(dim)
    p = (dim - 1) - 2.0 * i
    b = (-1.0) ** i * np.array([math.comb(dim - 1, k) for k in range(dim)], dtype=float)
    s = sigma[..., None]
    z = -p * s / math.sqrt(2.0)
    erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)
    a = b * np.exp(0.5 * s * s * p * p) * erfc
    return K, a, b, p


def _checked_sigma(dim: int, sigma) -> np.ndarray:
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    s = np.asarray(sigma, dtype=float)
    if not np.all(s > 0):
        raise ValueError("sigma must be positive")
    return s


def xi(dim: int, sigma):
    """Normalization constant of the hyperbolic Gaussian, in closed form.

    ``sigma`` may be a scalar or an array; the result has its shape.
    Accurate to about 4e-12 relative for D <= 5 (4.0e-12 at D = 5,
    sigma = 0.05; 1.1e-13 for sigma >= 0.1), against the closed form in
    60-digit arithmetic.  Beyond that the alternating binomial sum
    amplifies the rounding of each term: on sigma in [0.05, 3] the error
    reaches 1.1e-8 at D = 9 and 4.4e-6 at D = 12, and the terms overflow
    once sigma (D - 1) passes about 37.7 (at sigma = 3 from D = 14).  An
    oracle for :func:`rmnml.gaussian.radial_moments`.
    """
    s = _checked_sigma(dim, sigma)
    K, a, _, _ = _xi_terms(dim, s)
    return (K * s * _fsum_rows(a))[()]


def xi_derivatives(dim: int, sigma):
    """First and second derivatives of :func:`xi` with respect to sigma.

    ``sigma`` may be a scalar or an array; both results have its shape.
    Obtained by differentiating the closed form; the b_i p_i sums vanish
    for most dimensions but are required at D = 2 (and contribute to the
    second derivative at even D >= 4).
    """
    s = _checked_sigma(dim, sigma)
    K, a, b, p = _xi_terms(dim, s)
    sum_a = _fsum_rows(a)
    sum_ap2 = _fsum_rows(a * p * p)
    sum_ap4 = _fsum_rows(a * p ** 4)
    sum_bp = math.fsum(b * p)
    sum_bp3 = math.fsum(b * p ** 3)
    c = math.sqrt(2.0 / math.pi)
    d1 = K * (sum_a + s * s * sum_ap2 + s * c * sum_bp)
    # float_power rounds as a Python float's ** does; numpy's ** on arrays
    # can differ in the last bit
    d2 = K * (3.0 * s * sum_ap2 + np.float_power(s, 3) * sum_ap4
              + c * (2.0 * sum_bp + s * s * sum_bp3))
    return d1[()], d2[()]


def radial_cutoff(dim, sigma):
    """End of the radial integrals: 40 sigma past sigma^2 (D-1), near the peak of
    exp(-r^2 / 2 sigma^2) sinh^(D-1) r, which leaves below 1e-300 of the mass.
    ``dim`` and ``sigma`` may be arrays, which give an array of ends."""
    return sigma * sigma * (dim - 1) + 40.0 * sigma


def log_radial_weight(dim, r: np.ndarray, sigma) -> np.ndarray:
    """log of exp(-r^2 / 2 sigma^2) sinh^(D-1)(r), stable for large r.

    ``dim`` and ``sigma`` may be arrays of ``r``'s shape, one pair per
    abscissa, as a stack of :func:`xi_quadrature_oracle` integrals passes them.
    """
    gauss = -r * r / (2.0 * sigma * sigma)
    curved = np.asarray(dim) > 1
    if not curved.any():
        return gauss
    return np.where(curved, gauss + (dim - 1) * hy.log_sinh(r), gauss)


def xi_quadrature_oracle(dim, sigma):
    """xi by direct quadrature of its defining radial integral, by adaptive Gauss-Kronrod.

    ``dim`` and ``sigma`` may be scalars, which give a float, or broadcast
    to a 1-D stack of (D, sigma) pairs, whose integrals take one
    :func:`adaptive_gauss_kronrod` call and give an array of the scalar
    calls' floats.
    """
    scalar = np.ndim(dim) == 0 and np.ndim(sigma) == 0
    dims, sigmas = np.atleast_1d(*np.broadcast_arrays(np.asarray(dim),
                                                      np.asarray(sigma, dtype=float)))
    integrals = adaptive_gauss_kronrod(
        lambda r, index: np.exp(log_radial_weight(dims[index], r, sigmas[index])),
        np.zeros(sigmas.shape), radial_cutoff(dims, sigmas), 1e-12)
    areas = np.array([math.exp(hy.log_sphere_area(d)) for d in dims.tolist()])
    xi_values = areas * integrals
    return float(xi_values[0]) if scalar else xi_values


class FisherBlock(NamedTuple):
    """Monte-Carlo Fisher estimate split into mu/sigma/cross blocks.

    Each entry comes with its standard error; the cross block collects the
    mixed mu-sigma second derivatives, which vanish in expectation.
    """

    mu_block: np.ndarray
    sigma_entry: float
    cross_block: np.ndarray
    mu_block_se: np.ndarray
    sigma_entry_se: float
    cross_block_se: np.ndarray
    n_samples: int

    def mu_det(self) -> tuple[float, float]:
        """Determinant of the mu block with a delta-method standard error."""
        det = float(np.linalg.det(self.mu_block))
        diag = np.diag(self.mu_block)
        rel = np.sqrt(float(np.sum((np.diag(self.mu_block_se) / diag) ** 2)))
        return det, abs(det) * rel


def fisher_numeric(params: RgdParams, n_samples: int, seed: int) -> FisherBlock:
    """Monte-Carlo Fisher estimate at ``params``.

    Draws ``n_samples`` points from the model, computes the Hessian of
    log p_vol with respect to (normal coordinates t of mu, sigma) by central
    finite differences of size 1e-4, and averages the negated Hessians.  The
    offset t is the point :func:`rmnml.hyperbolic.exp_normal` (mu, t).
    Standard errors are reported per entry.  The distances take one
    :func:`rmnml.hyperbolic.dist_many` pass per distinct mu offset (3, 9
    and 19 at D = 1, 2 and 3), which the sigma offsets share, and log xi at
    the three sigmas sigma - h, sigma and sigma + h takes one
    :func:`rmnml.gaussian.radial_moments` call per estimate; each offset's
    log density -d^2 / (2 sigma^2) - log xi is then the floats of
    :func:`rmnml.gaussian.log_pdf_vol_many` at that offset.  ``sigma`` must
    exceed the step h, so that sigma - h is positive.
    """
    if n_samples < 10_000:
        raise ValueError("n_samples must be >= 1e4 for a usable estimate")
    dim = params.dim
    sigma = params.sigma
    if not sigma > _FD_STEP:
        raise ValueError(f"sigma must exceed the finite-difference step {_FD_STEP}, "
                         f"got {sigma}")
    x = sample(n_samples, params, seed).coords
    n = x.shape[0]
    k = dim + 1  # eta = (t_1..t_D, sigma)
    # a sigma offset is +-h or +-0, so its sign picks one of the three sigmas
    sigmas = sigma + np.array([-_FD_STEP, 0.0, _FD_STEP])
    log_xi = radial_moments(dim, sigmas)[0]
    neg_sq = {}  # -d^2 by the mu offset's value, so -0.0 and 0.0 share a key

    def logp(offset: np.ndarray) -> np.ndarray:
        key = tuple(offset[:dim].tolist())
        if key not in neg_sq:
            d = hy.dist_many(hy.exp_normal(params.mu, offset[:dim]), x)
            neg_sq[key] = -d * d
        j = 1 + int(np.sign(offset[dim]))
        return neg_sq[key] / (2.0 * sigmas[j] * sigmas[j]) - log_xi[j]

    f0 = logp(np.zeros(k))
    unit = np.eye(k) * _FD_STEP
    neg_h = np.empty((k, k, n))  # per-sample negated Hessian entries
    for i in range(k):
        neg_h[i, i] = -(logp(unit[i]) - 2.0 * f0 + logp(-unit[i])) / _FD_STEP ** 2
    for i in range(k):
        for j in range(i + 1, k):
            pp = logp(unit[i] + unit[j])
            pm = logp(unit[i] - unit[j])
            mp = logp(-unit[i] + unit[j])
            mm = logp(-unit[i] - unit[j])
            neg_h[i, j] = -(pp - pm - mp + mm) / (4.0 * _FD_STEP ** 2)
            neg_h[j, i] = neg_h[i, j]

    est = neg_h.mean(axis=2)
    se = neg_h.std(axis=2, ddof=1) / math.sqrt(n)
    return FisherBlock(
        mu_block=est[:dim, :dim],
        sigma_entry=float(est[dim, dim]),
        cross_block=est[:dim, dim].copy(),
        mu_block_se=se[:dim, :dim],
        sigma_entry_se=float(se[dim, dim]),
        cross_block_se=se[:dim, dim].copy(),
        n_samples=n,
    )


def fisher_integral(dim: int, domain, rel_tol: float = 1e-10):
    """Integral of sqrt(det I) over the compact domain Theta x Gamma.

    Factorizes as vol(Theta) * integral_{sigma_min}^{sigma_max}
    sqrt(c_mu^D I_sigma) d sigma, taken in sigma by adaptive Gauss-Kronrod
    (G7-K15, from 8 equal panels) on the exponential of the log formula
    :func:`rmnml.gaussian.log_fisher_factors`, which reads
    ``_FISHER_ROWS`` sigmas per moment-kernel call.  ``domain`` is a
    :class:`rmnml.complexity.ParamDomain`, which gives a float, or a
    sequence of them, whose integrals take one rule call and give an array
    of the one-domain calls' floats.
    The complexity takes the same integral in log sigma
    (:func:`rmnml.complexity.pc_hgd`); the two agree because the integral
    is invariant under reparameterization.
    """
    domains = [domain] if isinstance(domain, ParamDomain) else list(domain)
    integrals = adaptive_gauss_kronrod(lambda sigma, index: _root_det_fisher(dim, sigma),
                                       [d.sigma_min for d in domains],
                                       [d.sigma_max for d in domains], rel_tol)
    vol_theta = np.array([math.exp(hy.log_ball_volume(dim, d.radius_R)) for d in domains])
    values = vol_theta * integrals
    return float(values[0]) if isinstance(domain, ParamDomain) else values


def _root_det_fisher(dim: int, sigma: np.ndarray) -> np.ndarray:
    """sqrt(c_mu^D I_sigma) at each entry of the 1-D ``sigma``, ``_FISHER_ROWS``
    rows per :func:`rmnml.gaussian.log_fisher_factors` call."""
    root = np.empty(sigma.shape)
    for start in range(0, sigma.size, _FISHER_ROWS):
        rows = slice(start, start + _FISHER_ROWS)
        log_c_mu, log_i_sigma = log_fisher_factors(dim, sigma[rows])
        root[rows] = np.exp(0.5 * (dim * log_c_mu + log_i_sigma))
    return root


def log_exact_complexity_d1(n: int, domain) -> float:
    """log of the exact finite-n NML complexity of N(mu, sigma^2), mu in
    [-R, R] and sigma in [sigma_min, sigma_max], by Rissanen's identity.

    H^1 is the real line, so this is the model :func:`rmnml.complexity.pc_hgd`
    computes at D = 1.  The MLE's density at its own parameter is
    c_n / sigma^2 with c_n = sqrt(n / 2 pi) 2n f(n), f the chi^2_(n-1)
    density, since the mean and n sigmahat^2 / sigma^2 ~ chi^2_(n-1) are
    independent.  Like the asymptotic formula, it leaves out the mass of
    MLEs clamped to the boundary.  Direct in floats: its terms are about
    n log n in size.
    """
    k = n - 1
    log_chi2 = ((0.5 * k - 1.0) * math.log(n) - 0.5 * n - 0.5 * k * math.log(2.0)
                - math.lgamma(0.5 * k))
    log_c = 0.5 * math.log(n / (2.0 * math.pi)) + math.log(2.0 * n) + log_chi2
    return (math.log(2.0 * domain.radius_R)
            + math.log(1.0 / domain.sigma_min - 1.0 / domain.sigma_max) + log_c)


#: B_2j / (2j (2j - 1)), j = 1..6: the coefficients of z^-(2j-1) in the
#: Stirling series of log Gamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def exact_d1_gap(n: int) -> float:
    """:func:`log_exact_complexity_d1` minus ``pc_hgd(1, n)``, without cancellation.

    With z = (n - 1) / 2 the terms of size n log n cancel in closed form,
    leaving (z - 1/2) log1p(1 / 2z) - 1/2 - S(z), S the Stirling series'
    remainder; within 2e-11 for n >= 10.
    """
    z = 0.5 * (n - 1)
    rest = sum(c / z ** (2 * j + 1) for j, c in enumerate(_STIRLING))
    return (z - 0.5) * math.log1p(0.5 / z) - 0.5 - rest


def check_xi() -> SuiteResult:
    """Closed-form xi and the moment kernel's log xi against quadrature."""
    sigmas = np.array([0.1, 0.5, 1.0, 2.0, 3.0])
    dims = range(1, 6)
    # the 25 oracle integrals in one rule call; an array call of a kernel
    # gives the floats of the scalar calls
    oracles = xi_quadrature_oracle(np.repeat(dims, sigmas.size), np.tile(sigmas, len(dims)))
    worst = 0.0
    for dim, oracle in zip(dims, oracles.reshape(len(dims), sigmas.size)):
        kernel = np.exp(radial_moments(dim, sigmas)[0])
        for value in (xi(dim, sigmas), kernel):
            worst = max(worst, float(np.max(np.abs(value - oracle) / oracle)))
    return SuiteResult("xi-vs-quadrature", worst <= 1e-8,
                       f"max rel error {worst:.3e} (tol 1e-08)")


def check_fisher(quick: bool = False) -> SuiteResult:
    configs = [(1, 1.0), (2, 1.0)] if quick else [
        (d, s) for d in (1, 2, 3) for s in (0.5, 1.0, 2.0)]
    n_samples = 20_000 if quick else 100_000
    worst = 0.0
    for dim, sigma in configs:
        params = RgdParams(hy.origin(dim), sigma)
        block = fisher_numeric(params, n_samples, seed=2024 + dim)
        mu_ref, sig_ref = map(math.exp, log_fisher_factors(dim, sigma))
        for i in range(dim):
            gap = abs(block.mu_block[i, i] - mu_ref)
            allowed = max(0.05 * mu_ref, 3.0 * block.mu_block_se[i, i])
            worst = max(worst, gap / allowed)
        gap = abs(block.sigma_entry - sig_ref)
        allowed = max(0.05 * sig_ref, 3.0 * block.sigma_entry_se)
        worst = max(worst, gap / allowed)
    return SuiteResult("fisher-closed-vs-numeric", worst <= 1.0,
                       f"max gap/allowance {worst:.3f} "
                       f"({len(configs)} configs, N={n_samples})")


def check_reparameterization() -> SuiteResult:
    """The Fisher integral in sigma against the complexity's rule in log sigma."""
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        lo = float(rng.uniform(0.1, 1.0))
        hi = lo + float(rng.uniform(0.5, 2.0))
        cases.append((dim, ParamDomain(float(rng.uniform(0.5, 4.0)), lo, hi)))
    worst = 0.0
    for dim in sorted({dim for dim, _ in cases}):
        # one rule call for each dimension's domains
        domains = [domain for d, domain in cases if d == dim]
        for a, domain in zip(fisher_integral(dim, domains, 1e-11).tolist(), domains):
            pc = pc_hgd(dim, 2, domain)
            b = math.exp(pc.term_volume + pc.term_fisher)
            worst = max(worst, abs(a - b) / a)
    return SuiteResult("reparameterization-invariance", worst <= 1e-8,
                       f"max rel gap {worst:.3e} (tol 1e-08)")


def check_kraft() -> SuiteResult:
    from . import coding
    partition = coding.partition_ball(radius=3.0, n_r=32, n_angle=32)
    ok = True
    details = []
    for sigma in (0.5, 1.0):
        params = RgdParams(hy.origin(2), sigma)
        code = coding.prefix_code(partition, lambda points: log_pdf_vol_many(points, params))
        avg, lower = code.average_bits, code.lower_bound_bits
        ok = ok and code.kraft_sum <= 1.0 and lower <= avg <= lower + 2.0
        details.append(f"sigma={sigma}: kraft={code.kraft_sum:.4f} avg={avg:.2f} "
                       f"lower={lower:.2f}")
    return SuiteResult("kraft-and-expected-length", ok, "; ".join(details))


def check_mc_pipeline() -> SuiteResult:
    """The D = 1 pipeline, N(mu, sigma^2), against its exact finite-n normalizer.

    At n = 10 to 1e5, :func:`log_exact_complexity_d1` minus the log
    complexity of :func:`rmnml.complexity.pc_hgd` must be the dropped o(1)
    term :func:`exact_d1_gap` within 1e-10, and n times that term must be
    -11/12 within 0.6/n.  The function's name and the printed suite name
    are older than this check; ``bench/`` reads both.
    """
    domain = ParamDomain()
    worst, ok = 0.0, True
    for n in (10, 100, 1_000, 10_000, 100_000):
        gap = exact_d1_gap(n)
        diff = abs(log_exact_complexity_d1(n, domain) - pc_hgd(1, n, domain).total_log_pc
                   - gap)
        worst = max(worst, diff)
        ok = ok and diff <= 1e-10 and abs(n * gap + 11.0 / 12.0) <= 0.6 / n
    return SuiteResult("mc-parametric-complexity", ok,
                       f"exact D=1 gap: max error {worst:.3e} (tol 1e-10); "
                       f"n*gap = {n * gap:.7f} at n = {n} (-11/12 = {-11.0 / 12.0:.7f})")


def run_all(quick: bool = False) -> list[SuiteResult]:
    """Run every suite in order, each result carrying its wall time."""
    suites = [
        check_xi,
        lambda: check_fisher(quick=quick),
        check_reparameterization,
        check_kraft,
        check_mc_pipeline,
    ]
    results = []
    for suite in suites:
        start = time.perf_counter()
        result = suite()
        results.append(result._replace(seconds=time.perf_counter() - start))
    return results
