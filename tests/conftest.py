import math

import numpy as np
import pytest

from rmnml import hyperbolic as hy
from rmnml.gaussian import Dataset, RgdParams, sample
from rmnml.quadrature import integrate_1d


def random_point(rng: np.random.Generator, dim: int, max_radius: float = 2.0) -> hy.LorentzPoint:
    """Uniform-direction point at a random radius, built through the exp map."""
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    r = rng.uniform(0.0, max_radius)
    vec = np.zeros(dim + 1)
    vec[1:] = r * direction
    return hy.exp_map(hy.origin(dim), hy.TangentVector(hy.origin(dim), vec))


def random_dataset(rng: np.random.Generator, dim: int, n: int,
                   sigma: float = 1.0, mu_radius: float = 1.0) -> Dataset:
    mu = random_point(rng, dim, mu_radius)
    return sample(n, RgdParams(mu, sigma), seed=int(rng.integers(2**32)))


def log_ball_volume_oracle(dim: int, radius: float) -> float:
    """log vol of a geodesic ball in H^dim by adaptive Simpson in r.

    log |S^(D-1)| + (D-1) log sinh R + log of the integral over [0, R] of
    (sinh r / sinh R)^(D-1).  The log of the ratio is taken as
    (r - R) + log(expm1(-2r) / expm1(-2R)), which stays accurate to a few
    ulps at every radius, so the integrand's rounding does not grow with R.
    """
    def scaled(r):
        if dim == 1:
            return 1.0
        if r == 0.0:
            return 0.0
        return math.exp((dim - 1) * (r - radius + math.log(
            math.expm1(-2.0 * r) / math.expm1(-2.0 * radius))))

    return (hy.log_sphere_area(dim) + (dim - 1) * float(hy.log_sinh(radius))
            + math.log(integrate_1d(scaled, 0.0, radius, 1e-11)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
