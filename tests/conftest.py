import mpmath
import numpy as np
import pytest
from hypothesis import settings

from fvw import ModelParams, all_ones

# Property tests draw the same examples on every run and are not timed per example.
settings.register_profile("fvw", derandomize=True, deadline=None, database=None, max_examples=20)
settings.load_profile("fvw")


@pytest.fixture
def unstable_params() -> ModelParams:
    """Parameter set with an unstable coexistence equilibrium (Upsilon < 0)."""
    return ModelParams(alpha=2.0, beta=1.0, gamma=1.0, delta=1.0,
                       epsilon=0.1, eta=1.0, zeta=1.0)


@pytest.fixture
def unstable_diffusive_params(unstable_params) -> ModelParams:
    return ModelParams(**{**vars_dict(unstable_params), "c": 1.0, "d": 1.0})


def vars_dict(p: ModelParams) -> dict:
    return {name: getattr(p, name)
            for name in ("alpha", "beta", "gamma", "delta", "epsilon", "eta", "zeta", "c", "d")}


def random_rates(rng: np.random.Generator, low=1e-2, high=1e2, **extra) -> ModelParams:
    """Log-uniform draw of the seven reaction rates."""
    draws = np.exp(rng.uniform(np.log(low), np.log(high), size=7))
    names = ("alpha", "beta", "gamma", "delta", "epsilon", "eta", "zeta")
    return ModelParams(**dict(zip(names, draws)), **extra)


@pytest.fixture
def ones() -> ModelParams:
    return all_ones()


def mp_mode_matrix(p: ModelParams, mu: float) -> mpmath.matrix:
    """Oracle A(mu) at mpmath's working precision, from the rates alone: E1 in closed form and the reaction
    diagonal's first two entries, alpha v* - beta w* and zeta w* - eta f*, set to the zeros they are at E1."""
    al, be, ga, de, ep, et, ze, c, d = (mpmath.mpf(value) for value in vars_dict(p).values())
    w = 2 * al * ga / (mpmath.sqrt(al**2 * ep**2 + 4 * al * be * de * ga) + al * ep)
    f, v, mu = ze * w / et, be * w / al, mpmath.mpf(mu)
    return mpmath.matrix([[-c * mu, al * f, -be * f],
                          [-et * v, 0, ze * v],
                          [0, -de * w, -de * v - ep - d * mu]])
