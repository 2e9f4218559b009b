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
