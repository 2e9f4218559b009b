import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvw import (
    ModelParams,
    NumericalFailure,
    State,
    ValidationError,
    all_ones,
    coexistence_state,
    equilibria,
    jacobian,
    reaction_rhs,
    upsilon,
)

from conftest import random_rates


def bisect_positive_root(fun, lo, hi, tol=1e-14):
    """Sign-change bisection, used as the independent oracle for w*."""
    assert fun(lo) < 0 < fun(hi)
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if fun(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fd_jacobian(s, p, step=1e-6):
    out = np.empty((3, 3))
    base = np.asarray(s, dtype=float)
    for j in range(3):
        plus, minus = base.copy(), base.copy()
        plus[j] += step
        minus[j] -= step
        out[:, j] = (
            np.asarray(reaction_rhs(State(*plus), p)) - np.asarray(reaction_rhs(State(*minus), p))
        ) / (2 * step)
    return out


class TestEquilibria:
    def test_trivial_equilibrium_all_ones(self):
        e0, _ = equilibria(all_ones())
        assert e0.label == "trivial"
        assert e0.point == State(0.0, 0.0, 1.0)
        assert reaction_rhs(e0.point, all_ones()) == State(0.0, 0.0, 0.0)

    def test_coexistence_all_ones_matches_bisection_oracle(self):
        # w* is the positive root of beta*delta*w^2 + alpha*eps*w - alpha*gamma.
        w_oracle = bisect_positive_root(lambda w: w * w + w - 1.0, 0.0, 1.0)
        _, e1 = equilibria(all_ones())
        assert e1.point.w == pytest.approx(w_oracle, abs=1e-12)
        assert e1.point.w == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-14)
        assert e1.point.f == pytest.approx(e1.point.w)
        assert e1.point.v == pytest.approx(e1.point.w)

    def test_coexistence_is_fixed_point(self):
        p = all_ones()
        resid = reaction_rhs(coexistence_state(p), p)
        assert max(abs(r) for r in resid) < 1e-12

    def test_small_rainfall_limit(self):
        p = all_ones(gamma=1e-12)
        _, e1 = equilibria(p)
        assert all(0 < comp < 1e-5 for comp in e1.point)

    def test_positivity_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            _, e1 = equilibria(random_rates(rng))
            assert all(comp > 0 for comp in e1.point)

    def test_fixed_point_property_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = random_rates(rng)
            e1 = coexistence_state(p)
            resid = np.linalg.norm(reaction_rhs(e1, p))
            assert resid <= 1e-9 * (1.0 + np.linalg.norm(e1))

    @settings(max_examples=200)
    @given(logs=st.lists(st.floats(math.log(1e-300), math.log(1e300)), min_size=7, max_size=7))
    @example(logs=[math.log(1e-100)] * 7)  # alpha^2 eps^2 and 4 alpha beta delta gamma underflow to 0
    # D itself below the normal range, D past 1.8e308, and Upsilon where v* is subnormal and 2 beta gamma is 0.
    @example(logs=[math.log(x) for x in (2.0e-164, 8.8e-226, 6.5e-281, 100.0, 7.6e-227, 6.1e-195, 1.9e216)])
    @example(logs=[math.log(x) for x in (1e76, 2.5e186, 2.5e157, 1.7e272, 1.2e-260, 3.1e-70, 5.9e269)])
    @example(logs=[math.log(x) for x in (4.6e-52, 2.9e-295, 1.5e-122, 2.1e269, 1.4e-114, 8.0e-69, 7.4e284)])
    def test_coexistence_matches_mpmath(self, logs):
        # E1 and Upsilon from one denominator D = sqrt(alpha^2 eps^2 + 4 alpha beta delta gamma) + alpha eps,
        # with the seven rates log-uniform in [1e-300, 1e300]: the values mpmath gives at 50 digits, or a
        # NumericalFailure only where mpmath's E1 or Upsilon lies outside the normal float range.
        p = ModelParams(*map(math.exp, logs))
        with mpmath.workdps(50):
            alpha, beta, gamma, delta, eps, eta, zeta = map(mpmath.mpf, (p.alpha, p.beta, p.gamma, p.delta,
                                                                         p.epsilon, p.eta, p.zeta))
            den = mpmath.sqrt(alpha**2 * eps**2 + 4 * alpha * beta * delta * gamma) + alpha * eps
            w = 2 * alpha * gamma / den
            e1 = (zeta * w / eta, beta * w / alpha, w)
            in_range = all(sys.float_info.min <= x <= sys.float_info.max for x in e1)
            want, want_ups = [float(x) for x in e1], float(2 * beta * gamma * (delta - alpha) / den + eps)
        # A subnormal f* or v* is held to within one subnormal ulp, math.ulp(0.0).
        try:
            assert list(coexistence_state(p)) == pytest.approx(want, rel=1e-12, abs=math.ulp(0.0))
        except NumericalFailure:
            assert not in_range
        try:
            ups = upsilon(p)
        except NumericalFailure:
            assert not (in_range and math.isfinite(want_ups))
            return
        assert abs(ups - want_ups) <= 1e-9 * (abs(want_ups) + p.epsilon)


class TestReactionRhs:
    def test_hand_substitution(self):
        assert reaction_rhs(State(1.0, 1.0, 0.0), all_ones()) == State(1.0, -1.0, 1.0)

    def test_trivial_point(self):
        assert reaction_rhs(State(0.0, 0.0, 1.0), all_ones()) == State(0.0, 0.0, 0.0)


class TestJacobian:
    def test_at_trivial_equilibrium(self):
        e0, _ = equilibria(all_ones())
        J = jacobian(e0.point, all_ones())
        expected = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, -1.0]])
        assert np.allclose(J, expected, atol=1e-14)

    def test_at_origin(self):
        J = jacobian(State(0.0, 0.0, 0.0), all_ones())
        expected = np.zeros((3, 3))
        expected[2, 2] = -1.0
        assert np.array_equal(J, expected)

    def test_coexistence_jacobian_structure(self):
        p = all_ones()
        s = coexistence_state(p)
        J = jacobian(s, p)
        # At E1 the first two diagonal entries vanish and the (3,1) entry is 0.
        assert abs(J[0, 0]) < 1e-14
        assert abs(J[1, 1]) < 1e-14
        assert J[2, 0] == 0.0
        assert J[2, 2] == pytest.approx(-p.delta * s.v - p.epsilon)

    def test_against_finite_differences_unstable_params(self, unstable_params):
        s = coexistence_state(unstable_params)
        assert np.allclose(jacobian(s, unstable_params), fd_jacobian(s, unstable_params), atol=1e-6)

    def test_against_finite_differences_random_states(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = random_rates(rng, low=0.1, high=10.0)
            s = State(*rng.uniform(0.1, 3.0, size=3))
            J = jacobian(s, p)
            J_fd = fd_jacobian(s, p)
            scale = np.abs(J).max() + 1.0
            assert np.abs(J - J_fd).max() <= 1e-5 * scale


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_rates(self, bad):
        with pytest.raises(ValidationError):
            all_ones(alpha=bad)

    def test_rejects_negative_diffusion(self):
        with pytest.raises(ValidationError):
            all_ones(c=-0.5)

    def test_zero_diffusion_allowed(self):
        p = all_ones(c=0.0, d=0.0)
        assert p.c == 0.0 and p.d == 0.0

    def test_params_are_immutable(self):
        p = all_ones()
        with pytest.raises(AttributeError):
            p.alpha = 2.0
