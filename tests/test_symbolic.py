"""The linear theory derived once, symbolically, from the reaction terms.

The Jacobian at E1 comes from `model._reaction` by `sympy.Matrix.jacobian`, and the hand-written
mode cubic, Phi's coefficients b3...b0 and the competition cubic Q must equal, as polynomials, the
characteristic polynomials sympy derives from it. The rainfall is written as the one that puts E1 at
w* = W, so f* = zeta W / eta, v* = beta W / alpha and every quantity is rational in the symbols.
"""

import random
import types

import pytest

sympy = pytest.importorskip("sympy")

from fvw import stability  # noqa: E402
from fvw.model import _reaction, jacobian  # noqa: E402

al, be, ga, de, ep, et, ze, W, c, d, mu, lam, vs = sympy.symbols(
    "alpha beta gamma delta epsilon eta zeta W c d mu lambda varsigma", positive=True)
GAMMA = W * (de * be * W / al + ep)  # gamma = delta v* w* + epsilon w* at w* = W
P = types.SimpleNamespace(alpha=al, beta=be, gamma=GAMMA, delta=de, epsilon=ep, eta=et, zeta=ze, c=c, d=d)
E1 = (ze * W / et, be * W / al, W)


def upsilon_formula(gamma):
    """Upsilon = 2 beta gamma (delta - alpha) / D + epsilon with D = sqrt(alpha^2 eps^2 + 4 alpha beta delta gamma)
    + alpha eps, as `model._coexistence` computes it."""
    return 2 * be * gamma * (de - al) / denominator(gamma) + ep


def denominator(gamma):
    return sympy.sqrt(sympy.factor(al**2 * ep**2 + 4 * al * be * de * gamma)) + al * ep


def is_zero(expr) -> bool:
    return sympy.cancel(sympy.nsimplify(expr)) == 0


def char_poly(A):
    """(a2, a1, a0) of det(lambda I - A), a monic cubic in lambda."""
    one, a2, a1, a0 = A.charpoly(lam).all_coeffs()
    assert one == 1
    return a2, a1, a0


def reaction_jacobian(state):
    f, v, w = sympy.symbols("f v w")
    return sympy.Matrix(_reaction(P)(f, v, w)).jacobian([f, v, w]).subs(dict(zip((f, v, w), state)))


@pytest.fixture
def mode_matrix():
    """A(mu) = J(E1) - diag(c mu, 0, d mu), with J derived from the reaction terms."""
    return reaction_jacobian(E1) - sympy.diag(c * mu, 0, d * mu)


@pytest.fixture
def symbolic_e1(monkeypatch):
    """`stability` reads E1 and Upsilon from the closed forms above instead of the float `_coexistence`."""
    monkeypatch.setattr(stability, "_coexistence", lambda p: (*E1, upsilon_formula(GAMMA)))


def test_e1_is_the_coexistence_equilibrium():
    assert all(is_zero(r) for r in _reaction(P)(*E1))
    assert is_zero(2 * al * GAMMA / denominator(GAMMA) - W)  # model._coexistence's w* = 2 alpha gamma / D


def test_model_jacobian_is_the_derived_one():
    state = sympy.symbols("f v w")
    assert all(is_zero(x - y) for x, y in zip(sympy.Matrix(jacobian(state, P)), reaction_jacobian(state)))


def test_mode_cubic_is_the_characteristic_polynomial(symbolic_e1, mode_matrix):
    code = stability.dispersion_coefficients(P, mu)
    assert all(is_zero(x - y) for x, y in zip(code, char_poly(mode_matrix)))


def test_phi_is_the_hurwitz_gap(symbolic_e1, mode_matrix):
    a2, a1, a0 = char_poly(mode_matrix)
    derived = sympy.Poly(sympy.cancel(a1 * a2 - a0), mu).all_coeffs()
    assert len(derived) == 4
    assert all(is_zero(x - y) for x, y in zip(stability.phi_cubic(P), derived))


def test_competition_cubic_is_the_characteristic_polynomial(symbolic_e1, mode_matrix, monkeypatch):
    class Captured(Exception):
        pass

    def capture(q):
        raise Captured(q)

    # Q is built inline in competition_instability; stop it at its solve, past the checks that need floats.
    monkeypatch.setattr(stability, "_check_competition", lambda p, mu, varsigma: None)
    monkeypatch.setattr(stability, "_finite", lambda what, coeffs, *values: coeffs)
    monkeypatch.setattr(stability, "solve_cubic", capture)
    with pytest.raises(Captured) as exc:
        stability.competition_instability(P, mu, vs)
    L = mode_matrix + sympy.diag(0, vs, 0)  # competition_matrix: the vegetation diagonal shifted by varsigma
    assert all(is_zero(x - y) for x, y in zip(exc.value.args[0], char_poly(L)))


def test_upsilon_sign_is_the_critical_rainfall_inequality():
    """Upsilon < 0 exactly when sqrt(beta gamma) (alpha - delta) > alpha epsilon."""
    R = sympy.Symbol("R", positive=True)  # sqrt of D's radicand
    Y = sympy.Symbol("Y", nonnegative=True)  # delta - alpha where alpha <= delta
    radicand = al**2 * ep**2 + 4 * al * be * de * ga
    # Upsilon (alpha eps (alpha + delta) + (alpha - delta) R) = 2 (alpha^2 eps^2 - beta gamma (alpha - delta)^2),
    # checked on Upsilon D = 2 beta gamma (delta - alpha) + eps D as a polynomial in R modulo R^2 = radicand.
    identity = ((2 * be * ga * (de - al) + ep * (R + al * ep)) * (al * ep * (al + de) + (al - de) * R)
                - 2 * (al**2 * ep**2 - be * ga * (al - de)**2) * (R + al * ep))
    assert sympy.rem(sympy.expand(identity), R**2 - radicand, R) == 0
    assert is_zero(upsilon_formula(ga) * denominator(ga) - (2 * be * ga * (de - al) + ep * denominator(ga)))
    # With alpha > delta the conjugate factor is positive, so Upsilon < 0 iff beta gamma (alpha - delta)^2 >
    # alpha^2 eps^2, i.e. sqrt(beta gamma) (alpha - delta) > alpha eps; with alpha <= delta, Upsilon > 0 and
    # the left side is <= 0 < alpha eps.
    assert upsilon_formula(ga).subs(de, al + Y).is_positive


def test_upsilon_sign_at_exact_rational_rates():
    """The identity at exact rates, near the critical rainfall gamma_c = alpha^2 eps^2 / (beta (alpha - delta)^2)."""
    rng = random.Random(0)
    for _ in range(20):
        a, b, dl, e = (sympy.Rational(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(4))
        a += dl  # alpha > delta
        gamma_c = a**2 * e**2 / (b * (a - dl)**2)
        for gamma in gamma_c * (1 + sympy.Rational(1, 10**12)), gamma_c * (1 - sympy.Rational(1, 10**12)):
            ups = upsilon_formula(ga).subs({al: a, be: b, de: dl, ep: e, ga: gamma})
            assert bool(ups < 0) == bool(sympy.sqrt(b * gamma) * (a - dl) > a * e)
