import cmath
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fvw import (
    Classification,
    ModelParams,
    MonicCubic,
    RootSet,
    ValidationError,
    dispersion_coefficients,
    hurwitz_negative,
    imaginary_root_factorization,
    solve_cubic,
)
from fvw.cubic import _gap, _gap_verdict, _solve_cubics


def numpy_roots(p: MonicCubic):
    """Independent root oracle."""
    return np.roots([1.0, p.a2, p.a1, p.a0])


class TestSolveCubic:
    def test_triple_root(self):
        roots = solve_cubic(MonicCubic(3.0, 3.0, 1.0)).roots
        assert roots == (-1.0 + 0j, -1.0 + 0j, -1.0 + 0j)

    def test_imaginary_pair(self):
        roots = solve_cubic(MonicCubic(1.0, 1.0, 1.0)).roots
        assert roots[0] == pytest.approx(-1.0)
        assert roots[1] == pytest.approx(-1j)
        assert roots[2] == pytest.approx(1j)

    def test_cube_roots_of_eight(self):
        roots = solve_cubic(MonicCubic(0.0, 0.0, -8.0)).roots
        expected = sorted(
            (2.0 * cmath.exp(2j * cmath.pi * k / 3.0) for k in range(3)),
            key=lambda z: (z.real, z.imag),
        )
        for got, want in zip(roots, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            p = MonicCubic(*rng.uniform(-10.0, 10.0, size=3))
            for r in solve_cubic(p).roots:
                assert abs(p(r)) <= 1e-9 * (1.0 + abs(r) ** 3)

    def test_vieta_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            p = MonicCubic(*rng.uniform(-10.0, 10.0, size=3))
            r1, r2, r3 = solve_cubic(p).roots
            scale = 1.0 + max(abs(a) for a in p)
            assert abs((r1 + r2 + r3) + p.a2) <= 1e-9 * scale
            assert abs((r1 * r2 + r1 * r3 + r2 * r3) - p.a1) <= 1e-9 * scale
            assert abs(r1 * r2 * r3 + p.a0) <= 1e-9 * scale

    def test_conjugate_symmetry_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            p = MonicCubic(*rng.uniform(-5.0, 5.0, size=3))
            roots = solve_cubic(p).roots
            complex_roots = [r for r in roots if r.imag != 0.0]
            if complex_roots:
                a, b = complex_roots
                assert a == b.conjugate()

    def test_sorted_output(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            roots = solve_cubic(MonicCubic(*rng.uniform(-5.0, 5.0, size=3))).roots
            keys = [(r.real, r.imag) for r in roots]
            assert keys == sorted(keys)

    def test_near_multiple_root_accuracy(self):
        # (t - 1)^2 (t - 1 - 1e-7): closed form alone loses digits here.
        eps = 1e-7
        p = MonicCubic(-(3.0 + eps), 3.0 + 2.0 * eps, -(1.0 + eps))
        for r in solve_cubic(p).roots:
            assert abs(p(r)) <= 1e-9 * (1.0 + abs(r) ** 3)

    def test_double_root_largest_in_magnitude(self):
        # (t + 4)^2 (t + 1): the three-real-root start is the double root, where p and p' are
        # rounding noise and an unguarded Newton step leaves the root.
        roots = solve_cubic(MonicCubic(9.0, 24.0, 16.0)).roots
        for got, want in zip(roots, (-4.0, -4.0, -1.0)):
            assert abs(got - want) <= 1e-7

    def test_negative_radicand_from_rounding(self):
        # disc < 0, but r^2/4 + q^3/27 rounds below zero; the Cardano branch once raised "math domain error".
        p = MonicCubic(57259175.823853254, 2235031.1553130466, 4.296795412226111e-14)
        got = sorted(solve_cubic(p).roots, key=lambda z: (z.real, z.imag))
        want = sorted(numpy_roots(p), key=lambda z: (z.real, z.imag))
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9 * p.a2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            solve_cubic(MonicCubic(np.nan, 0.0, 0.0))

    def test_underflowing_trigonometric_start(self):
        # q * m underflows to 0 in the three-real-root start.
        roots = solve_cubic(MonicCubic(0.0, -1e-250, 0.0)).roots
        for got, want in zip(roots, (-1e-125, 0.0, 1e-125)):
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_coefficients_beyond_the_depressed_cubics_range(self):
        # q^3 and r^2 underflow here; the unscaled start once returned three zeros.
        roots = solve_cubic(MonicCubic(0.0, 0.0, -1e-200)).roots
        cbrt = 1e-200 ** (1.0 / 3.0)
        want = sorted((cbrt * cmath.exp(2j * cmath.pi * k / 3.0) for k in range(3)), key=lambda z: (z.real, z.imag))
        for got, w in zip(roots, want):
            assert got == pytest.approx(w, rel=1e-15)
        # (t + 1e200)(t^2 + 1e-200 t + 1e-200) up to rounding: a2**3 overflowed, and the small pair
        # underflows in the scaled cubic, so it must come from the original coefficients.
        roots = solve_cubic(MonicCubic(1e200, 1.0, 1.0)).roots
        for got, w in zip(roots, (-1e200, complex(-5e-201, -1e-100), complex(-5e-201, 1e-100))):
            assert got == pytest.approx(w, rel=1e-15)

    def test_real_root_far_below_a_complex_pair(self):
        # The start leaves the root 2.18e-149 an absolute error near 1e-17 and two Newton steps
        # only reach 2.7e-48; the product a0 / (r1 r2) from the large end is exact to rounding.
        p = MonicCubic(-0.6776707940746463, 0.18432050220911228, -4.0226945953892106e-150)
        with mpmath.workdps(60):
            want = sorted((complex(z) for z in mpmath.polyroots([1, *p], maxsteps=200, extraprec=400, cleanup=False)),
                          key=lambda z: (z.real, z.imag))
        for got, w in zip(solve_cubic(p).roots, want):
            assert got == pytest.approx(w, rel=1e-14)

    @given(logs=st.lists(st.floats(math.log(1e-100), math.log(1e100)), min_size=3, max_size=3),
           signs=st.lists(st.sampled_from((-1.0, 1.0)), min_size=3, max_size=3),
           angle=st.none() | st.floats(0.0, math.pi))
    def test_roots_across_the_float_range(self, logs, signs, angle):
        # Three real roots, or one real root and a conjugate pair at `angle`, of magnitudes in
        # [1e-100, 1e100]. The coefficients are built at 50 digits and rounded once, which moves
        # root r by about eps * kappa(r) relative; solve_cubic must stay within 4 eps (1 + kappa).
        with mpmath.workdps(50):
            roots = [mpmath.mpc(s * math.exp(x)) for s, x in zip(signs, logs)]
            if angle is not None:
                roots[1] = math.exp(logs[1]) * mpmath.expj(angle)
                roots[2] = mpmath.conj(roots[1])
            r1, r2, r3 = roots
            a = (-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3)
            p = MonicCubic(*(float(mpmath.re(x)) for x in a))
            kappa = []
            for i, r in enumerate(roots):
                dp = mpmath.fprod(r - s for j, s in enumerate(roots) if j != i)
                if dp == 0:
                    kappa.append(math.inf)  # a multiple root
                else:
                    kappa.append(float(sum(abs(x) * abs(r) ** (2 - k) for k, x in enumerate(a)) / (abs(r) * abs(dp))))
        got = solve_cubic(p).roots
        assert min(max(abs(g - complex(w)) / abs(complex(w)) - 4.0 * 2.0**-52 * (1.0 + k)
                       for g, w, k in zip(order, roots, kappa))
                   for order in itertools.permutations(got)) <= 0.0

    @given(draws=st.lists(st.floats(math.log(1e-6), math.log(1e6)).map(math.exp), min_size=10, max_size=10))
    @example(draws=[1.0, 1.0, 1.0, 1.0, math.exp(6), 1.0, 1.0, 1.0, math.exp(-10.5), math.exp(6)])  # kappa ~ 9e4
    def test_dispersion_roots_match_mpmath(self, draws):
        # Each root within 1e-12 + 4 eps kappa relative, kappa its condition number as in
        # test_roots_across_the_float_range: two close roots are only that well determined.
        names = ("alpha", "beta", "gamma", "delta", "epsilon", "eta", "zeta", "c", "d")
        poly = dispersion_coefficients(ModelParams(**dict(zip(names, draws))), draws[-1])
        got = solve_cubic(poly).roots
        with mpmath.workdps(60):
            roots = mpmath.polyroots([1, *poly], maxsteps=200, extraprec=200)
            kappa = [float(sum(abs(x) * abs(r) ** (2 - k) for k, x in enumerate(poly))
                           / (abs(r) * abs(mpmath.fprod(r - s for j, s in enumerate(roots) if j != i))))
                     for i, r in enumerate(roots)]
            want = [complex(z) for z in roots]
        assert min(max(abs(g - w) / abs(w) - 4.0 * 2.0**-52 * k for g, w, k in zip(order, want, kappa))
                   for order in itertools.permutations(got)) <= 1e-12
        verdict = _gap_verdict(poly, _gap(poly))
        if verdict is not Classification.NEUTRAL:
            assert (max(z.real for z in got) < 0.0) == (verdict is Classification.STABLE)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestArrayKernel:
    """_solve_cubics must give, row by row, the very bits of solve_cubic (compared by repr)."""

    @staticmethod
    def assert_rows_match(rows):
        a2, a1, a0 = np.array(rows, dtype=float).reshape(-1, 3).T
        got = _solve_cubics(a2, a1, a0)
        # Row by row, listing the rows that differ: a failing repr of all rows at once makes pytest diff two
        # long strings at every step of hypothesis's shrinking, for minutes.
        assert len(got) == len(rows)
        assert [row for row, r in zip(rows, got) if repr(r) != repr(solve_cubic(MonicCubic(*row)))] == []

    @pytest.mark.parametrize(
        "row",
        [
            (-6.0, 11.0, -6.0),  # three real roots 1, 2, 3
            (2.0, 1.0, 0.0),  # a0 = 0: the real root t = 0
            (9.0, 24.0, 16.0),  # the double root -4
            (3.0, 3.0, 1.0),  # the triple root -1
            (1.0, 1.0, 1.0),  # the pair +-i beside -1
            (-0.0, 0.0, -0.0),  # all roots signed zeros
            (0.0, 0.0, -8.0),  # one real root and a complex pair (Cardano)
            (1e200, 1.0, 1.0),  # |e| > 160: solve_cubic's scaled cubic
            (5e-324, 0.0, 0.0),  # |e| > 160 at the small end
            (-0.6776707940746463, 0.18432050220911228, -4.0226945953892106e-150),  # real root far below a pair
        ],
        ids=["three-real", "a0-zero", "double", "triple", "imaginary-pair", "signed-zeros", "cardano",
             "scaled-large", "scaled-small", "tiny-real-root"],
    )
    def test_fixed_rows(self, row):
        self.assert_rows_match([row])

    def test_solves_every_row_itself(self, monkeypatch):
        # Rows that solve_cubic scales (|e| > 160) take the array pass too: none goes to solve_cubic.
        rows = [(1e200, 1.0, 1.0), (-6.0, 11.0, -6.0), (5e-324, 0.0, 0.0), (1.0, 1.0, 1.0)]
        want = repr([solve_cubic(MonicCubic(*row)) for row in rows])

        def no_solve_cubic(p):
            raise AssertionError(f"solve_cubic called on {p}")

        monkeypatch.setattr("fvw.cubic.solve_cubic", no_solve_cubic)
        got = _solve_cubics(*np.array(rows).T)
        assert all(type(r) is RootSet for r in got)
        assert repr(got) == want

    def test_special_value_grid(self):
        # Every ordered triple of values at the edges of the float range and on both sides of each bound of
        # solve_cubic's scaling rule (|e| > 160 from 2^160, 2^320, 2^480 up and below 2^-161, 2^-322, 2^-483),
        # 46,656 rows in one call.
        bounds = [2.0**160, 2.0**320, 2.0**480, 2.0**-161, 2.0**-322, 2.0**-483]
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 3.0, -3.0, 1e-200, -1e-200, 1e154, -1e154,
                   6.7e102, -6.7e102, 1e200, -1e200, 1e300, -1e300, 6e307, -6e307, sys.float_info.max,
                   -sys.float_info.max, -(2.0**480), *bounds, *(math.nextafter(b, 0.0) for b in bounds)]
        self.assert_rows_match(list(itertools.product(special, repeat=3)))

    @pytest.mark.parametrize("k", [1, 2, 3], ids=["a2", "a1", "a0"])
    @pytest.mark.parametrize("bound", [160, -161], ids=["upper", "lower"])
    @pytest.mark.parametrize("side", ["unscaled", "scaled"])
    def test_both_sides_of_a_scaling_bound(self, k, bound, side):
        # solve_cubic scales a row iff some |a_k| >= 2^(160 k), or no |a_k| >= 2^(-161 k) in a nonzero row. Here
        # |a_k| lies in the binade on one side of its bound and the other coefficients within 4 binades inside
        # theirs, so all rows are on that side; the binade's two ends are also solved on their own. Past a bound
        # about one row in ten loses bits when solved unscaled (Cardano's cube root is pow(|u|, 1/3), which
        # scaling does not commute with), so the kernel's scaling rule fails here if it moves by one binade
        # or one ulp, or if a row's scaling depends on the other rows of the call.
        rng = np.random.default_rng([k, bound + 200, len(side)])
        past = side == "scaled"
        edge = bound * k + (past - 1 if bound > 0 else -past)  # |a_k| in the binade [2^edge, 2^(edge + 1))
        exponents = [edge + rng.uniform(0.0, 1.0, 600) if j == k else bound * j - 4.0 + rng.uniform(0.0, 4.0, 600)
                     for j in (1, 2, 3)]
        rows = rng.choice([-1.0, 1.0], (3, 600)) * np.exp2(exponents)
        rows[k - 1, :100] = np.copysign(2.0**edge, rows[k - 1, :100])
        rows[k - 1, 100:200] = np.copysign(math.nextafter(2.0 ** (edge + 1), 0.0), rows[k - 1, 100:200])
        rows = rows.T.tolist()
        assert {abs(max(-(-math.frexp(a)[1] // j) for j, a in enumerate(row, 1))) > 160 for row in rows} == {past}
        for part in (rows[:100], rows[100:200], rows, [*rows, (-6.0, 11.0, -6.0)]):  # the last beside an unscaled row
            self.assert_rows_match(part)

    def test_many_rows_across_the_float_range(self):
        # 50,000 seeded rows in one call: magnitudes log-uniform in [1e-300, 1e300], random signs, one in ten zero.
        rng = np.random.default_rng(16)
        rows = rng.choice([-1.0, 1.0], (50_000, 3)) * 10.0 ** rng.uniform(-300.0, 300.0, (50_000, 3))
        rows[rng.random(rows.shape) < 0.1] = 0.0
        self.assert_rows_match(rows.tolist())

    @given(rows=st.lists(st.tuples(FINITE, FINITE, FINITE), max_size=40))
    def test_matches_solve_cubic_across_the_float_range(self, rows):
        self.assert_rows_match(rows)

    @given(roots=st.lists(st.tuples(*[st.integers(-8, 8).map(float)] * 3), min_size=1, max_size=40))
    def test_repeated_integer_roots(self, roots):
        # Small integer roots repeat often: double and triple roots, and exact zeros.
        self.assert_rows_match([(-(r + s + u), r * s + r * u + s * u, -r * s * u) for r, s, u in roots])


class TestHurwitz:
    def test_strictly_negative(self):
        assert hurwitz_negative(MonicCubic(3.0, 3.0, 1.0)) is Classification.STABLE

    def test_marginal(self):
        assert hurwitz_negative(MonicCubic(1.0, 1.0, 1.0)) is Classification.NEUTRAL

    def test_nonnegative_real_part(self):
        # Oracle: numpy finds a conjugate pair with positive real part.
        p = MonicCubic(1.0, 2.0, 5.0)
        assert max(numpy_roots(p).real) > 0
        assert hurwitz_negative(p) is Classification.UNSTABLE

    @pytest.mark.parametrize("coeffs", [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, -1.0)])
    def test_hypothesis_violation(self, coeffs):
        with pytest.raises(ValidationError, match=r"^hurwitz_negative requires positive coefficients, got "):
            hurwitz_negative(MonicCubic(*coeffs))

    def test_agrees_with_root_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10_000):
            p = MonicCubic(*np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=3)))
            gap = p.a1 * p.a2 - p.a0
            if abs(gap) < 1e-9 * (1.0 + abs(p.a1 * p.a2) + abs(p.a0)):
                continue
            verdict = hurwitz_negative(p)
            max_re = max(numpy_roots(p).real)
            if verdict is Classification.STABLE:
                assert max_re < 0
            else:
                assert max_re >= -1e-12 * (1.0 + abs(max_re))


class TestImaginaryRootFactorization:
    def test_unit_example(self):
        fact = imaginary_root_factorization(MonicCubic(1.0, 1.0, 1.0))
        assert fact is not None
        assert fact.sigma == pytest.approx(1.0)
        assert fact.real_root == pytest.approx(-1.0)

    def test_expanded_example(self):
        fact = imaginary_root_factorization(MonicCubic(2.0, 4.0, 8.0))
        assert fact is not None
        assert fact.sigma == pytest.approx(2.0)
        assert fact.real_root == pytest.approx(-2.0)

    def test_requires_positive_a1(self):
        assert imaginary_root_factorization(MonicCubic(1.0, -1.0, -1.0)) is None

    def test_requires_marginality(self):
        assert imaginary_root_factorization(MonicCubic(3.0, 3.0, 1.0)) is None

    def test_marginal_gap_with_a_large_residual(self):
        # The gap a1 a2 - a0 = -1e-4 lies inside the marginal band at this scale, and |p(i)| = 1e-4 is that gap.
        # mpmath gives the roots -1e6 and 5.0e-17 +- 1.00000000005i: the pair is imaginary, and sigma = sqrt(a1)
        # = 1 is off its imaginary part by gap / (2 a2), as the band lets a factorization be.
        p = MonicCubic(1e6, 1.0, 1e6 + 1e-4)
        assert hurwitz_negative(p) is Classification.NEUTRAL
        fact = imaginary_root_factorization(p)
        assert fact is not None
        with mpmath.workdps(60):
            roots = mpmath.polyroots([1, *map(mpmath.mpf, p)], maxsteps=200, extraprec=200)
            pair = max(roots, key=lambda z: mpmath.im(z))
            real = min(roots, key=lambda z: abs(mpmath.im(z)))
            assert abs(mpmath.re(pair)) < 1e-9 * fact.sigma
            assert abs(fact.sigma - mpmath.im(pair)) <= 1e-10 * fact.sigma
            assert abs(fact.real_root - mpmath.re(real)) <= 1e-15 * abs(fact.real_root)

    def test_overflowing_band(self):
        # a1 a2 overflows, so the band is inf and _gap_verdict calls every gap NEUTRAL; the three roots of
        # t^3 + 1e200 t^2 + 1e200 t + 1 are real and negative, so there is no imaginary pair.
        p = MonicCubic(1e200, 1e200, 1.0)
        assert _gap_verdict(p, _gap(p)) is Classification.NEUTRAL
        assert all(r.imag == 0.0 and r.real < 0.0 for r in solve_cubic(p).roots)
        assert imaginary_root_factorization(p) is None

    def test_agrees_with_root_oracle(self):
        rng = np.random.default_rng(29)
        hits = 0
        for _ in range(10_000):
            if rng.uniform() < 0.5:
                p = MonicCubic(*rng.uniform(-3.0, 3.0, size=3))
            else:
                # Construct exact factorizations (t^2 + a1)(t + a2) half the time
                # so the nonempty branch is actually exercised.
                a2, a1 = rng.uniform(0.1, 3.0, size=2)
                p = MonicCubic(a2, a1, a1 * a2)
            fact = imaginary_root_factorization(p)
            roots = numpy_roots(p)
            has_imag = any(abs(r.real) <= 1e-7 and abs(r.imag) >= 1e-7 for r in roots)
            if fact is not None:
                hits += 1
                assert has_imag
            elif has_imag:
                # Outside the tolerance band this must not happen.
                assert abs(p.a1 * p.a2 - p.a0) <= 1e-6 * (1.0 + abs(p.a1 * p.a2) + abs(p.a0))
        assert hits > 1000
