import cmath

import numpy as np
import pytest

from fvw import (
    HypothesisViolated,
    MonicCubic,
    Verdict,
    hurwitz_negative,
    imaginary_root_factorization,
    solve_cubic,
)


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

    def test_negative_radicand_from_rounding(self):
        # disc < 0, but r^2/4 + q^3/27 rounds below zero; the Cardano branch once raised "math domain error".
        p = MonicCubic(57259175.823853254, 2235031.1553130466, 4.296795412226111e-14)
        got = sorted(solve_cubic(p).roots, key=lambda z: (z.real, z.imag))
        want = sorted(numpy_roots(p), key=lambda z: (z.real, z.imag))
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9 * p.a2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            solve_cubic(MonicCubic(np.nan, 0.0, 0.0))


class TestHurwitz:
    def test_strictly_negative(self):
        assert hurwitz_negative(MonicCubic(3.0, 3.0, 1.0)) is Verdict.ALL_NEGATIVE_REAL_PART

    def test_marginal(self):
        assert hurwitz_negative(MonicCubic(1.0, 1.0, 1.0)) is Verdict.MARGINAL

    def test_nonnegative_real_part(self):
        # Oracle: numpy finds a conjugate pair with positive real part.
        p = MonicCubic(1.0, 2.0, 5.0)
        assert max(numpy_roots(p).real) > 0
        assert hurwitz_negative(p) is Verdict.HAS_NONNEGATIVE_REAL_PART

    @pytest.mark.parametrize("coeffs", [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, -1.0)])
    def test_hypothesis_violation(self, coeffs):
        with pytest.raises(HypothesisViolated):
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
            if verdict is Verdict.ALL_NEGATIVE_REAL_PART:
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
